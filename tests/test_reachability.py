"""Every function, class and method of the package is reached from a root,
and every defaulted parameter of a reached function is set by one.

The roots are what a user or a check can run: the module-level statements
of each package module (imports aside, so that a re-export in
``__init__`` reaches nothing), the CLI's ``main`` and its ``cmd_*``
commands, every name the benchmark under ``perfbench/`` mentions, in its
code or in a string, and every name the acceptance suite imports from the
package.  A definition is reached when a reached one mentions its name,
as a variable or as an attribute; a method (a non-dunder function or class
in a class body) is also reached when the acceptance suite mentions its
name, as an attribute or as a name it does not bind locally.  A reached
class reaches its bases, its decorators, its dunder methods and its
class-level statements, but not its other methods: each of those must be
reached by name.  Names are matched without their
module or class, so the walk errs towards keeping a definition.  Inside a
function, lambda or comprehension a bare name that the scope binds itself
(a parameter, an assignment, loop or comprehension target, a nested def)
is its own variable and reaches nothing; an attribute always reaches.

A defaulted parameter is set when a root call of its function's name (in
the package's module-level statements, a reached definition, the benchmark
or the acceptance suite) passes it by keyword, by position (after ``self``
or ``cls`` for a method called as an attribute) or through ``*``/``**``.
A function that a root passes as a value, or that a string under
``perfbench/`` names, counts as having every parameter set.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _binds(scope):
    """The names a function, lambda or comprehension binds in its own scope."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        out = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
               if arg is not None}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        out, todo = set(), [gen.target for gen in scope.generators]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
            continue  # a nested scope binds for itself
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        if not isinstance(node, _SCOPES[2:]):
            todo.extend(ast.iter_child_nodes(node))
    return out


class _Uses(ast.NodeVisitor):
    """What a node mentions, calls and passes as a value, leaving out local variables.

    names: the identifiers it mentions as names or attributes (and, with
    strings, the words in its strings); values: those of them used other
    than as the function of a call; calls: (name, positional count,
    keywords, star) for each call of a name or an attribute.
    """

    def __init__(self, strings=False):
        self.names, self.values, self.calls = set(), set(), []
        self.strings, self._local = strings, frozenset()

    def generic_visit(self, node):
        if not isinstance(node, _SCOPES):
            return super().generic_visit(node)
        outer, self._local = self._local, self._local | _binds(node)
        super().generic_visit(node)
        self._local = outer

    def _callee(self, func):
        """The name a call's function is matched by, or None for a local or an expression."""
        if isinstance(func, ast.Name) and func.id not in self._local:
            self.names.add(func.id)
            return func.id
        if isinstance(func, ast.Attribute):
            self.names.add(func.attr)
            self.visit(func.value)
            return func.attr
        if not isinstance(func, ast.Name):
            self.visit(func)
        return None

    def visit_Call(self, node):
        name = self._callee(node.func)
        if name is not None:
            star = (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords))
            self.calls.append((name, len(node.args), {kw.arg for kw in node.keywords}, star))
        for child in node.args + node.keywords:
            self.visit(child)

    def visit_Name(self, node):
        if node.id not in self._local:
            self.names.add(node.id)
            self.values.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.values.add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str):
            words = re.findall(r"[A-Za-z_]\w*", node.value)
            self.names.update(words)
            self.values.update(words)


def _uses(*nodes, strings=False):
    uses = _Uses(strings)
    for node in nodes:
        uses.visit(node)
    return uses


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_method(node):
    return _is_def(node) and not (node.name.startswith("__") and node.name.endswith("__"))


def _parts(node):
    """The parts a reached definition reaches through: a class leaves out its methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [part for part in node.bases + node.keywords + node.decorator_list + node.body
            if not _is_method(part)]


def _scan(root):
    """(defs, reached labels, what the roots and reached definitions use) of a checkout.

    defs maps a name to its [(label, node, is a method)].
    """
    root = pathlib.Path(root)
    defs, statements = {}, []
    for path in sorted((root / "src" / "ncprob").glob("*.py")):
        for node in _parse(path).body:
            if _is_def(node):
                label = f"{path.stem}.{node.name}"
                defs.setdefault(node.name, []).append((label, node, False))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if _is_method(sub):
                        defs.setdefault(sub.name, []).append((f"{label}.{sub.name}", sub, True))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append(node)
    uses = _uses(*statements)
    uses.names |= {"main"} | {name for name in defs if name.startswith("cmd_")}
    bench = _uses(*(_parse(path) for path in sorted((root / "perfbench").glob("*.py"))),
                  strings=True)
    acceptance = _parse(root / "tests" / "test_acceptance.py")
    tests = _uses(acceptance)
    imported = {alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncprob")
                for alias in node.names}
    for other in (bench, tests):
        uses.values |= other.values
        uses.calls += other.calls
    todo = [entry for name in (uses.names | bench.names | imported) & defs.keys()
            for entry in defs[name]]
    todo += [entry for name in tests.names & defs.keys() for entry in defs[name] if entry[2]]
    reached = set()
    while todo:
        label, node, _ = todo.pop()
        if label in reached:
            continue
        reached.add(label)
        found = _uses(*_parts(node))
        uses.values |= found.values
        uses.calls += found.calls
        for name in found.names & defs.keys():
            todo.extend(entry for entry in defs[name] if entry[0] not in reached)
    return defs, reached, uses


def unreached(root=ROOT):
    """The 'module.name' or 'module.Class.name' of each definition no root reaches.

    root is a checkout: the package under ``src/ncprob``, the benchmark
    under ``perfbench`` and the acceptance suite ``tests/test_acceptance.py``.
    """
    defs, reached, _ = _scan(root)
    return sorted(label for entries in defs.values() for label, _, _ in entries
                  if label not in reached)


def unset_parameters(root=ROOT):
    """'label(parameter)' for each defaulted parameter of a reached function that no root sets."""
    defs, reached, uses = _scan(root)
    out = []
    for name, entries in defs.items():
        if name in uses.values:
            continue
        calls = [call for call in uses.calls if call[0] == name]
        for label, node, method in entries:
            if label not in reached or isinstance(node, ast.ClassDef):
                continue
            params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
            first = len(params) - len(node.args.defaults)
            for index, param in enumerate(params[first:], first):
                # a method's self or cls is bound by the attribute it is called through
                if not any(star or param in keywords or method <= index < method + count
                           for _, count, keywords, star in calls):
                    out.append(f"{label}({param})")
    return sorted(out)


def test_every_definition_is_reached_from_a_root():
    dead = unreached()
    assert not dead, f"{len(dead)} definitions no command, benchmark or acceptance test reaches: " \
                     + ", ".join(dead)


def test_every_defaulted_parameter_is_set_by_a_root():
    fixed = unset_parameters()
    assert not fixed, f"{len(fixed)} defaulted parameters no root call sets: " + ", ".join(fixed)


def _tree(tmp_path, module, acceptance):
    """A checkout holding one package module, an empty benchmark and an acceptance suite."""
    package = tmp_path / "src" / "ncprob"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(module, encoding="utf-8")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(acceptance, encoding="utf-8")
    return tmp_path


def test_the_scan_names_a_method_nothing_mentions(tmp_path):
    root = _tree(tmp_path,
                 "class Square:\n"
                 "    side = 2.0\n\n"
                 "    def __init__(self):\n"
                 "        self.corners = 4\n\n"
                 "    def area(self):\n"
                 "        return self.side * self.side\n\n"
                 "    def perimeter(self):\n"
                 "        return 4.0 * self.side\n",
                 "from ncprob.shapes import Square\n\n\n"
                 "def test_area():\n"
                 "    perimeter = 8.0\n"
                 "    assert Square().area() * perimeter == 32.0\n")
    # the test's local perimeter is its own variable, not the method
    assert unreached(root) == ["shapes.Square.perimeter"]


def test_the_scan_skips_local_names_and_names_parameters_no_root_sets(tmp_path):
    root = _tree(tmp_path,
                 "def scale(x, factor=2.0):\n"
                 "    return factor * x\n\n\n"
                 "def shift(x, back=False):\n"
                 "    return x - 1.0 if back else x + 1.0\n\n\n"
                 "def clip(x, lo=0.0, hi=1.0):\n"
                 "    return min(max(x, lo), hi)\n\n\n"
                 "def apply(f, x, times=1):\n"
                 "    for _ in range(times):\n"
                 "        x = f(x)\n"
                 "    return x\n\n\n"
                 "def double(x):\n"
                 "    return 2.0 * x\n\n\n"
                 "def rescale(x):\n"
                 "    double = 2.0\n"
                 "    return shift(scale(x), back=True) * double\n",
                 "from ncprob.shapes import apply, clip, rescale\n\n\n"
                 "def test_it():\n"
                 "    assert apply(clip, rescale(0.5), 1) == 0.0\n")
    # rescale's local double reaches no def double; back is set by keyword, times by
    # position, and clip's lo and hi because clip is passed as a value; factor is not set
    assert unreached(root) == ["shapes.double"]
    assert unset_parameters(root) == ["shapes.scale(factor)"]
