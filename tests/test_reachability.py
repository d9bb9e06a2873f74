"""Every function, class and method of the package is reached from a root.

The roots are what a user or a check can run: the module-level statements
of each package module (imports aside, so that a re-export in
``__init__`` reaches nothing), the CLI's ``main`` and its ``cmd_*``
commands, every name the benchmark under ``perfbench/`` mentions, in its
code or in a string, and every name the acceptance suite imports from the
package.  A definition is reached when a reached one mentions its name,
as a variable or as an attribute; a method (a non-dunder function or class
in a class body) is also reached when the acceptance suite mentions its
name anywhere.  A reached class reaches its bases, its decorators, its
dunder methods and its class-level statements, but not its other methods:
each of those must be reached by name.  Names are matched without their
module or class, so the walk errs towards keeping a definition.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _mentions(node, strings=False):
    """The identifiers node mentions as names or attributes, and with strings, words in strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_method(node):
    return _is_def(node) and not (node.name.startswith("__") and node.name.endswith("__"))


def _reaches(node):
    """The names a reached definition mentions: a class leaves out its methods."""
    if not isinstance(node, ast.ClassDef):
        return _mentions(node)
    parts = node.bases + node.keywords + node.decorator_list + node.body
    return set().union(*(_mentions(part) for part in parts if not _is_method(part)))


def unreached(root=ROOT):
    """The 'module.name' or 'module.Class.name' of each definition no root reaches.

    root is a checkout: the package under ``src/ncprob``, the benchmark
    under ``perfbench`` and the acceptance suite ``tests/test_acceptance.py``.
    """
    root = pathlib.Path(root)
    defs, roots = {}, set()  # name -> [(label, node, is a method)]
    for path in sorted((root / "src" / "ncprob").glob("*.py")):
        for node in _parse(path).body:
            if _is_def(node):
                label = f"{path.stem}.{node.name}"
                defs.setdefault(node.name, []).append((label, node, False))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if _is_method(sub):
                        defs.setdefault(sub.name, []).append((f"{label}.{sub.name}", sub, True))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    roots |= {"main"} | {name for name in defs if name.startswith("cmd_")}
    for path in sorted((root / "perfbench").glob("*.py")):
        roots |= _mentions(_parse(path), strings=True)
    acceptance = _parse(root / "tests" / "test_acceptance.py")
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncprob"):
            roots |= {alias.name for alias in node.names}
    todo = [entry for name in roots & defs.keys() for entry in defs[name]]
    todo += [entry for name in _mentions(acceptance) & defs.keys() for entry in defs[name]
             if entry[2]]
    reached = set()
    while todo:
        label, node, _ = todo.pop()
        if label in reached:
            continue
        reached.add(label)
        for name in _reaches(node) & defs.keys():
            todo.extend(entry for entry in defs[name] if entry[0] not in reached)
    return sorted(label for entries in defs.values() for label, _, _ in entries
                  if label not in reached)


def test_every_definition_is_reached_from_a_root():
    dead = unreached()
    assert not dead, f"{len(dead)} definitions no command, benchmark or acceptance test reaches: " \
                     + ", ".join(dead)


def test_the_scan_names_a_method_nothing_mentions(tmp_path):
    package = tmp_path / "src" / "ncprob"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(
        "class Square:\n"
        "    side = 2.0\n\n"
        "    def __init__(self):\n"
        "        self.corners = 4\n\n"
        "    def area(self):\n"
        "        return self.side * self.side\n\n"
        "    def perimeter(self):\n"
        "        return 4.0 * self.side\n", encoding="utf-8")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from ncprob.shapes import Square\n\n\n"
        "def test_area():\n"
        "    assert Square().area() == 4.0\n", encoding="utf-8")
    assert unreached(tmp_path) == ["shapes.Square.perimeter"]
