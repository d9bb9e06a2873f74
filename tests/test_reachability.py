"""Every top-level function and class of the package is reached from a root.

The roots are what a user or a check can run: the module-level statements
of each package module (imports aside, so that a re-export in
``__init__`` reaches nothing), the CLI's ``main`` and its ``cmd_*``
commands, every name the benchmark under ``perfbench/`` mentions, in its
code or in a string, and every name the acceptance suite imports from the
package.  A definition is reached when a reached one mentions its name,
as a variable or as an attribute.  Names are matched without their module,
so the walk errs towards keeping a definition.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncprob"


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


def unreached():
    """The 'module.name' of each top-level definition no root reaches."""
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    roots |= {"main"} | {name for name in defs if name.startswith("cmd_")}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _mentions(_parse(path), strings=True)
    for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncprob"):
            roots |= {alias.name for alias in node.names}
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in _mentions(node) if n in defs and n not in reached)
    return sorted(f"{module}.{name}" for name, nodes in defs.items() if name not in reached
                  for module, _ in nodes)


def test_every_definition_is_reached_from_a_root():
    dead = unreached()
    assert not dead, f"{len(dead)} definitions no command, benchmark or acceptance test reaches: " \
                     + ", ".join(dead)
