"""The package exports only what the program itself uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zonotiling"


def _names(path):
    """The identifiers a file uses, binds or names in a string literal."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_export_is_used_outside_its_module():
    # a name that only the tests call belongs to the tests, not the package
    users = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    init = PACKAGE / "__init__.py"
    unused = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            home = PACKAGE / f"{node.module}.py"
            others = set().union(*(_names(p) for p in users if p not in (init, home)))
            unused += [alias.name for alias in node.names if alias.name not in others]
    assert unused == []
