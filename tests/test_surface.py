"""Every name the package defines or imports is used inside the package.

Scans src/qglk with ast: each module-level function and class must be
referenced by name (an ast.Name or an ast.Attribute) somewhere in src/,
and each method of a module-level class other than dunders through an
attribute (an ast.Attribute): a bare name such as a local variable that
happens to share the method's name does not call it.  A helper that only
tests call belongs in tests/, not in the package.  Each name a module
imports at module level must be referenced (an ast.Name) in that module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qglk"

# (module, qualified name): the package surface whose callers live outside src/
OUTSIDE_CALLERS = (
    ("fm", "find_intertwiner"),  # the README quick tour
    ("grassmann", "Space"),  # the localize-n6 benchmark workload
    ("grassmann", "Space.pushforward_det_tau_power"),  # the localize-n6 workload
    ("report", "Report.failures"),  # the reporting API, read throughout tests/
)


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(trees):
    """(module, qualified name, bare name) of every checked definition."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield module, f"{node.name}.{item.name}", item.name


def _referenced(trees):
    """The bare names and the attribute names referenced in src/."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_definition_has_a_caller_in_src():
    trees = _trees()
    names, attributes = _referenced(trees)
    unused = [
        (module, qualname)
        for module, qualname, name in _definitions(trees)
        if name not in (attributes if "." in qualname else names | attributes)
        and (module, qualname) not in OUTSIDE_CALLERS
    ]
    assert unused == []


def test_outside_callers_are_still_defined():
    defined = {(module, qualname) for module, qualname, _ in _definitions(_trees())}
    assert set(OUTSIDE_CALLERS) <= defined


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append((module, name))
    assert unused == []
