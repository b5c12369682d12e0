"""Every name the package defines or imports is used inside the package.

Scans src/qglk with ast: each module-level function and class must be
referenced by name (an ast.Name or an ast.Attribute) somewhere in src/,
and each method of a module-level class other than dunders through an
attribute (an ast.Attribute): a bare name such as a local variable that
happens to share the method's name does not call it, and neither does
an attribute on another class's name (``Poly.one`` does not call
``RationalFunction.one``).  Each name in a ``__slots__`` must be read
(an ast.Attribute in Load context) somewhere in src/.  A helper that
only tests call belongs in tests/, not in the package.  Each name a
module imports at module level must be referenced (an ast.Name) in that
module.  The README's quick tour runs as written.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qglk"

# (module, qualified name, where the caller lives): the package surface
# whose callers live outside src/
OUTSIDE_CALLERS = (
    ("grassmann", "Space", "bench/workloads.py"),  # the localize-n6 workload
    ("grassmann", "Space.pushforward_det_tau_power", "bench/workloads.py"),
)


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _classes(trees):
    return {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }


def _definitions(trees):
    """(module, qualified name, owning class or None, bare name) of every
    checked definition."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield module, f"{node.name}.{item.name}", node.name, item.name


def _referenced(trees):
    """The bare names referenced in src/, and each attribute name with the
    class it is taken on: the class's name when the attribute's value is
    the bare name of a class defined in src/, else None."""
    classes = _classes(trees)
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                value = node.value
                owner = value.id if isinstance(value, ast.Name) and value.id in classes else None
                attributes.add((owner, node.attr))
    return names, attributes


def _unused(trees):
    names, attributes = _referenced(trees)
    for module, qualname, owner, name in _definitions(trees):
        if owner is None:
            used = name in names or any(attr == name for _, attr in attributes)
        else:
            used = (None, name) in attributes or (owner, name) in attributes
        if not used:
            yield module, qualname


def test_every_definition_has_a_caller_in_src():
    outside = {(module, qualname) for module, qualname, _ in OUTSIDE_CALLERS}
    assert [u for u in _unused(_trees()) if u not in outside] == []


def test_every_slot_is_read_in_src():
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    slots = ast.literal_eval(item.value)
                    unread += [(module, f"{cls.name}.{s}") for s in slots if s not in read]
    assert unread == []


def test_outside_callers_are_still_defined():
    defined = {(module, qualname) for module, qualname, _, _ in _definitions(_trees())}
    assert {(module, qualname) for module, qualname, _ in OUTSIDE_CALLERS} <= defined


def test_outside_callers_still_call():
    # each whitelisted name occurs where its caller lives (in tests/, in a
    # file other than this one), so no entry outlives its caller
    for _, qualname, where in OUTSIDE_CALLERS:
        path = ROOT / where
        files = [path]
        if path.is_dir():
            files = sorted(set(path.glob("*.py")) - {Path(__file__).resolve()})
        name = qualname.rsplit(".", 1)[-1]
        assert any(re.search(rf"\b{name}\b", f.read_text()) for f in files), (qualname, where)


def test_readme_quick_tour_runs(capsys):
    # the names the README promises (C[0, 0], intertwiner_report,
    # koszul_battery_report) still exist and still run
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md quick tour", "exec"), {})
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and out.count("checks passed") == 3


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


def _bound_at_top(body, name):
    """The node that binds name in a module or class body: a def, a class
    or a from-import, as the tracer's vars() lookup would find it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.ImportFrom) and any(
            (alias.asname or alias.name) == name for alias in node.names
        ):
            return node
    return None


def _resolves(module, qualname):
    """Whether src/qglk/<module>.py binds qualname, read from the source."""
    path = SRC / f"{module}.py"
    if not path.exists():
        return False
    node = ast.parse(path.read_text(), str(path))
    for part in qualname.split("."):
        node = _bound_at_top(getattr(node, "body", []), part)
        if node is None:
            return False
    return True


def test_traced_names_resolve():
    # bench/tracer.py is read, not imported or changed: every span it
    # installs must still name a callable in src/, or be one of the names
    # already gone.  ROADMAP item 1 (mending the benchmark) empties this list:
    # it retargets the spans of the names the package no longer has.
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (targets,) = [
        node.value
        for node in tracer.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    absent = {
        name
        for name, module, qualname, _ in ast.literal_eval(targets)
        if not _resolves(module, qualname)
    }
    assert absent == {
        "linalg.column_basis",
        "linalg.invert_matrix",
        "linalg.certify_invertible",
        "superrep.full_matrix",
        "laurent.mul",
        "fm.algebra_matrix",
        "fm.find_intertwiner",
        "koszul.iterated_cone_report",
    }
