"""Package boundaries: no module reaches into another's private names,
``sensorreg.__all__`` is the public API the demos use, and the README's
example runs."""

import ast
import re
from pathlib import Path

import sensorreg
from sensorreg.geometry import geodesic_angle

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sensorreg").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_uses(path):
    """Private names ``path`` imports from, or reads off, another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.add(bound)
                if any(map(is_private, alias.name.split("."))):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(f"{path.name}:{node.lineno} uses {root.id}...{node.attr}")
    return found


def demo_imports():
    names = set()
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "sensorreg":
                names.update(alias.name for alias in node.names)
    return names


def test_no_cross_module_private_names():
    assert SOURCES
    assert [use for path in SOURCES for use in private_uses(path)] == []


def test_guard_sees_private_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .experiments import _draw_biases\n"
                     "from . import calibration\n"
                     "calibration._warm_start(None)\n"
                     "self._ok = calibration.ALGORITHMS.__doc__\n")
    assert [use.split()[1:] for use in private_uses(probe)] == [
        ["imports", "_draw_biases"], ["uses", "calibration..._warm_start"]]


def test_all_resolves():
    for name in sensorreg.__all__:
        assert hasattr(sensorreg, name), name


def test_all_covers_demo_imports():
    names = demo_imports()
    assert names
    assert sorted(names - set(sensorreg.__all__)) == []


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                          flags=re.DOTALL)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    # one line per sensor, each estimate close to the truth it was simulated from
    assert len(capsys.readouterr().out.splitlines()) == 3
    for est, rot in zip(scope["result"].estimates, scope["truth"].rotations, strict=True):
        assert geodesic_angle(est, rot) < 2e-3
