"""The package's public surface, its README examples and its imports."""

import ast
import re
import types
from pathlib import Path

import hydrasim

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name_and_each_resolves():
    public = {name for name, value in vars(hydrasim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(hydrasim.__all__) == sorted(public)
    namespace = {}
    exec("from hydrasim import *", namespace)   # a stale name raises AttributeError
    assert public <= namespace.keys()


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "470"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for d in ("src/hydrasim", "tests") for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]   # __init__ imports to re-export
    assert paths
    assert [u for p in paths for u in _unused_imports(p)] == []


# The sibling modules each module of src/hydrasim may import.  The fixed-point
# core (fxp) is the bottom layer, so real-to-raw conversion has one home that
# the datapath, the IDX reader and the golden models all reach without model.
LAYERING = {
    "errors": set(),
    "fxp": {"errors"},
    "datapath": {"errors", "fxp"},
    "dataio": {"errors", "fxp"},
    "model": {"datapath", "errors", "fxp"},
    "engine": {"datapath", "errors", "fxp", "model"},
    "timing": {"engine", "errors", "fxp", "model"},
    "cli": {"datapath", "dataio", "engine", "errors", "fxp", "model", "timing"},
    "__main__": {"cli"},
}


def _sibling_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), str(path))
    return {node.module.split(".")[0] if node.module else alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def test_each_module_imports_only_the_layers_below_it():
    paths = [p for p in sorted((ROOT / "src/hydrasim").glob("*.py"))
             if p.name != "__init__.py"]   # __init__ imports to re-export
    assert sorted(p.stem for p in paths) == sorted(LAYERING)
    beyond = {p.stem: _sibling_imports(p) - LAYERING[p.stem] for p in paths}
    assert beyond == {module: set() for module in LAYERING}
