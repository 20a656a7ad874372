"""The benchmark imports library names by name, some of them inside its check
methods, where a removed name would first show as a failed benchmark check.
Every `import liftreach...` and `from liftreach... import name` in
perfbench/*.py must resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _library_imports():
    """(file, module, name or None) of every liftreach import in perfbench."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "liftreach":
                        yield path.name, alias.name, None
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "liftreach"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module: str, name) -> bool:
    mod = importlib.import_module(module)
    return (name is None or hasattr(mod, name) or hasattr(mod, "__path__")
            and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_perfbench_library_imports_resolve():
    found = list(_library_imports())
    assert ("checks.py", "liftreach.reach", "Grid") in found
    assert ("checks.py", "liftreach.systems", "integrate") in found
    assert [f"{f}: {m} {n}" for f, m, n in found if not _resolves(m, n)] == []
