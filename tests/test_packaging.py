import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _declared(*extras: str) -> set[str]:
    """Distribution names in the runtime dependencies and the given extras."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, whose test extra installs tomli
        import tomli as tomllib
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = list(project["dependencies"])
    for extra in extras:
        requirements += project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def _third_party_imports(folder: Path) -> dict[str, str]:
    """Top-level modules that files under ``folder`` import, not from the stdlib, the package or the folder."""
    local = {path.stem for path in folder.glob("*.py")} | {"chainring"}
    found = {}
    for path in sorted(folder.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def test_every_test_import_is_declared():
    # a fresh `pip install -e '.[test]'` must collect every test module
    declared = _declared("test")
    imports = _third_party_imports(ROOT / "tests")
    assert {"numpy", "pytest", "mpmath", "hypothesis"} <= imports.keys()
    missing = {name: path for name, path in imports.items() if name.lower() not in declared}
    assert missing == {}


def test_every_source_import_is_a_runtime_dependency():
    # test-only packages such as mpmath must not reach the library through the `test` extra
    declared = _declared()
    imports = _third_party_imports(ROOT / "src" / "chainring")
    assert "numpy" in imports
    missing = {name: path for name, path in imports.items() if name.lower() not in declared}
    assert missing == {}
