"""Every name a module of ``src/qhsa/`` imports is used in that module, the
package root re-exports nothing, so a module loads only what it imports, and
the CLI does not import the fixture builders.

No linter runs on the package, so this stdlib ``ast`` pass guards against
imports left behind when code moves.  ``__init__.py`` is held to it too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "qhsa"


def unused_imports(source: str) -> list:
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found():
    source = "from .algebra import outer, permute_legs\nimport json, os.path\nos.path\n"
    assert unused_imports(source + "permute_legs(x)\n") == ["json", "outer"]


def loaded_modules(module: str) -> list:
    """The ``qhsa`` modules a fresh interpreter holds after ``import module``."""
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'qhsa'))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout)


def test_a_module_loads_only_the_modules_it_imports():
    assert loaded_modules("qhsa.scalars") == ["qhsa", "qhsa.scalars"]
    assert loaded_modules("qhsa.algebra") == ["qhsa", "qhsa.algebra", "qhsa.scalars"]


def test_the_cli_does_not_load_the_fixture_builders():
    """The CLI reads the bundled fixtures as documents, so no CLI job runs
    the builders of ``qhsa.fixtures``."""
    probe = "import sys, qhsa.cli; print('qhsa.fixtures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n")


def test_the_package_imports_itself_only_by_relative_name():
    """``tools/abtest.py`` imports a copy of another checkout's package
    under another name, which works only while no module imports ``qhsa``
    by its absolute name."""
    absolute = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "qhsa"]
    assert absolute == []
