"""Every name a module of ``src/qhsa/`` imports is used in that module, the
package root re-exports nothing, so a module loads only what it imports, and
the CLI does not import the fixture builders.  ``import qhsa.cli`` loads only
what every command needs, with no ``dataclasses``, and each command loads
only the modules it runs.

No linter runs on the package, so this stdlib ``ast`` pass guards against
imports left behind when code moves.  ``__init__.py`` is held to it too.
A second pass holds every function, class and method of the package to
having a reader in ``src/``, ``tests/``, ``tools/`` or ``bench/``, so code
that loses its last caller goes with it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "qhsa"
ROOT = PACKAGE.parent.parent


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


def unreferenced(modules: dict, sources: list) -> list:
    """``module: name`` for each top-level function or class of ``modules``
    (file name -> source) and each method of its classes, dunders aside,
    whose name no expression of ``sources`` reads as a name or an attribute
    or spells as a string, as ``getattr`` and the benchmark tracer take it.
    An import is no reader."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defined in [node, *members]:
                if not isinstance(defined, kinds) or defined.name.startswith("__"):
                    continue
                if defined.name not in read:
                    found.append(f"{module}: {defined.name}")
    return found


def test_every_definition_has_a_reader():
    dirs = ("src", "tests", "tools", "bench")
    sources = [p.read_text() for d in dirs for p in (ROOT / d).rglob("*.py")]
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(modules, sources) == []


def test_an_unreferenced_definition_is_found():
    module = (
        "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n    def method(self):\n        pass\n"
    )
    assert unreferenced({"m.py": module}, [module, "from m import C\nC\n"]) == [
        "m.py: unused",
        "m.py: method",
    ]
    assert unreferenced({"m.py": module}, [module, "getattr(C(), 'method')\nunused\n"]) == []


def fresh_modules(code: str, cwd=None) -> tuple:
    """(what ``code`` printed, every module name in ``sys.modules``) of a
    fresh interpreter that runs ``code`` with this checkout's ``src`` first
    on its path."""
    probe = f"{code}\nimport sys\nprint(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("QHSA_FIXTURE_DIR", None)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    *printed, modules = out.stdout.splitlines()
    return printed, set(ast.literal_eval(modules))


def loaded_modules(module: str) -> list:
    """The ``qhsa`` modules a fresh interpreter holds after ``import module``."""
    return sorted(m for m in fresh_modules(f"import {module}")[1] if m.split(".")[0] == "qhsa")


def test_a_module_loads_only_the_modules_it_imports():
    assert loaded_modules("qhsa.scalars") == ["qhsa", "qhsa.scalars"]
    assert loaded_modules("qhsa.algebra") == ["qhsa", "qhsa.algebra", "qhsa.scalars"]


# what every command needs, and so all that ``import qhsa.cli`` loads
CLI_MODULES = ["algebra", "cli", "documents", "reporting", "scalars", "structure"]


def test_the_cli_loads_only_what_every_command_needs():
    """``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) costs every
    process about 10 ms, and no module of the package uses it."""
    _, modules = fresh_modules("import qhsa.cli")
    assert {"dataclasses", "inspect"} & modules == set()
    assert loaded_modules("qhsa.cli") == ["qhsa"] + [f"qhsa.{m}" for m in CLI_MODULES]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["check", "h2.qhsa"], {"qhsa.drinfeld", "qhsa.transforms"}),
        (["validate", "h2ext.qhsa"], {"qhsa.drinfeld", "qhsa.transforms"}),
        (["transform", "h2.qhsa", "twist", "--twistor", "f-e11.twist"], {"qhsa.drinfeld"}),
    ],
    ids=["check", "validate", "twist"],
)
def test_a_command_loads_only_what_it_runs(tmp_path, argv, unloaded):
    argv = argv + ["--output", str(tmp_path / "out")]
    code = f"from qhsa.cli import main\nprint(main({argv!r}))"
    printed, modules = fresh_modules(code, cwd=tmp_path)
    assert printed[-1] == "0"
    assert unloaded & modules == set()


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
