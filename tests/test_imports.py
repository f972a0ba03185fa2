"""The package namespace resolves names on first use; a request imports only its modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moment_angle

SRC = Path(moment_angle.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
SQUARE = json.dumps({"m": 4, "minimal_nonfaces": [[1, 3], [2, 4]]})


def loaded_after(code):
    """The ``moment_angle.*`` submodules loaded after ``code`` runs in a new interpreter."""
    script = (
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(n[len('moment_angle.'):] for n in sys.modules"
        " if n.startswith('moment_angle.'))))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
        check=True,
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


def loaded_by_request(argv):
    code = (
        "import contextlib, io\n"
        "from moment_angle import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    return loaded_after(code)


def test_all_is_the_table_of_public_names():
    assert len(moment_angle.__all__) == len(set(moment_angle.__all__))
    assert set(moment_angle.__all__) == set(moment_angle._SUBMODULE_OF)


@pytest.mark.parametrize("name", moment_angle.__all__)
def test_each_name_is_the_object_its_submodule_defines(name):
    module = importlib.import_module(f"moment_angle.{moment_angle._SUBMODULE_OF[name]}")
    assert getattr(moment_angle, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from moment_angle import *", namespace)
    for name in moment_angle.__all__:
        assert namespace[name] is getattr(moment_angle, name)


def test_dir_lists_the_public_names():
    assert set(moment_angle.__all__) <= set(dir(moment_angle))
    assert "__version__" in dir(moment_angle)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'massey_products'"):
        moment_angle.massey_products  # noqa: B018
    assert not hasattr(moment_angle, "_SUBMODULE_OF_")


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import moment_angle") == set()


def test_names_and_submodules_load_on_first_access():
    loaded = loaded_after(
        "import moment_angle\nassert isinstance(moment_angle.massey, type(moment_angle))"
    )
    assert "massey" in loaded and "graphs" not in loaded
    assert loaded_after("import moment_angle\nmoment_angle.InputError") == {"errors"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["betti", "--inline", SQUARE], {"cli", "complexes", "errors", "hochster", "rational_linalg"}),
        (["homology", "--inline", SQUARE], {"cli", "complexes", "errors", "rational_linalg"}),
        (
            ["real-betti", "--inline", SQUARE],
            {"cli", "complexes", "errors", "rational_linalg", "koszul", "multiwedge", "real_cochains"},
        ),
    ],
    ids=["betti", "homology", "real-betti"],
)
def test_a_request_loads_only_the_modules_it_runs(argv, modules):
    assert loaded_by_request(argv) == modules


def test_a_betti_request_loads_no_massey_model():
    loaded = loaded_by_request(["betti", "--inline", SQUARE, "--multidegree", "1,3"])
    assert loaded.isdisjoint({"massey", "graphs", "families", "koszul", "real_cochains"})


def test_a_massey_request_loads_no_graphs():
    loaded = loaded_by_request(["massey", "--family", "2,1"])
    assert "massey" in loaded and "graphs" not in loaded


def unused_imports(path):
    """The names that a module's import statements bind and that its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path",
    sorted([*(SRC / "moment_angle").glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []
