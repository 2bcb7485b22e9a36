"""The package never imports numpy, the CLI starts without `dataclasses`
or `inspect` and runs a well-formed call without argparse, the public names are those listed here and in README, and
the version is the one in pyproject.toml.

A scan of the sources finds no numpy import, another finds the CHSH
bounds compared in `nsbox.chsh_class` alone, a third finds `montecarlo`
importing nothing from the package but `errors`, and a fourth finds no
physics module importing `montecarlo`. Each call check runs in a
fresh interpreter, since a module once imported stays in `sys.modules`:
no path of the CLI loads numpy, Monte Carlo included.
"""
import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mucorr

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CHSH = {
    "id": "chsh-file", "kind": "chsh",
    "parameters": {"a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 30,
                   "b_prime_degrees": 120},
}
COUNTERFACTUAL = {
    "id": "cf-file", "kind": "counterfactual",
    "parameters": {"theta_degrees": 30, "a_degrees": 0, "a_prime_degrees": 90},
}

#: The public names of the package.
PUBLIC_NAMES = [
    "BoxClass", "CLASSICAL_BOUND", "DegenerateSequenceError", "Direction",
    "DomainError", "EmpiricalEstimate",
    "NotOrthogonalError", "NsBox", "ResultRow", "SampleConfig", "Scenario",
    "TSIRELSON_BOUND", "ValidationError", "binary_entropy",
    "builtin_scenarios", "chsh_class", "chsh_s_e", "chsh_s_ns",
    "classify_box", "correlation", "correlator",
    "from_correlators", "from_labeled_dict", "info_leakage",
    "isotropic_parameter", "load_scenario_file", "make_isotropic",
    "max_info_direction",
    "rho_ci_ns", "rho_conditional_independence",
    "run", "shapes_rho", "substream",
    "target_probability", "validate_no_signalling", "validate_scenario",
]


def imports_numpy(path: Path) -> bool:
    """Whether a module has `import numpy` or `from numpy ...` anywhere,
    a function body or an `if TYPE_CHECKING:` block included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def package_imports(path: Path) -> set[str]:
    """The package modules that a module imports by a relative import (or
    as `mucorr.x`) anywhere, a function body or an `if TYPE_CHECKING:`
    block included: `from .x import y` gives x, `from . import x` gives x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mucorr."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("mucorr.")}
    return found


#: The constants that only `nsbox.chsh_class` compares a value with.
CHSH_BOUNDS = {"CLASSICAL_BOUND", "TSIRELSON_BOUND"}


def bound_comparisons(path: Path) -> list[str]:
    """The name of the function around each comparison in a module that reads
    one of CHSH_BOUNDS, by name or as an attribute; `<module>` for one outside
    any function."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Compare) and any(
                getattr(name, "id", getattr(name, "attr", None)) in CHSH_BOUNDS
                for name in ast.walk(child)
            ):
                found.append(where)
            else:
                visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def modules_loaded_by(*argv: str) -> set[str]:
    """The modules that `import mucorr.cli`, then `main(argv)` if argv is
    given, add to a fresh interpreter's `sys.modules`; those it started with,
    a `site` hook's included, do not count. The call must exit 0."""
    script = (
        "import json, sys\n"
        "preloaded = set(sys.modules)\n"
        "from mucorr.cli import main\n"
        f"argv = {json.dumps(list(argv))}\n"
        "code = main(argv) if argv else 0\n"
        "print(json.dumps([code, sorted(set(sys.modules) - preloaded)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, (argv, proc.stderr)
    return set(loaded)


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    paths = {}
    for doc in (CHSH, COUNTERFACTUAL):
        paths[doc["kind"]] = path = root / f"{doc['id']}.json"
        path.write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("argv", [
    [],
    ["list"],
    ["--help"],
    ["run", "paper-standard"],
    ["run", "paper-55-35"],
    ["run", "paper-coin"],
    ["run", "paper-shapes"],
    ["run", "paper-standard", "--format", "json"],
])
def test_spin_and_classical_calls_never_load_numpy(argv):
    assert "numpy" not in modules_loaded_by(*argv)


@pytest.mark.parametrize("kind", ["chsh", "counterfactual"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_spin_scenario_files_never_load_numpy(scenario_files, command, kind):
    assert "numpy" not in modules_loaded_by(command, str(scenario_files[kind]))


@pytest.mark.parametrize("argv", [
    ["run", "paper-pr-box"],
    ["sweep", "--parameter", "theta_degrees", "--start", "0", "--stop", "9", "--step", "1"],
    ["sweep", "--parameter", "isotropic_p", "--start", "0", "--stop", "1", "--step", "0.01"],
    ["validate", str(ROOT / "scenarios" / "pr-box-table.json")],
    ["run", str(ROOT / "scenarios" / "pr-box-table.json"), "--format", "json"],
])
def test_boxes_and_sweeps_never_load_numpy(argv):
    assert "numpy" not in modules_loaded_by(*argv)


@pytest.mark.parametrize("argv", [
    ["run", "paper-standard", "--mc", "--samples", "1000"],
    ["run", "paper-pr-box", "--mc", "--samples", "1000"],
])
def test_monte_carlo_never_loads_numpy(argv):
    assert "numpy" not in modules_loaded_by(*argv)


@pytest.mark.parametrize("argv", [[], ["run", "paper-standard"]])
def test_cli_starts_without_dataclasses_or_inspect(argv):
    # Each costs ~10 ms of every start; the records are named tuples.
    assert not {"dataclasses", "inspect"} & modules_loaded_by(*argv)


#: What building the argument parser loads (argparse's messages import
#: gettext, and gettext locale), the csv module, which no call loads, and
#: the module of the sweep grid count.
PARSER_MODULES = {"argparse", "gettext", "locale"}
LAZY_MODULES = PARSER_MODULES | {"csv", "decimal"}
SWEEP = ["sweep", "--parameter", "theta_degrees", "--start=-9", "--stop", "9", "--step", "1"]


@pytest.mark.parametrize("argv, allowed", [
    (["run", "paper-standard"], set()),
    (["run", "paper-standard", "--format", "json"], set()),
    (["run", "paper-standard", "--mc", "--samples", "1000", "--seed", "7"], set()),
    (["run", "paper-pr-box", "--mc", "--samples=1000", "--format=json"], set()),
    (["run", "paper-coin", "--format", "csv"], set()),
    (["list"], set()),
    (["list", "--format", "json"], set()),
    (["list", "--format", "csv"], set()),
    (["validate", "paper-coin"], set()),
    (SWEEP, {"decimal"}),
    ([*SWEEP, "--format", "json"], {"decimal"}),
    ([*SWEEP, "--format", "csv"], {"decimal"}),
])
def test_well_formed_calls_never_build_the_parser(argv, allowed):
    # argparse, with the gettext and locale it imports, is ~6 ms of a fresh
    # start; no call loads csv, and decimal loads only where it is used.
    assert LAZY_MODULES & modules_loaded_by(*argv) <= allowed


@pytest.mark.parametrize("kind", ["chsh", "counterfactual"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_scenario_files_never_build_the_parser(scenario_files, command, kind):
    assert not LAZY_MODULES & modules_loaded_by(command, str(scenario_files[kind]))


def test_usage_errors_still_come_from_argparse(capsys):
    from mucorr.cli import main

    assert main(["run", "paper-coin", "--verbose"]) == 1
    assert capsys.readouterr().err == (
        "usage: mucorr [-h] command ...\n"
        "mucorr: error: unrecognized arguments: --verbose\n"
    )
    assert PARSER_MODULES <= modules_loaded_by("--help")


def test_no_module_imports_numpy(tmp_path):
    modules = sorted(SRC.glob("mucorr/*.py"))
    assert SRC / "mucorr" / "montecarlo.py" in modules
    assert [path.name for path in modules if imports_numpy(path)] == []
    # The scan finds the imports that the package once had.
    probe = tmp_path / "probe.py"
    for source in ("def f():\n    import numpy as np\n",
                   "if TYPE_CHECKING:\n    from numpy.random import Generator\n"):
        probe.write_text(source)
        assert imports_numpy(probe)


def test_montecarlo_imports_only_errors_from_the_package(tmp_path):
    # The sampler takes 2x2 tables; the runners build them from their models.
    assert package_imports(SRC / "mucorr" / "montecarlo.py") == {"errors"}
    # The scan finds the imports that the module once had.
    probe = tmp_path / "probe.py"
    for source, module in (
        ("from .spin import Direction, match_probability\n", "spin"),
        ("if TYPE_CHECKING:\n    from .nsbox import NsBox\n", "nsbox"),
        ("from . import nsbox as nsb\n", "nsbox"),
        ("import mucorr.spin\n", "spin"),
    ):
        probe.write_text(source)
        assert package_imports(probe) == {module}


def test_physics_modules_import_nothing_from_montecarlo(tmp_path):
    # The runners in `scenarios` build every table that the sampler draws.
    for name in ("spin", "counterfactual", "nsbox"):
        assert "montecarlo" not in package_imports(SRC / "mucorr" / f"{name}.py"), name
    # The scan finds the import that `counterfactual` once had.
    probe = tmp_path / "probe.py"
    probe.write_text("from .montecarlo import match_table\n")
    assert package_imports(probe) == {"montecarlo"}


def test_only_chsh_class_compares_with_the_chsh_bounds(tmp_path):
    # Every flag, class and verdict above the classical bound reads the
    # regime that chsh_class decides.
    sites = {
        (path.name, where)
        for path in SRC.glob("mucorr/*.py") for where in bound_comparisons(path)
    }
    assert sites == {("nsbox.py", "chsh_class")}
    # The scan finds the comparisons that the package once had.
    probe = tmp_path / "probe.py"
    for source, where in (
        ("def _chsh_row(s):\n    return 'chsh_violated' if s > CLASSICAL_BOUND else ''\n",
         "_chsh_row"),
        ("violated = [s > spin.TSIRELSON_BOUND for s in values]\n", "<module>"),
    ):
        probe.write_text(source)
        assert bound_comparisons(probe) == [where]


def test_public_names_are_unchanged():
    assert mucorr.__all__ == PUBLIC_NAMES
    from mucorr import NsBox, make_isotropic

    assert isinstance(make_isotropic(1.0), NsBox)
    assert set(PUBLIC_NAMES) <= set(dir(mucorr))
    with pytest.raises(AttributeError, match="no_such_name"):
        mucorr.no_such_name


def test_version_is_the_one_in_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert mucorr.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M)[1]


def test_scenarios_reach_nsbox_through_a_module_alias():
    from mucorr import scenarios

    assert isinstance(scenarios.nsb, types.ModuleType)
    assert scenarios.nsb.__name__ == "mucorr.nsbox"
    assert scenarios.nsb is sys.modules["mucorr.nsbox"] is mucorr.nsbox


def removed_names() -> list[str]:
    """The names that README's "Removed from the library" bullets give in
    backticks before their colon, call parentheses dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("**Removed from the library.**", 1)[1].split("\n**", 1)[0]
    names = []
    for bullet in section.split("\n- ")[1:]:
        head = bullet.split(":", 1)[0]
        names += [re.match(r"[\w.]+", code)[0] for code in re.findall(r"`([^`]+)`", head)]
    return names


def test_names_that_readme_lists_as_removed_are_gone():
    names = removed_names()
    assert len(names) >= 33 and "BoxClassification" in names
    modules = [mucorr] + [
        importlib.import_module(f"mucorr.{info.name}")
        for info in pkgutil.iter_modules(mucorr.__path__) if info.name != "__main__"
    ]
    for name in names:
        if "." in name:  # resolved against the package: NsBox.table
            path, attr = name.rsplit(".", 1)
            owner = mucorr
            for step in path.split("."):
                owner = getattr(owner, step)
            assert not hasattr(owner, attr), name
        else:
            assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
