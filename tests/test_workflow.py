"""The CI workflow's steps name what the repository defines.

The workflow is read as plain text: CI installs only the test extras,
which do not include a YAML parser.
"""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from dbalign import fanout
from dbalign.cli import build_parser
from dbalign.experiment import (
    DEFAULT_MEMORY_CAP,
    ExperimentConfig,
    InfeasibleSizeError,
    _estimated_bytes,
    check_memory,
)

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()  # as text: Python 3.10 has no tomllib
SUBMODULES = {path.stem for path in (ROOT / "src" / "dbalign").glob("*.py")} - {"__init__"}


def test_traced_benchmark_loop_names_defined_workloads(monkeypatch):
    # Exactly the defined and the declared workloads: a new one that the
    # loop leaves out would never run in CI.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    (names,) = re.findall(r"^\s*for w in ([\w ]+); do$", WORKFLOW, flags=re.M)
    assert sorted(names.split()) == sorted(workloads.WORKLOADS) == sorted(declared)


def test_benchmark_loop_runs_both_trace_modes():
    # The untraced path is the one that runs probe.py; CI must run it too.
    (modes,) = re.findall(r"^\s*for t in ([\d ]+); do$", WORKFLOW, flags=re.M)
    assert sorted(modes.split()) == ["0", "1"]
    (run,) = re.findall(r"python3 perfbench/run\.py .*$", WORKFLOW, flags=re.M)
    assert '--workload "$w"' in run and '--trace "$t"' in run


def test_every_committed_experiment_is_rerun_and_compared():
    # A glob, not a list of names: a config committed later is re-run too.
    (var,) = re.findall(r"^\s*for (\w+) in experiments/\*\.json; do$", WORKFLOW, flags=re.M)
    run = rf'^\s*dbalign experiment --config "\${var}" --out (\S+)$'
    (out,) = re.findall(run, WORKFLOW, flags=re.M)
    cmp = rf'^\s*cmp {re.escape(out)} "\${{{var}%\.json}}\.csv"$'
    assert re.search(cmp, WORKFLOW, flags=re.M)


def test_every_documented_experiment_command_sets_its_values_in_the_config():
    # The config file is the one place an experiment value is set: each
    # command, in CI and in the docs, names a config, a format and an output.
    for path in (ROOT / ".github" / "workflows" / "tests.yml", ROOT / "README.md",
                 ROOT / "experiments" / "README.md"):
        text = path.read_text().replace("\\\n", " ")
        commands = re.findall(r"^\s*dbalign experiment (.*)$", text, flags=re.M)
        assert commands, path.name
        for command in commands:
            args = shlex.split(command)
            assert set(args[::2]) <= {"--config", "--format", "--out"}, command
            build_parser().parse_args(["experiment", *args])


def test_paper_scale_config_fits_the_default_memory_cap():
    (body,) = re.findall(r"<<'JSON'\n(.*?)\n\s*JSON\n", WORKFLOW, flags=re.S)
    raw = json.loads(body)
    assert "memory_cap_bytes" not in raw
    config = ExperimentConfig.from_dict(raw)
    assert config.memory_cap_bytes == DEFAULT_MEMORY_CAP
    one_trial = _estimated_bytes(
        config.m, config.n, config.num_seeds, config.spec.s_max, config.spec.alphabet_size
    )
    check_memory("paper scale", one_trial, DEFAULT_MEMORY_CAP, min(config.workers, config.trials))


def _largest_admitted_m(threads):
    """The largest m whose paper-model trial (binary, n=60, s_max=2, 10^4
    seeds) the guard admits under the default cap on a budget of
    ``threads``; the estimate grows with m, so bisection finds it."""

    def admits(m):
        try:
            with fanout.budget(threads):
                working_set = _estimated_bytes(m, 60, 10_000, 2, 2)
            check_memory("m", working_set, DEFAULT_MEMORY_CAP)
        except InfeasibleSizeError:
            return False
        return True

    lo, hi = 1, 1 << 24
    assert admits(lo) and not admits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admits(mid) else (lo, mid)
    return lo


def test_readme_states_the_largest_admitted_m_at_budgets_1_and_2():
    readme = (ROOT / "README.md").read_text()
    for threads in (1, 2):
        assert f"{_largest_admitted_m(threads):,}" in readme


def test_floor_job_pins_the_declared_floors():
    (python,) = re.findall(r'^requires-python = ">=([\d.]+)"$', PYPROJECT, flags=re.M)
    (numpy,) = re.findall(r'"numpy>=([\d.]+)"', PYPROJECT)
    (versions,) = re.findall(r"^\s*python-version: \[(.*)\]$", WORKFLOW, flags=re.M)
    assert re.findall(r'"([\d.]+)"', versions)[0] == python
    floor = rf'^\s*- python-version: "{re.escape(python)}"\n\s*numpy: "{re.escape(numpy)}\.\*"$'
    assert re.search(floor, WORKFLOW, flags=re.M)


def test_package_imports_numpy_and_the_standard_library_only():
    # The package declares numpy as its one dependency. An undeclared import,
    # scipy say, passes wherever it happens to be installed and fails on a
    # clean install. Package-relative imports are the package's own.
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    for path in sorted((ROOT / "src" / "dbalign").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_fanout_is_the_only_module_that_reaches_blas_through_ctypes():
    # One owner for the cores: the BLAS pin and the budgets live together.
    users = []
    for path in sorted((ROOT / "src" / "dbalign").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                users.append(path.name)
    assert users == ["fanout.py"]


def test_package_binds_no_name_but_its_version():
    # One import path per name: the module that defines it. A fresh
    # interpreter, because any submodule import binds that module here.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import dbalign as d; print('__version__' in vars(d), *(n for n in vars(d) if n[:2] != '__'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert out.stdout.split() == ["True"]


def test_no_name_is_imported_from_the_package_top_level():
    # In the package itself, `from . import x` is the same statement.
    found = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            top_level = {(0, "dbalign")}
            if path.parent == ROOT / "src" / "dbalign":
                top_level.add((1, None))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top_level:
                    found += [f"{path.name}: {a.name}" for a in node.names if a.name not in SUBMODULES]
    assert found == []


def test_readme_library_layout_names_every_module():
    # With the package's top level empty, this table is the index of the API.
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Library layout\n")[1].split("\n## ")[0]
    assert set(re.findall(r"^\| `dbalign\.(\w+)` \|", layout, flags=re.M)) == SUBMODULES
