"""The benchmark's commands must parse, and its seed-0 sweeps must match their references.

Every seed-0 smoke sweep is checked, and so are the full-size commands of
the ``quadrature`` workload (``project`` and ``ft``), which take a fraction of
a second each, and the full-size commands of both potential workloads, whose
references pin the coarse-to-fine reference solve.

``perfbench/workloads.py`` lists the CLI argv lists a benchmark sweep runs and
``perfbench/refs.json`` the error columns each must reproduce, within the
relative tolerances of ``perfbench/check.py``.  A numerics or flag change
that breaks them fails here, before the benchmark runs.  The files are read
(and ``workloads.py`` executed) without importing anything from ``perfbench/``.
"""

import ast
import csv
import json
import os

import pytest

from latticedirac import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _read(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return fh.read()


def _workloads():
    namespace = {"__name__": "workloads"}
    exec(compile(_read("workloads.py"), os.path.join(PERFBENCH, "workloads.py"), "exec"), namespace)
    return namespace


def _check_constant(name):
    """The literal value of the module-level ``name = ...`` in ``check.py``."""
    for node in ast.parse(_read("check.py")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


WORKLOADS = _workloads()
SMOKE_SEED0 = [argv for name in WORKLOADS["NAMES"] for argv in WORKLOADS["commands"](name, 0, smoke=True)]
FULL_QUADRATURE_SEED0 = WORKLOADS["commands"]("quadrature", 0)
FULL_POTENTIAL_SEED0 = [argv for name in ("potential-neumann", "potential-krylov")
                        for argv in WORKLOADS["commands"](name, 0)]


@pytest.mark.parametrize("smoke", [False, True])
def test_every_benchmark_configuration_parses(smoke):
    argvs = WORKLOADS["all_configurations"](smoke)
    assert len(argvs) == 56
    for argv in argvs:
        assert cli.config_from_argv(argv).experiment == argv[0]


@pytest.mark.parametrize("argv", SMOKE_SEED0, ids=WORKLOADS["key"])
def test_seed0_smoke_sweep_reproduces_its_references(argv, tmp_path):
    _assert_reproduces_its_references(argv, tmp_path)


@pytest.mark.parametrize("argv", FULL_QUADRATURE_SEED0, ids=WORKLOADS["key"])
def test_seed0_full_size_quadrature_sweep_reproduces_its_references(argv, tmp_path):
    _assert_reproduces_its_references(argv, tmp_path)


@pytest.mark.parametrize("argv", FULL_POTENTIAL_SEED0, ids=WORKLOADS["key"])
def test_seed0_full_size_potential_sweep_reproduces_its_references(argv, tmp_path):
    _assert_reproduces_its_references(argv, tmp_path)


def _assert_reproduces_its_references(argv, tmp_path):
    want = json.loads(_read("refs.json"))["references"][WORKLOADS["key"](argv)]
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = _check_constant("KEY_COLUMNS")
    assert [[row[c] for c in keys] for row in rows] == [ref[: len(keys)] for ref in want]
    rtol = _check_constant("RTOL")[argv[0]]
    for row, ref in zip(rows, want):
        assert abs(float(row["error"]) - float(ref[-1])) <= rtol * abs(float(ref[-1]))
