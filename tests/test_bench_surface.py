"""The benchmark drives camshift from outside: the names its tracer wraps
must keep existing, and every workload must run with no failed operation."""

import collections
import importlib.util
from pathlib import Path

import pytest

from camshift import cam1d, camzd, cli, sft, slp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_traced_surface_exists():
    tracer = _load_tracer()
    targets = tracer._targets(cli, cam1d, camzd, sft, slp)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in targets
        if not callable(owner.__dict__.get(attr))
    ]
    assert targets and not missing


def test_perron_counter_reads_a_real_result():
    counts = collections.Counter()
    matrix = [[1, 1], [1, 0]]
    result = sft.perron_eigenvalue(matrix)
    _load_tracer()._count_perron(counts, (matrix,), {}, result)
    assert counts["sft.perron_iterations"] == result.iterations > 0


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_pass_has_no_failed_operation(name, tmp_path):
    # one set-up and one pass check every output against expected.json
    rec = WORKLOADS.Recorder()
    workload = WORKLOADS.WORKLOADS[name]()
    workload.setup(1, rec, tmp_path)
    workload.run_pass(rec)
    workload.final_checks(rec)
    assert rec.attempted > 0
    assert rec.failed == 0, rec.problems
