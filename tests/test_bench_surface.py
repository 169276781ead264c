"""The benchmark's tracer wraps public camshift names; they must keep existing."""

import collections
import importlib.util
from pathlib import Path

from camshift import cam1d, camzd, cli, sft, slp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
