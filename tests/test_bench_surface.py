"""The benchmark's tracer wraps public camshift names; they must keep existing."""

import importlib.util
from pathlib import Path

from camshift import cam1d, camzd, cli, sft, slp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_surface_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets(cli, cam1d, camzd, sft, slp)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in targets
        if not callable(owner.__dict__.get(attr))
    ]
    assert targets and not missing
