"""camshift benchmark: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload build-1d --seed 1 --seconds 20 --trace 0

Workloads: build-1d, probe-1d, cells-2d, arith-sft (see perfbench/README.md).
The program is imported from ``src/`` of the same checkout.  Set-up is timed
apart, several times (once here, the rest in fresh interpreters, so the
import is paid each time).  Then whole passes run until ``--seconds`` have
passed.  With ``--trace 0`` every pass is untraced and the end-to-end metrics
are reported; with ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics are reported, with the tracing overhead.  Pass and
set-up times are in calibrated seconds (see REFERENCE_S); raw seconds are
printed beside them and kept in the record.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record (every sample, per-operation latencies, run metadata) is written to
``.perfbench_out/`` in the repository root, and with ``--trace 1`` the spans
are written there too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

# One thread, as the workloads are specified: numpy would otherwise start a
# BLAS thread pool at import, which no workload uses and whose start-up time
# follows the load on the host.  Set before numpy is imported here or in a
# set-up child, which inherits the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
# Calibration.  On a shared host the speed of a core flips between about
# full and half (another tenant on its sibling thread) many times a second,
# and the cache it shares with other tenants is sometimes slower, so raw
# pass times of the same code spread by half within a minute.  While a pass
# or a set-up runs, a timer signal every SAMPLE_INTERVAL_S seconds times a
# fixed pure-Python loop and, every STREAM_EVERY samples, a comparison of
# two buffers larger than the core's own cache.  Their durations over
# REFERENCE_S and STREAM_S, weighted 1 - STREAM_SHARE and STREAM_SHARE, give
# the slowdown, and each wall second until the next sample counts as
# 1 / slowdown calibrated seconds: seconds on a machine where the loop takes
# REFERENCE_S and the comparison STREAM_S.  The samples are taken inside the
# workload process, between its own bytecodes, so a change to camshift
# moves calibrated time as it moves raw time; the samples' own time is not
# counted.
REFERENCE_S = 3e-5
REFERENCE_TEXT = "0110100110010110" * 8
STREAM_S = 4e-4
STREAM_BYTES = 4 << 20
STREAM_SHARE = 0.1
STREAM_EVERY = 4
SAMPLE_INTERVAL_S = 0.01

# per-layer metrics of a traced run: work counts, and self times (the span's
# duration minus the child spans it covers) under the span name plus "_s"
PER_LAYER_COUNTS = {
    "slp.count_calls": "count",
    "slp.pattern_symbols": "symbols",
    "slp.naive_calls": "count",
    "slp.naive_bytes": "bytes",
    "slp.window_symbols": "symbols",
    "cam1d.certify_calls": "count",
    "cam1d.factor_symbols": "symbols",
    "camzd.count_calls": "count",
    "camzd.cells_compared": "cells",
    "camzd.lattice_candidates": "count",
    "camzd.lattice_residues": "count",
    "camzd.to_array_cells": "cells",
    "sft.trace_power_calls": "count",
    "sft.perron_iterations": "count",
    "cli.family_bytes": "bytes",
}
PER_LAYER_SPANS = (
    "slp.count",
    "slp.naive",
    "slp.window",
    "slp.minimal_period",
    "cam1d.choose",
    "cam1d.certify",
    "cam1d.certify_level",
    "cam1d.factor",
    "cam1d.verify",
    "cam1d.parse",
    "cam1d.measure",
    "camzd.count",
    "camzd.lattice",
    "camzd.certify",
    "sft.trace_power",
    "sft.census",
    "sft.perron",
    "cli.serialize",
)
# counts that no seed changes; compared against the values recorded when
# the benchmark was defined (a difference is reported, not failed, since an
# optimisation is expected to move them)
BASELINE_COUNTS = (
    "cam1d.certify_calls",
    "slp.count_calls",
    "slp.pattern_symbols",
    "slp.naive_bytes",
    "camzd.cells_compared",
    "camzd.lattice_candidates",
    "sft.trace_power_calls",
)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="camshift benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(samples)
    count = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None, "count": count}
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * count)
        if count - rank >= 10:
            out.update(tail_pct=pct, tail=ordered[rank - 1])
            break
    return out


def reference_loop():
    """Slicing, dict updates and small-int arithmetic, as in the workloads."""
    counts = {}
    total = 0
    for i in range(len(REFERENCE_TEXT) - 8):
        key = REFERENCE_TEXT[i : i + 8]
        counts[key] = counts.get(key, 0) + 1
        total += i * i % 7
    return total


class SpeedClock:
    """Calibrated seconds, advancing only inside ``running()``."""

    def __init__(self):
        # calibrated seconds at the last sample, its wall time and the rate
        # since, replaced in one assignment so a signal never splits a read
        self.state = (0.0, time.perf_counter(), 1.0)
        self.samples = 0
        self.stream = (b"\x01" * STREAM_BYTES, b"\x01" * STREAM_BYTES)
        self.stream_s = STREAM_S

    def _sample(self, signum=None, frame=None):
        begin = time.perf_counter()
        # the first run refills the caches the workload evicted, so the
        # timed second run measures the core rather than the cache state
        reference_loop()
        start = time.perf_counter()
        reference_loop()
        loop_s = time.perf_counter() - start
        if self.samples % STREAM_EVERY == 0:
            start = time.perf_counter()
            self.stream[0] == self.stream[1]
            self.stream_s = time.perf_counter() - start
        self.samples += 1
        slowdown = (1 - STREAM_SHARE) * loop_s / REFERENCE_S + STREAM_SHARE * self.stream_s / STREAM_S
        total, last, rate = self.state
        # the time since the last sample counts at the rate measured then
        self.state = (total + (begin - last) * rate, time.perf_counter(), 1 / slowdown)

    def now(self) -> float:
        total, last, rate = self.state
        return total + (time.perf_counter() - last) * rate

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def timed(clock, call):
    """``call()`` with the clock running: its result, raw and calibrated seconds."""
    with clock.running():
        start, calibrated_start = time.perf_counter(), clock.now()
        result = call()
        return result, time.perf_counter() - start, clock.now() - calibrated_start


def child_setup(args):
    """Raw and calibrated set-up seconds measured in a fresh interpreter."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up exited {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_raw_s"], result["setup_s"]


def pass_kinds(traced: bool):
    """Untraced passes only, or: untraced, traced, traced, then alternating."""
    if not traced:
        while True:
            yield False
    yield from (False, True, True)
    while True:
        yield from (False, True)


def run_passes(workload, rec, clock, seconds, tracer):
    """Whole passes until ``seconds`` have gone by; ``speed`` is a pass's
    calibrated over raw seconds."""
    passes = []
    began = time.perf_counter()
    for index, traced in enumerate(pass_kinds(tracer is not None)):
        started = now_iso()
        if traced:
            with tracer.installed(index):
                stages, raw, wall = timed(clock, lambda: workload.run_pass(rec))
        else:
            stages, raw, wall = timed(clock, lambda: workload.run_pass(rec))
        passes.append(
            {
                "index": index,
                "traced": traced,
                "wall_s": wall,
                "wall_raw_s": raw,
                "speed": wall / raw,
                "stages": stages,
                "started": started,
                "ended": now_iso(),
            }
        )
        if time.perf_counter() - began < seconds:
            continue
        n_traced = sum(p["traced"] for p in passes)
        if tracer is None or (n_traced >= 2 and len(passes) - n_traced >= 1):
            return passes


def end_to_end(workload, passes, setup_samples, peak_rss_mb):
    """Medians of calibrated times over the untraced passes (over the set-ups
    for setup_s), raw pass and set-up seconds beside."""
    plain = [p for p in passes if not p["traced"]]
    summary = {
        "wall_s": summarize([p["wall_s"] for p in plain]),
        "setup_s": summarize([calibrated for _, calibrated in setup_samples]),
    }
    summary["wall_s"]["raw"] = summarize([p["wall_raw_s"] for p in plain])
    summary["setup_s"]["raw"] = summarize([raw for raw, _ in setup_samples])
    for stage in {name for p in plain for name in p["stages"]}:
        summary[stage] = summarize([p["stages"][stage] for p in plain])
    summary["peak_rss_mb"] = summarize([peak_rss_mb])
    metrics = {
        "wall_s": {"value": summary["wall_s"]["median"], "unit": "s"},
        "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    for slot, stage in zip(("stage1_s", "stage2_s"), workload.stages):
        metrics[slot] = {"value": summary[stage]["median"], "unit": "s"}
    return metrics, summary


def per_layer(tracer, passes, rec):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [dict(tracer.counts[p["index"]]) for p in traced]
    repeated = all(c == counts[0] for c in counts)
    rec.expect("work-counts", [] if repeated else ["work counts differ between traced passes"])
    self_times = [
        {name: t * p["speed"] for name, t in tracer.self_times(p["index"]).items()}
        for p in traced
    ]
    metrics = {}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": statistics.median(c.get(name, 0) for c in counts), "unit": unit}
    for span in PER_LAYER_SPANS:
        value = statistics.median(t.get(span, 0.0) for t in self_times)
        metrics[span + "_s"] = {"value": value, "unit": "s"}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.spans"] = {
        "value": statistics.median(tracer.span_count(p["index"]) for p in traced),
        "unit": "count",
    }
    detail = {
        "counts_per_pass": counts,
        "self_s_per_pass": self_times,
        "inclusive_raw_s_per_pass": [dict(tracer.inclusive_times(p["index"])) for p in traced],
    }
    return metrics, detail


def baseline_comparison(workload_name, seed, counts) -> dict:
    """Counts now against those recorded; None when they were recorded at another seed."""
    from workloads import EXPECTED

    recorded = EXPECTED["work_counts"][workload_name]
    if recorded["seed"] not in (None, seed):
        return None
    return {
        name: {"recorded": recorded["counts"][name], "now": counts.get(name, 0)}
        for name in BASELINE_COUNTS
    }


def print_report(args, passes, summary, metrics, rec, meta, workload):
    print(
        f"camshift benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} sha={meta['git_sha'][:12]} nproc={meta['nproc']} "
        f"python={meta['python']} numpy={meta['numpy']}"
    )
    print(f"  times in calibrated seconds (reference loop = {REFERENCE_S} s), raw pass and set-up times in brackets")
    aliases = dict(zip(workload.stages, ("stage1_s", "stage2_s")))
    for name, stats in sorted(summary.items()):
        unit = "MB" if name == "peak_rss_mb" else "s"
        alias = f" (= {aliases[name]})" if name in aliases else ""
        raw = f" (raw {stats['raw']['median']:.4f} s)" if "raw" in stats else ""
        tail = (
            f"p{stats['tail_pct']:g} {stats['tail']:.4f} {unit}"
            if "tail" in stats
            else "no percentile with 10 samples beyond it"
        )
        print(
            f"  {name}{alias}: median {stats['median']:.4f} {unit}{raw}, {tail}, "
            f"n={stats['count']}"
        )
    print(f"  fail_ratio: {rec.failed}/{rec.attempted} = {rec.failed / rec.attempted:g}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name}: {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "camshift" / "__init__.py").is_file():
        print(f"error: no camshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Recorder, import_program

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec = Recorder()
        clock = SpeedClock()
        rec.clock = clock.now
        _, setup_raw_s, setup_s = timed(clock, lambda: workload.setup(args.seed, rec, workdir))
        if args.setup_only:
            print(json.dumps({"setup_raw_s": setup_raw_s, "setup_s": setup_s}))
            return 0
        import camshift

        if not Path(camshift.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: camshift imported from {camshift.__file__}, not {SRC}", file=sys.stderr)
            return 2
        setup_samples = [(setup_raw_s, setup_s)]
        for _ in range(SETUP_REPEATS - 1):
            setup_samples.append(child_setup(args))

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(import_program())
        run_started = now_iso()
        passes = run_passes(workload, rec, clock, args.seconds, tracer)
        workload.final_checks(rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, summary = end_to_end(workload, passes, setup_samples, peak_rss_mb)
        meta = {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "seed": args.seed,
            "seconds": args.seconds,
            "started": run_started,
            "ended": now_iso(),
        }
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "meta": meta,
            "passes": passes,
            "setup_raw_and_calibrated_s": setup_samples,
            "end_to_end": summary,
            "operations": {name: summarize(v) for name, v in rec.latencies.items()},
        }
        if tracer is not None:
            metrics, detail = per_layer(tracer, passes, rec)
            record["per_layer"] = metrics
            record["trace_detail"] = detail
            record["baseline_counts"] = baseline_comparison(
                args.workload, args.seed, detail["counts_per_pass"][0]
            )
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        record.update(attempted=rec.attempted, failed=rec.failed, problems=rec.problems)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="ascii"
        )
        print_report(args, passes, summary, metrics, rec, meta, workload)
        if tracer is not None:
            baseline = record["baseline_counts"]
            if baseline is None:
                print("  work counts vs recorded baseline: recorded at another seed")
            else:
                moved = {k: v for k, v in baseline.items() if v["recorded"] != v["now"]}
                print(f"  work counts vs recorded baseline: {moved or 'same'}")
        result = {
            "correct": rec.failed == 0,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
