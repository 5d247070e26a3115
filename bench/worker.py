"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

The process imports fslab from the checkout's ``src``, runs the workload's
first op untimed, prints ``READY`` and then, by mode:

* ``setup``: times the reference kernel, prints the factor that scales
  set-up to nominal speed, and exits (run.py times spawn-to-READY as one
  set-up sample);
* ``timed``: runs a closed loop with one client for S seconds of wall time,
  checks every output outside the timed region, and prints the end-to-end
  metrics as one JSON line;
* ``traced``: runs the workload's fixed number of ops, each once untraced and
  once traced, and prints the per-layer metrics as one JSON line.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import fslab  # noqa: E402
import fslab.cli  # noqa: E402,F401

if not Path(fslab.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"fslab imported from {fslab.__file__}, not from {SRC}")

import numpy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# Percentiles op_tail_ms may report; the highest one with at least
# TAIL_BEYOND ops above it is used. p99.9 is left out: on a shared machine it
# reads host hiccups rather than the program, and varied 2x between seeds.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10

# Op times are scaled to a nominal machine speed: the one at which
# reference_kernel() takes REF_NOMINAL_S. The kernel is timed between ops in
# batches of at least one run and REF_BATCH_MIN_S, taking REF_SHARE of the
# run's wall time, so that the samples see the same slow and fast spells of
# a shared machine as the ops.
REF_NOMINAL_S = 0.002
REF_SHARE = 0.15
REF_BATCH_MIN_S = 0.0025

# Set-up is scaled the same way, by a batch taken as soon as it ends.
SETUP_REF_S = 0.05

# Traced names, in the order of the metric reference (bench/README.md).
TRACED = (
    "search.maximize_fs",
    "search.sample_measure",
    "numpy.default_rng",
    "members.member_from_pq",
    "members.fs_functional",
    "members.shift_measure",
    "members.HerglotzMeasure.post_init",
    "members.herglotz_coeffs",
    "members.starlike_from_q",
    "series.PowerSeries.post_init",
    "series.ps_mul",
    "series.ps_linear",
    "series.ps_div",
    "members.membership_spotcheck",
    "extremal.sharpness_residual",
    "extremal.extremal_member",
    "extremal.extremal_config",
    "extremal.transform_spotcheck",
    "extremal.libera_transform",
    "bounds.bound_real",
    "bounds.bound_complex",
    "bounds.breakpoints",
    "bounds.branch_value",
    "cli.main",
)

MAX_REPORTED_PROBLEMS = 5

# Timed ops whose latency is kept for the percentiles; a uniform reservoir
# sample beyond that.
RESERVOIR = 1 << 15


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tally:
    """Attempted and failed ops, with the first few problems for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.quality_sum = 0.0
        self.quality_n = 0
        self.reported = 0

    def add(self, index: int, problems: list[str], quality: float | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.reported < MAX_REPORTED_PROBLEMS:
                self.reported += 1
                sys.stderr.write(f"op {index} failed: {'; '.join(problems)}\n")
        elif quality is not None:
            self.quality_sum += quality
            self.quality_n += 1


def run_checked(wl: workloads.Workload, inp, out, error: str | None, tally: Tally, index: int) -> None:
    if error is not None:
        tally.add(index, [error])
        return
    try:
        problems, quality = wl.check(inp, out)
    except Exception:  # a checker crash on odd output is that op's failure
        tally.add(index, [traceback.format_exc(limit=3)])
        return
    tally.add(index, problems, quality)


def call(fn, *args):
    """fn(*args) -> (result, None), or (None, traceback text) if it raised."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc(limit=5)


def _rank(pct: float, n: int) -> int:
    # nearest rank, robust to pct * n landing a rounding error above an integer
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest TAIL_PERCENTILES entry with at least
    TAIL_BEYOND samples above it, nearest-rank."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n - _rank(p, n) >= TAIL_BEYOND), TAIL_PERCENTILES[-1])
    return pct, ordered[_rank(pct, n) - 1]


def percentiles(latencies_ms: list[float]) -> dict[str, float]:
    ordered = sorted(latencies_ms)
    return {f"p{pct:g}": ordered[_rank(pct, len(ordered)) - 1] for pct in (50.0, 90.0, 99.0, 99.9)}


@dataclass(frozen=True)
class _Jet:
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        vals = tuple(complex(c) for c in self.coeffs)
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in vals):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", vals)


def reference_kernel(rounds: int = 50) -> float:
    """Fixed work of the same kind as fslab's (small numpy draws, complex
    tuples, validated frozen dataclasses, exactly rounded Cauchy products),
    written here so that no change to fslab changes it. Its run time, taken
    between ops, measures how fast the shared machine runs at that moment."""
    gen = numpy.random.Generator(numpy.random.PCG64(12345))
    acc = 0.0
    for _ in range(rounds):
        w = gen.random(3)
        w = w / w.sum()
        a = _Jet(tuple(cmath.exp(1j * t) for t in w * 6.0) + (1.0,) * 5)
        b = _Jet(tuple(0.5 * c for c in a.coeffs))
        prod = tuple(
            complex(
                math.fsum((a.coeffs[j] * b.coeffs[k - j]).real for j in range(k + 1)),
                math.fsum((a.coeffs[j] * b.coeffs[k - j]).imag for j in range(k + 1)),
            )
            for k in range(8)
        )
        acc += abs(_Jet(prod).coeffs[3])
    return acc


class Speed:
    """Reference-kernel timings taken between ops, about REF_SHARE of the
    run's wall time in all. A sample is the median kernel time over one
    batch of runs; an op is scaled by the mean of the two samples that
    bracket it."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.since = time.perf_counter()

    def sample(self, batch_s: float = 0.0) -> None:
        runs: list[float] = []
        stop = time.perf_counter() + batch_s
        while not runs or time.perf_counter() < stop:
            t0 = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - t0)
        self.refs.append(statistics.median(runs))
        self.since = time.perf_counter()

    def due(self) -> float:
        """Batch length owed since the last sample; 0 while under REF_BATCH_MIN_S."""
        owed = REF_SHARE / (1.0 - REF_SHARE) * (time.perf_counter() - self.since)
        return owed if owed >= REF_BATCH_MIN_S else 0.0

    def scale(self, before: int) -> float:
        """Factor taking a time measured after sample ``before`` to nominal speed."""
        return REF_NOMINAL_S / (0.5 * (self.refs[before] + self.refs[before + 1]))


def timed(wl: workloads.Workload, seed: int, seconds: float, tally: Tally, speed: Speed) -> dict:
    # Per-op latencies go to a preallocated reservoir and everything else to
    # per-window sums, so the benchmark's own memory does not grow with the
    # op count and peak_rss_mb reads the program, not the bookkeeping.
    kept_s = array("d", bytes(8 * RESERVOIR))
    kept_window = array("q", bytes(8 * RESERVOIR))
    keep = random.Random(seed)
    windows: list[list[float]] = [[0, 0.0, 0.0]]  # per reference window: [ops, latency s, cpu s]
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inp = wl.make_input(seed, n + 1)
        c0, t0 = time.process_time(), time.perf_counter()
        out, error = call(wl.run, inp)
        t1, c1 = time.perf_counter(), time.process_time()
        window = windows[-1]
        window[0] += 1
        window[1] += t1 - t0
        window[2] += c1 - c0
        slot = n if n < RESERVOIR else keep.randrange(n + 1)
        if slot < RESERVOIR:
            kept_s[slot] = t1 - t0
            kept_window[slot] = len(windows) - 1
        n += 1
        run_checked(wl, inp, out, error, tally, n)
        batch = speed.due()
        if batch:
            speed.sample(batch)
            windows.append([0, 0.0, 0.0])
    wall_s = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if windows[-1][0]:
        speed.sample()  # close the last window
    else:
        windows.pop()
    scales = [speed.scale(w) for w in range(len(windows))]
    kept = min(n, RESERVOIR)
    ms = [1000.0 * kept_s[j] * scales[kept_window[j]] for j in range(kept)]
    raw_ms = [1000.0 * kept_s[j] for j in range(kept)]
    pct, tail_ms = tail(ms)
    latency_s = math.fsum(w[1] for w in windows)
    cpu_s = math.fsum(w[2] for w in windows)
    return {
        "metrics": {
            "ops_per_s": metric(n / math.fsum(w[1] * k for w, k in zip(windows, scales)), "1/s"),
            "op_p50_ms": metric(statistics.median(ms), "ms"),
            "op_tail_ms": metric(tail_ms, "ms"),
            "cpu_per_op_ms": metric(1000.0 * math.fsum(w[2] * k for w, k in zip(windows, scales)) / n, "ms"),
            "peak_rss_mb": metric(peak_mib, "MiB"),
            "best_to_bound": metric(tally.quality_sum / max(1, tally.quality_n), "ratio"),
        },
        "detail": {
            "timed_ops": n,
            "percentile_ops": kept,
            "tail_percentile": pct,
            "wall_s": wall_s,
            "percentiles_ms": percentiles(ms),
            "raw_percentiles_ms": percentiles(raw_ms),
            "raw": {
                "ops_per_s": n / latency_s,
                "op_p50_ms": statistics.median(raw_ms),
                "op_tail_ms": tail(raw_ms)[1],
                "cpu_per_op_ms": 1000.0 * cpu_s / n,
            },
            "reference_ms": {
                "nominal": 1000.0 * REF_NOMINAL_S,
                "median": 1000.0 * statistics.median(speed.refs),
                "min": 1000.0 * min(speed.refs),
                "max": 1000.0 * max(speed.refs),
                "samples": len(speed.refs),
            },
        },
    }


def traced(wl: workloads.Workload, seed: int, tally: Tally, spans_path: Path) -> dict:
    targets = {name: tracer.resolve(name) for name in TRACED}
    tr = tracer.Tracer([t for t in targets.values() if t is not None], span_ops=wl.span_ops)
    untraced_ns = traced_ns = 0
    for i in range(1, wl.trace_ops + 1):
        inp = wl.make_input(seed, i)
        t0 = time.perf_counter_ns()
        out, error = call(wl.run, inp)
        untraced_ns += time.perf_counter_ns() - t0
        run_checked(wl, inp, out, error, tally, i)
        result, error = call(tr.op, wl.run, inp)
        out, wall = result if result is not None else (None, 0)
        traced_ns += wall
        run_checked(wl, inp, out, error, tally, i)
    per_name = tr.per_name()
    ops = tr.ops
    metrics = {}
    for name in TRACED:
        calls, self_ns, _ = per_name.get(name, (0, 0, 0))
        metrics[f"{name}.calls_per_op"] = metric(calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = metric(self_ns / ops / 1000.0, "us")
    samples = wl.samples_per_op * ops
    evals = per_name.get("members.member_from_pq", (0, 0, 0))[0]
    objects = sum(per_name.get(n, (0, 0, 0))[0] for n in ("members.HerglotzMeasure.post_init", "series.PowerSeries.post_init"))
    _, cli_self, cli_total = per_name.get("cli.main", (0, 0, 0))
    _, gap_ns, op_ns = per_name[tracer.ROOT]
    metrics.update(
        {
            "search.member_evals_per_sample": metric(evals / samples if samples else 0.0, "ratio"),
            "members.objects_per_eval": metric(objects / evals if evals else 0.0, "ratio"),
            "cli.self_share": metric(cli_self / cli_total if cli_total else 0.0, "ratio"),
            "trace.overhead_ratio": metric(traced_ns / untraced_ns, "ratio"),
            "trace.unaccounted_share": metric(gap_ns / op_ns, "ratio"),
        }
    )
    tr.dump(spans_path, {"workload": wl.name, "seed": seed})
    return {
        "metrics": metrics,
        "detail": {
            "traced_ops": ops,
            "missing_names": sorted(n for n, t in targets.items() if t is None),
            "spans_file": str(spans_path.relative_to(BENCH.parent)),
            "spans_kept": len(tr.spans["id"]),
            "spans_truncated": tr.truncated,
            "max_op_unaccounted_share": tr.max_gap_share,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spans", type=Path, help="traced mode: where to write the spans")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    inp0 = wl.make_input(args.seed, 0)
    out0, error0 = call(wl.run, inp0)
    print("READY", flush=True)
    speed = Speed()
    speed.sample(SETUP_REF_S)
    setup_scale = REF_NOMINAL_S / speed.refs[0]
    if args.mode == "setup":
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    tally = Tally()
    run_checked(wl, inp0, out0, error0, tally, 0)
    if args.mode == "timed":
        result = timed(wl, args.seed, args.seconds, tally, speed)
    else:
        result = traced(wl, args.seed, tally, args.spans)
    if wl.fingerprint is not None and error0 is None:
        # the determinism contract: the same job, repeated, is bitwise identical
        again, error = call(wl.run, inp0)
        if error is None:
            keys, error = call(lambda: (wl.fingerprint(out0), wl.fingerprint(again)))
        if error is None and keys[0] != keys[1]:
            error = "repeated op 0 is not bitwise identical"
        tally.add(0, [error] if error else [])

    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["setup_scale"] = setup_scale
    result["detail"].update(
        numpy=numpy.__version__,
        thread_env={k: os.environ.get(k) for k in ("FSLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
