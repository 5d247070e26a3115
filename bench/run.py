"""fslab benchmark: run one workload, or all of them, and print the metrics.

    python3 bench/run.py [--workload verify|sweep|witness|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it measures the fslab in that
checkout's ``src`` and builds nothing. Each workload runs in fresh
interpreters (bench/worker.py) with FSLAB_THREADS unset and the BLAS thread
counts pinned to 1, as a closed loop with one client:

* ``--trace 0`` times set-up in several fresh interpreters (import fslab and
  fslab.cli, then the first op) and reports their median, scaled to nominal
  machine speed like every time (bench/README.md), as ``setup_s``; one of
  them then runs the timed loop for S seconds and reports the end-to-end
  metrics;
* ``--trace 1`` runs the workload's fixed op list under the per-layer tracer
  and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail {...}``) carries provenance and sample counts, and the same detail
is written to bench/out/. ``--workload all`` prints every metric of every
workload as a table, then one JSON object keyed by workload. The metric
names, units and workloads are those of BENCHMARK.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up samples per run (fresh interpreters); the median is reported.
SETUP_RUNS = 5

# A run ends within this many seconds or fails.
RUN_DEADLINE_S = 170.0

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("FSLAB_THREADS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run bench/worker.py; return (seconds from spawn to READY, rest of stdout)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, rest


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(spec: dict, workload: str, seed: int) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg": os.getloadavg(),
        "workload": workload,
        "why": why[workload],
        "seed": seed,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: (result object, detail object)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]

    def run(mode: list[str]) -> tuple[float, dict]:
        setup_s, rest = spawn(common + mode, deadline)
        try:
            out = json.loads(rest.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"worker printed no result: {exc}") from None
        return setup_s, out

    setups = []  # (raw set-up s, factor to nominal speed)
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        _, out = run(["--mode", "traced", "--spans", str(spans)])
    else:
        # set-up samples before and after the timed run, so one slow spell
        # of a shared machine does not hold all of them
        before = (SETUP_RUNS - 1) // 2
        for _ in range(before):
            setup_s, probe = run(["--mode", "setup"])
            setups.append((setup_s, probe["setup_scale"]))
        setup_s, out = run(["--mode", "timed"])
        setups.append((setup_s, out["setup_scale"]))
        for _ in range(SETUP_RUNS - 1 - before):
            setup_s, probe = run(["--mode", "setup"])
            setups.append((setup_s, probe["setup_scale"]))
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(s * k for s, k in setups), "unit": "s"}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: got {sorted(got)}, declared {sorted(declared)}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: metrics[name] for name in declared},
    }
    detail = provenance(spec, workload, seed)
    detail.update(out["detail"], trace=int(trace), seconds=seconds)
    detail["failed_ratio"] = out["failed"] / out["attempted"]
    if setups:
        detail["setup_samples_s"] = [s for s, _ in setups]
        detail["setup_scales"] = [k for _, k in setups]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    return result, detail


def print_table(workload: str, result: dict, detail: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:8} {name:42} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:8} {'failed_ratio':42} {detail['failed_ratio']:>16.6g} ratio"
          f"   ({result['failed']} of {result['attempted']} ops)")
    for name, value in detail.get("raw", {}).items():
        unit = result["metrics"][name]["unit"]
        print(f"{workload:8} {'unscaled ' + name:42} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "fslab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"{ROOT} is not an fslab checkout: need src/fslab and BENCHMARK.json\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.workload != "all":
            result, detail = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
            print("detail " + json.dumps(detail))
            print(json.dumps(result))
            return 0
        results = {}
        for name in names:
            result, detail = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
            print_table(name, result, detail)
            results[name] = result
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
