"""modval benchmark: one workload, end to end (``--trace 0``) or per layer (``--trace 1``).

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload exact_7x5 --seed 1 --seconds 20 --trace 0

Every process runs with BLAS/OpenMP pinned to one thread. With ``--trace 0``
the set-up (fresh interpreter to first op ready: ``import modval.cli`` plus
writing the seeded configs) is timed over several cold starts, then one
worker runs ops back to back for ``--seconds``. With ``--trace 1`` the worker
instead runs a fixed op list untraced and traced in turn (see worker.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
summarise the run for a reader. The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# cold starts timed for setup_s; the worker's own start is one of them
SETUP_STARTS = 7
# a run, with every start and the worker, ends well inside 180 s
RUN_BUDGET_S = 170.0
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def start_worker(args, workdir: Path, *, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, timeout=10)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for ``proc`` and return its remaining stdout; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s; killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    setup_samples = []
    # an untimed first start compiles the bytecode caches a user's install already has
    for k in range(SETUP_STARTS):
        proc, setup_s = start_worker(args, workdir / f"setup-{k}", setup_only=True)
        finish(proc, deadline - time.perf_counter())
        if k:
            setup_samples.append(setup_s)
    proc, setup_s = start_worker(args, workdir / "run", setup_only=False)
    setup_samples.append(setup_s)
    result = json.loads(finish(proc, deadline - time.perf_counter()).splitlines()[-1])

    latencies_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    p90 = statistics.quantiles(latencies_ms, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(latencies_ms) / (result["timed_ns"] / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }
    print(f"# set-up: {len(setup_samples)} cold starts, {quartiles(setup_samples)} s")
    print(f"# latency: {len(latencies_ms)} timed ops after {result['attempted'] - len(latencies_ms)}"
          f" warm-up or failed, {sum(v > p90 for v in latencies_ms)} beyond p90, "
          f"{quartiles(latencies_ms)} ms")
    return result, metrics


def traced(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    proc, _ = start_worker(args, workdir / "run", setup_only=False)
    result = json.loads(finish(proc, deadline - time.perf_counter()).splitlines()[-1])
    print(f"# traced: {result['rounds']} rounds of paired untraced/traced ops, "
          f"{result['trace_problems']} span-accounting problems")
    return result, {name: tuple(pair) for name, pair in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "modval" / "cli.py").is_file():
        sys.stderr.write(f"error: no modval source tree at {SRC}\n")
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        run = traced if args.trace else end_to_end
        result, metrics = run(args, workdir, deadline)
    except (BenchError, ValueError, KeyError, IndexError, statistics.StatisticsError) as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result.get("trace_problems")
    print(f"# {args.workload} seed={args.seed}: attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g} notes={json.dumps(result['notes'])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
