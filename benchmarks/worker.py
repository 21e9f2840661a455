"""One workload in a fresh interpreter, driven as a closed loop by one client.

Run by ``run.py``; not meant to be started by hand. The worker imports
``modval.cli`` from the given source tree, writes the seeded configs, prints
``ready`` (the parent times set-up up to that line), then either exits
(``--setup-only``) or runs ops and prints one JSON line with its results.

An op is one ``modval.cli.main(argv)`` call; its output table is checked
after the call, outside the timed region. The next op starts only after the
previous one is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def run_op(plan, i: int, out: str) -> tuple[int, str | None]:
    """Run op ``i``; return its wall time in ns and a failure reason or None."""
    op = plan.op(i, out)
    if os.path.exists(out):
        os.unlink(out)
    main = sys.modules["modval.cli"].main  # looked up per op so a traced run sees the wrapper
    start = time.perf_counter_ns()
    try:
        code = main(op.argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter_ns() - start, f"raised {exc!r}"
    wall = time.perf_counter_ns() - start
    if code != 0:
        return wall, f"exit code {code}"
    try:
        return wall, op.check(out)
    except (OSError, ValueError, KeyError) as exc:
        return wall, f"unreadable output: {exc!r}"


class Tally:
    """Attempted and failed ops; prints the first few failure reasons."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if self.failed <= 5:
                sys.stderr.write(f"{self.plan.name} op {i} failed: {failure}\n")


def timed_run(plan, seconds: float, out: str) -> dict:
    """Warm up for one cycle, then run ops back to back until ``seconds`` pass."""
    tally = Tally(plan)
    for i in range(plan.cycle):
        tally.record(i, run_op(plan, i, out)[1])
    latencies = []
    i = plan.cycle
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while not latencies or time.perf_counter_ns() < deadline:
        wall, failure = run_op(plan, i, out)
        tally.record(i, failure)
        if failure is None:
            latencies.append(wall)
        i += 1
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "latencies_ns": latencies,
        "timed_ns": time.perf_counter_ns() - start,
    }


def traced_run(plan, seconds: float, out: str, tracer) -> dict:
    """Warm up for one cycle, then rounds of ``plan.trace_ops`` ops, each run untraced and traced.

    Every round repeats the same ops, so per-op counts do not depend on how
    many rounds fit in ``seconds``. The untraced and traced runs of an op
    alternate in order, and their wall-time ratio is the tracing overhead.
    """
    tally = Tally(plan)
    for i in range(plan.cycle):
        tally.record(i, run_op(plan, i, out)[1])
    untraced_ns = traced_ns = bytes_written = 0
    problems = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    rounds = 0
    while rounds == 0 or time.perf_counter_ns() < deadline:
        for i in range(plan.trace_ops):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    wall, failure = run_op(plan, i, out)
                    untraced_ns += wall
                else:
                    with tracer.installed():
                        wall, failure = run_op(plan, i, out)
                    problem = tracer.fold(wall)
                    if problem:
                        problems.append(problem)
                    traced_ns += wall
                    if failure is None:
                        bytes_written += os.path.getsize(out)
                tally.record(i, failure)
        rounds += 1
    for problem in problems[:5]:
        sys.stderr.write(f"{plan.name} trace check failed: {problem}\n")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "trace_problems": len(problems),
        "rounds": rounds,
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "bytes_written": bytes_written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="source tree holding the modval package")
    parser.add_argument("--workdir", required=True, help="directory for configs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import modval.cli
    if not Path(modval.cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"error: modval imported from {modval.cli.__file__}, not {src}\n")
        return 2
    workdir = Path(args.workdir)
    plan = workloads.prepare(args.workload, args.seed, workdir / "configs")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = str(workdir / "out.csv")
    if args.trace:
        import tracer
        trace = tracer.Tracer()
        result = traced_run(plan, args.seconds, out, trace)
        result["metrics"] = tracer.layer_metrics(trace, result)
    else:
        result = timed_run(plan, args.seconds, out)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["notes"] = plan.notes
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
