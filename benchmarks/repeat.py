"""Repeat benchmark runs over several seeds and summarise their spread.

Usage, from the root of a source checkout::

    python3 benchmarks/repeat.py --runs 10 --seconds 20 --json benchmarks/results/x.json

Runs ``run.py`` once per (workload, seed), seeds ``--first-seed`` onward,
for the workloads in BENCHMARK.json unless ``--workloads`` names others,
and prints per metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median. For end-to-end metrics the spread
is compared with a third of the bound in BENCHMARK.json. ``--json`` also
records every value and the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_info() -> dict:
    import numpy
    import scipy

    def cache_size(index: int) -> str | None:
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.exists() else None

    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": cache_size(2),
        "l3": cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": 1,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every value and the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": machine_info(), "seconds": args.seconds, "trace": args.trace,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary = {name: {**summarise(vals), "unit": units[name], "values": vals}
                   for name, vals in values.items()}
        report["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                         "metrics": summary}
        print(f"{workload}: {len(seeds)} runs, attempted={attempted} failed={failed}")
        for name, s in summary.items():
            line = (f"  {name:40s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                    f"q3={s['q3']:<12.6g} {s['unit']}")
            if s["spread"] is not None:
                line += f"  spread={s['spread']:.4f}"
            if name in bounds and s["spread"] is not None:
                line += "  ok" if s["spread"] < bounds[name] / 3 else "  WIDE (>= bound/3)"
            print(line, flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
