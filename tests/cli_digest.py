"""Seeded CLI sweep: one sha256 of (exit code, stdout, stderr) per run.

Runs a fixed grid of in-process ``modval`` calls with ``--no-timestamp``
and prints ``<sha256> <label>`` per run, so two source trees can be compared
byte for byte::

    python tests/cli_digest.py --src OTHER_TREE/src > before.txt
    python tests/cli_digest.py --src src > after.txt
    diff before.txt after.txt

``--every N`` runs every N-th entry of the grid only, and ``--show LABEL``
prints the status, stdout and stderr of the one run with that label (the
text after the hash), so a changed line can be read::

    python tests/cli_digest.py --src src --show "reconstruct 7x5 exact_inversion csv"

The full grid's output is pinned in ``tests/data/cli_digest.txt``, which
``tests/test_cli.py`` compares line by line; a deliberate output change
regenerates it with
``python tests/cli_digest.py --src src > tests/data/cli_digest.txt``.

A run that raises records the exception type in place of an exit code, so a
crash shows up as a changed digest instead of ending the sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

FIG4 = ("fig4a", "fig4b", "fig4c", "fig4d")
EXPLICIT_DIMS = ((2, 2), (3, 2), (2, 3), (4, 3), (5, 4), (7, 5), (9, 8))
FORMATS = ("csv", "json")
METHODS = ("exact_inversion", "first_order", "definitional")
# (label, noise config, extra flags): high-count, one trial, and low-count
# with rejected or clamped trials
NOISE = (
    ("n1e5", {"pairs_per_setting": 100_000, "trials": 12, "seed": 7}, []),
    ("n1e5t1", {"pairs_per_setting": 100_000, "trials": 1, "seed": 3}, []),
    ("n500", {"pairs_per_setting": 500, "trials": 12, "seed": 11}, ["--epsilon", "0.9"]),
    ("n500clamp", {"pairs_per_setting": 500, "trials": 12, "seed": 11, "clamp": True},
     ["--epsilon", "0.9"]),
)
# inputs that must end in one error line, not a traceback
ERROR_CASES = (
    ("seed-1", {"noise": {"pairs_per_setting": 1000, "trials": 3, "seed": -1}}, []),
    ("flag-seed-1", {}, ["--pairs", "1000", "--seed", "-1"]),
    ("dims-str", {"state": {"amps": [[0.5, 0]] * 4, "dims": ["a", 2]}}, []),
    ("dims-int", {"state": {"amps": [[0.5, 0]] * 4, "dims": 5}}, []),
    ("dims-1x4", {"state": {"amps": [[0.5, 0]] * 4, "dims": [1, 4]}}, []),
    ("dims-2x2x1", {"state": {"amps": [[0.5, 0]] * 4, "dims": [2, 2, 1]}}, []),
    ("pairs0", {}, ["--pairs", "0"]),
    ("orthogonal", {"state": {"preset": "fig3"}, "theta": math.pi}, []),
    ("all-rejected", {"noise": {"pairs_per_setting": 1, "trials": 3, "seed": 0}}, []),
    ("epsilon-null", {"epsilon": None}, []),
    ("g-null", {"g": None}, []),
    ("output-null", {"output_path": None}, []),
    # json.dumps writes inf as Infinity, which json.load reads as it reads 1e400
    ("pairs-1e400", {"noise": {"pairs_per_setting": math.inf}}, []),
    ("flag-pairs-huge", {}, ["--pairs", "100000000000000000000000"]),
    ("out-dir", {}, ["--out", "."]),
    ("out-missing-dir", {}, ["--out", "missing-dir/out.csv"]),
    # wrongly typed values that used to be coerced, and trial counts past the cap
    ("clamp-str", {"noise": {"pairs_per_setting": 1000, "trials": 3, "clamp": "no"}}, []),
    ("output-int", {"output_path": 5}, []),
    ("theta-bool", {"state": {"preset": "fig3"}, "theta": True}, []),
    ("pairs-2.5", {"noise": {"pairs_per_setting": 2.5}}, []),
    ("trials-1e400", {"noise": {"pairs_per_setting": 1000, "trials": 10**400}}, []),
    ("flag-trials-huge", {}, ["--pairs", "1000", "--trials", "100000000000000000000000"]),
    # flag strings outside the JSON number grammar, and a flag the parser does not know
    ("flag-pairs-1_000", {}, ["--pairs", "1_000"]),
    ("flag-epsilon-.5", {}, ["--epsilon", ".5"]),
    ("flag-unknown", {}, ["--no-such-flag"]),
    # a prefix of a flag is not the flag
    ("flag-prefix", {}, ["--pair", "1000", "--tri", "3"]),
    # below the epsilon floor: a wrong table with exit 0, and numpy warnings
    # before an inversion failure
    ("epsilon-1e-17", {}, ["--epsilon", "1e-17"]),
    ("epsilon-1e-300", {}, ["--epsilon", "1e-300"]),
)


def _amps(rng: np.random.Generator, m: int, n: int) -> list[list[float]]:
    """A seeded state near the uniform one, as [re, im] pairs."""
    psi = 1.0 + 0.6 * (rng.normal(size=m * n) + 1j * rng.normal(size=m * n))
    psi /= np.linalg.norm(psi)
    return [[float(z.real), float(z.imag)] for z in psi]


def _states() -> list[tuple[str, dict]]:
    """(label, config fields) of every state, each with its postselection."""
    rng = np.random.default_rng(2026)
    states = [(fig, {"state": {"preset": fig}}) for fig in FIG4]
    states += [(f"fig3@{theta:g}", {"state": {"preset": "fig3"}, "theta": theta})
               for theta in (0.7, -2.0)]
    states.append(("fig3@pi-alt", {"state": {"preset": "fig3"}, "theta": math.pi,
                                   "postselection": {"preset": "alt_postselection"}}))
    for m, n in EXPLICIT_DIMS:
        state = {"amps": _amps(rng, m, n), "dims": [m, n]}
        states.append((f"{m}x{n}", {"state": state}))
        states.append((f"{m}x{n}-post-g1", {"state": state, "g": 1.0, "epsilon": 0.3,
                                            "postselection": {"amps": _amps(rng, m, n),
                                                              "dims": [m, n]}}))
    return states


def runs() -> list[tuple[str, str, dict, list[str]]]:
    """The grid: (label, subcommand, config fields, extra flags)."""
    grid = []
    for name, fields in _states():
        two_qubit = "dims" not in fields["state"] or fields["state"]["dims"] == [2, 2]
        for fmt in FORMATS:
            base = {**fields, "format": fmt}
            for method in METHODS:
                grid.append((f"reconstruct {name} {method} {fmt}", "reconstruct", base,
                             ["--method", method]))
            for label, noise, flags in NOISE:
                grid.append((f"reconstruct {name} {label} {fmt}", "reconstruct",
                             {**base, "noise": noise}, flags))
                if two_qubit:
                    grid.append((f"compare {name} {label} {fmt}", "compare",
                                 {**base, "noise": noise}, flags))
            if two_qubit:
                grid.append((f"compare {name} exact {fmt}", "compare", base, []))
                grid.append((f"tomography {name} {fmt}", "tomography", base, []))
                grid.append((f"tomography {name} n1000 {fmt}", "tomography",
                             {**base, "noise": {"pairs_per_setting": 1000, "seed": 5}}, []))
    for fmt in FORMATS:
        for post in ("uniform_plus", "alt_postselection"):
            fields = {"state": {"preset": "fig3"}, "postselection": {"preset": post},
                      "format": fmt}
            for flags in (["--steps", "9"], ["--steps", "41"],
                          ["--steps", "7", "--theta-min", "-1", "--theta-max", "2.5",
                           "--epsilon", "0.5"]):
                grid.append((f"sweep-theta {post} {' '.join(flags)} {fmt}", "sweep-theta",
                             fields, flags))
    for command in ("reconstruct", "compare", "tomography"):
        for label, fields, flags in ERROR_CASES:
            grid.append((f"{command} error {label}", command, fields, flags))
    return grid


def capture(main, directory: Path, command: str, fields: dict,
            flags: list[str]) -> tuple[str, str, str]:
    """(exit code or exception type, stdout, stderr) of one in-process call."""
    doc = {"schema_version": 1, "state": {"preset": "fig4a"}, **fields}
    config = directory / "run.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = str(main([command, "--config", str(config), *flags, "--no-timestamp"]))
        except SystemExit as exc:
            status = str(exc.code)
        except Exception as exc:  # a crash is recorded, not fatal to the sweep
            status = f"raised:{type(exc).__name__}"
    return status, out.getvalue(), err.getvalue()


def digest(captured: tuple[str, str, str]) -> str:
    return hashlib.sha256("\0".join(captured).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _scratch_directory():
    """A temporary working directory, so relative outputs, such as "5" from
    "output_path": 5, land there."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def lines(modval_main, every: int = 1) -> list[str]:
    """``<sha256> <label>`` of every ``every``-th grid run, made in a temporary directory."""
    with _scratch_directory() as tmp:
        return [f"{digest(capture(modval_main, tmp, command, fields, flags))} {label}"
                for label, command, fields, flags in runs()[::every]]


def show(modval_main, label: str) -> str:
    """The status, stdout and stderr of the grid run named ``label``, or KeyError."""
    command, fields, flags = {run[0]: run[1:] for run in runs()}[label]
    with _scratch_directory() as tmp:
        status, out, err = capture(modval_main, tmp, command, fields, flags)
    return f"status: {status}\n--- stdout ---\n{out}--- stderr ---\n{err}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source tree holding the modval package")
    parser.add_argument("--every", type=int, default=1, help="run every N-th grid entry only")
    parser.add_argument("--show", metavar="LABEL",
                        help="print the captured status, stdout and stderr of one grid run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from modval.cli import main as modval_main

    if args.show is not None:
        try:
            sys.stdout.write(show(modval_main, args.show))
        except KeyError:
            parser.error(f"no grid run is labelled {args.show!r}")
        return 0
    for line in lines(modval_main, args.every):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
