"""Seeded inputs, op sequences and output checks for the modval benchmark.

Every workload drives ``modval.cli.main(argv)`` with config files written
here. An op is one such call writing a CSV table; its check parses that
table and returns ``None`` when the output is correct, else a reason.

The checks hold their own reference values (preset amplitudes, the
closed-form phase family) and never call modval, so a wrong program cannot
vouch for itself and a traced run does not count the checker's work.

Workloads and why they were chosen:

* ``sweep_fig3``: the real ``sweep-theta`` usage; mostly per-call overhead
  on tiny dense objects, the scipy ``expm`` definitional path and the
  orthogonal-postselection error rows. A fresh epsilon per op defeats
  memoisation.
* ``exact_7x5``: exact inversion of random non-square 7x5 states, where
  the O((4mn)^3) dense forward model dominates.
* ``noise_fig4``: the shot-noise path (Monte Carlo and the separate
  ``compare`` loop with Pauli tomography), including a low-count kind whose
  trials are often rejected.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("sweep_fig3", "exact_7x5", "noise_fig4")

# coupling g = pi, the config default, so s = e^{-ig} - 1 = -2
S_PARAMETER = -2.0

EXACT_DIMS = (7, 5)
EXACT_STATES = 8
EXACT_EPSILON = 0.2
# size of the random kick added to uniform_plus, relative to its amplitude
EXACT_SPREAD = 1.0
# README's exact branch holds while eps*|M| <= 1; stay well inside it
EXACT_MARGIN_LIMIT = 0.5
EXACT_FIDELITY = 1.0 - 1e-10

SWEEP_STEPS = 5
SWEEP_EPSILON_RANGE = (0.1, 0.3)
SWEEP_TOL = 1e-9

NOISE_FIGS = ("fig4a", "fig4b", "fig4c", "fig4d")
NOISE_TRIALS = 50
NOISE_FIDELITY = 0.99  # README's frozen acceptance threshold
# kind -> (subcommand, pairs per setting, epsilon override)
NOISE_KINDS = (
    ("reconstruct", 100_000, None),
    ("compare", 100_000, None),
    ("reconstruct", 500, 0.9),
)

_SQ = 1.0 / math.sqrt(2.0)
FIG4_STATES = {
    "fig4a": np.array([_SQ, 0, 0, _SQ], dtype=complex),
    "fig4b": np.array([_SQ, 0, 0, 1j * _SQ], dtype=complex),
    "fig4c": np.array([1, -1j, 1, -1j], dtype=complex) / 2.0,
    "fig4d": np.array([0.8, -0.6j, -0.8, -0.6j], dtype=complex) * _SQ,
}

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Check


@dataclass
class Plan:
    """A workload bound to its seed and the configs written for it.

    ``op(i, out)`` is deterministic in (seed, i). A ``cycle`` of consecutive
    ops holds every op kind once and is the warm-up; ``trace_ops`` is the
    fixed op count of a traced round.
    """

    name: str
    cycle: int
    trace_ops: int
    op: Callable[[int, str], Op]
    notes: dict = field(default_factory=dict)


def op_rng(seed: int, i: int) -> np.random.Generator:
    """Generator for op ``i``; depends only on (seed, i)."""
    return np.random.default_rng([seed, i])


def write_config(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def read_table(path: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a modval CSV table into its ``# key=value`` meta and rows."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _cell(row: dict, prefix: str) -> complex:
    return complex(float(row[f"{prefix}_re"]), float(row[f"{prefix}_im"]))


def _amplitudes(rows: list[dict], dims: tuple[int, int]) -> np.ndarray:
    m, n = dims
    amps = np.zeros(m * n, dtype=complex)
    seen = set()
    for row in rows:
        j, l = int(row["comp_a"]), int(row["comp_b"])
        seen.add((j, l))
        amps[j * n + l] = _cell(row, "amp")
    if len(rows) != m * n or len(seen) != m * n:
        raise ValueError(f"expected {m * n} distinct components, got {len(rows)} rows")
    return amps


def _kept_rejected(meta: dict, trials: int) -> str | None:
    kept, rejected = int(meta["trials_kept"]), int(meta["trials_rejected"])
    if kept + rejected != trials:
        return f"kept {kept} + rejected {rejected} != trials {trials}"
    if kept < 1:
        return "no trial kept"
    return None


def max_modular_magnitude(psi: np.ndarray, phi: np.ndarray, dims: tuple[int, int],
                          s: float = S_PARAMETER) -> float:
    """Largest |M| over the plan settings, from the closed form.

    With w = conj(phi) * psi / <phi|psi> as an (m, n) matrix, a single on
    side A has M = 1 + s * sum_l w[j, l], side B likewise over j, and a pair
    adds both sums plus s^2 w[j, l] (j, l >= 1).
    """
    m, n = dims
    w = (phi.conj() * psi).reshape(m, n) / np.vdot(phi, psi)
    rows, cols = w.sum(axis=1), w.sum(axis=0)
    singles_a = 1 + s * rows[1:]
    singles_b = 1 + s * cols[1:]
    pairs = 1 + s * rows[1:, None] + s * cols[None, 1:] + s * s * w[1:, 1:]
    return float(max(np.abs(singles_a).max(), np.abs(singles_b).max(), np.abs(pairs).max()))


def random_states(seed: int, count: int = EXACT_STATES, dims=EXACT_DIMS,
                  epsilon: float = EXACT_EPSILON,
                  limit: float = EXACT_MARGIN_LIMIT) -> tuple[list[np.ndarray], float]:
    """Random states near uniform_plus with eps * max|M| <= limit.

    Returns the states and the largest eps * |M| among them.
    """
    m, n = dims
    phi = np.full(m * n, 1.0 / math.sqrt(m * n), dtype=complex)
    rng = np.random.default_rng(seed)
    states, worst = [], 0.0
    while len(states) < count:
        kick = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
        psi = phi + EXACT_SPREAD * kick / math.sqrt(m * n)
        psi /= np.linalg.norm(psi)
        margin = epsilon * max_modular_magnitude(psi, phi, dims)
        if margin <= limit:
            states.append(psi)
            worst = max(worst, margin)
    return states, worst


# ---------------------------------------------------------------------------
# sweep_fig3

def check_sweep(epsilon: float) -> Check:
    def check(path: str) -> str | None:
        meta, rows = read_table(path)
        if meta.get("epsilon") != repr(epsilon):
            return f"epsilon {meta.get('epsilon')} != {epsilon!r}"
        if len(rows) != 3 * SWEEP_STEPS:
            return f"{len(rows)} rows, expected {3 * SWEEP_STEPS}"
        for row in rows:
            theta = float(row["theta"])
            orthogonal = math.isclose(abs(theta), math.pi, abs_tol=1e-12)
            expected_error = "orthogonal_postselection" if orthogonal else ""
            if row["error"] != expected_error:
                return f"theta={theta} {row['method']}: error {row['error']!r}"
            if row["method"] == "exact_inversion" and abs(theta) <= math.pi / 2 + 1e-12:
                psi_vv = _cell(row, "psi_vv")
                want = cmath.exp(1j * theta) / math.sqrt(2.0)
                if abs(psi_vv - want) > SWEEP_TOL:
                    return f"theta={theta}: psi_vv {psi_vv} != {want}"
        return None
    return check


def _sweep_plan(seed: int, configs: Path) -> Plan:
    config = write_config(configs, "fig3_sweep.json", {
        "schema_version": 1,
        "state": {"preset": "fig3"},
        "postselection": {"preset": "uniform_plus"},
        "epsilon": 0.2,
        "format": "csv",
    })

    def make_op(i: int, out: str) -> Op:
        epsilon = float(op_rng(seed, i).uniform(*SWEEP_EPSILON_RANGE))
        argv = ["sweep-theta", "--config", config, "--steps", str(SWEEP_STEPS),
                "--epsilon", repr(epsilon), "--out", out, "--no-timestamp"]
        return Op(argv, check_sweep(epsilon))

    return Plan("sweep_fig3", cycle=5, trace_ops=10, op=make_op)


# ---------------------------------------------------------------------------
# exact_7x5

def check_exact(psi: np.ndarray, dims: tuple[int, int]) -> Check:
    def check(path: str) -> str | None:
        _, rows = read_table(path)
        amps = _amplitudes(rows, dims)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-10:
            return f"amplitude norm {norm!r}"
        fidelity = abs(np.vdot(psi, amps)) ** 2
        if fidelity < EXACT_FIDELITY:
            return f"fidelity {fidelity!r} < {EXACT_FIDELITY}"
        return None
    return check


def _exact_plan(seed: int, configs: Path) -> Plan:
    states, worst = random_states(seed)
    paths = [
        write_config(configs, f"exact_{k}.json", {
            "schema_version": 1,
            "state": {"amps": [[float(a.real), float(a.imag)] for a in psi],
                      "dims": list(EXACT_DIMS)},
            "postselection": {"preset": "uniform_plus"},
            "epsilon": EXACT_EPSILON,
            "method": "exact_inversion",
            "format": "csv",
        })
        for k, psi in enumerate(states)
    ]

    def make_op(i: int, out: str) -> Op:
        k = i % len(states)
        argv = ["reconstruct", "--config", paths[k], "--out", out, "--no-timestamp"]
        return Op(argv, check_exact(states[k], EXACT_DIMS))

    return Plan("exact_7x5", cycle=len(states), trace_ops=len(states), op=make_op,
                notes={"max_eps_abs_M": worst})


# ---------------------------------------------------------------------------
# noise_fig4

def check_noise_mean(truth: np.ndarray, trials: int) -> Check:
    """Kind (a): fidelity of the normalized mean amplitudes."""
    def check(path: str) -> str | None:
        meta, rows = read_table(path)
        problem = _kept_rejected(meta, trials)
        if problem:
            return problem
        amps = _amplitudes(rows, (2, 2))
        fidelity = abs(np.vdot(truth, amps)) ** 2 / float(np.vdot(amps, amps).real)
        if fidelity < NOISE_FIDELITY:
            return f"mean-amplitude fidelity {fidelity!r} < {NOISE_FIDELITY}"
        return None
    return check


def check_compare(trials: int) -> Check:
    """Kind (b): median direct and tomography fidelities."""
    def check(path: str) -> str | None:
        _, rows = read_table(path)
        if len(rows) != trials:
            return f"{len(rows)} rows, expected {trials}"
        kept = [row for row in rows if not row["error"]]
        if not kept:
            return "no trial kept"
        for column in ("fidelity_direct_vs_truth", "fidelity_tomography_vs_truth"):
            median = statistics.median(float(row[column]) for row in kept)
            if median < NOISE_FIDELITY:
                return f"median {column} {median!r} < {NOISE_FIDELITY}"
        return None
    return check


def check_low_count(trials: int) -> Check:
    """Kind (c): the rejection bookkeeping adds up and something was kept."""
    def check(path: str) -> str | None:
        meta, _ = read_table(path)
        return _kept_rejected(meta, trials)
    return check


def _noise_plan(seed: int, configs: Path) -> Plan:
    paths = {
        fig: write_config(configs, f"{fig}.json", {
            "schema_version": 1,
            "state": {"preset": fig},
            "postselection": {"preset": "uniform_plus"},
            "epsilon": 0.2,
            "method": "exact_inversion",
            "format": "csv",
        })
        for fig in NOISE_FIGS
    }

    def make_op(i: int, out: str) -> Op:
        kind = i % len(NOISE_KINDS)
        fig = NOISE_FIGS[(i // len(NOISE_KINDS)) % len(NOISE_FIGS)]
        command, pairs, epsilon = NOISE_KINDS[kind]
        op_seed = int(op_rng(seed, i).integers(2**31))
        argv = [command, "--config", paths[fig], "--pairs", str(pairs),
                "--trials", str(NOISE_TRIALS), "--seed", str(op_seed)]
        if epsilon is not None:
            argv += ["--epsilon", repr(epsilon)]
        argv += ["--out", out, "--no-timestamp"]
        if kind == 0:
            check = check_noise_mean(FIG4_STATES[fig], NOISE_TRIALS)
        elif kind == 1:
            check = check_compare(NOISE_TRIALS)
        else:
            check = check_low_count(NOISE_TRIALS)
        return Op(argv, check)

    cycle = len(NOISE_KINDS) * len(NOISE_FIGS)
    return Plan("noise_fig4", cycle=cycle, trace_ops=cycle, op=make_op)


_PLANS = {"sweep_fig3": _sweep_plan, "exact_7x5": _exact_plan, "noise_fig4": _noise_plan}


def prepare(name: str, seed: int, configs: Path) -> Plan:
    """Write the workload's seeded configs into ``configs`` and return its plan."""
    configs.mkdir(parents=True, exist_ok=True)
    return _PLANS[name](seed, configs)
