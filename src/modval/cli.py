"""Command-line interface: configuration, orchestration, table artifacts.

Subcommands::

    modval reconstruct --config run.json [overrides]
    modval sweep-theta --config run.json [--theta-min A --theta-max B --steps N]
    modval tomography  --config run.json [overrides]
    modval compare     --config run.json [overrides]

The JSON config schema (version 1)::

    {
      "schema_version": 1,
      "state": {"preset": "fig3"} | {"amps": [[re, im], ...], "dims": [m, n]},
      "theta": 0.0,                      // used by the fig3 preset
      "postselection": {"preset": "uniform_plus"} | {"amps": [...]},
      "epsilon": 0.2,
      "g": 3.141592653589793,
      "method": "exact_inversion",       // first_order | exact_inversion | definitional
      "noise": {"pairs_per_setting": 100000, "trials": 200, "seed": 7,
                "clamp": false},         // optional
      "output_path": "-",                // "-" = stdout
      "format": "csv"                    // csv | json
    }

Flags --method/--epsilon/--pairs/--trials/--seed/--out/--format override the
config; --no-timestamp removes the generated-at header so outputs are
byte-identical for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 orthogonal postselection,
4 inversion failure, 5 all trials rejected (a noisy ``reconstruct`` or
``compare`` in which no trial inverts). Every error prints one line
``error: <code>: <message>`` to stderr. Config errors include explicit
``dims`` that are not a list of two integral factors each at least 2 (such
as ["a", 2], [2.9, 2], "22", 5, [1, 4] or [2, 2, 1]), and a negative noise
seed from the config or from --seed.

Tables are built column by column (``write_table``) and written with one
csv.writer call, or as JSON rows of the same values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .errors import (
    AllTrialsRejected,
    ConfigError,
    ModvalError,
    NegativeDiscriminant,
    OrthogonalPostselection,
)
from .hilbert import PureState
from .noise import CountingConfig, monte_carlo, noisy_trials, sample_pauli_expectations, trial_rngs
from .presets import (
    POSTSELECTION_PRESETS,
    STATE_PRESETS,
    phase_bell,
    postselection_preset,
    state_preset,
    uniform_plus,
)
from .protocol import ProtocolConfig
from .reconstruction import METHODS, reconstruct_state, require_full_support, split_plan
from .tomography import fidelity_pure, fidelity_states, linear_inversion, pauli_expectations

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_INVERSION = 4
EXIT_ALL_REJECTED = 5

_EXIT_BY_ERROR = (
    (OrthogonalPostselection, EXIT_PROTOCOL),
    (NegativeDiscriminant, EXIT_INVERSION),
    (AllTrialsRejected, EXIT_ALL_REJECTED),
    (ConfigError, EXIT_CONFIG),
)


@dataclass(frozen=True)
class RunConfig:
    state_spec: dict
    postselection_spec: dict
    theta: float | None
    epsilon: float
    g: float
    method: str
    noise: CountingConfig | None
    output_path: str
    format: str
    timestamp: bool = True


def _parse_amplitudes(spec: dict, field: str) -> PureState:
    amps_raw = spec["amps"]
    raw = spec.get("dims", (2, 2))
    try:  # a list of integral factors: int() alone would read "22" and [2.9, 2] as (2, 2)
        dims = tuple(int(d) for d in raw if isinstance(raw, (list, tuple)) and float(d) == int(d))
    except (TypeError, ValueError, OverflowError):
        dims = ()
    if len(dims) != 2 or len(raw) != 2 or min(dims) < 2:
        raise ConfigError(f"{field}.dims must be two integers, each at least 2, "
                          f"got {spec.get('dims')!r}")
    try:
        amps = np.array([complex(re, im) for re, im in amps_raw])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}.amps must be a list of [re, im] pairs: {exc}") from None
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ConfigError(f"{field}.amps must not be all zero")
    if abs(norm - 1.0) > 1e-6:
        sys.stderr.write(
            f"warning: {field} amplitudes renormalized (norm was {norm:.9f})\n"
        )
    try:
        return PureState(dims, amps / norm)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _resolve_state(cfg: RunConfig) -> PureState:
    spec = cfg.state_spec
    if "preset" in spec:
        name = spec["preset"]
        if name not in STATE_PRESETS:
            raise ConfigError(f"state.preset must be one of {STATE_PRESETS}, got {name!r}")
        return state_preset(name, cfg.theta)
    if "amps" in spec:
        return _parse_amplitudes(spec, "state")
    raise ConfigError("state must carry either a preset name or explicit amps")


def _resolve_postselection(cfg: RunConfig, dims: tuple[int, int]) -> PureState:
    spec = cfg.postselection_spec
    if "preset" in spec:
        name = spec["preset"]
        if name == "uniform_plus":
            return uniform_plus(*dims)
        if name not in POSTSELECTION_PRESETS:
            raise ConfigError(
                f"postselection.preset must be one of {POSTSELECTION_PRESETS}, got {name!r}"
            )
        return postselection_preset(name)
    if "amps" in spec:
        return _parse_amplitudes(spec, "postselection")
    raise ConfigError("postselection must carry either a preset name or explicit amps")


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    def field(name, default=None, kind=None):
        value = doc.get(name, default)
        if value is not None and kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(f"field {name!r} has invalid value {value!r}") from None
        return value

    method = field("method", "exact_inversion", str)
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    fmt = field("format", "csv", str)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    noise_doc = doc.get("noise")
    noise = None
    if noise_doc is not None:
        if not isinstance(noise_doc, dict):
            raise ConfigError("noise must be an object")
        try:
            noise = CountingConfig(
                pairs_per_setting=int(noise_doc["pairs_per_setting"]),
                trials=int(noise_doc.get("trials", 1)),
                seed=int(noise_doc.get("seed", 0)),
                clamp=bool(noise_doc.get("clamp", False)),
            )
        except KeyError as exc:
            raise ConfigError(f"noise is missing required field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise: {exc}") from None

    state_spec = doc.get("state")
    if not isinstance(state_spec, dict):
        raise ConfigError("field 'state' (object) is required")
    postsel_spec = doc.get("postselection", {"preset": "uniform_plus"})
    if not isinstance(postsel_spec, dict):
        raise ConfigError("field 'postselection' must be an object")

    def finite(name, default):
        # json.load accepts NaN and Infinity literals
        value = field(name, default, float)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
        return value

    return RunConfig(
        state_spec=state_spec,
        postselection_spec=postsel_spec,
        theta=finite("theta", None),
        epsilon=finite("epsilon", 0.2),
        g=finite("g", math.pi),
        method=method,
        noise=noise,
        output_path=field("output_path", "-", str),
        format=fmt,
    )


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.method is not None:
        if args.method not in METHODS:
            raise ConfigError(f"--method must be one of {METHODS}")
        cfg = replace(cfg, method=args.method)
    if args.epsilon is not None:
        cfg = replace(cfg, epsilon=args.epsilon)
    if args.out is not None:
        cfg = replace(cfg, output_path=args.out)
    if args.format is not None:
        cfg = replace(cfg, format=args.format)
    if args.no_timestamp:
        cfg = replace(cfg, timestamp=False)
    if args.pairs is not None or args.trials is not None or args.seed is not None:
        base = cfg.noise
        try:
            noise = CountingConfig(
                pairs_per_setting=args.pairs if args.pairs is not None
                else (base.pairs_per_setting if base else None),
                trials=args.trials if args.trials is not None
                else (base.trials if base else 1),
                seed=args.seed if args.seed is not None
                else (base.seed if base else 0),
                clamp=base.clamp if base else False,
            )
        except TypeError:
            raise ConfigError("--pairs is required to enable noise from the command line") from None
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
        cfg = replace(cfg, noise=noise)
    return cfg


def _protocol_config(cfg: RunConfig, state: PureState) -> ProtocolConfig:
    postselection = _resolve_postselection(cfg, state.dims)
    try:
        return ProtocolConfig(system_state=state, postselection=postselection,
                              epsilon=cfg.epsilon, g=cfg.g)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _direct_config(cfg: RunConfig, state: PureState) -> ProtocolConfig:
    """``_protocol_config`` for a direct reconstruction, checked before any run:
    every postselection amplitude must be nonzero."""
    pcfg = _protocol_config(cfg, state)
    try:
        require_full_support(pcfg.postselection)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return pcfg


# ---------------------------------------------------------------------------
# table output

def write_table(columns: dict[str, list], *, meta: dict, output_path: str, fmt: str,
                timestamp: bool, json_extra: dict | None = None) -> None:
    """Write a table given column by column, in the dict's order.

    A column is a list of Python values, one per row (the ``.tolist()`` of
    an array), with None for an empty cell. csv.writer formats every cell:
    None as an empty cell, a float as its repr, anything else with str. A
    JSON document carries the same values, one object per row.
    """
    meta_out = {"schema_version": SCHEMA_VERSION, **meta}
    fieldnames = list(columns)
    rows = zip(*columns.values())
    if fmt == "csv":
        buffer = io.StringIO()
        if timestamp:
            buffer.write(f"# generated={datetime.now(timezone.utc).isoformat()}\n")
        for key, value in meta_out.items():
            buffer.write(f"# {key}={value}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        doc = dict(meta_out)
        if timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        if json_extra:
            doc.update(json_extra)
        doc["columns"] = fieldnames
        doc["rows"] = [dict(zip(fieldnames, row)) for row in rows]
        text = json.dumps(doc, indent=2) + "\n"
    if output_path == "-":
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cells(values, at, rows: int) -> list:
    """A column of ``rows`` cells holding ``values`` at ``at`` (indices or a
    mask); the other cells are empty."""
    column = np.full(rows, None, dtype=object)
    column[at] = values
    return column.tolist()


def _complex_columns(prefix: str, values, suffix: str = "", at=None,
                     rows: int = 0) -> dict[str, list]:
    """The ``_re``/``_im`` columns of complex values, flattened row-major;
    given ``at``, the values fill only those of ``rows`` cells."""
    values = np.asarray(values).ravel()
    return {f"{prefix}_{name}{suffix}": part.tolist() if at is None else _cells(part, at, rows)
            for name, part in (("re", values.real), ("im", values.imag))}


def _grid_columns(names: tuple[str, str], dims: tuple[int, int]) -> dict[str, list]:
    """Row and column index of every cell of an m x n grid, row-major."""
    row, col = np.indices(dims)
    return {names[0]: row.ravel().tolist(), names[1]: col.ravel().tolist()}


def _component_columns(dims: tuple[int, int], amplitudes, weak_values, modulars, normalizer,
                       suffix: str = "") -> dict[str, list]:
    """The columns of a reconstruct table after comp_a/comp_b, rows (j, l) row-major.

    Component (j, l) shows the single_a modular value of j, the single_b one
    of l and the pair one of (j, l); index 0 has none, so those cells are empty.
    """
    m, n = dims
    mod_a, mod_b, mod_pair = split_plan(modulars, dims)
    row, col = (index.ravel() for index in np.indices(dims))
    columns = {**_complex_columns("amp", amplitudes, suffix),
               **_complex_columns("weak", weak_values, suffix)}
    for prefix, values, at in (("mod_a", np.repeat(mod_a, n), row > 0),
                               ("mod_b", np.tile(mod_b, m), col > 0),
                               ("mod_pair", mod_pair, (row > 0) & (col > 0))):
        columns.update(_complex_columns(prefix, values, suffix, at=at, rows=m * n))
    columns[f"normalizer{suffix}"] = [normalizer] * (m * n)
    return columns


# ---------------------------------------------------------------------------
# subcommands

def cmd_reconstruct(cfg: RunConfig) -> None:
    """Amplitude table for one configuration (exact or noise-propagated)."""
    pcfg = _direct_config(cfg, _resolve_state(cfg))
    meta = {"method": cfg.method, "epsilon": cfg.epsilon, "g": cfg.g}
    columns = _grid_columns(("comp_a", "comp_b"), pcfg.dims)
    if cfg.noise is None:
        result = reconstruct_state(pcfg, cfg.method)
        meta["reference_component"] = "%d,%d" % result.reference_component
        columns.update(_component_columns(pcfg.dims, result.amplitudes, result.weak_values,
                                          result.modulars, result.normalizer))
    else:
        mc = monte_carlo(pcfg, cfg.noise, method=cfg.method)
        meta.update(pairs_per_setting=cfg.noise.pairs_per_setting,
                    trials=cfg.noise.trials, seed=cfg.noise.seed,
                    trials_kept=mc.amplitudes.samples_kept,
                    trials_rejected=mc.amplitudes.samples_rejected)
        columns.update(_component_columns(pcfg.dims, mc.amplitudes.mean, mc.weak_values.mean,
                                          mc.modulars.mean, float(mc.normalizer.mean)))
        columns.update(_component_columns(pcfg.dims, mc.amplitudes.std, mc.weak_values.std,
                                          mc.modulars.std, float(mc.normalizer.std), "_std"))
    write_table(columns, meta=meta, output_path=cfg.output_path,
                fmt=cfg.format, timestamp=cfg.timestamp)


def cmd_sweep_theta(cfg: RunConfig, theta_min: float, theta_max: float, steps: int) -> None:
    """Phase sweep of the fig3 family; emits every method side by side.

    Rows where the postselection is orthogonal (theta = +/-pi with the
    uniform postselection) carry an error marker and empty numeric cells.
    """
    if steps < 2:
        raise ConfigError("--steps must be at least 2")
    for flag, value in (("--theta-min", theta_min), ("--theta-max", theta_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value!r}")
    if "preset" in cfg.state_spec and cfg.state_spec["preset"] != "fig3":
        raise ConfigError("sweep-theta requires the fig3 state preset")
    if cfg.noise is not None:
        sys.stderr.write("warning: sweep-theta runs the exact pipeline; noise config ignored\n")

    base = _direct_config(cfg, phase_bell(0.0))
    thetas = np.linspace(theta_min, theta_max, steps)
    methods = ("definitional", "first_order", "exact_inversion")
    errors = []  # per row: the error code, or None
    done, values = [], []  # per row with a result: its index and values
    for theta in thetas.tolist():
        pcfg = replace(base, system_state=phase_bell(theta))
        for method in methods:
            try:
                result = reconstruct_state(pcfg, method)
            except ModvalError as exc:
                errors.append(exc.code)  # its numeric cells stay empty
                continue
            done.append(len(errors))
            errors.append(None)
            values.append((*result.modulars, result.amplitudes[1, 1]))

    values = np.array(values, dtype=np.complex128).reshape(-1, 4)
    mod_a, mod_b, mod_pair = split_plan(values[:, :3], base.dims)
    columns = {"theta": np.repeat(thetas, len(methods)).tolist(), "method": list(methods) * steps}
    for prefix, column in (("mod_a", mod_a), ("mod_b", mod_b), ("mod_pair", mod_pair),
                           ("psi_vv", values[:, 3])):
        columns.update(_complex_columns(prefix, column, at=done, rows=len(errors)))
    columns["error"] = errors
    meta = {"epsilon": cfg.epsilon, "g": cfg.g,
            "theta_min": theta_min, "theta_max": theta_max, "steps": steps}
    write_table(columns, meta=meta, output_path=cfg.output_path,
                fmt=cfg.format, timestamp=cfg.timestamp)


def _require_two_qubits(pcfg: ProtocolConfig) -> None:
    if pcfg.dims != (2, 2):
        raise ConfigError("tomography requires a two-qubit (2 x 2) system")


def cmd_tomography(cfg: RunConfig) -> None:
    """Density-matrix artifact from linear inversion (exact or one noisy draw)."""
    pcfg = _protocol_config(cfg, _resolve_state(cfg))
    _require_two_qubits(pcfg)
    expectations = pauli_expectations(pcfg.system_state)
    meta = {}
    if cfg.noise is not None:
        rng = trial_rngs(cfg.noise.seed, 1)[0]
        expectations = sample_pauli_expectations(expectations, cfg.noise.pairs_per_setting, rng)
        meta.update(pairs_per_setting=cfg.noise.pairs_per_setting, seed=cfg.noise.seed)
    rho = linear_inversion(expectations)
    meta.update(min_eigenvalue=rho.min_eigenvalue, positive=rho.positive)
    columns = {**_grid_columns(("row", "col"), (4, 4)),
               "re": rho.mat.real.ravel().tolist(), "im": rho.mat.imag.ravel().tolist()}
    matrix = {"matrix_re": rho.mat.real.tolist(), "matrix_im": rho.mat.imag.tolist()}
    write_table(columns, meta=meta, output_path=cfg.output_path, fmt=cfg.format,
                timestamp=cfg.timestamp, json_extra=matrix)


def cmd_compare(cfg: RunConfig) -> None:
    """Fidelities: direct reconstruction vs tomography vs the true state.

    Every kept trial pairs its direct reconstruction with a tomography draw
    from its own generator; both are evaluated for all trials at once. A
    rejected trial gets a row with only its error code; with every trial
    rejected the run ends in AllTrialsRejected (exit 5) instead.
    """
    pcfg = _direct_config(cfg, _resolve_state(cfg))
    _require_two_qubits(pcfg)
    truth = pcfg.system_state
    exact_expect = pauli_expectations(truth)
    meta = {"method": cfg.method, "epsilon": cfg.epsilon}
    if cfg.noise is None:
        kept, result = np.ones(1, dtype=bool), reconstruct_state(pcfg, cfg.method)
        expectations = [exact_expect]
    else:
        meta.update(pairs_per_setting=cfg.noise.pairs_per_setting,
                    trials=cfg.noise.trials, seed=cfg.noise.seed)
        rngs, kept, result = noisy_trials(pcfg, cfg.noise, cfg.method)
        rngs = [rng for rng, keep in zip(rngs, kept.tolist()) if keep]
        expectations = sample_pauli_expectations(exact_expect, cfg.noise.pairs_per_setting, rngs)

    names = ("fidelity_direct_vs_truth", "fidelity_tomography_vs_truth",
             "fidelity_direct_vs_tomography")
    direct = result.amplitudes.reshape(-1, 4)[kept]
    rho = linear_inversion(expectations)
    fidelities = (fidelity_states(truth, direct), fidelity_pure(rho, truth),
                  fidelity_pure(rho, direct))
    columns = {"trial": list(range(kept.size)),
               **{name: _cells(values, kept, kept.size) for name, values in zip(names, fidelities)},
               "error": np.where(kept, None, NegativeDiscriminant.code).tolist()}
    write_table(columns, meta=meta, output_path=cfg.output_path,
                fmt=cfg.format, timestamp=cfg.timestamp)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later ``main``
    calls (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="modval",
        description="Direct measurement of bipartite pure states from modular values",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("reconstruct", "amplitude table for one configuration"),
        ("sweep-theta", "phase sweep of the fig3 state family"),
        ("tomography", "linear-inversion density matrix baseline"),
        ("compare", "direct reconstruction vs tomography fidelities"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--method", choices=METHODS, default=None)
        cmd.add_argument("--epsilon", type=float, default=None)
        cmd.add_argument("--pairs", type=int, default=None,
                         help="photon pairs per setting (enables noise)")
        cmd.add_argument("--trials", type=int, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None, help="output path ('-' for stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
        cmd.add_argument("--no-timestamp", action="store_true",
                         help="omit the generated-at header line")
        if name == "sweep-theta":
            cmd.add_argument("--theta-min", type=float, default=-math.pi)
            cmd.add_argument("--theta-max", type=float, default=math.pi)
            cmd.add_argument("--steps", type=int, default=41)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "reconstruct":
            cmd_reconstruct(cfg)
        elif args.command == "sweep-theta":
            cmd_sweep_theta(cfg, args.theta_min, args.theta_max, args.steps)
        elif args.command == "tomography":
            cmd_tomography(cfg)
        else:
            cmd_compare(cfg)
    except ModvalError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                return code
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
