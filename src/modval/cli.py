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

``parse_config`` resolves the document once, into the ``ProtocolConfig``
every subcommand runs. Only the keys shown are read; a state or
postselection object holds "preset" alone or "amps" (JSON numbers, never
bools) with an optional "dims".

The command line is only split, by the flag table ``_FLAGS``. A flag's value
is the text after "=" (``--flag=value``) or the next token, unless that is
missing or starts with "--" (``--epsilon -1e-3`` is a value); the last flag
wins. --method/--epsilon/--out/--format replace those fields of the document
and --pairs/--trials/--seed those of its noise object (created if absent), as
the strings given and before anything is validated, so each is read by the
one typed reader exactly as the field it replaces; --steps/--theta-min/
--theta-max use the same reader. --no-timestamp (no value) drops the
generated-at header so outputs are byte-identical for a fixed config and seed.
Flags must be spelled in full (--pair is unknown). A usage error (an unknown
flag or subcommand, a missing --config or flag value) is a config error; -h or
--help, first or in a flag's place, prints the usage and exits 0.

Exit codes: 0 success, else the error class's ``exit_code``: 2 config
error, 3 orthogonal postselection, 4 inversion failure, 5 all trials
rejected (a noisy ``reconstruct`` or ``compare`` in which no trial inverts).
Every error prints one line ``error: <code>: <message>`` to stderr. Config
errors include a config that cannot be read and an output that cannot be
written (a directory, a path in a missing directory, a closed stdout); a wrongly typed
field or flag (a number is a JSON number, or a string that is one by the
JSON number grammar
``-?(0|[1-9][0-9]*)([.][0-9]+)?([eE][+-]?[0-9]+)?`` in ASCII digits with no
space or underscore, never a bool; pairs_per_setting, trials, seed and each
dims factor must be integral, theta, epsilon and g finite; clamp must be a
bool, method, format and output_path strings); epsilon outside [1e-8, 1]
(the readout (p - 1/2)/epsilon loses log10(1/epsilon) digits); ``dims``
that are not two factors each at least 2; a null in a field with a
non-null default (only "theta" may be null); pairs_per_setting above
2**63 - 1 or trials above 10**6; a negative seed; an unknown key; and,
checked first, a ``sweep-theta`` state other than the fig3 preset,
``--steps`` below 2 or above 10**4 (a desk-scale cap) and a non-finite
``--theta-min``/``--theta-max``.

Each subcommand returns its table as columns, each its values held once and
a row layout; ``main`` writes every table with the one ``write_table`` call,
which formats each value once (``str``; "" when empty) and quotes nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, ModvalError, NegativeDiscriminant
from .hilbert import PureState
from .noise import (CountingConfig, _binomial_counts, monte_carlo, noisy_trials,
                    pauli_from_counts, pauli_plus_probabilities)
from .presets import (
    POSTSELECTION_PRESETS,
    STATE_PRESETS,
    phase_bell,
    postselection_preset,
    state_preset,
)
from .protocol import ProtocolConfig
from .reconstruction import METHODS, reconstruct_state, require_full_support, split_plan
from .tomography import fidelity_pure, fidelity_states, linear_inversion, pauli_expectations

SCHEMA_VERSION = 1

# a desk-scale cap on sweep-theta's grid: a step takes under 0.6 ms and the table is
# held in memory, so 10**4 steps run in 4-6 s with a 62-64 MiB peak RSS as CSV and
# about 130 MiB as JSON
_MAX_STEPS = 10**4


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolConfig
    method: str
    noise: CountingConfig | None
    output_path: str
    format: str


# the JSON number grammar (RFC 8259) in ASCII digits; int() and float()
# also read "1_000", " 2 " and non-ASCII digits
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:[.][0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _typed(value, kind: type):
    """``value`` read as ``kind`` (str, bool, int or float), or ValueError.

    A str or bool field takes only a JSON string or bool. A number is a JSON
    number or a string that fully matches the JSON number grammar, never a
    bool; an int must be integral (int() alone would read 2.5 as 2) and a
    float finite.
    """
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise ValueError(value)
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(value)
    if isinstance(value, str) and not _JSON_NUMBER.fullmatch(value):
        raise ValueError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    number = kind(value)  # int("2.5") raises ValueError, float(10**400) OverflowError
    if kind is float and not math.isfinite(number):
        raise ValueError(value)
    return number


_KIND_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}
_REQUIRED = object()  # the default of a field that must be given
# the fields of a config document and of its noise object; any other key is an error
_FIELDS = ("schema_version", "state", "theta", "postselection", "epsilon", "g", "method",
           "noise", "output_path", "format")
_NOISE_FIELDS = (("pairs_per_setting", int, _REQUIRED), ("trials", int, 1), ("seed", int, 0),
                 ("clamp", bool, False))


def _reject_unknown(obj: dict, known: tuple[str, ...], where: str = "") -> None:
    """ConfigError naming the first key of ``obj`` outside ``known``."""
    for name in obj:
        if name not in known:
            raise ConfigError(f"{where}unknown field {name!r} (allowed: {', '.join(known)})")


def _read(value, kind: type, name: str):
    """``value`` read by ``_typed``, or a ConfigError saying what ``name`` must be."""
    try:
        return _typed(value, kind)
    except (ValueError, OverflowError):
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}") from None


def _field(doc: dict, name: str, kind: type, default, where: str = ""):
    """Field ``name`` of ``doc`` read by ``_read``, or ``default`` when absent.

    A null is an error unless the default is None.
    """
    value = doc.get(name, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where}missing required field {name!r}")
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"{where}field {name!r} must not be null")
    return _read(value, kind, f"{where}field {name!r}")


def _parse_amplitudes(spec: dict, field: str) -> PureState:
    raw = spec.get("dims", [2, 2])
    try:
        dims = tuple(_typed(d, int) for d in raw) if isinstance(raw, list) else ()
    except (ValueError, OverflowError):
        dims = ()
    if len(dims) != 2 or min(dims) < 2:
        raise ConfigError(f"{field}.dims must be two integers, each at least 2, "
                          f"got {spec.get('dims')!r}")
    try:
        amps = np.array([complex(re, im) for re, im in spec["amps"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}.amps must be a list of [re, im] pairs: {exc}") from None
    if any(type(part) is bool for pair in spec["amps"] for part in pair):  # complex(True) is 1
        raise ConfigError(f"{field}.amps must be numbers, not true or false")
    if not np.all(np.isfinite(amps)):  # NaN or Infinity literals
        raise ConfigError(f"{field}.amps must be finite numbers")
    parts = amps.view(np.float64)
    largest = float(np.abs(parts).max(initial=0.0))
    if largest == 0.0:
        raise ConfigError(f"{field}.amps must not be all zero")
    # divided by the power of two that brings the largest part into [1, 2) first, so the
    # norm neither overflows nor underflows; the scaling is exact, so amps / norm is unchanged
    shift = 1 - math.frexp(largest)[1]
    amps = np.ldexp(parts, shift).view(np.complex128)
    norm = float(np.linalg.norm(amps))
    given = math.ldexp(1.0, -shift) * norm  # inf past the float range
    if abs(given - 1.0) > 1e-6:
        sys.stderr.write(f"warning: {field} amplitudes renormalized (norm was {given:.9g})\n")
    try:
        return PureState(dims, amps / norm)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _resolve(spec: dict, field: str, presets: tuple[str, ...], preset) -> PureState:
    """State or postselection ``field``: ``preset(name)`` of one of ``presets``, or amps."""
    if "preset" in spec:
        _reject_unknown(spec, ("preset",), f"{field}: ")
        name = spec["preset"]
        if name not in presets:
            raise ConfigError(f"{field}.preset must be one of {presets}, got {name!r}")
        return preset(name)
    if "amps" in spec:
        _reject_unknown(spec, ("amps", "dims"), f"{field}: ")
        return _parse_amplitudes(spec, field)
    raise ConfigError(f"{field} must carry either a preset name or explicit amps")


def _read_document(path: str) -> dict:
    """The JSON object of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def parse_config(doc: dict) -> RunConfig:
    """The run a config document describes, with every field validated and typed."""
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    _reject_unknown(doc, _FIELDS)
    method = _field(doc, "method", str, "exact_inversion")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    fmt = _field(doc, "format", str, "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    noise = doc.get("noise")
    if noise is not None:
        if not isinstance(noise, dict):
            raise ConfigError("noise must be an object")
        _reject_unknown(noise, tuple(name for name, _, _ in _NOISE_FIELDS), "noise: ")
        counting = {name: _field(noise, name, kind, default, "noise: ")
                    for name, kind, default in _NOISE_FIELDS}
        try:
            noise = CountingConfig(**counting)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None

    state_spec = doc.get("state")
    if not isinstance(state_spec, dict):
        raise ConfigError("field 'state' (object) is required")
    postsel_spec = doc.get("postselection", {"preset": "uniform_plus"})
    if not isinstance(postsel_spec, dict):
        raise ConfigError("field 'postselection' must be an object")
    theta = _field(doc, "theta", float, None)
    epsilon = _field(doc, "epsilon", float, 0.2)
    g = _field(doc, "g", float, math.pi)
    output_path = _field(doc, "output_path", str, "-")
    state = _resolve(state_spec, "state", STATE_PRESETS, lambda name: state_preset(name, theta))
    postselection = _resolve(postsel_spec, "postselection", POSTSELECTION_PRESETS,
                             lambda name: postselection_preset(name, state.dims))
    try:
        protocol = ProtocolConfig(system_state=state, postselection=postselection,
                                  epsilon=epsilon, g=g)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(protocol=protocol, method=method, noise=noise, output_path=output_path,
                     format=fmt)


def _check_sweep(doc: dict, grid: dict) -> tuple[float, float, int]:
    """The sweep-theta grid (theta_min, theta_max, steps), its flags read by ``_read``;
    checked on the document before ``parse_config``, so these errors come first."""
    steps = _read(grid["--steps"], int, "--steps")
    if steps < 2:
        raise ConfigError("--steps must be at least 2")
    if steps > _MAX_STEPS:
        raise ConfigError(f"--steps must be at most {_MAX_STEPS}")
    theta_min = _read(grid["--theta-min"], float, "--theta-min")
    theta_max = _read(grid["--theta-max"], float, "--theta-max")
    state = doc.get("state")
    if not isinstance(state, dict) or state.get("preset") != "fig3":
        raise ConfigError("sweep-theta requires the fig3 state preset")
    return theta_min, theta_max, steps


def _full_support(pcfg: ProtocolConfig) -> ProtocolConfig:
    """``pcfg`` if every postselection amplitude is nonzero, as direct reconstruction needs."""
    try:
        require_full_support(pcfg.postselection)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return pcfg


# ---------------------------------------------------------------------------
# table output

def write_table(columns: dict[str, tuple], *, meta: dict, output_path: str,
                fmt: str, timestamp: bool, json_extra: dict | None = None) -> None:
    """Write a table given column by column, in the dict's order.

    A column is ``(values, layout)``: its values, each held once (a
    ``.tolist()``, so never a numpy scalar), and per row the index of its
    value, -1 for an empty cell. CSV formats each value once, as csv.writer
    would: ``str``, which for a Python float is its ``repr``, and "" when
    empty. Cells are joined by "," and a row ends in "\n", unquoted: no value or
    name a table carries holds , " \r or \n. JSON gathers the raw values
    (None when empty) by the same layouts, one object per row. Both are written
    line by line, and an output that cannot be opened or written (a closed
    stdout pipe too) raises ConfigError.
    """
    meta_out = {"schema_version": SCHEMA_VERSION, **meta}
    names = list(columns)
    cells = [[*map(str, values), ""] if fmt == "csv" else [*values, None]
             for values, _ in columns.values()]
    rows = zip(*(map(column.__getitem__, layout)
                 for column, (_, layout) in zip(cells, columns.values())))
    if fmt == "csv":
        head = [f"# generated={datetime.now(timezone.utc).isoformat()}"] if timestamp else []
        head += [f"# {key}={value}" for key, value in meta_out.items()]
        # lines are written as they are made, so a long table's text is never held whole
        lines = map("{}\n".format, itertools.chain(head, [",".join(names)], map(",".join, rows)))
    else:
        doc = dict(meta_out)
        if timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        if json_extra:
            doc.update(json_extra)
        doc["columns"] = names
        doc["rows"] = [dict(zip(names, row)) for row in rows]
        # one large write to a closed pipe can come back short without raising
        lines = (json.dumps(doc, indent=2) + "\n").splitlines(keepends=True)
    try:
        if output_path == "-":
            sys.stdout.writelines(lines)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
            return
        with open(output_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
    except OSError as exc:
        if output_path == "-":  # what is left in the buffer goes to devnull at exit
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write output {output_path}: {exc}") from None


def _slots(mask) -> list[int]:
    """A layout with the k-th value in the k-th row where ``mask`` holds, the rest empty."""
    return np.where(mask, np.cumsum(mask) - 1, -1).tolist()


def _complex_columns(prefix: str, values, layout, suffix: str = "") -> dict[str, tuple]:
    """Columns ``{prefix}re{suffix}`` and ``im`` of flattened complex values, on ``layout``."""
    values = np.asarray(values).ravel()
    return {f"{prefix}{name}{suffix}": (part.tolist(), layout)
            for name, part in (("re", values.real), ("im", values.imag))}


def _grid_columns(names: tuple[str, str], dims: tuple[int, int]) -> dict[str, tuple]:
    """Row and column index of every cell of an m x n grid, row-major."""
    return {name: (list(range(size)), index.ravel().tolist())
            for name, size, index in zip(names, dims, np.indices(dims))}


@functools.lru_cache(maxsize=32)
def _component_layouts(dims: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """The row layouts of ``_component_columns`` for an m x n table, built once per
    size (the last 32 sizes are kept) on first use: amplitude and weak value by
    component, mod_a by ``row - 1``, mod_b by ``col - 1``, mod_pair by
    ``(row-1)(n-1) + col-1`` (-1 where an index is 0) and the normalizer's one value."""
    m, n = dims
    row, col = np.indices(dims).reshape(2, -1)
    pair = np.where(row * col > 0, (row - 1) * (n - 1) + col - 1, -1)
    indices = tuple(map(tuple, np.stack([row - 1, col - 1, pair]).tolist()))
    return (range(m * n),) * 2 + indices + ((0,) * (m * n),)


def _component_columns(dims: tuple[int, int], amplitudes, weak_values, modulars, normalizer,
                       suffix: str = "") -> dict[str, tuple]:
    """The columns of a reconstruct table after comp_a/comp_b, rows (j, l) row-major.

    Component (j, l) shows the single_a modular value of j, the single_b one of
    l and the pair one of (j, l), each held once; index 0 has none (layout -1).
    """
    *layouts, normalizer_layout = _component_layouts(dims)
    columns = {}
    for prefix, values, layout in zip(("amp_", "weak_", "mod_a_", "mod_b_", "mod_pair_"),
                                      (amplitudes, weak_values, *split_plan(modulars, dims)),
                                      layouts):
        columns.update(_complex_columns(prefix, values, layout, suffix))
    columns[f"normalizer{suffix}"] = ([normalizer], normalizer_layout)
    return columns


# ---------------------------------------------------------------------------
# subcommands

def cmd_reconstruct(cfg: RunConfig) -> tuple[dict, dict, None]:
    """Amplitude table for one configuration (exact or noise-propagated)."""
    pcfg = _full_support(cfg.protocol)
    meta = {"method": cfg.method, "epsilon": pcfg.epsilon, "g": pcfg.g}
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
                    trials_kept=mc.trials_kept, trials_rejected=mc.trials_rejected)
        columns.update(_component_columns(pcfg.dims, mc.amplitudes.mean, mc.weak_values.mean,
                                          mc.modulars.mean, float(mc.normalizer.mean)))
        columns.update(_component_columns(pcfg.dims, mc.amplitudes.std, mc.weak_values.std,
                                          mc.modulars.std, float(mc.normalizer.std), "_std"))
    return columns, meta, None


def cmd_sweep_theta(cfg: RunConfig, theta_min: float, theta_max: float,
                    steps: int) -> tuple[dict, dict, None]:
    """Phase sweep of the fig3 family; emits every method side by side.

    Rows where the postselection is orthogonal (theta = +/-pi with the
    uniform postselection) carry an error marker and empty numeric cells.
    """
    if cfg.noise is not None:
        sys.stderr.write("warning: sweep-theta runs the exact pipeline; noise config ignored\n")

    base = _full_support(cfg.protocol)
    thetas = np.linspace(theta_min, theta_max, steps)
    methods = ("definitional", "first_order", "exact_inversion")
    done = np.zeros(steps * len(methods), dtype=bool)  # rows (theta, method) with a result
    values = np.zeros((done.size, 4), dtype=np.complex128)
    errors = []  # the error code of every other row, in row order
    for k, theta in enumerate(thetas.tolist()):
        pcfg = replace(base, system_state=phase_bell(theta))
        for row, method in enumerate(methods, k * len(methods)):
            try:
                result = reconstruct_state(pcfg, method)
            except ModvalError as exc:
                errors.append(exc.code)  # its numeric cells stay empty
                continue
            done[row] = True
            values[row] = (*result.modulars, result.amplitudes[1, 1])

    at = _slots(done)
    columns = {"theta": (thetas.tolist(), np.arange(steps).repeat(len(methods)).tolist()),
               "method": (list(methods), list(range(len(methods))) * steps)}
    for prefix, column in zip(("mod_a_", "mod_b_", "mod_pair_", "psi_vv_"),
                              (*split_plan(values[done, :3], base.dims), values[done, 3])):
        columns.update(_complex_columns(prefix, column, at))
    columns["error"] = (errors, _slots(~done))
    meta = {"epsilon": base.epsilon, "g": base.g,
            "theta_min": theta_min, "theta_max": theta_max, "steps": steps}
    return columns, meta, None


def _require_two_qubits(pcfg: ProtocolConfig) -> None:
    if pcfg.dims != (2, 2):
        raise ConfigError("tomography requires a two-qubit (2 x 2) system")


def cmd_tomography(cfg: RunConfig) -> tuple[dict, dict, dict]:
    """Density-matrix artifact from linear inversion (exact or one noisy draw); a
    JSON document also carries the matrix arrays."""
    _require_two_qubits(cfg.protocol)
    expectations = pauli_expectations(cfg.protocol.system_state)
    meta = {}
    if cfg.noise is not None:
        pairs = cfg.noise.pairs_per_setting
        counts = _binomial_counts(pauli_plus_probabilities(expectations), pairs,
                                  cfg.noise.seed, 1)
        expectations = pauli_from_counts(counts, pairs)[0]
        meta.update(pairs_per_setting=pairs, seed=cfg.noise.seed)
    rho = linear_inversion(expectations)
    meta.update(min_eigenvalue=rho.min_eigenvalue, positive=rho.positive)
    columns = {**_grid_columns(("row", "col"), (4, 4)),
               **_complex_columns("", rho.mat, range(16))}
    return columns, meta, {"matrix_re": rho.mat.real.tolist(), "matrix_im": rho.mat.imag.tolist()}


def cmd_compare(cfg: RunConfig) -> tuple[dict, dict, None]:
    """Fidelities: direct reconstruction vs tomography vs the true state.

    Every kept trial pairs its direct reconstruction with a tomography draw:
    the run's one binomial call draws each trial's 15 Pauli counts in its
    row, right after its detector counts. Both are evaluated for all trials
    at once. A rejected trial gets a row with only its error code; with
    every trial rejected the run ends in AllTrialsRejected (exit 5) instead.
    """
    pcfg = _full_support(cfg.protocol)
    _require_two_qubits(pcfg)
    truth = pcfg.system_state
    exact_expect = pauli_expectations(truth)
    meta = {"method": cfg.method, "epsilon": pcfg.epsilon}
    if cfg.noise is None:
        kept, result = np.ones(1, dtype=bool), reconstruct_state(pcfg, cfg.method)
        expectations = [exact_expect]
    else:
        meta.update(pairs_per_setting=cfg.noise.pairs_per_setting,
                    trials=cfg.noise.trials, seed=cfg.noise.seed)
        kept, result, counts = noisy_trials(pcfg, cfg.noise, cfg.method,
                                            extra=pauli_plus_probabilities(exact_expect))
        expectations = pauli_from_counts(counts[kept], cfg.noise.pairs_per_setting)

    direct = result.amplitudes.reshape(-1, 4)[kept]
    rho = linear_inversion(expectations)
    at = _slots(kept)
    columns = {"trial": (list(range(kept.size)), range(kept.size)),
               "fidelity_direct_vs_truth": (fidelity_states(truth, direct).tolist(), at),
               "fidelity_tomography_vs_truth": (fidelity_pure(rho, truth).tolist(), at),
               "fidelity_direct_vs_tomography": (fidelity_pure(rho, direct).tolist(), at),
               "error": ([NegativeDiscriminant.code], np.where(kept, -1, 0).tolist())}
    return columns, meta, None


# ---------------------------------------------------------------------------
# command line and dispatch

# subcommand -> (function, help). Each function takes the run config (sweep-theta also
# its grid) and returns the table's (columns, meta, json_extra); ``main`` dispatches on it.
_COMMANDS = {
    "reconstruct": (cmd_reconstruct, "amplitude table for one configuration"),
    "sweep-theta": (cmd_sweep_theta, "phase sweep of the fig3 state family"),
    "tomography": (cmd_tomography, "linear-inversion density matrix baseline"),
    "compare": (cmd_compare, "direct reconstruction vs tomography fidelities"),
}
# flag -> (where its value goes, under which name, help): "" is the document's top level,
# "noise" its noise object; "run" is read by ``main`` and "sweep" by sweep-theta alone.
_FLAGS = {
    "--config": ("run", "config", "path to the JSON run config (required)"),
    "--method": ("", "method", " | ".join(METHODS)),
    "--epsilon": ("", "epsilon", "weak coupling strength, in [1e-8, 1]"),
    "--pairs": ("noise", "pairs_per_setting", "photon pairs per setting (enables noise)"),
    "--trials": ("noise", "trials", "Monte Carlo trials"),
    "--seed": ("noise", "seed", "seed of the count draw"),
    "--out": ("", "output_path", "output path ('-' for stdout)"),
    "--format": ("", "format", "csv | json"),
    "--no-timestamp": ("run", "no_timestamp", "omit the generated-at header line"),
    "--theta-min": ("sweep", "--theta-min", "sweep-theta only (default -pi)"),
    "--theta-max": ("sweep", "--theta-max", "sweep-theta only (default pi)"),
    "--steps": ("sweep", "--steps", "sweep-theta only (default 41)"),
}
_SWEEP_DEFAULTS = {"--theta-min": -math.pi, "--theta-max": math.pi, "--steps": 41}


def _print_usage() -> None:
    """Print the usage, made from ``_COMMANDS`` and ``_FLAGS``, and exit 0."""
    sys.stdout.write("\n".join([
        f"usage: modval {{{','.join(_COMMANDS)}}} --config PATH [--flag VALUE ...]", "",
        "Direct measurement of bipartite pure states from modular values", "", "commands:",
        *(f"  {name:<15} {text}" for name, (_, text) in _COMMANDS.items()), "",
        "flags (--flag VALUE or --flag=VALUE; a later flag wins):",
        *(f"  {flag:<15} {text}" for flag, (_, _, text) in _FLAGS.items()), ""]))
    raise SystemExit(0)


def _read_command_line(argv: list[str]) -> tuple[str, dict[str, dict]]:
    """The subcommand of ``argv`` and its flags' values, by where ``_FLAGS`` puts them. Usage
    errors come in argparse's order: a missing value, a missing --config, the stray tokens."""
    if argv[:1] in (["-h"], ["--help"]):
        _print_usage()
    if not argv:
        raise ConfigError("the following arguments are required: command")
    command, *tokens = argv
    if command not in _COMMANDS:
        raise ConfigError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    given = {"": {}, "noise": {}, "run": {}, "sweep": dict(_SWEEP_DEFAULTS)}
    stray = []
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _print_usage()
        flag, has_value, value = token.partition("=")
        where, name, _ = _FLAGS.get(flag, (None, None, None))
        if where is None or (where == "sweep" and command != "sweep-theta"):
            stray.append(token)
            continue
        if name == "no_timestamp" and has_value:
            raise ConfigError(f"argument {flag}: ignored explicit argument {value!r}")
        if name != "no_timestamp" and not has_value:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ConfigError(f"argument {flag}: expected one argument")
        given[where][name] = value
    if "config" not in given["run"]:
        raise ConfigError("the following arguments are required: --config")
    if stray:
        raise ConfigError(f"unrecognized arguments: {' '.join(stray)}")
    return command, given


def main(argv=None) -> int:
    try:
        command, given = _read_command_line(sys.argv[1:] if argv is None else argv)
        doc = {**_read_document(given["run"]["config"]), **given[""]}
        base = {} if doc.get("noise") is None else doc["noise"]
        if given["noise"] and isinstance(base, dict):  # any other noise is rejected later
            doc["noise"] = {**base, **given["noise"]}
        grid = _check_sweep(doc, given["sweep"]) if command == "sweep-theta" else ()
        cfg = parse_config(doc)
        columns, meta, json_extra = _COMMANDS[command][0](cfg, *grid)
        write_table(columns, meta=meta, output_path=cfg.output_path, fmt=cfg.format,
                    timestamp="no_timestamp" not in given["run"], json_extra=json_extra)
    except ModvalError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return exc.exit_code
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
