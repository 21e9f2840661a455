"""Photon-counting shot noise and Monte Carlo error propagation.

There is one trial path, ``noisy_trials``. Each of the T trials draws
every (setting, detector) count from ``pairs_per_setting`` photon pairs;
the (T, S, 2) frequencies are inverted to (T, S) modular values and
reconstructed in one batched call, and trials outside the reachable set
(NegativeDiscriminant) are masked out, never folded into the statistics.
``monte_carlo`` aggregates the kept trials into means and standard
deviations; the CLI's ``compare`` pairs each trial with a tomography draw
from the trial's own generator.

Per-trial randomness derives from the run seed through spawn keys, so results do
not depend on execution order; ``trial_rngs`` seeds every trial's generator at once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsRejected, ConfigError
from .protocol import ProtocolConfig
from .reconstruction import (
    Method,
    ReconstructionResult,
    collect_probabilities,
    invert_probabilities,
    reconstruct,
    s_parameter,
)
from .tomography import fidelity_states


@dataclass(frozen=True)
class CountingConfig:
    """Counting statistics: photon pairs per setting, trials, and seed."""

    pairs_per_setting: int
    trials: int
    seed: int
    clamp: bool = False  # clamp inversion to the boundary instead of rejecting

    def __post_init__(self):
        if self.pairs_per_setting < 1:
            raise ValueError("pairs_per_setting must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class NoisyEstimate:
    """Mean and spread of one reconstructed quantity over kept trials.

    For complex quantities the std packs the componentwise spreads as
    std(Re) + 1j*std(Im). ``samples`` holds the kept per-trial values when
    requested.
    """

    mean: np.ndarray | complex | float
    std: np.ndarray | complex | float
    samples_kept: int
    samples_rejected: int
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    amplitudes: NoisyEstimate
    weak_values: NoisyEstimate
    modulars: NoisyEstimate  # (S,) in plan order
    normalizer: NoisyEstimate
    fidelity: NoisyEstimate  # |<truth|estimate>|^2 against the configured state


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words with a 4-word pool. No
# constant depends on the data, so trial_rngs hashes the seed once and the trial words as arrays.
_MASK = 0xFFFF_FFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R_NEG = 0xCA01F9DD, -0x4973F715 & _MASK  # mix's "- R * y" as "+ (-R) * y"


@functools.cache
def _constants(init: int, mult: int, steps: int) -> tuple[tuple[int, int], ...]:
    """(constant, successor) of a hash's first ``steps`` steps."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK for k in range(steps + 1)]
    return tuple(zip(consts, consts[1:]))


def _hash(value, const, successor):
    """One hash step on ints or uint64 arrays of 32-bit words; no product passes 64 bits."""
    value = (value ^ const) * successor & _MASK
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_L * x & _MASK) + (_MIX_R_NEG * y & _MASK) & _MASK
    return result ^ result >> 16


@functools.cache
def _state_seed_sequence():
    """ISeedSequence handing PCG64 a fixed state, built on first use (numpy.random is lazy)."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeedSequence(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return StateSeedSequence


def trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    """Trial t's generator, bit for bit ``default_rng(SeedSequence(seed, spawn_key=(t,)))``."""
    if (seed := operator.index(seed)) < 0:  # a numpy integer too, as SeedSequence takes
        raise ValueError("seed must be non-negative")
    words = [seed >> 32 * k & _MASK for k in range(max(4, -(-seed.bit_length() // 32)))]
    steps = iter(_constants(_INIT_A, _MULT_A, 4 * len(words) + 4))  # 4 per seed word, 4 for t
    pool = [_hash(word, *next(steps)) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hash(word, *next(steps)))
    spawn = _hash(np.arange(trials, dtype=np.uint64)[:, None], *np.array(list(steps), np.uint64).T)
    pools = _mix(np.array(pool, dtype=np.uint64), spawn)
    out_steps = np.array(_constants(_INIT_B, _MULT_B, 8), np.uint64).T.reshape(2, 2, 4)
    state = _hash(pools[:, None], *out_steps)  # (T, 2, 4): word 4r + c hashes pool word c
    seed_sequence = _state_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seed_sequence(row)))
            for row in state.reshape(-1, 8).astype("<u4").view("<u8").astype(np.uint64)]


def _complex_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    if samples.shape[0] < 2:
        std = np.zeros_like(mean)
    elif np.iscomplexobj(samples):
        std = (samples.real.std(axis=0, ddof=1)
               + 1j * samples.imag.std(axis=0, ddof=1))
    else:
        std = samples.std(axis=0, ddof=1)
    return mean, std


def _estimate(samples, rejected: int, keep: bool) -> NoisyEstimate:
    samples = np.array(samples)
    mean, std = _complex_stats(samples)
    if samples.ndim == 1:
        mean = mean.item()
        std = std.item()
    return NoisyEstimate(mean, std, samples.shape[0], rejected,
                         samples if keep else None)


def noisy_trials(cfg: ProtocolConfig, counting: CountingConfig,
                 method: Method = "exact_inversion",
                 ) -> tuple[list[np.random.Generator], np.ndarray, ReconstructionResult]:
    """Run every counting-noise trial; returns ``(rngs, kept, result)``.

    The exact probabilities are computed once, so OrthogonalPostselection
    surfaces before any draw. Trial t draws all its counts with one binomial
    call on its own generator ``rngs[t]``, left positioned after that draw
    for callers that draw further noise per trial. ``result`` holds all T
    trials; ``kept`` (T,) is False where the inversion hit
    NegativeDiscriminant, and that trial's row of ``result`` is nan. With no
    trial kept, AllTrialsRejected is raised instead.
    """
    if method == "definitional":
        raise ConfigError("counting noise applies to measured probabilities; "
                          "definitional modulars have none (use first_order or exact_inversion)")
    exact = collect_probabilities(cfg)
    pairs = counting.pairs_per_setting
    rngs = trial_rngs(counting.seed, counting.trials)
    frequencies = np.stack([rng.binomial(pairs, exact) for rng in rngs]) / pairs
    modulars = invert_probabilities(frequencies, cfg.epsilon, method, clamp=counting.clamp)
    kept = ~np.isnan(modulars).any(axis=-1)
    if not kept.any():
        raise AllTrialsRejected(
            f"all {counting.trials} trials failed inversion; "
            "increase pairs_per_setting or enable clamping"
        )
    return rngs, kept, reconstruct(dims=cfg.dims, postselection=cfg.postselection,
                                   s=s_parameter(cfg.g), modulars=modulars)


def monte_carlo(cfg: ProtocolConfig, counting: CountingConfig,
                *, method: Method = "exact_inversion",
                keep_samples: bool = False) -> MonteCarloResult:
    """Means and spreads of every reconstructed quantity over the kept ``noisy_trials``."""
    _, kept, result = noisy_trials(cfg, counting, method)
    n_kept = int(kept.sum())
    rejected = counting.trials - n_kept
    modulars = result.modulars[kept]
    amplitudes = result.amplitudes[kept]
    # reduced column by column: an axis-0 reduction of the (K, S) stack rounds differently
    mod_stats = [_complex_stats(modulars[:, k]) for k in range(modulars.shape[1])]
    return MonteCarloResult(
        amplitudes=_estimate(amplitudes, rejected, keep_samples),
        weak_values=_estimate(result.weak_values[kept], rejected, keep_samples),
        modulars=NoisyEstimate(np.array([mean for mean, _ in mod_stats]),
                               np.array([std for _, std in mod_stats]), n_kept, rejected,
                               modulars if keep_samples else None),
        normalizer=_estimate(result.normalizer[kept], rejected, keep_samples),
        fidelity=_estimate(fidelity_states(cfg.system_state, amplitudes.reshape(n_kept, -1)),
                           rejected, keep_samples),
    )


def sample_pauli_expectations(expectations: np.ndarray, pairs: int,
                              rng: np.random.Generator | list[np.random.Generator]) -> np.ndarray:
    """Shot-noise model for tomography: one binomial draw per Pauli setting.

    Each two-outcome (+1/-1) Pauli measurement on ``pairs`` photon pairs is
    summarized by a binomial count of +1 outcomes, drawn for all settings
    in one call; the identity setting has no statistical error. A list of K
    generators, each making that call in turn, gives a (K, 16) stack.
    """
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    single = isinstance(rng, np.random.Generator)
    expectations = np.asarray(expectations, dtype=float)
    p_plus = np.clip((1.0 + expectations[1:]) / 2.0, 0.0, 1.0)
    counts = np.array([gen.binomial(pairs, p_plus) for gen in ([rng] if single else rng)])
    noisy = np.concatenate([np.ones((len(counts), 1)), 2.0 * counts / pairs - 1.0], axis=1)
    return noisy[0] if single else noisy
