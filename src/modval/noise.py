"""Photon-counting shot noise and Monte Carlo error propagation.

There is one trial path, ``noisy_trials``, which returns ``(kept, result,
extra_counts)``. Each of the T trials makes one binomial call on its own
generator: every (setting, detector) count from ``pairs_per_setting`` photon
pairs, then the counts of any ``extra`` probabilities (the CLI's ``compare``
passes its Pauli ones). The (T, S, 2) frequencies are inverted and
reconstructed in one batched call, and trials outside the reachable set
(NegativeDiscriminant) are masked out, never folded into the statistics.
``monte_carlo`` aggregates the kept trials into means and standard deviations.
The CLI's noisy ``tomography`` draws its Pauli counts through the same
per-trial binomial call.

Per-trial randomness derives from the run seed through spawn keys, so results do
not depend on execution order; ``trial_rngs`` seeds every trial's generator at once.
"""

from __future__ import annotations

import functools
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


# numpy's binomial draws take an int64 trial count
_MAX_PAIRS = 2**63 - 1
# a desk-scale cap, as hilbert.MAX_TOTAL_DIM is; the calibrated runs use 200 trials
_MAX_TRIALS = 10**6


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
        if self.pairs_per_setting > _MAX_PAIRS:
            raise ValueError(f"pairs_per_setting must be at most 2**63 - 1 = {_MAX_PAIRS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"trials must be at most {_MAX_TRIALS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class NoisyEstimate:
    """Mean and spread of one reconstructed quantity over kept trials.

    For complex quantities the std packs the componentwise spreads as
    std(Re) + 1j*std(Im). ``samples`` holds the kept per-trial values.
    """

    mean: np.ndarray | complex | float
    std: np.ndarray | complex | float
    samples_kept: int
    samples_rejected: int
    samples: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    amplitudes: NoisyEstimate
    weak_values: NoisyEstimate
    modulars: NoisyEstimate  # (S,) in plan order
    normalizer: NoisyEstimate
    fidelity: NoisyEstimate  # |<truth|estimate>|^2 against the configured state


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words with a 4-word pool. No
# constant depends on the data, so the trial words are hashed as uint32 arrays, whose
# products wrap mod 2**32 as the hash's do (numpy scalars would warn on the wrap).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _constants(init: int, mult: int, first: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(constants, successors) of a hash's steps ``first`` to ``first + steps - 1``."""
    consts = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                       for k in range(first, first + steps + 1)], dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hash(value, const, successor):
    """One hash step on uint32 arrays."""
    value = (value ^ const) * successor
    return value ^ value >> 16


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
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
    """Trial t's generator, bit for bit ``default_rng(SeedSequence(seed, spawn_key=(t,)))``;
    every trial's hash starts from the pool of ``SeedSequence(seed)``."""
    from numpy.random.bit_generator import SeedSequence

    if (seed := operator.index(seed)) < 0:  # a numpy integer too, as SeedSequence takes
        raise ValueError("seed must be non-negative")
    # the pool took 4 hash steps per seed word, padded to 4 words; the spawn word takes 4 more
    first = 4 * max(4, -(-seed.bit_length() // 32))
    spawn = _hash(np.arange(trials, dtype=np.uint32)[:, None],
                  *_constants(_INIT_A, _MULT_A, first, 4))
    pools = _mix(SeedSequence(seed).pool, spawn)  # (T, 4)
    # output word k (of 8) hashes pool word k % 4
    state = _hash(np.tile(pools, 2), *_constants(_INIT_B, _MULT_B, 0, 8))
    seed_sequence = _state_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seed_sequence(row)))
            for row in state.astype("<u4").view("<u8").astype(np.uint64)]


def _complex_stats(samples: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=axis)
    if samples.shape[axis] < 2:
        std = np.zeros_like(mean)
    elif np.iscomplexobj(samples):
        std = samples.real.std(axis=axis, ddof=1) + 1j * samples.imag.std(axis=axis, ddof=1)
    else:
        std = samples.std(axis=axis, ddof=1)
    return mean, std


def _estimate(samples, rejected: int) -> NoisyEstimate:
    mean, std = _complex_stats(samples)
    if samples.ndim == 1:
        mean, std = mean.item(), std.item()
    return NoisyEstimate(mean, std, samples.shape[0], rejected, samples)


def _binomial_counts(probabilities, pairs: int, seed: int, trials: int) -> np.ndarray:
    """(T, k) counts: one ``binomial(pairs, probabilities)`` call on each of the T
    generators of ``trial_rngs(seed, T)``, the one draw path of every noisy run."""
    return np.stack([rng.binomial(pairs, probabilities) for rng in trial_rngs(seed, trials)])


def noisy_trials(cfg: ProtocolConfig, counting: CountingConfig, method: Method = "exact_inversion",
                 extra=()) -> tuple[np.ndarray, ReconstructionResult, np.ndarray]:
    """Run every counting-noise trial; returns ``(kept, result, extra_counts)``.

    The exact probabilities are computed once, so OrthogonalPostselection
    surfaces before any draw. Trial t makes one binomial call on its own
    generator (``trial_rngs``): its (S, 2) detector counts in plan order, then
    a count for each success probability in ``extra``, kept as row t of the
    (T, len(extra)) ``extra_counts``. ``result`` holds all T trials; ``kept``
    (T,) is False where the inversion hit NegativeDiscriminant, and that
    trial's row of ``result`` is nan. With no trial kept, AllTrialsRejected
    is raised instead.
    """
    if method == "definitional":
        raise ConfigError("counting noise applies to measured probabilities; "
                          "definitional modulars have none (use first_order or exact_inversion)")
    exact = collect_probabilities(cfg)
    pairs = counting.pairs_per_setting
    counts = _binomial_counts(np.append(exact, extra), pairs, counting.seed, counting.trials)
    frequencies = counts[:, :exact.size].reshape((-1, *exact.shape)) / pairs
    modulars = invert_probabilities(frequencies, cfg.epsilon, method, clamp=counting.clamp)
    kept = ~np.isnan(modulars).any(axis=-1)
    if not kept.any():
        raise AllTrialsRejected(f"all {counting.trials} trials failed inversion; "
                                "increase pairs_per_setting or enable clamping")
    return kept, reconstruct(dims=cfg.dims, postselection=cfg.postselection,
                             s=s_parameter(cfg.g), modulars=modulars), counts[:, exact.size:]


def monte_carlo(cfg: ProtocolConfig, counting: CountingConfig,
                *, method: Method = "exact_inversion") -> MonteCarloResult:
    """Means and spreads of every reconstructed quantity over the kept ``noisy_trials``."""
    kept, result, _ = noisy_trials(cfg, counting, method)
    n_kept = int(kept.sum())
    rejected = counting.trials - n_kept
    modulars = result.modulars[kept]
    amplitudes = result.amplitudes[kept]
    # a contiguous (S, K) copy reduces as each 1-D column does; axis 0 of (K, S) would not
    mod_mean, mod_std = _complex_stats(np.ascontiguousarray(modulars.T), axis=-1)
    return MonteCarloResult(
        amplitudes=_estimate(amplitudes, rejected),
        weak_values=_estimate(result.weak_values[kept], rejected),
        modulars=NoisyEstimate(mod_mean, mod_std, n_kept, rejected, modulars),
        normalizer=_estimate(result.normalizer[kept], rejected),
        fidelity=_estimate(fidelity_states(cfg.system_state, amplitudes.reshape(n_kept, -1)),
                           rejected),
    )


def pauli_plus_probabilities(expectations) -> np.ndarray:
    """Probability of the +1 outcome of each of the 15 non-identity Pauli settings."""
    return np.clip((1.0 + np.asarray(expectations, dtype=float)[1:]) / 2.0, 0.0, 1.0)


def pauli_from_counts(counts: np.ndarray, pairs: int) -> np.ndarray:
    """(K, 16) expectations from (K, 15) +1 counts among ``pairs``; the identity reads 1."""
    return np.concatenate([np.ones((len(counts), 1)), 2.0 * counts / pairs - 1.0], axis=1)
