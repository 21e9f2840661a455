"""Photon-counting shot noise and Monte Carlo error propagation.

There is one trial path, ``noisy_trials``. Each of the T trials draws
every (setting, detector) count from ``pairs_per_setting`` photon pairs;
the (T, S, 2) frequencies are inverted to (T, S) modular values and
reconstructed in one batched call, and trials outside the reachable set
(NegativeDiscriminant) are masked out, never folded into the statistics.
``monte_carlo`` aggregates the kept trials into means and standard
deviations; the CLI's ``compare`` pairs each trial with a tomography draw
from the trial's own generator.

Per-trial randomness derives from the run seed through spawn keys
(seed_i = f(seed, i)), so results do not depend on execution order.
"""

from __future__ import annotations

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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic, order-independent per-trial generator."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


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
    rngs = [trial_rng(counting.seed, trial) for trial in range(counting.trials)]
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
                              rng: np.random.Generator) -> np.ndarray:
    """Shot-noise model for tomography: one binomial draw per Pauli setting.

    Each two-outcome (+1/-1) Pauli measurement on ``pairs`` photon pairs is
    summarized by a binomial count of +1 outcomes, drawn for all settings
    in one call; the identity setting has no statistical error.
    """
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    expectations = np.asarray(expectations, dtype=float)
    p_plus = np.clip((1.0 + expectations[1:]) / 2.0, 0.0, 1.0)
    noisy = np.empty_like(expectations)
    noisy[0] = 1.0  # identity (x) identity
    noisy[1:] = 2.0 * rng.binomial(pairs, p_plus) / pairs - 1.0
    return noisy
