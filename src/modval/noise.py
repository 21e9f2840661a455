"""Photon-counting shot noise and Monte Carlo error propagation.

There is one trial path, ``noisy_trials``. Each trial estimates every
(setting, detector) probability from a binomial draw of
``pairs_per_setting`` photon pairs, inverts the estimates to modular values
and reconstructs the state. ``monte_carlo`` aggregates the trials into
means and standard deviations per reconstructed quantity; the CLI's
``compare`` pairs each trial with a tomography draw from the same
generator. Trials that hit NegativeDiscriminant are counted as rejected,
never silently folded into the statistics.

Per-trial randomness derives from the run seed through spawn keys
(seed_i = f(seed, i)), so results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import AllTrialsRejected, ConfigError, NegativeDiscriminant
from .hilbert import inner
from .protocol import ProtocolConfig
from .reconstruction import (
    Method,
    ReconstructionResult,
    Setting,
    collect_probabilities,
    reconstruct,
    s_parameter,
)


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
    modulars: dict[Setting, NoisyEstimate]
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


def _estimate(samples: list, rejected: int, keep: bool) -> NoisyEstimate:
    samples = np.array(samples)
    mean, std = _complex_stats(samples)
    if samples.ndim == 1:
        mean = mean.item()
        std = std.item()
    return NoisyEstimate(mean, std, samples.shape[0], rejected,
                         samples if keep else None)


def noisy_trials(cfg: ProtocolConfig, counting: CountingConfig,
                 method: Method = "exact_inversion",
                 ) -> Iterator[tuple[int, np.random.Generator, ReconstructionResult | None]]:
    """Yield ``(trial, rng, result)`` for each counting-noise trial, in order.

    The exact probabilities are computed once, before the first trial, so
    OrthogonalPostselection surfaces before any trial runs. Each trial draws
    all detector counts with one binomial call over the (setting, detector)
    probabilities in plan order and reconstructs from the estimated
    frequencies; ``result`` is None when that inversion hit
    NegativeDiscriminant. ``rng`` is the trial's generator, positioned after
    the count draws, for callers that draw further noise per trial.
    """
    if method == "definitional":
        raise ConfigError("counting noise applies to measured probabilities; "
                          "definitional modulars have none (use first_order or exact_inversion)")
    exact = collect_probabilities(cfg)
    settings = list(exact)
    probabilities = np.array(list(exact.values()))
    pairs = counting.pairs_per_setting
    s = s_parameter(cfg.g)
    for trial in range(counting.trials):
        rng = trial_rng(counting.seed, trial)
        frequencies = (rng.binomial(pairs, probabilities) / pairs).tolist()
        try:
            result = reconstruct(dims=cfg.dims, postselection=cfg.postselection, s=s,
                                 probabilities=dict(zip(settings, map(tuple, frequencies))),
                                 epsilon=cfg.epsilon, method=method, clamp=counting.clamp)
        except NegativeDiscriminant:
            result = None
        yield trial, rng, result


def monte_carlo(cfg: ProtocolConfig, counting: CountingConfig,
                *, method: Method = "exact_inversion",
                keep_samples: bool = False) -> MonteCarloResult:
    """Means and spreads of every reconstructed quantity over ``noisy_trials``."""
    kept = [result for _, _, result in noisy_trials(cfg, counting, method)
            if result is not None]
    if not kept:
        raise AllTrialsRejected(
            f"all {counting.trials} trials failed inversion; "
            "increase pairs_per_setting or enable clamping"
        )
    rejected = counting.trials - len(kept)
    mod_array = np.array([list(result.modulars.values()) for result in kept])
    mod_estimates = {}
    for k, st in enumerate(kept[0].modulars):
        mean, std = _complex_stats(mod_array[:, k])
        mod_estimates[st] = NoisyEstimate(complex(mean), complex(std), len(kept), rejected)
    return MonteCarloResult(
        amplitudes=_estimate([result.amplitudes for result in kept], rejected, keep_samples),
        weak_values=_estimate([result.weak_values for result in kept], rejected, keep_samples),
        modulars=mod_estimates,
        normalizer=_estimate([result.normalizer for result in kept], rejected, keep_samples),
        fidelity=_estimate([abs(inner(cfg.system_state, result.state())) ** 2
                            for result in kept], rejected, keep_samples),
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
