"""Photon-counting shot noise and Monte Carlo error propagation.

There is one trial path, ``noisy_trials``, which returns ``(kept, result,
extra_counts)``. A noisy run makes one generator, ``default_rng(seed)``, and
one binomial call on it, which draws the (T, k) counts in C order: row t is
trial t's (setting, detector) counts from ``pairs_per_setting`` photon pairs,
then the counts of any ``extra`` probabilities (the CLI's ``compare`` passes
its Pauli ones). The (T, S, 2) frequencies are inverted and reconstructed in
one batched call, and trials outside the reachable set (NegativeDiscriminant)
are masked out, never folded into the statistics. ``monte_carlo`` aggregates
the kept trials into means and standard deviations. The CLI's noisy
``tomography`` draws its Pauli counts through the same call.

Rows are drawn in trial order from the one stream, so the first T trials of
a longer run are the T trials of a shorter run with the same seed; a trial
cannot be redrawn without the trials before it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsRejected, ConfigError
from .protocol import ProtocolConfig, run_protocol, s_parameter
from .reconstruction import (
    Method,
    ReconstructionResult,
    invert_probabilities,
    reconstruct,
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
        for name in ("pairs_per_setting", "trials", "seed"):
            value = getattr(self, name)
            try:
                number = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                number = None
            if number is None:
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, number)
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
        if not isinstance(self.clamp, bool):
            raise ValueError(f"clamp must be a bool, not {self.clamp!r}")


@dataclass(frozen=True)
class NoisyEstimate:
    """Mean and spread of one reconstructed quantity over the kept trials.

    For complex quantities the std packs the componentwise spreads as
    std(Re) + 1j*std(Im). ``samples`` holds the kept per-trial values, one
    row per kept trial.
    """

    mean: np.ndarray | complex | float
    std: np.ndarray | complex | float
    samples: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    """The five estimates over the kept trials, and how many trials were kept and
    rejected; the two counts sum to ``CountingConfig.trials``."""

    amplitudes: NoisyEstimate
    weak_values: NoisyEstimate
    modulars: NoisyEstimate  # (S,) in plan order
    normalizer: NoisyEstimate
    fidelity: NoisyEstimate  # |<truth|estimate>|^2 against the configured state
    trials_kept: int
    trials_rejected: int


def _complex_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 spread over axis 0 (the trials); the spread is 0 for one trial."""
    mean = samples.mean(axis=0)
    if len(samples) < 2:
        std = np.zeros_like(mean)
    elif np.iscomplexobj(samples):
        std = samples.real.std(axis=0, ddof=1) + 1j * samples.imag.std(axis=0, ddof=1)
    else:
        std = samples.std(axis=0, ddof=1)
    return mean, std


def _binomial_counts(probabilities, pairs: int, seed: int, trials: int) -> np.ndarray:
    """(T, k) counts of ``pairs`` pairs at the k ``probabilities``, the one draw path of
    every noisy run: one binomial call on one ``default_rng(seed)``, drawn in C order, so
    row t is trial t's and the first T rows do not depend on the trials after them.
    ``np.random`` is looked up here, so importing modval leaves numpy.random unloaded."""
    return np.random.default_rng(seed).binomial(
        pairs, np.broadcast_to(probabilities, (trials, len(probabilities))))


def noisy_trials(cfg: ProtocolConfig, counting: CountingConfig, method: Method = "exact_inversion",
                 extra=()) -> tuple[np.ndarray, ReconstructionResult, np.ndarray]:
    """Run every counting-noise trial; returns ``(kept, result, extra_counts)``.

    The exact probabilities are computed once, so OrthogonalPostselection
    surfaces before any draw. All T trials come from one binomial call
    (``_binomial_counts``): row t holds trial t's (S, 2) detector counts in
    plan order, then a count for each success probability in ``extra``, kept
    as row t of the (T, len(extra)) ``extra_counts``. ``result`` holds all T
    trials; ``kept`` (T,) is False where the inversion hit NegativeDiscriminant,
    and that trial's row of ``result`` is nan. With no trial kept,
    AllTrialsRejected is raised instead.
    """
    if method == "definitional":
        raise ConfigError("counting noise applies to measured probabilities; "
                          "definitional modulars have none (use first_order or exact_inversion)")
    exact = run_protocol(cfg).probabilities
    pairs = counting.pairs_per_setting
    counts = _binomial_counts(np.append(exact, extra), pairs, counting.seed, counting.trials)
    frequencies = counts[:, :exact.size].reshape((-1, *exact.shape)) / pairs
    modulars = invert_probabilities(frequencies, cfg.epsilon, method, clamp=counting.clamp)
    kept = ~np.isnan(modulars).any(axis=-1)
    if not kept.any():
        raise AllTrialsRejected(f"all {counting.trials} trials failed inversion; "
                                "increase pairs_per_setting or enable clamping")
    return kept, reconstruct(postselection=cfg.postselection, s=s_parameter(cfg.g),
                             modulars=modulars), counts[:, exact.size:]


def monte_carlo(cfg: ProtocolConfig, counting: CountingConfig,
                *, method: Method = "exact_inversion") -> MonteCarloResult:
    """Means and spreads of every reconstructed quantity over the kept ``noisy_trials``.

    Each kept trial is one row of a (K, F) complex table: its amplitudes, weak
    values, modulars, normalizer and fidelity. One ``_complex_stats`` call
    reduces the table over its trial axis, and the columns are cut back into
    the five estimates.
    """
    kept, result, _ = noisy_trials(cfg, counting, method)
    n_kept = int(kept.sum())
    amplitudes = result.amplitudes[kept]
    fidelity = fidelity_states(cfg.system_state, amplitudes.reshape(n_kept, -1))
    samples = (amplitudes, result.weak_values[kept], result.modulars[kept],
               result.normalizer[kept], fidelity)
    means, stds = _complex_stats(np.concatenate(
        [quantity.reshape(n_kept, -1) for quantity in samples], axis=1))
    cuts = np.cumsum([quantity[0].size for quantity in samples[:-1]])
    estimates = []
    for quantity, mean, std in zip(samples, np.split(means, cuts), np.split(stds, cuts)):
        if quantity.ndim == 1:  # the normalizer and the fidelity are real
            mean, std = mean.real.item(), std.real.item()
        else:
            mean, std = mean.reshape(quantity.shape[1:]), std.reshape(quantity.shape[1:])
        estimates.append(NoisyEstimate(mean, std, quantity))
    return MonteCarloResult(*estimates, trials_kept=n_kept,
                            trials_rejected=counting.trials - n_kept)


def pauli_plus_probabilities(expectations) -> np.ndarray:
    """Probability of the +1 outcome of each of the 15 non-identity Pauli settings."""
    return np.clip((1.0 + np.asarray(expectations, dtype=float)[1:]) / 2.0, 0.0, 1.0)


def pauli_from_counts(counts: np.ndarray, pairs: int) -> np.ndarray:
    """(K, 16) expectations from (K, 15) +1 counts among ``pairs``; the identity reads 1."""
    return np.concatenate([np.ones((len(counts), 1)), 2.0 * counts / pairs - 1.0], axis=1)
