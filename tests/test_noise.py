"""Counting statistics and Monte Carlo propagation."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modval.errors import AllTrialsRejected, ConfigError
from modval.hilbert import PureState, inner
from modval.cli import main
from modval.noise import (
    CountingConfig,
    monte_carlo,
    noisy_trials,
    sample_pauli_expectations,
    trial_rngs,
)
from modval.presets import phase_bell, uniform_plus
from modval.protocol import ProtocolConfig
from modval.reconstruction import collect_probabilities, split_plan
from tests.conftest import random_pair
from tests.oracle import trial_rng
from modval.tomography import pauli_expectations


def bell_config(theta=0.0, epsilon=0.2):
    return ProtocolConfig(system_state=phase_bell(theta), postselection=uniform_plus(),
                          epsilon=epsilon)


class TestMonteCarlo:
    def test_std_scales_with_pair_count(self):
        cfg = bell_config()
        small = monte_carlo(cfg, CountingConfig(pairs_per_setting=100_000, trials=200, seed=5))
        large = monte_carlo(cfg, CountingConfig(pairs_per_setting=400_000, trials=200, seed=6))
        ratio = float(small.amplitudes.std[1, 1].real) / float(large.amplitudes.std[1, 1].real)
        assert 1.4 <= ratio <= 2.6  # quadrupling N halves the std, within 30%

    def test_rejections_reported_near_divergence(self):
        cfg = bell_config(theta=0.9 * math.pi)
        mc = monte_carlo(cfg, CountingConfig(pairs_per_setting=100, trials=50, seed=11))
        assert mc.fidelity.samples_rejected > 0
        assert mc.fidelity.samples_kept + mc.fidelity.samples_rejected == 50

    def test_all_trials_rejected(self):
        # one photon pair per setting gives p_hat in {0, 1}; at eps = 0.2
        # that always lands outside the reachable disk
        cfg = bell_config()
        with pytest.raises(AllTrialsRejected):
            monte_carlo(cfg, CountingConfig(pairs_per_setting=1, trials=5, seed=3))

    def test_deterministic_per_seed(self):
        cfg = bell_config()
        counting = CountingConfig(pairs_per_setting=2000, trials=20, seed=123)
        a = monte_carlo(cfg, counting, keep_samples=True)
        b = monte_carlo(cfg, counting, keep_samples=True)
        assert np.array_equal(a.amplitudes.samples, b.amplitudes.samples)
        assert np.array_equal(a.fidelity.samples, b.fidelity.samples)
        assert a.normalizer.mean == b.normalizer.mean

    def test_clamp_keeps_failing_trials(self):
        cfg = bell_config(theta=0.9 * math.pi)
        strict = CountingConfig(pairs_per_setting=100, trials=50, seed=11)
        clamped = CountingConfig(pairs_per_setting=100, trials=50, seed=11, clamp=True)
        assert monte_carlo(cfg, strict).fidelity.samples_rejected > 0
        mc = monte_carlo(cfg, clamped)
        assert mc.fidelity.samples_rejected == 0
        assert mc.fidelity.samples_kept == 50

    def test_mean_bias_shrinks_with_pair_count(self):
        cfg = bell_config()
        target = 1 / math.sqrt(2)
        medians = []
        for n_pairs in (1_000, 10_000, 100_000):
            biases = []
            for seed in range(5):
                mc = monte_carlo(cfg, CountingConfig(pairs_per_setting=n_pairs,
                                                     trials=40, seed=seed))
                biases.append(abs(mc.amplitudes.mean[1, 1] - target))
            medians.append(float(np.median(biases)))
        assert medians[0] > medians[1] > medians[2]

    def test_independent_batches_agree_on_std(self):
        cfg = bell_config()
        a = monte_carlo(cfg, CountingConfig(pairs_per_setting=50_000, trials=200, seed=41))
        b = monte_carlo(cfg, CountingConfig(pairs_per_setting=50_000, trials=200, seed=42))
        sa = float(a.amplitudes.std[1, 1].real)
        sb = float(b.amplitudes.std[1, 1].real)
        assert max(sa, sb) / min(sa, sb) <= 1.5

    def test_definitional_method_rejected(self):
        counting = CountingConfig(pairs_per_setting=1000, trials=3, seed=0)
        with pytest.raises(ConfigError):
            monte_carlo(bell_config(), counting, method="definitional")

    def test_modular_estimates_reported(self):
        cfg = bell_config()
        mc = monte_carlo(cfg, CountingConfig(pairs_per_setting=100_000, trials=50, seed=9))
        _, _, pair_mean = split_plan(mc.modulars.mean, (2, 2))
        _, _, pair_std = split_plan(mc.modulars.std, (2, 2))
        assert abs(pair_mean[0, 0] - 1.0) < 0.05
        assert pair_std[0, 0].real > 0


class TestNoisyTrials:
    def test_counts_follow_scalar_draws_in_plan_order(self):
        # reference: one scalar binomial per (setting, detector), in plan order
        cfg = ProtocolConfig(system_state=phase_bell(0.7), postselection=uniform_plus(),
                             epsilon=0.2)
        counting = CountingConfig(pairs_per_setting=1000, trials=4, seed=7)
        exact = collect_probabilities(cfg)
        rngs, kept, result = noisy_trials(cfg, counting, "first_order")
        assert len(rngs) == counting.trials and kept.all()
        assert result.modulars.shape == (counting.trials, len(exact))
        for trial, rng in enumerate(rngs):
            ref = trial_rng(counting.seed, trial)
            expected = [ref.binomial(1000, p) / 1000 for p1, p2 in exact for p in (p1, p2)]
            # first order reads M = (p1 - 1/2)/eps + i (p2 - 1/2)/eps exactly
            measured = [p for m in result.modulars[trial]
                        for p in (0.5 + 0.2 * m.real, 0.5 + 0.2 * m.imag)]
            np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-12)
            # the handed-on generator continues the same stream
            assert rng.random() == ref.random()

    def test_rejected_trials_are_masked(self):
        cfg = bell_config(theta=0.9 * math.pi)
        counting = CountingConfig(pairs_per_setting=100, trials=50, seed=11)
        _, kept, result = noisy_trials(cfg, counting)
        assert 0 < kept.sum() < counting.trials
        assert np.all(np.isnan(result.amplitudes[~kept]))
        assert np.all(np.isfinite(result.amplitudes[kept]))
        mc = monte_carlo(cfg, counting, keep_samples=True)
        assert mc.amplitudes.samples_rejected == counting.trials - kept.sum()
        assert np.array_equal(mc.amplitudes.samples, result.amplitudes[kept])

    @pytest.mark.parametrize("dims, seed", [((2, 2), 11), ((3, 2), 5), ((4, 3), 8)])
    def test_fidelity_samples_match_per_trial_states(self, dims, seed):
        # reference: one PureState per kept trial and the inner product of two states
        psi, phi = random_pair(np.random.default_rng(seed), dims, min_overlap=0.3)
        cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=0.5)
        counting = CountingConfig(pairs_per_setting=300, trials=40, seed=seed)
        _, kept, result = noisy_trials(cfg, counting)
        want = [abs(inner(psi, PureState(dims, result.amplitudes[k].reshape(-1)))) ** 2
                for k in np.flatnonzero(kept)]
        mc = monte_carlo(cfg, counting, keep_samples=True)
        assert mc.fidelity.samples.tobytes() == np.array(want).tobytes()
        assert mc.fidelity.samples_kept == kept.sum()


class TestTrialRngs:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**200), trials=st.integers(1, 64))
    @example(seed=2**32 - 1, trials=3)
    @example(seed=2**32, trials=3)
    @example(seed=2**128 - 1, trials=3)
    @example(seed=2**128, trials=3)
    def test_streams_equal_numpy_seed_sequence(self, seed, trials):
        rngs = trial_rngs(seed, trials)
        assert len(rngs) == trials
        for trial, rng in enumerate(rngs):
            assert rng.bit_generator.state == trial_rng(seed, trial).bit_generator.state

    def test_seed_must_be_a_non_negative_integer(self):
        with pytest.raises(ValueError, match="seed"):
            trial_rngs(-1, 2)
        with pytest.raises(TypeError):
            trial_rngs(7.0, 2)
        rng = trial_rngs(np.int64(7), 2)[1]
        assert rng.bit_generator.state == trial_rng(7, 1).bit_generator.state

    def test_runs_without_numpy_seeding(self, tmp_path, monkeypatch, capsys):
        # the generators come from the batched hash alone, never from numpy's seeding
        def refuse(*args, **kwargs):
            raise AssertionError("numpy seeding called")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "schema_version": 1, "state": {"preset": "fig4a"},
            "noise": {"pairs_per_setting": 10_000, "trials": 4, "seed": 3}}))
        for command in ("reconstruct", "compare"):
            assert main([command, "--config", str(config), "--no-timestamp"]) == 0
            assert capsys.readouterr().err == ""


class TestSamplePauliExpectations:
    def test_stack_equals_per_generator_draws(self):
        values = pauli_expectations(phase_bell(0.3))
        stacked = sample_pauli_expectations(values, 500, trial_rngs(9, 5))
        single = np.stack([sample_pauli_expectations(values, 500, rng)
                           for rng in trial_rngs(9, 5)])
        assert stacked.shape == (5, 16)
        assert stacked.tobytes() == single.tobytes()

    def test_identity_is_exact(self):
        values = pauli_expectations(phase_bell(0.0))
        noisy = sample_pauli_expectations(values, 100, trial_rng(1, 0))
        assert noisy[0] == 1.0

    def test_range_and_determinism(self):
        values = pauli_expectations(phase_bell(0.5))
        a = sample_pauli_expectations(values, 1000, trial_rng(3, 0))
        b = sample_pauli_expectations(values, 1000, trial_rng(3, 0))
        assert np.array_equal(a, b)
        assert np.all(a >= -1) and np.all(a <= 1)


class TestCountingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountingConfig(pairs_per_setting=0, trials=1, seed=0)
        with pytest.raises(ValueError):
            CountingConfig(pairs_per_setting=10, trials=0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            CountingConfig(pairs_per_setting=10, trials=1, seed=-1)
        CountingConfig(pairs_per_setting=10, trials=1, seed=0)
