"""Counting statistics and Monte Carlo propagation."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modval import cli, noise
from modval.errors import AllTrialsRejected, ConfigError
from modval.hilbert import PureState, inner
from modval.cli import main
from modval.noise import (
    CountingConfig,
    _binomial_counts,
    _complex_stats,
    monte_carlo,
    noisy_trials,
    pauli_from_counts,
    pauli_plus_probabilities,
    trial_rngs,
)
from modval.presets import phase_bell, state_preset, uniform_plus
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
        a = monte_carlo(cfg, counting)
        b = monte_carlo(cfg, counting)
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trials=st.integers(1, 300), settings_=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e5]))
    @example(trials=1, settings_=34, seed=0, scale=1.0)  # one trial: every std is 0
    @example(trials=8, settings_=3, seed=1, scale=1.0)  # numpy's 8-wide unrolled sum
    @example(trials=129, settings_=8, seed=2, scale=1.0)  # past a 128-element pairwise block
    @example(trials=300, settings_=40, seed=3, scale=1e5)
    def test_modular_stats_equal_per_column_stats(self, trials, settings_, seed, scale):
        # reference: each (K,) column of the kept modulars reduced on its own; a few
        # trials are rejected so the kept rows are a copy, as in a real run
        rng = np.random.default_rng(seed)
        modulars = scale * (1.0 + rng.normal(size=(trials + 2, settings_))
                            + 1j * rng.normal(size=(trials + 2, settings_)))
        kept = np.ones(trials + 2, dtype=bool)
        kept[[0, -1]] = False
        amplitudes = np.tile(phase_bell(0.0).amps.reshape(2, 2), (trials + 2, 1, 1))
        result = SimpleNamespace(modulars=modulars, amplitudes=amplitudes,
                                 weak_values=amplitudes, normalizer=np.ones(trials + 2))
        counting = CountingConfig(pairs_per_setting=100, trials=trials + 2, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "noisy_trials", lambda *args: (kept, result, None))
            mc = monte_carlo(bell_config(), counting)
        columns = [_complex_stats(modulars[kept][:, k]) for k in range(settings_)]
        assert mc.modulars.mean.tobytes() == np.array([m for m, _ in columns]).tobytes()
        assert mc.modulars.std.tobytes() == np.array([s for _, s in columns]).tobytes()
        assert mc.modulars.samples_kept == trials and mc.modulars.samples_rejected == 2
        if trials == 1:
            assert not mc.modulars.std.any()

    def test_modular_estimates_reported(self):
        cfg = bell_config()
        mc = monte_carlo(cfg, CountingConfig(pairs_per_setting=100_000, trials=50, seed=9))
        _, _, pair_mean = split_plan(mc.modulars.mean, (2, 2))
        _, _, pair_std = split_plan(mc.modulars.std, (2, 2))
        assert abs(pair_mean[0, 0] - 1.0) < 0.05
        assert pair_std[0, 0].real > 0


class TestNoisyTrials:
    def test_counts_follow_scalar_draws_in_plan_order(self):
        # reference: one scalar binomial per (setting, detector), in plan order, then one
        # per extra probability, continuing the same stream
        cfg = ProtocolConfig(system_state=phase_bell(0.7), postselection=uniform_plus(),
                             epsilon=0.2)
        counting = CountingConfig(pairs_per_setting=1000, trials=4, seed=7)
        exact = collect_probabilities(cfg)
        extra = [0.3, 0.0, 0.75, 1.0, 1e-3, 0.5]
        kept, result, extra_counts = noisy_trials(cfg, counting, "first_order", extra=extra)
        assert kept.all()
        assert result.modulars.shape == (counting.trials, len(exact))
        assert extra_counts.shape == (counting.trials, len(extra))
        for trial in range(counting.trials):
            ref = trial_rng(counting.seed, trial)
            expected = [ref.binomial(1000, p) / 1000 for p1, p2 in exact for p in (p1, p2)]
            # first order reads M = (p1 - 1/2)/eps + i (p2 - 1/2)/eps exactly
            measured = [p for m in result.modulars[trial]
                        for p in (0.5 + 0.2 * m.real, 0.5 + 0.2 * m.imag)]
            np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-12)
            state = ref.bit_generator.state
            assert extra_counts[trial].tolist() == [ref.binomial(1000, p) for p in extra]
            # p = 0 gives 0 and takes nothing from the stream, so the other entries are
            # the draws with it left out; p = 1 gives every pair, but numpy's inversion
            # of q = 1 - p = 0 still takes one uniform
            assert extra_counts[trial, [1, 3]].tolist() == [0, 1000]
            ref.bit_generator.state = state
            assert extra_counts[trial, [0, 2, 3, 4, 5]].tolist() == [
                ref.binomial(1000, p) for p in extra if p > 0]

    def test_extra_draws_leave_the_trials_unchanged(self):
        cfg = bell_config(theta=0.9 * math.pi)
        counting = CountingConfig(pairs_per_setting=100, trials=30, seed=11)
        kept, result, extra_counts = noisy_trials(cfg, counting)
        assert extra_counts.shape == (counting.trials, 0)
        kept_x, result_x, _ = noisy_trials(cfg, counting, extra=np.full(15, 0.5))
        assert 0 < kept.sum() < counting.trials
        assert np.array_equal(kept, kept_x)
        assert result.amplitudes.tobytes() == result_x.amplitudes.tobytes()

    def test_rejected_trials_are_masked(self):
        cfg = bell_config(theta=0.9 * math.pi)
        counting = CountingConfig(pairs_per_setting=100, trials=50, seed=11)
        kept, result, _ = noisy_trials(cfg, counting)
        assert 0 < kept.sum() < counting.trials
        assert np.all(np.isnan(result.amplitudes[~kept]))
        assert np.all(np.isfinite(result.amplitudes[kept]))
        mc = monte_carlo(cfg, counting)
        assert mc.amplitudes.samples_rejected == counting.trials - kept.sum()
        assert np.array_equal(mc.amplitudes.samples, result.amplitudes[kept])

    @pytest.mark.parametrize("dims, seed", [((2, 2), 11), ((3, 2), 5), ((4, 3), 8)])
    def test_fidelity_samples_match_per_trial_states(self, dims, seed):
        # reference: one PureState per kept trial and the inner product of two states
        psi, phi = random_pair(np.random.default_rng(seed), dims, min_overlap=0.3)
        cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=0.5)
        counting = CountingConfig(pairs_per_setting=300, trials=40, seed=seed)
        kept, result, _ = noisy_trials(cfg, counting)
        want = [abs(inner(psi, PureState(dims, result.amplitudes[k].reshape(-1)))) ** 2
                for k in np.flatnonzero(kept)]
        mc = monte_carlo(cfg, counting)
        assert mc.fidelity.samples.tobytes() == np.array(want).tobytes()
        assert mc.fidelity.samples_kept == kept.sum()


def compare_config(tmp_path, **noise_fields):
    """A noisy fig4a ``compare`` config at epsilon 0.9, and its protocol and counting."""
    counting = CountingConfig(**{"pairs_per_setting": 500, "trials": 12, "seed": 11,
                                 **noise_fields})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "state": {"preset": "fig4a"},
                                "epsilon": 0.9, "noise": vars(counting)}))
    pcfg = ProtocolConfig(system_state=state_preset("fig4a"), postselection=uniform_plus(),
                          epsilon=0.9)
    return str(path), pcfg, counting


class TestCompareDraws:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_expectations_equal_the_kept_generator_path(self, tmp_path, monkeypatch, capsys,
                                                        clamp):
        # reference: every trial's generator positioned after its detector draw, the
        # kept ones then each drawing its 15 Pauli counts in a call of its own
        path, pcfg, counting = compare_config(tmp_path, clamp=clamp)
        seen = []
        inversion = cli.linear_inversion
        monkeypatch.setattr(cli, "linear_inversion",
                            lambda values: seen.append(values) or inversion(values))
        assert main(["compare", "--config", path, "--no-timestamp"]) == 0
        assert capsys.readouterr().err == ""

        kept = noisy_trials(pcfg, counting)[0]
        assert kept.all() if clamp else 0 < kept.sum() < counting.trials
        exact = collect_probabilities(pcfg)
        rngs = trial_rngs(counting.seed, counting.trials)
        for rng in rngs:
            rng.binomial(counting.pairs_per_setting, exact)
        p_plus = pauli_plus_probabilities(pauli_expectations(pcfg.system_state))
        want = pauli_from_counts(
            np.array([rng.binomial(counting.pairs_per_setting, p_plus)
                      for rng, keep in zip(rngs, kept) if keep]), counting.pairs_per_setting)
        assert len(seen) == 1 and seen[0].shape == (kept.sum(), 16)
        assert seen[0].tobytes() == want.tobytes()

    def test_one_binomial_call_per_trial(self, tmp_path, monkeypatch, capsys):
        # a trial draws its detector and Pauli counts in one call, kept or not
        path, _, counting = compare_config(tmp_path)
        calls = []

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, *args):
                calls.append(args)
                return self.rng.binomial(*args)

        seed_trials = noise.trial_rngs
        monkeypatch.setattr(noise, "trial_rngs", lambda seed, trials: [
            CountingGenerator(rng) for rng in seed_trials(seed, trials)])
        assert main(["compare", "--config", path, "--no-timestamp"]) == 0
        assert "negative_discriminant" in capsys.readouterr().out  # some trials rejected
        assert len(calls) == counting.trials


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
        # a noisy run makes one numpy SeedSequence(seed), for the seed-word pool that the
        # batched hash starts from; no trial is seeded by numpy (np.random.SeedSequence or
        # default_rng)
        import numpy.random.bit_generator as bit_generator

        seed_sequence, calls = bit_generator.SeedSequence, []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return seed_sequence(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy seeding called")

        monkeypatch.setattr(bit_generator, "SeedSequence", counting)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "schema_version": 1, "state": {"preset": "fig4a"},
            "noise": {"pairs_per_setting": 10_000, "trials": 4, "seed": 3}}))
        for command in ("reconstruct", "compare", "tomography"):
            calls.clear()
            assert main([command, "--config", str(config), "--no-timestamp"]) == 0
            assert capsys.readouterr().err == ""
            assert calls == [((3,), {})], command


class TestSamplePauliExpectations:
    """Noisy Pauli expectations: ``_binomial_counts`` of the +1 probabilities, then
    ``pauli_from_counts``, as a noisy ``tomography`` run draws them."""

    @staticmethod
    def sample(values, pairs, seed, trials):
        counts = _binomial_counts(pauli_plus_probabilities(values), pairs, seed, trials)
        return pauli_from_counts(counts, pairs)

    def test_stack_equals_per_generator_draws(self):
        values = pauli_expectations(phase_bell(0.3))
        stacked = self.sample(values, 500, 9, 5)
        # trial t draws on numpy's own default_rng(SeedSequence(9, spawn_key=(t,)))
        single = pauli_from_counts(
            np.array([trial_rng(9, t).binomial(500, pauli_plus_probabilities(values))
                      for t in range(5)]), 500)
        assert stacked.shape == (5, 16)
        assert stacked.tobytes() == single.tobytes()

    def test_identity_is_exact(self):
        values = pauli_expectations(phase_bell(0.0))
        noisy = self.sample(values, 100, 1, 1)[0]
        assert noisy[0] == 1.0

    def test_range_and_determinism(self):
        values = pauli_expectations(phase_bell(0.5))
        a = self.sample(values, 1000, 3, 1)[0]
        b = self.sample(values, 1000, 3, 1)[0]
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

    def test_trials_are_capped(self):
        CountingConfig(pairs_per_setting=10, trials=10**6, seed=0)  # built, never run
        for trials in (10**6 + 1, 10**400):
            with pytest.raises(ValueError, match="trials must be at most 1000000"):
                CountingConfig(pairs_per_setting=10, trials=trials, seed=0)
