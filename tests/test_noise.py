"""Counting statistics and Monte Carlo propagation."""

import functools
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
)
from modval.presets import phase_bell, state_preset, uniform_plus
from modval.protocol import ProtocolConfig, run_protocol, split_plan
from modval.reconstruction import definitional_modulars
from tests.conftest import random_pair
from tests.oracle import (
    forward_probabilities,
    modular_std,
    per_quantity_estimates,
    row_by_row_counts,
)
from modval.tomography import pauli_expectations


def bell_config(theta=0.0, epsilon=0.2):
    return ProtocolConfig(system_state=phase_bell(theta), postselection=uniform_plus(),
                          epsilon=epsilon)


# largest gap between a Monte Carlo estimate and the same statistic of its quantity reduced
# alone as a 1-D array, per real and imaginary part, over the largest magnitude of the kept
# samples (at least 1): 600 random runs of each of the two tests below measured at most
# 5.6e-16
_REDUCTION_TOL = 6e-16


def assert_reduced_alike(got, want, samples):
    """``got`` within _REDUCTION_TOL of ``want``, scaled by the kept samples, per part."""
    got, want = np.asarray(got), np.asarray(want)
    size = np.maximum(1.0, np.abs(samples).max(axis=0))
    for part in ("real", "imag"):
        gap = np.abs(getattr(got, part) - getattr(want, part))
        assert np.all(gap <= _REDUCTION_TOL * size), (part, np.max(gap / size))


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
        assert mc.trials_rejected > 0
        assert mc.trials_kept + mc.trials_rejected == 50

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
        assert monte_carlo(cfg, strict).trials_rejected > 0
        mc = monte_carlo(cfg, clamped)
        assert mc.trials_rejected == 0
        assert mc.trials_kept == 50

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
        assert_reduced_alike(mc.modulars.mean, [m for m, _ in columns], modulars[kept])
        assert_reduced_alike(mc.modulars.std, [s for _, s in columns], modulars[kept])
        assert mc.trials_kept == trials and mc.trials_rejected == 2
        assert len(mc.modulars.samples) == trials
        if trials == 1:
            assert not mc.modulars.std.any()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=st.tuples(st.integers(2, 4), st.integers(2, 3)), trials=st.integers(1, 60),
           pairs=st.sampled_from([60, 500, 100_000]), epsilon=st.sampled_from([0.2, 0.6]),
           clamp=st.booleans(), method=st.sampled_from(["exact_inversion", "first_order"]),
           seed=st.integers(0, 2**32 - 1))
    # one trial: every std is 0
    @example(dims=(2, 2), trials=1, pairs=100_000, epsilon=0.2, clamp=False,
             method="exact_inversion", seed=0)
    # every trial kept
    @example(dims=(3, 2), trials=60, pairs=100_000, epsilon=0.2, clamp=False,
             method="exact_inversion", seed=1)
    # low counts: 34 of 60 trials rejected, or clamped and kept
    @example(dims=(2, 2), trials=60, pairs=60, epsilon=0.6, clamp=False,
             method="exact_inversion", seed=0)
    @example(dims=(2, 2), trials=60, pairs=60, epsilon=0.6, clamp=True,
             method="exact_inversion", seed=0)
    def test_estimates_equal_per_quantity_stats(self, dims, trials, pairs, epsilon, clamp,
                                                method, seed):
        psi, phi = random_pair(np.random.default_rng(seed), dims)
        cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=epsilon)
        counting = CountingConfig(pairs_per_setting=pairs, trials=trials, seed=seed,
                                  clamp=clamp)
        try:
            kept, result, _ = noisy_trials(cfg, counting, method)
        except AllTrialsRejected:
            with pytest.raises(AllTrialsRejected):
                monte_carlo(cfg, counting, method=method)
            return
        mc = monte_carlo(cfg, counting, method=method)
        n_kept = int(kept.sum())
        for name, (mean, std) in per_quantity_estimates(kept, result, psi).items():
            estimate = getattr(mc, name)
            if estimate.samples.ndim == 1:  # a 1-D sum adds pairwise, the table row by row
                assert_reduced_alike(estimate.mean, mean, estimate.samples)
                assert_reduced_alike(estimate.std, std, estimate.samples)
            else:  # both add row by row over the trial axis
                assert np.asarray(estimate.mean).tobytes() == mean.tobytes(), name
                assert np.asarray(estimate.std).tobytes() == std.tobytes(), name
            assert len(estimate.samples) == n_kept, name
        assert (mc.trials_kept, mc.trials_rejected) == (n_kept, trials - n_kept)
        assert type(mc.normalizer.mean) is type(mc.fidelity.std) is float
        assert mc.amplitudes.mean.shape == mc.weak_values.std.shape == dims
        if clamp:
            assert n_kept == trials

    def test_modular_estimates_reported(self):
        cfg = bell_config()
        mc = monte_carlo(cfg, CountingConfig(pairs_per_setting=100_000, trials=50, seed=9))
        _, _, pair_mean = split_plan(mc.modulars.mean, (2, 2))
        _, _, pair_std = split_plan(mc.modulars.std, (2, 2))
        assert abs(pair_mean[0, 0] - 1.0) < 0.05
        assert pair_std[0, 0].real > 0


# the delta-method oracle's run and bands, fixed before any run: fig4a-d at the paper's
# eps = 0.2, in domain (eps*|M| < 1), at one seed; every std within k of its relative
# errors 1/sqrt(2(T - 1)) of the prediction (the chi-square band of a sample std), and
# every mean within k standard errors of the definitional value
ORACLE_EPSILON, ORACLE_PAIRS, ORACLE_TRIALS, ORACLE_SEED, ORACLE_K = 0.2, 100_000, 2000, 2026, 4.0


@functools.cache
def oracle_run(name):
    """(monte_carlo result, definitional modulars, delta-method std) of one fig4 state."""
    cfg = ProtocolConfig(system_state=state_preset(name), postselection=uniform_plus(),
                         epsilon=ORACLE_EPSILON)
    truth = definitional_modulars(cfg)
    # the oracle's closed-form readout is the one the pipeline computes
    np.testing.assert_allclose(np.stack(forward_probabilities(truth, ORACLE_EPSILON), axis=-1),
                               run_protocol(cfg).probabilities, rtol=0, atol=1e-14)
    counting = CountingConfig(pairs_per_setting=ORACLE_PAIRS, trials=ORACLE_TRIALS,
                              seed=ORACLE_SEED)
    return monte_carlo(cfg, counting), truth, modular_std(truth, ORACLE_EPSILON, ORACLE_PAIRS)


@pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig4c", "fig4d"])
class TestDeltaMethodOracle:
    def test_std_lies_in_the_chi_square_band(self, name):
        mc, _, predicted = oracle_run(name)
        assert mc.trials_rejected == 0
        band = ORACLE_K / math.sqrt(2 * (ORACLE_TRIALS - 1))
        for part in ("real", "imag"):
            ratio = getattr(mc.modulars.std, part) / getattr(predicted, part)
            assert np.all(np.abs(ratio - 1.0) <= band), (part, ratio)

    def test_mean_lies_within_k_standard_errors(self, name):
        mc, truth, predicted = oracle_run(name)
        for part in ("real", "imag"):
            error = getattr(predicted, part) / math.sqrt(mc.trials_kept)
            z = (getattr(mc.modulars.mean, part) - getattr(truth, part)) / error
            assert np.all(np.abs(z) <= ORACLE_K), (part, z)


class TestNoisyTrials:
    def test_counts_follow_scalar_draws_in_plan_order(self):
        # reference: one generator; per trial, in trial order, one scalar binomial per
        # (setting, detector) in plan order, then one per extra probability
        cfg = ProtocolConfig(system_state=phase_bell(0.7), postselection=uniform_plus(),
                             epsilon=0.2)
        counting = CountingConfig(pairs_per_setting=1000, trials=4, seed=7)
        exact = run_protocol(cfg).probabilities
        extra = [0.3, 0.0, 0.75, 1.0, 1e-3, 0.5]
        kept, result, extra_counts = noisy_trials(cfg, counting, "first_order", extra=extra)
        assert kept.all()
        assert result.modulars.shape == (counting.trials, len(exact))
        assert extra_counts.shape == (counting.trials, len(extra))
        ref = np.random.default_rng(counting.seed)
        for trial in range(counting.trials):
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**200), trials=st.integers(1, 64),
           probabilities=st.lists(st.floats(0.0, 1.0), max_size=8),
           pairs=st.sampled_from([1, 30, 500, 100_000]))
    @example(seed=2**32, trials=3, probabilities=[0.25, 0.5], pairs=500)
    @example(seed=2**128, trials=3, probabilities=[0.25, 0.5], pairs=500)
    @example(seed=2**200, trials=3, probabilities=[0.25, 0.5], pairs=500)
    def test_one_call_equals_row_by_row_draws(self, seed, trials, probabilities, pairs):
        counts = _binomial_counts(np.array(probabilities), pairs, seed, trials)
        want = row_by_row_counts(np.array(probabilities), pairs, seed, trials)
        assert counts.shape == (trials, len(probabilities))
        assert counts.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [2**32, 2**128, 2**200])
    def test_large_seeds_are_accepted(self, seed):
        counting = CountingConfig(pairs_per_setting=100_000, trials=3, seed=seed)
        kept, _, _ = noisy_trials(bell_config(), counting)
        assert kept.all()

    def test_first_trials_do_not_depend_on_later_ones(self):
        # trials are rows of one stream in trial order, so a longer run extends a shorter one
        cfg = bell_config(theta=0.9 * math.pi)
        extra = np.full(15, 0.5)
        short = CountingConfig(pairs_per_setting=100, trials=30, seed=11)
        long = CountingConfig(pairs_per_setting=100, trials=37, seed=11)
        kept, result, extra_counts = noisy_trials(cfg, short, extra=extra)
        kept_l, result_l, extra_counts_l = noisy_trials(cfg, long, extra=extra)
        assert 0 < kept.sum() < short.trials
        exact = run_protocol(cfg).probabilities
        assert _binomial_counts(exact.ravel(), 100, 11, 37)[:30].tobytes() == \
            _binomial_counts(exact.ravel(), 100, 11, 30).tobytes()
        assert np.array_equal(kept_l[:30], kept)
        assert extra_counts_l[:30].tobytes() == extra_counts.tobytes()
        assert result_l.amplitudes[:30].tobytes() == result.amplitudes.tobytes()

    def test_batched_state_asks_for_one_trial(self):
        # a batched result used to fail inside numpy: cannot reshape array of size 12
        kept, result, _ = noisy_trials(bell_config(), CountingConfig(
            pairs_per_setting=100_000, trials=3, seed=4))
        assert kept.all()
        with pytest.raises(ValueError, match=r"^\.state\(\) takes one trial; "
                                             r"use result\[k\]\.state\(\) on a batch$"):
            result.state()
        for k in range(3):
            assert result[k].state().amps.tobytes() == result.amplitudes[k].tobytes()

    def test_rejected_trials_are_masked(self):
        cfg = bell_config(theta=0.9 * math.pi)
        counting = CountingConfig(pairs_per_setting=100, trials=50, seed=11)
        kept, result, _ = noisy_trials(cfg, counting)
        assert 0 < kept.sum() < counting.trials
        assert np.all(np.isnan(result.amplitudes[~kept]))
        assert np.all(np.isfinite(result.amplitudes[kept]))
        mc = monte_carlo(cfg, counting)
        assert mc.trials_rejected == counting.trials - kept.sum()
        assert np.array_equal(mc.amplitudes.samples, result.amplitudes[kept])

    @pytest.mark.parametrize("dims, seed", [((2, 2), 11), ((3, 2), 5), ((4, 3), 8)])
    def test_fidelity_samples_match_per_trial_states(self, dims, seed):
        # reference: one PureState per kept trial and the inner product of two states
        psi, phi = random_pair(np.random.default_rng(seed), dims, min_overlap=0.3)
        cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=0.5)
        counting = CountingConfig(pairs_per_setting=300, trials=40, seed=seed)
        kept, result, _ = noisy_trials(cfg, counting)
        overlaps = [inner(psi, PureState(dims, result.amplitudes[k].reshape(-1)))
                    for k in np.flatnonzero(kept)]
        want = [z.real * z.real + z.imag * z.imag for z in overlaps]
        mc = monte_carlo(cfg, counting)
        assert mc.fidelity.samples.tobytes() == np.array(want).tobytes()
        assert mc.trials_kept == kept.sum()


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
        # reference: every trial's detector and then Pauli counts drawn row by row on one
        # generator, the Pauli counts of the kept rows turned into expectations
        path, pcfg, counting = compare_config(tmp_path, clamp=clamp)
        seen = []
        inversion = cli.linear_inversion
        monkeypatch.setattr(cli, "linear_inversion",
                            lambda values: seen.append(values) or inversion(values))
        assert main(["compare", "--config", path, "--no-timestamp"]) == 0
        assert capsys.readouterr().err == ""

        p_plus = pauli_plus_probabilities(pauli_expectations(pcfg.system_state))
        kept = noisy_trials(pcfg, counting, extra=p_plus)[0]
        assert kept.all() if clamp else 0 < kept.sum() < counting.trials
        exact = run_protocol(pcfg).probabilities
        counts = row_by_row_counts(np.append(exact, p_plus), counting.pairs_per_setting,
                                   counting.seed, counting.trials)
        want = pauli_from_counts(counts[kept, exact.size:], counting.pairs_per_setting)
        assert len(seen) == 1 and seen[0].shape == (kept.sum(), 16)
        assert seen[0].tobytes() == want.tobytes()


class TestOneDraw:
    """A noisy run seeds one generator and draws every trial in one call, kept or not."""

    @staticmethod
    def run_commands(tmp_path, monkeypatch, capsys):
        # the seeds given to ``default_rng`` and the ``binomial`` calls, per command
        path, _, counting = compare_config(tmp_path)
        seeds, calls, seen = [], [], {}

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, *args):
                calls.append(args)
                return self.rng.binomial(*args)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed)
                            or CountingGenerator(default_rng(seed)))
        for command in ("reconstruct", "compare", "tomography"):
            seeds.clear()
            calls.clear()
            assert main([command, "--config", path, "--no-timestamp"]) == 0
            out, err = capsys.readouterr()
            assert err == "", command
            if command == "compare":
                assert "negative_discriminant" in out  # some trials rejected
            seen[command] = list(seeds), list(calls)
        return counting, seen

    def test_one_generator_per_command(self, tmp_path, monkeypatch, capsys):
        counting, seen = self.run_commands(tmp_path, monkeypatch, capsys)
        for command, (seeds, _) in seen.items():
            assert seeds == [counting.seed], command

    def test_one_binomial_call_per_command(self, tmp_path, monkeypatch, capsys):
        counting, seen = self.run_commands(tmp_path, monkeypatch, capsys)
        for command, (_, calls) in seen.items():
            assert len(calls) == 1, command
            assert calls[0][1].shape[0] == (1 if command == "tomography" else counting.trials)


class TestSamplePauliExpectations:
    """Noisy Pauli expectations: ``_binomial_counts`` of the +1 probabilities, then
    ``pauli_from_counts``, as a noisy ``tomography`` run draws them."""

    @staticmethod
    def sample(values, pairs, seed, trials):
        counts = _binomial_counts(pauli_plus_probabilities(values), pairs, seed, trials)
        return pauli_from_counts(counts, pairs)

    def test_stack_equals_row_by_row_draws(self):
        values = pauli_expectations(phase_bell(0.3))
        stacked = self.sample(values, 500, 9, 5)
        single = pauli_from_counts(
            row_by_row_counts(pauli_plus_probabilities(values), 500, 9, 5), 500)
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

    # a float or bool count used to run: binomial truncated 100.5 pairs to 100 while the
    # frequencies divided by 100.5, 2.5 trials ran 3, and seed True ran as seed 1
    def test_pairs_per_setting_must_be_an_integer(self):
        for pairs in (100.5, 100.0, True, "100"):
            with pytest.raises(ValueError, match="pairs_per_setting must be an integer"):
                CountingConfig(pairs_per_setting=pairs, trials=3, seed=0)
        counting = CountingConfig(pairs_per_setting=np.int64(100), trials=3, seed=0)
        assert type(counting.pairs_per_setting) is int

    def test_trials_must_be_an_integer(self):
        for trials in (2.5, 2.0, True, np.bool_(True)):
            with pytest.raises(ValueError, match="trials must be an integer"):
                CountingConfig(pairs_per_setting=100, trials=trials, seed=0)
        assert type(CountingConfig(pairs_per_setting=100, trials=np.int32(3), seed=0).trials) is int

    # clamp="false" used to clamp: a non-empty string is true
    def test_clamp_must_be_a_bool(self):
        for clamp in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="clamp must be a bool"):
                CountingConfig(pairs_per_setting=100, trials=3, seed=0, clamp=clamp)
        assert CountingConfig(pairs_per_setting=100, trials=3, seed=0, clamp=True).clamp is True

    def test_seed_must_be_an_integer(self):
        for seed in (True, False, 7.0, None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                CountingConfig(pairs_per_setting=100, trials=3, seed=seed)
        counting = CountingConfig(pairs_per_setting=100, trials=3, seed=np.uint64(7))
        assert type(counting.seed) is int and counting.seed == 7
