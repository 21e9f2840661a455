"""Modular/weak value estimators and the amplitude pipeline."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modval.errors import NegativeDiscriminant, OrthogonalPostselection
from modval.hilbert import MAX_TOTAL_DIM, PureState, inner
from modval.presets import phase_bell, state_preset, uniform_plus
from modval import reconstruction
from modval.protocol import PlanOutcome, ProtocolConfig, measurement_plan, run_protocol
from modval.reconstruction import (
    METHODS,
    definitional_modulars,
    invert_probabilities,
    modular_exact_inversion,
    modular_first_order,
    reconstruct,
    reconstruct_state,
    s_parameter,
    weak_from_modulars,
)
from tests.conftest import random_pair, random_state
from tests.oracle import (
    embedded,
    forward_probabilities,
    modular_definitional,
    pair_product,
    pair_sum,
    plan_diagonals,
    plan_observable,
    shift_modular,
    weak_definitional,
)
from tests.test_hilbert import taylor_expm


class TestModularDefinitional:
    def test_single_projector_at_pi(self):
        value = modular_definitional(embedded("a", 1).mat, math.pi, phase_bell(0.0),
                                     uniform_plus())
        assert abs(value) <= 1e-12  # weak value 1/2, so 1 + (-2)(1/2) = 0

    def test_projector_sum_at_pi(self):
        value = modular_definitional(pair_sum(1, 1).mat, math.pi, phase_bell(0.0),
                                     uniform_plus())
        assert abs(value - 1.0) <= 1e-12  # the two pi phases cancel on |VV>

    def test_zero_observable(self, rng):
        psi, phi = random_pair(rng)
        assert abs(modular_definitional(np.zeros((4, 4)), math.pi, psi, phi) - 1.0) <= 1e-12

    def test_orthogonal_raises(self):
        with pytest.raises(OrthogonalPostselection):
            modular_definitional(embedded("a", 1).mat, math.pi, phase_bell(math.pi),
                                 uniform_plus())

    def test_matches_taylor_series_exponential(self, rng):
        for dims in ((2, 2), (3, 2)):
            d = int(np.prod(dims))
            psi, phi = random_pair(rng, dims)
            herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            herm = (herm + herm.conj().T) / 2
            herm /= np.max(np.abs(np.linalg.eigvalsh(herm)))  # keeps the series short
            g = rng.uniform(0.3, 2 * math.pi - 0.3)
            evolved = taylor_expm(-1j * g * herm) @ psi.amps
            expected = np.vdot(phi.amps, evolved) / np.vdot(phi.amps, psi.amps)
            value = modular_definitional(herm, g, psi, phi)
            assert abs(value - expected) <= 1e-10

    def test_shape_and_finite_entries_checked(self, rng):
        psi, phi = random_pair(rng)
        for wrong in (np.eye(3), np.eye(4)[:3], np.ones(4)):
            with pytest.raises(ValueError, match="shape"):
                modular_definitional(wrong, math.pi, psi, phi)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                modular_definitional(np.diag([1.0, bad, 0.0, 0.0]), math.pi, psi, phi)

    def test_non_hermitian_rejected(self, rng):
        psi, phi = random_pair(rng)
        with pytest.raises(ValueError, match="Hermitian"):
            modular_definitional(np.triu(np.ones((4, 4))), math.pi, psi, phi)


class TestWeakDefinitional:
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, -2.0, 2.5])
    def test_phase_family_joint_weak_value(self, theta):
        # e^{i theta} / (1 + e^{i theta}) for the (V, V) projector pair
        value = weak_definitional(pair_product(1, 1), phase_bell(theta), uniform_plus())
        expected = cmath.exp(1j * theta) / (1 + cmath.exp(1j * theta))
        assert abs(value - expected) <= 1e-12

    def test_quarter_phase_value(self):
        value = weak_definitional(pair_product(1, 1), phase_bell(math.pi / 2), uniform_plus())
        assert abs(value - (0.5 + 0.5j)) <= 1e-12

    def test_fig4d_joint_weak_value(self):
        value = weak_definitional(pair_product(1, 1), state_preset("fig4d"), uniform_plus())
        assert abs(value - 0.5) <= 1e-12


class TestFirstOrder:
    def test_balanced_probabilities(self):
        assert modular_first_order(0.5, 0.5, 0.37) == 0

    def test_biased_estimate_of_unit_modular(self):
        est = modular_first_order(9 / 13, 0.5, 0.2)
        assert abs(est - 1 / 1.04) <= 1e-12  # first-order bias vs true value 1

    def test_linear_formula(self):
        assert abs(modular_first_order(0.7, 0.5, 0.2) - 1.0) <= 1e-12

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            modular_first_order(0.5, 0.5, 0.0)


class TestExactInversion:
    def test_reference_example(self):
        est = modular_exact_inversion(9 / 13, 0.5, 0.2)
        assert abs(est - 1.0) <= 1e-12

    def test_balanced_probabilities(self):
        assert modular_exact_inversion(0.5, 0.5, 0.2) == 0

    def test_round_trip_random_modulars(self, rng):
        eps = 0.5
        for _ in range(200):
            m_val = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            m_val *= 2.0 * rng.uniform(0, 1) / max(abs(m_val), 1e-9)  # |M| <= 2
            p1, p2 = forward_probabilities(m_val, eps)
            est = modular_exact_inversion(p1, p2, eps)
            assert abs(est - m_val) <= 1e-10

    def test_negative_discriminant_is_nan(self):
        est = modular_exact_inversion(1.0, 1.0, 0.2)
        assert np.isnan(est.real) and np.isnan(est.imag)

    def test_exact_pipeline_raises_on_unreachable_probabilities(self, monkeypatch):
        # exact probabilities always invert; force one setting off the disk
        def off_disk(cfg):
            return PlanOutcome(None, None, np.array([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5]]))

        monkeypatch.setattr(reconstruction, "run_protocol", off_disk)
        cfg = ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus())
        with pytest.raises(NegativeDiscriminant, match=r"\(1\.000000, 1\.000000\)"):
            reconstruct_state(cfg, "exact_inversion")

    def test_clamp_maps_to_boundary(self):
        est = modular_exact_inversion(1.0, 1.0, 0.2, clamp=True)
        assert abs(abs(est) - 1 / 0.2) <= 1e-10  # |M| = 1/eps, phase kept
        assert abs(cmath.phase(est) - math.pi / 4) <= 1e-10

    def test_elementwise_over_arrays(self, rng):
        p = rng.uniform(0.3, 0.7, size=(3, 4, 2))
        batch = invert_probabilities(p, 0.5, "exact_inversion")
        assert batch.shape == (3, 4)
        for index in np.ndindex(3, 4):
            single = modular_exact_inversion(*p[index], 0.5)
            assert batch[index].tobytes() == np.complex128(single).tobytes()


class TestWeakFromModulars:
    def test_reference_combination(self):
        assert abs(weak_from_modulars(1.0, 0.0, 0.0, -2.0) - 0.5) <= 1e-15

    def test_all_ones_vanishes(self):
        assert weak_from_modulars(1.0, 1.0, 1.0, -2.0) == 0

    def test_matches_definitional_joint_weak_value(self, rng):
        for _ in range(200):
            psi, phi = random_pair(rng)
            g = rng.uniform(0.3, 2 * math.pi - 0.3)
            s = s_parameter(g)
            composed = weak_from_modulars(
                modular_definitional(pair_sum(1, 1).mat, g, psi, phi),
                modular_definitional(embedded("a", 1).mat, g, psi, phi),
                modular_definitional(embedded("b", 1).mat, g, psi, phi), s)
            direct = weak_definitional(pair_product(1, 1), psi, phi)
            assert abs(composed - direct) <= 1e-10

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            weak_from_modulars(1.0, 0.0, 0.0, 0.0)


# a nan or infinite epsilon or s used to give nan values in place of an error
_BAD_EPSILONS = [0.0, -0.2, math.nan, math.inf, -math.inf]
_BAD_S = [0.0, math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)]


def _refused(call) -> bool:
    """True when ``call()`` raises ValueError, False when it returns."""
    try:
        call()
    except ValueError:
        return True
    return False


class TestParameterDomain:
    @pytest.mark.parametrize("epsilon", _BAD_EPSILONS)
    def test_first_order_needs_a_finite_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[1e-8, 1\]"):
            modular_first_order(0.6, 0.5, epsilon)

    @pytest.mark.parametrize("epsilon", _BAD_EPSILONS)
    def test_exact_inversion_needs_a_finite_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[1e-8, 1\]"):
            modular_exact_inversion(0.6, 0.5, epsilon)

    @pytest.mark.parametrize("method", ["first_order", "exact_inversion"])
    @pytest.mark.parametrize("epsilon", _BAD_EPSILONS)
    def test_invert_probabilities_needs_a_finite_positive_epsilon(self, epsilon, method):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[1e-8, 1\]"):
            invert_probabilities(np.full((2, 3, 2), 0.5), epsilon, method)

    @pytest.mark.parametrize("s", _BAD_S)
    def test_weak_from_modulars_needs_a_finite_nonzero_s(self, s):
        with pytest.raises(ValueError, match="s must be finite and nonzero"):
            weak_from_modulars(1.0, 0.5, 0.5, s)

    @pytest.mark.parametrize("s", _BAD_S)
    def test_reconstruct_needs_a_finite_nonzero_s(self, s):
        with pytest.raises(ValueError, match="s must be finite and nonzero"):
            reconstruct(postselection=uniform_plus(), s=s,
                        modulars=np.ones((2, 3), dtype=complex))

    # an epsilon or s that the config refuses used to pass the helpers, which
    # returned 1e8j, nan+infj, 1e14 or inf for these examples
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(epsilon=st.floats())
    @example(epsilon=5e-324)
    @example(epsilon=1e-9)
    @example(epsilon=1e-8)
    @example(epsilon=1.0)
    @example(epsilon=2.0)
    def test_config_and_inversions_share_one_epsilon_domain(self, epsilon):
        probabilities = np.array([[0.6, 0.5], [0.4, 0.55], [0.5, 0.5]])
        calls = {
            "config": lambda: ProtocolConfig(system_state=phase_bell(0.3),
                                             postselection=uniform_plus(), epsilon=epsilon),
            "first_order": lambda: modular_first_order(0.6, 0.5, epsilon),
            "exact_inversion": lambda: modular_exact_inversion(0.6, 0.5, epsilon),
            **{f"invert {method}": lambda method=method: invert_probabilities(
                probabilities, epsilon, method) for method in ("first_order", "exact_inversion")},
        }
        refused = {name: _refused(call) for name, call in calls.items()}
        assert len(set(refused.values())) == 1, refused

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(g=st.floats(allow_nan=False, allow_infinity=False))
    @example(g=2 * math.pi)
    @example(g=2 * math.pi + 5e-7)
    @example(g=2 * math.pi + 2e-6)
    def test_config_and_weak_values_share_one_s_domain(self, g):
        s = s_parameter(g)
        refused = {
            "config": _refused(lambda: ProtocolConfig(system_state=phase_bell(0.3),
                                                      postselection=uniform_plus(), g=g)),
            "weak_from_modulars": _refused(lambda: weak_from_modulars(1.0, 0.5, 0.5, s)),
            "reconstruct": _refused(lambda: reconstruct(
                postselection=uniform_plus(), s=s, modulars=np.ones(3, dtype=complex))),
        }
        assert len(set(refused.values())) == 1, refused

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=st.one_of(st.complex_numbers(max_magnitude=2.0), st.sampled_from(_BAD_S)))
    @example(s=1e-200)
    @example(s=1e-7)
    @example(s=1e-6)
    def test_weak_values_refuse_the_s_the_config_refuses(self, s):
        # every real g gives |s| <= 2; the config refuses |s| < 1e-6
        want = not (cmath.isfinite(s) and abs(s) >= 1e-6)
        assert _refused(lambda: weak_from_modulars(1.0, 0.5, 0.5, s)) == want
        assert _refused(lambda: reconstruct(postselection=uniform_plus(), s=s,
                                            modulars=np.ones((2, 3), dtype=complex))) == want


class TestShiftModular:
    def test_zero_shift(self):
        assert shift_modular(0.3 + 0.4j, 0, -2.0) == 0.3 + 0.4j

    def test_unit_shift_factor(self):
        # shifting by the identity multiplies by 1+s = e^{-ig} (-1 at g=pi)
        assert shift_modular(0.3 + 0.4j, 1, -2.0) == -(0.3 + 0.4j)

    def test_consistent_with_definitional_oracle(self, rng):
        for _ in range(100):
            psi, phi = random_pair(rng)
            g = rng.uniform(0.3, 2 * math.pi - 0.3)
            s = s_parameter(g)
            herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = (herm + herm.conj().T) / 2
            herm /= np.max(np.abs(np.linalg.eigvalsh(herm)))
            c = int(rng.integers(-2, 4))
            lhs = modular_definitional(c * np.eye(4) + herm, g, psi, phi)
            rhs = shift_modular(modular_definitional(herm, g, psi, phi), c, s)
            assert abs(lhs - rhs) <= 1e-10


class TestMeasurementPlan:
    @pytest.mark.parametrize("m,n,settings,params", [
        (2, 2, 3, 6), (3, 2, 5, 10), (4, 4, 15, 30),
    ])
    def test_counts(self, m, n, settings, params):
        plan = measurement_plan(m, n)
        assert len(plan) == settings
        assert 2 * len(plan) == params
        assert 2 * len(plan) == 2 * m * n - 2

    def test_entry_structure(self):
        plan = measurement_plan(2, 2)
        assert plan == (("single_a", 1, None), ("single_b", None, 1), ("pair", 1, 1))
        # singles are projectors, the pair entry is their sum
        single_a, single_b, pair = plan_diagonals((2, 2))
        assert pair.dtype == np.intp
        np.testing.assert_array_equal(single_a * single_a, single_a)
        np.testing.assert_array_equal(single_b * single_b, single_b)
        np.testing.assert_array_equal(pair, single_a + single_b)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 3), (5, 4)])
    def test_observables_equal_the_projector_build(self, dims):
        # every plan observable, built as tensor(projector, identity) and, for
        # a pair, the sum of the two embedded projectors, is diagonal, and its
        # diagonal is the indicator of row j of A plus that of column l of B:
        # the structure the closed-form overlaps rest on
        m, n = dims
        plan = measurement_plan(m, n)
        diagonals = plan_diagonals(dims)
        assert diagonals.shape == (len(plan), m * n)
        for setting, diagonal in zip(plan, diagonals):
            reference = plan_observable(dims, *setting).mat
            np.testing.assert_array_equal(reference, np.diag(np.diag(reference)))
            assert not np.diag(reference).imag.any()
            _, j, l = setting
            row = np.arange(m)[:, None] == (-1 if j is None else j)
            col = np.arange(n) == (-1 if l is None else l)
            assert np.array_equal(diagonal, np.add(row, col, dtype=np.intp).ravel()), setting

    def test_plan_is_index_only(self, monkeypatch):
        # no method builds or exponentiates a system-space operator
        def no_exponential(*args):
            raise AssertionError("observable exponentiated")

        cfg = ProtocolConfig(system_state=random_state(np.random.default_rng(5), (4, 3)),
                             postselection=uniform_plus(4, 3))
        monkeypatch.setattr(np.linalg, "eigh", no_exponential)
        plan = measurement_plan(4, 3)
        assert all(len(setting) == 3 for setting in plan)
        for method in ("exact_inversion", "first_order", "definitional"):
            reconstruct_state(cfg, method)

    def test_definitional_holds_one_observable_at_a_time(self):
        # a 9x8 plan has 71 observables of 72 x 72 complex (81 KiB each); the
        # closed form holds one 9 x 8 product and its row and column sums
        cfg = ProtocolConfig(system_state=random_state(np.random.default_rng(8), (9, 8)),
                             postselection=uniform_plus(9, 8))
        definitional_modulars(cfg)  # warm up
        one = 72 * 72 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            definitional_modulars(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * one, f"peak {peak} bytes, {peak / one:.1f} observables"

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            measurement_plan(1, 2)

    def test_plan_is_an_immutable_tuple(self):
        plan = measurement_plan(4, 3)
        assert isinstance(plan, tuple) and all(isinstance(st, tuple) for st in plan)
        with pytest.raises(TypeError):
            plan[0] = ("pair", 1, 1)

    def test_repeated_readouts_are_bit_identical(self):
        # repeated readouts of one config, between definitional calls, are bit-identical
        cfg = ProtocolConfig(system_state=random_state(np.random.default_rng(2), (4, 3)),
                             postselection=uniform_plus(4, 3), epsilon=0.3, g=2.0)
        want = run_protocol(cfg).probabilities
        for _ in range(2):
            assert run_protocol(cfg).probabilities.tobytes() == want.tobytes()
            definitional_modulars(cfg)


class TestReconstruct:
    def test_phase_family_across_valid_branch(self):
        # small epsilon keeps eps*|M| < 1 over the whole |theta| <= 3 range
        for theta in np.linspace(-3.0, 3.0, 25):
            cfg = ProtocolConfig(system_state=phase_bell(float(theta)),
                                 postselection=uniform_plus(), epsilon=0.05)
            result = reconstruct_state(cfg, "exact_inversion")
            expected = np.array([[1.0, 0.0], [0.0, cmath.exp(1j * float(theta))]])
            expected /= math.sqrt(2)
            np.testing.assert_allclose(result.amplitudes, expected, atol=1e-10)

    def test_product_state_amplitudes(self):
        cfg = ProtocolConfig(system_state=state_preset("fig4c"), postselection=uniform_plus())
        result = reconstruct_state(cfg, "exact_inversion")
        expected = np.array([[0.5, -0.5j], [0.5, -0.5j]])
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-10)

    def test_first_order_matches_forward_model_not_ideal(self):
        # the first-order estimator lands on the eps-exact prediction, which
        # visibly departs from the ideal curve at finite epsilon
        eps = 0.2
        plan = measurement_plan(2, 2)
        for theta in (0.5, 1.2, 2.0):
            cfg = ProtocolConfig(system_state=phase_bell(theta),
                                 postselection=uniform_plus(), epsilon=eps)
            pipeline = reconstruct_state(cfg, "first_order")
            model_probs = [forward_probabilities(
                modular_definitional(plan_observable((2, 2), *setting).mat, cfg.g,
                                     cfg.system_state, cfg.postselection), eps)
                for setting in plan]
            model = reconstruct(postselection=uniform_plus(),
                                s=s_parameter(cfg.g),
                                modulars=invert_probabilities(model_probs, eps, "first_order"))
            np.testing.assert_allclose(pipeline.amplitudes, model.amplitudes, atol=1e-12)
            ideal = cmath.exp(1j * theta) / math.sqrt(2)
            assert abs(pipeline.amplitudes[1, 1] - ideal) > 1e-4

    def test_unit_norm_and_reference_phase(self, rng):
        for _ in range(20):
            psi, _ = random_pair(rng)
            cfg = ProtocolConfig(system_state=psi, postselection=uniform_plus(), epsilon=0.05)
            result = reconstruct_state(cfg, "exact_inversion")
            assert abs(np.linalg.norm(result.amplitudes) - 1.0) <= 1e-10
            ref = result.amplitudes[result.reference_component]
            assert ref.real > 0 and abs(ref.imag) <= 1e-12

    def test_exact_pipeline_fidelity(self, rng):
        for _ in range(20):
            psi, _ = random_pair(rng)
            if abs(inner(uniform_plus(), psi)) < 0.2:
                continue
            cfg = ProtocolConfig(system_state=psi, postselection=uniform_plus(), epsilon=0.05)
            for method in ("definitional", "exact_inversion"):
                result = reconstruct_state(cfg, method)
                fid = abs(inner(psi, result.state())) ** 2
                assert fid >= 1 - 1e-10

    def test_first_order_error_shrinks_with_epsilon(self, rng):
        # |first_order - definitional| drops at least linearly in epsilon
        # (quadratically in practice) on bounded-modular configurations
        plan = measurement_plan(2, 2)
        errors = {0.2: [], 0.1: [], 0.05: []}
        count = 0
        while count < 30:
            psi, phi = random_pair(rng, min_overlap=0.4)
            count += 1
            for setting in plan:
                m_val = modular_definitional(plan_observable((2, 2), *setting).mat, math.pi,
                                             psi, phi)
                for eps in errors:
                    p1, p2 = forward_probabilities(m_val, eps)
                    est = modular_first_order(p1, p2, eps)
                    errors[eps].append(abs(est - m_val))
        mean = {eps: np.mean(v) for eps, v in errors.items()}
        assert mean[0.1] <= 0.6 * mean[0.2]
        assert mean[0.05] <= 0.6 * mean[0.1]

    def test_zero_reference_fallback(self):
        # state with no (H, H) component: the reference falls back to another one
        psi = PureState((2, 2), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
        cfg = ProtocolConfig(system_state=psi, postselection=uniform_plus())
        result = reconstruct_state(cfg, "definitional")
        assert result.reference_component != (0, 0)
        assert abs(inner(psi, result.state())) ** 2 >= 1 - 1e-10

    def test_modulars_must_cover_the_plan(self):
        with pytest.raises(ValueError, match="3 plan entries"):
            reconstruct(postselection=uniform_plus(), s=-2.0,
                        modulars=np.ones(4))

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 2)])
    def test_postselection_must_be_bipartite(self, dims):
        # the postselection sizes the reconstruction
        phi = PureState(dims, np.full(math.prod(dims), math.prod(dims) ** -0.5))
        with pytest.raises(ValueError, match="exactly two factors"):
            reconstruct(postselection=phi, s=-2.0, modulars=np.ones(3))

    def test_postselection_must_cover_all_components(self):
        cfg_state = phase_bell(0.3)
        mods = definitional_modulars(ProtocolConfig(system_state=cfg_state,
                                                    postselection=uniform_plus()))
        bare = PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="overlap every"):
            reconstruct(postselection=bare, s=-2.0, modulars=mods)

    def test_qutrit_by_qubit_roundtrip(self, rng):
        # the plan/completion algebra is not qubit-specific
        psi = random_state(rng, (3, 2))
        phi = PureState((3, 2), np.full(6, 1 / math.sqrt(6)))
        if abs(inner(phi, psi)) < 0.1:
            psi = PureState((3, 2), (psi.amps + phi.amps) / np.linalg.norm(psi.amps + phi.amps))
        cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=0.05)
        result = reconstruct_state(cfg, "exact_inversion")
        assert abs(inner(psi, result.state())) ** 2 >= 1 - 1e-10


def loop_weak_value_matrix(modulars, dims, s):
    """Scalar reference for the weak-value completion: the per-setting double
    loop, in np.complex128 scalars, that the array version replaced. Its row and
    column sums are 1-D sums, which numpy adds in another order than a sum over
    an outer axis."""
    m, n = dims
    s = np.complex128(s)
    mods = {setting: np.complex128(v) for setting, v in zip(measurement_plan(m, n), modulars)}
    weak = np.zeros((m, n), dtype=np.complex128)
    wa = np.zeros(m, dtype=np.complex128)
    wb = np.zeros(n, dtype=np.complex128)
    for setting in measurement_plan(m, n):
        kind, j, l = setting
        if kind == "single_a":
            wa[j] = (mods[setting] - 1.0) / s
        elif kind == "single_b":
            wb[l] = (mods[setting] - 1.0) / s
        else:
            weak[j, l] = (mods[setting] - mods[("single_a", j, None)]
                          - mods[("single_b", None, l)] + 1.0) / (s * s)
    for j in range(1, m):
        weak[j, 0] = wa[j] - weak[j, 1:].sum()
    for l in range(1, n):
        weak[0, l] = wb[l] - weak[1:, l].sum()
    weak[0, 0] = 1.0 - wa[1:].sum() - wb[1:].sum() + weak[1:, 1:].sum()
    return weak


def in_domain_case(m, n, seed, margin, g):
    """A random config with |<phi|psi>| > 0.05 and epsilon set so that
    epsilon * max|M| = margin < 1 (or epsilon = 1), and its generator."""
    rng = np.random.default_rng(seed)
    psi, phi = random_pair(rng, (m, n), min_overlap=0.05)
    cfg = ProtocolConfig(system_state=psi, postselection=phi, g=g)
    epsilon = min(1.0, margin / np.max(np.abs(definitional_modulars(cfg))))
    return replace(cfg, epsilon=epsilon), rng


def relabelled(state: PureState, transform) -> PureState:
    """``state`` with ``transform`` applied to its (m, n) amplitude matrix."""
    mat = transform(state.amps.reshape(state.dims))
    return PureState(mat.shape, mat.reshape(-1))


# largest gap between the weak-value completion and its scalar loop, over the largest
# magnitude in the loop's matrix (at least 1): 1.8 million random matrices drawn as in
# the test below measured at most 6.8e-16
_COMPLETION_TOL = 7e-16


_CASES = dict(m=st.integers(2, 6), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
              margin=st.floats(0.05, 0.9), g=st.floats(0.3, 2 * math.pi - 0.3))


class TestProperties:
    @pytest.mark.parametrize("g", [math.pi, 1.0, 2.5, 0.3])
    def test_weak_completion_matches_scalar_loop(self, rng, g):
        for s in (s_parameter(g), -2.0):
            for m, n in ((2, 2), (3, 2), (4, 3), (7, 5), (6, 6)):
                phi = uniform_plus(m, n)
                stack = (1.0 + rng.normal(size=(5, m * n - 1))
                         + 1j * rng.normal(size=(5, m * n - 1)))
                batched = reconstruct(postselection=phi, s=s, modulars=stack)
                for k in range(5):
                    reference = loop_weak_value_matrix(stack[k], (m, n), s)
                    gap = np.max(np.abs(batched.weak_values[k] - reference))
                    assert gap <= _COMPLETION_TOL * max(1.0, np.max(np.abs(reference)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_exact_round_trip(self, m, n, seed, margin, g):
        cfg, _ = in_domain_case(m, n, seed, margin, g)
        result = reconstruct_state(cfg, "exact_inversion")
        assert abs(inner(cfg.system_state, result.state())) ** 2 >= 1 - 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(m=st.integers(2, 5), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           g=st.floats(0.3, 2 * math.pi - 0.3))
    def test_definitional_modulars_equal_per_setting_calls(self, m, n, seed, g):
        psi, phi = random_pair(np.random.default_rng(seed), (m, n), min_overlap=0.05)
        cfg = ProtocolConfig(system_state=psi, postselection=phi, g=g)
        got = definitional_modulars(cfg)
        observables = [plan_observable((m, n), *setting).mat
                       for setting in measurement_plan(m, n)]
        # the dense eigh exponential rounds otherwise; 200 random cases
        # differed by at most 1.3e-15 times max(1, |M|)
        dense = np.array([modular_definitional(obs, g, psi, phi) for obs in observables])
        assert np.all(np.abs(got - dense) <= 1e-13 * np.maximum(1.0, np.abs(dense)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(m=st.integers(2, 6), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           g=st.sampled_from([math.pi, 1.0, 2.5]))
    def test_batched_equals_single_calls(self, m, n, seed, g):
        rng = np.random.default_rng(seed)
        psi, phi = random_pair(rng, (m, n))
        amps = psi.amps.copy()
        amps[0] = 0.0  # no (0, 0) component: the auto reference falls back
        hollow = PureState((m, n), amps / np.linalg.norm(amps))
        rows = [definitional_modulars(ProtocolConfig(system_state=state, postselection=phi,
                                                     g=g))
                for state in (psi, hollow)]
        rows.append(np.full(m * n - 1, np.nan + 0j))  # a rejected trial
        rows.append(rows[0] + 0.01 * (rng.normal(size=m * n - 1)
                                      + 1j * rng.normal(size=m * n - 1)))
        stack = np.stack(rows)
        s = s_parameter(g)
        batched = reconstruct(postselection=phi, s=s, modulars=stack)
        assert np.all(np.isnan(batched.amplitudes[2]))
        assert batched[1].reference_component != (0, 0)
        for k in (0, 1, 3):
            single = reconstruct(postselection=phi, s=s, modulars=stack[k])
            row = batched[k]
            for name in ("amplitudes", "weak_values", "modulars"):
                assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name
            assert row.normalizer == single.normalizer
            assert row.reference_component == single.reference_component


# largest amplitude change a relation may show; 600 random cases of every
# method measured at most 5.8e-12 (label permutation, exact_inversion)
_SYMMETRY_TOL = 1e-10


class TestSymmetries:
    """Relations of the physics, which need no oracle: each method must map a
    relabelled or rephased input to the correspondingly changed amplitudes.
    The states are in the exact branch's domain, so every method applies."""

    @staticmethod
    def check(cfg, other, expected_from):
        for method in METHODS:
            want = expected_from(reconstruct_state(cfg, method).amplitudes)
            got = reconstruct_state(other, method).amplitudes
            assert np.max(np.abs(got - want)) <= _SYMMETRY_TOL, method

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_swapping_the_subsystems_transposes_the_amplitudes(self, m, n, seed, margin, g):
        cfg, _ = in_domain_case(m, n, seed, margin, g)
        swapped = replace(cfg, system_state=relabelled(cfg.system_state, np.transpose),
                          postselection=relabelled(cfg.postselection, np.transpose))
        self.check(cfg, swapped, np.transpose)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_a_global_phase_leaves_the_amplitudes_unchanged(self, m, n, seed, margin, g):
        cfg, rng = in_domain_case(m, n, seed, margin, g)
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        rephased = replace(cfg, system_state=PureState((m, n), phase * cfg.system_state.amps))
        self.check(cfg, rephased, lambda amplitudes: amplitudes)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_permuting_the_labels_of_a_permutes_the_rows(self, m, n, seed, margin, g):
        # label 0 stays: it is the reference component
        cfg, rng = in_domain_case(m, n, seed, margin, g)
        order = np.concatenate([[0], 1 + rng.permutation(m - 1)])
        permuted = replace(cfg, system_state=relabelled(cfg.system_state, lambda a: a[order]),
                           postselection=relabelled(cfg.postselection, lambda a: a[order]))
        self.check(cfg, permuted, lambda amplitudes: amplitudes[order])


def test_definitional_matches_the_exact_inversion_at_32x32():
    # each side is one closed-form pass over the 32 x 32 overlaps
    m = 32
    rng = np.random.default_rng(32)
    amps = 1.0 + 0.6 * (rng.normal(size=m * m) + 1j * rng.normal(size=m * m))
    cfg = ProtocolConfig(system_state=PureState((m, m), amps / np.linalg.norm(amps)),
                         postselection=uniform_plus(m, m))
    cfg = replace(cfg, epsilon=min(1.0, 0.5 / np.max(np.abs(definitional_modulars(cfg)))))
    definitional = definitional_modulars(cfg)
    inverted = invert_probabilities(run_protocol(cfg).probabilities, cfg.epsilon, "exact_inversion")
    # measured at most 1.9e-15 over six seeds
    assert np.max(np.abs(inverted - definitional)) <= 1e-13 * max(1.0, np.max(np.abs(definitional)))


def test_exact_round_trip_at_64x64():
    # the largest square under MAX_TOTAL_DIM, beyond the dense readout oracle's reach
    m = 64
    assert m * m <= MAX_TOTAL_DIM < (m + 1) ** 2
    rng = np.random.default_rng(64)
    amps = 1.0 + 0.6 * (rng.normal(size=m * m) + 1j * rng.normal(size=m * m))
    cfg = ProtocolConfig(system_state=PureState((m, m), amps / np.linalg.norm(amps)),
                         postselection=uniform_plus(m, m), g=1.3)
    cfg = replace(cfg, epsilon=min(1.0, 0.5 / np.max(np.abs(definitional_modulars(cfg)))))
    result = reconstruct_state(cfg, "exact_inversion")
    assert abs(inner(cfg.system_state, result.state())) ** 2 >= 1 - 1e-10


def test_definitional_modulars_match_the_dense_exponential_at_16x16():
    # a sample of the 255 settings, each a 256 x 256 eigh: both singles and ten pairs
    m = 16
    rng = np.random.default_rng(16)
    psi, phi = random_pair(rng, (m, m), min_overlap=0.05)
    cfg = ProtocolConfig(system_state=psi, postselection=phi, g=2.2)
    got = definitional_modulars(cfg)
    plan = measurement_plan(m, m)
    sample = [0, m - 1, *rng.choice(np.arange(2 * m - 2, len(plan)), 10, replace=False)]
    dense = np.array([modular_definitional(plan_observable((m, m), *plan[k]).mat, cfg.g,
                                           psi, phi) for k in sample])
    assert np.all(np.abs(got[sample] - dense) <= 1e-13 * np.maximum(1.0, np.abs(dense)))
