"""Linear-inversion tomography baseline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modval.hilbert import PureState
from modval.noise import pauli_from_counts, pauli_plus_probabilities
from modval.presets import phase_bell, state_preset
from modval.tomography import (
    DensityMatrix,
    fidelity_pure,
    fidelity_states,
    linear_inversion,
    pauli_expectations,
)
from tests.conftest import random_state
from tests.oracle import loop_linear_inversion, loop_pauli_expectations, tomography_settings


# largest gap between the one-product inversion and the 16-term loop it replaced, over
# expectations in [-1, 1]: per matrix entry, and for a spectrum or fidelity read off the
# matrix; 20 000 random batches and 6000 random states measured at most 1.1e-16 and 4.4e-16
_LOOP_ENTRY_TOL = 1.2e-16
_LOOP_DERIVED_TOL = 4.5e-16


class TestSettings:
    def test_sixteen_observables(self):
        assert len(tomography_settings()) == 16

    def test_contains_identity(self):
        assert any(np.allclose(obs.mat, np.eye(4)) for obs in tomography_settings())

    def test_hermitian_and_unitary(self):
        for obs in tomography_settings():
            np.testing.assert_allclose(obs.mat, obs.mat.conj().T, atol=1e-15)
            np.testing.assert_allclose(obs.mat @ obs.mat, np.eye(4), atol=1e-15)


class TestLinearInversion:
    def test_computational_basis_state(self):
        rho = linear_inversion(pauli_expectations(PureState((2, 2), [1, 0, 0, 0])))
        np.testing.assert_allclose(rho.mat, np.diag([1, 0, 0, 0]), atol=1e-14)
        assert rho.positive

    def test_correlated_state_corners(self):
        # outer-product oracle for the maximally correlated state
        bell = phase_bell(0.0)
        expected = np.outer(bell.amps, bell.amps.conj())
        rho = linear_inversion(pauli_expectations(bell))
        np.testing.assert_allclose(rho.mat, expected, atol=1e-14)

    def test_noisy_input_flags_negativity(self):
        values = pauli_expectations(phase_bell(0.0))
        values[1:] = values[1:] + 0.05
        rho = linear_inversion(values)
        assert not rho.positive
        assert rho.min_eigenvalue < 0
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-12

    def test_random_pure_states_round_trip(self, rng):
        for _ in range(25):
            psi = random_state(rng)
            rho = linear_inversion(pauli_expectations(psi))
            np.testing.assert_allclose(rho.mat, np.outer(psi.amps, psi.amps.conj()),
                                       atol=1e-12)

    # 1 +- 1e-7 lies inside the structural trace tolerance's old dead band: it
    # passed a looser identity check, then failed as "unit trace"
    @pytest.mark.parametrize("identity", [0.9, 1 + 1e-7, 1 - 1e-7])
    def test_identity_expectation_checked(self, identity):
        values = pauli_expectations(phase_bell(0.0))
        values[0] = identity
        with pytest.raises(ValueError, match="identity"):
            linear_inversion(values)

    def test_identity_within_the_structural_tolerance_inverts(self):
        values = pauli_expectations(phase_bell(0.0))
        values[0] = 1 + 1e-11
        for batch in (values, np.array([values] * 3)):
            trace = np.trace(linear_inversion(batch).mat, axis1=-2, axis2=-1).real
            np.testing.assert_allclose(trace, 1 + 1e-11, rtol=0, atol=1e-15)

    def test_length_checked(self):
        with pytest.raises(ValueError, match="16"):
            linear_inversion(np.ones(15))


class TestFidelity:
    def test_pure_projector_fidelity(self):
        state = PureState((2, 2), [1, 0, 0, 0])
        rho = linear_inversion(pauli_expectations(state))
        assert abs(fidelity_pure(rho, state) - 1.0) <= 1e-12

    def test_orthogonal_states(self):
        a = PureState((2, 2), [1, 0, 0, 0])
        b = PureState((2, 2), [0, 0, 0, 1])
        assert fidelity_states(a, b) == 0

    def test_symmetric_and_phase_invariant(self, rng):
        for _ in range(10):
            a, b = random_state(rng), random_state(rng)
            assert abs(fidelity_states(a, b) - fidelity_states(b, a)) <= 1e-12
            rotated = PureState((2, 2), np.exp(1j * rng.uniform(0, 2 * math.pi)) * a.amps)
            assert abs(fidelity_states(a, b) - fidelity_states(rotated, b)) <= 1e-12

    def test_direct_vs_tomography_on_exact_inputs(self):
        from modval.presets import uniform_plus
        from modval.protocol import ProtocolConfig
        from modval.reconstruction import reconstruct_state

        truth = phase_bell(0.0)
        cfg = ProtocolConfig(system_state=truth, postselection=uniform_plus())
        direct = reconstruct_state(cfg, "exact_inversion").state()
        rho = linear_inversion(pauli_expectations(truth))
        assert abs(fidelity_pure(rho, direct) - 1.0) <= 1e-10


class TestBatchedTrials:
    """Leading trial axes: each trial bit for bit as its own one-trial call."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 6),
           pairs=st.integers(1, 10**6))
    def test_inversion_and_fidelities_match_one_trial_calls(self, seed, trials, pairs):
        rng = np.random.default_rng(seed)
        truth = random_state(rng)
        exact = pauli_expectations(truth)
        p_plus = pauli_plus_probabilities(exact)
        expectations = pauli_from_counts(
            np.array([rng.binomial(pairs, p_plus) for _ in range(trials)]), pairs)
        direct = np.array([random_state(rng).amps for _ in range(trials)])
        rho = linear_inversion(expectations)
        assert rho.mat.shape == (trials, 4, 4)
        assert rho.min_eigenvalue.shape == rho.positive.shape == (trials,)
        tomography_vs_truth = fidelity_pure(rho, truth)
        direct_vs_tomography = fidelity_pure(rho, direct)
        direct_vs_truth = fidelity_states(truth, direct)
        for k in range(trials):
            one = linear_inversion(expectations[k])
            state = PureState((2, 2), direct[k])
            mat = loop_linear_inversion(expectations[k])
            assert rho.mat[k].tobytes() == one.mat.tobytes()
            assert np.max(np.abs(one.mat - mat)) <= _LOOP_ENTRY_TOL
            assert float(rho.min_eigenvalue[k]).hex() == one.min_eigenvalue.hex()
            assert abs(one.min_eigenvalue - np.linalg.eigvalsh(mat)[0]) <= _LOOP_DERIVED_TOL
            assert bool(rho.positive[k]) is one.positive
            for got, want, former in (
                (tomography_vs_truth[k], fidelity_pure(one, truth),
                 np.vdot(truth.amps, mat @ truth.amps).real),
                (direct_vs_tomography[k], fidelity_pure(one, state),
                 np.vdot(direct[k], mat @ direct[k]).real),
                (direct_vs_truth[k], fidelity_states(truth, state),
                 abs(complex(np.vdot(truth.amps, direct[k]))) ** 2),
            ):
                assert float(got).hex() == want.hex()
                assert abs(want - former) <= _LOOP_DERIVED_TOL

    def test_one_trial_returns_python_scalars(self):
        rho = linear_inversion(pauli_expectations(phase_bell(0.4)))
        assert rho.mat.shape == (4, 4)
        assert type(rho.min_eigenvalue) is float and type(rho.positive) is bool
        assert type(fidelity_pure(rho, phase_bell(0.4))) is float
        assert type(fidelity_states(phase_bell(0.4), phase_bell(0.1))) is float

    @pytest.mark.parametrize("identity", [0.9, 1 + 1e-7, 1 - 1e-7])
    def test_identity_expectation_checked_in_every_trial(self, identity):
        values = np.array([pauli_expectations(phase_bell(0.0))] * 3)
        values[2, 0] = identity
        with pytest.raises(ValueError, match="identity"):
            linear_inversion(values)

    def test_amplitude_stacks_must_be_finite(self):
        direct = np.array([phase_bell(0.0).amps, [np.nan, 0, 0, 1]])
        rho = linear_inversion(pauli_expectations(phase_bell(0.0)))
        with pytest.raises(ValueError, match="finite"):
            fidelity_states(phase_bell(0.0), direct)
        with pytest.raises(ValueError, match="finite"):
            fidelity_pure(rho, direct)


class TestDensityMatrixValidation:
    def test_hermiticity_required(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        mat[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat)

    def test_trace_required(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_every_trial_checked(self):
        good = np.diag([1.0, 0, 0, 0]).astype(complex)
        skewed = good.copy()
        skewed[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.stack([good, skewed]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.stack([good, 2 * good]))

    # a nan matrix used to pass every check, and an inf diagonal warned in the Hermitian one
    @pytest.mark.parametrize("bad", [np.full((4, 4), np.nan), np.diag([np.inf, 0, 0, 0])],
                             ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, bad):
        for mat in (bad, np.stack([np.eye(4) / 4, bad])):
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(mat)

    def test_spectrum_comes_from_the_matrix(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.min_eigenvalue == 0.25 and rho.positive is True
        skewed = DensityMatrix(np.stack([np.eye(4) / 4, np.diag([1.5, -0.5, 0, 0])]))
        assert skewed.min_eigenvalue.tolist() == [0.25, -0.5]
        assert skewed.positive.tolist() == [True, False]
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(4) / 4, -1.0, False)  # a spectrum is not an input


class TestLoopReferences:
    """The whole-array forms match the loops they replaced: the expectations bit for bit,
    the inversion within _LOOP_ENTRY_TOL."""

    # signed zeros, +-1 and thirds: the loop adds the 16 terms in another order
    SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1 / 3, -1 / 3, 2 / 3, -2 / 3])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(trials=st.one_of(st.none(), st.integers(1, 60)), seed=st.integers(0, 2**32 - 1),
           special=st.sampled_from([0.0, 0.5, 1.0]),
           identity=st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]))
    @example(trials=None, seed=0, special=1.0, identity=1.0)
    @example(trials=60, seed=1, special=1.0, identity=1.0)
    @example(trials=1, seed=2, special=0.0, identity=math.nextafter(1.0, 0.0))
    def test_inversion_equals_the_sixteen_term_loop(self, trials, seed, special, identity):
        rng = np.random.default_rng(seed)
        shape = (16,) if trials is None else (trials, 16)
        values = np.where(rng.random(shape) < special, rng.choice(self.SPECIAL, shape),
                          rng.uniform(-1.0, 1.0, shape))
        values[..., 0] = identity
        rho = linear_inversion(values)
        reference = loop_linear_inversion(values)
        assert rho.mat.shape == reference.shape
        assert rho.mat.flags.c_contiguous
        assert np.max(np.abs(rho.mat - reference)) <= _LOOP_ENTRY_TOL

    # a nan or infinite expectation used to give a nan matrix that passed validation
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_expectations_must_be_finite(self, bad):
        values = np.array([pauli_expectations(phase_bell(0.0))] * 2)
        values[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            linear_inversion(values)

    def test_inversion_of_signed_zeros(self):
        # every term -0.0 but the identity: no entry comes out -0.0, as in the loop from +0.0
        values = np.full(16, -0.0)
        values[0] = 1.0
        assert linear_inversion(values).mat.tobytes() == loop_linear_inversion(values).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_expectations_equal_the_per_setting_loop(self, seed):
        psi = random_state(np.random.default_rng(seed))
        assert pauli_expectations(psi).tobytes() == loop_pauli_expectations(psi).tobytes()

    @pytest.mark.parametrize("psi", [PureState((2, 2), [1, 0, 0, 0]), phase_bell(0.0),
                                     phase_bell(1.0)] +
                             [state_preset(name) for name in ("fig4a", "fig4b", "fig4c",
                                                              "fig4d")])
    def test_expectations_of_sparse_states_equal_the_loop(self, psi):
        assert pauli_expectations(psi).tobytes() == loop_pauli_expectations(psi).tobytes()
