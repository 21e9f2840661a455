"""Tensor-product linear algebra layer."""

import math

import numpy as np
import pytest

from modval.hilbert import MAX_TOTAL_DIM, PureState, inner
from tests.conftest import random_state
from tests.oracle import (
    LinearOperator,
    apply,
    basis_state,
    exp_projector_phase,
    identity,
    normalize,
    partial_inner,
    projector,
    tensor,
)


def taylor_expm(mat: np.ndarray, terms: int = 60) -> np.ndarray:
    """Independent oracle: truncated power series of exp(mat)."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ mat / k
        out = out + term
    return out


class TestTensor:
    def test_basis_vectors(self):
        h = basis_state((2,), 0)
        v = basis_state((2,), 1)
        hv = tensor(h, v)
        assert hv.dims == (2, 2)
        np.testing.assert_allclose(hv.amps, [0, 1, 0, 0])

    def test_identity_case(self):
        i4 = tensor(identity((2,)), identity((2,)))
        np.testing.assert_allclose(i4.mat, np.eye(4))

    def test_uniform_superposition(self):
        plus = PureState((2,), np.array([1, 1]) / math.sqrt(2))
        both = tensor(plus, plus)
        np.testing.assert_allclose(both.amps, np.full(4, 0.5), atol=1e-15)

    def test_associative_on_random_states(self, rng):
        for _ in range(20):
            a = random_state(rng, (2,))
            b = random_state(rng, (3,))
            c = random_state(rng, (2,))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert left.dims == right.dims
            np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(basis_state((2,), 0), identity((2,)))


class TestProjector:
    def test_basis_index(self):
        p = projector((2,), 1)
        np.testing.assert_allclose(p.mat, np.diag([0, 1]))

    def test_unit_vector(self):
        p = projector((2,), np.array([1, 1]) / math.sqrt(2))
        np.testing.assert_allclose(p.mat, np.full((2, 2), 0.5), atol=1e-15)

    def test_idempotent_hermitian_on_random_vector(self, rng):
        for _ in range(20):
            p = projector((2, 2), random_state(rng).amps)
            np.testing.assert_allclose(p.mat @ p.mat, p.mat, atol=1e-12)
            np.testing.assert_allclose(p.mat, p.mat.conj().T, atol=1e-12)

    def test_non_normalized_vector_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            projector((2,), np.array([1.0, 1.0]))


class TestExpProjectorPhase:
    def test_pi_phase_on_diagonal_projector(self):
        u = exp_projector_phase(projector((2,), 1), math.pi)
        np.testing.assert_allclose(u.mat, np.diag([1, -1]), atol=1e-15)

    def test_zero_coupling_is_identity(self, rng):
        p = projector((2, 2), random_state(rng).amps)
        np.testing.assert_allclose(exp_projector_phase(p, 0.0).mat, np.eye(4), atol=1e-15)

    def test_matches_series_exponential(self, rng):
        for _ in range(10):
            p = projector((2, 2), random_state(rng).amps)
            g = math.pi / 3
            expected = taylor_expm(-1j * g * p.mat)
            np.testing.assert_allclose(exp_projector_phase(p, g).mat, expected, atol=1e-10)

    def test_non_idempotent_rejected(self):
        bad = LinearOperator((2,), np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="idempotent"):
            exp_projector_phase(bad, 1.0)

    def test_inverse_coupling_cancels(self, rng):
        for _ in range(10):
            p = projector((2, 2), random_state(rng).amps)
            g = rng.uniform(-4, 4)
            prod = exp_projector_phase(p, g).mat @ exp_projector_phase(p, -g).mat
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-12)

    def test_disjoint_factors_sum_vs_product(self, rng):
        # exp(-ig(P+Q)) for commuting projectors on disjoint factors equals
        # the product of the two individual exponentials
        for _ in range(5):
            p = tensor(projector((2,), random_state(rng, (2,)).amps), identity((2,)))
            q = tensor(identity((2,)), projector((2,), random_state(rng, (2,)).amps))
            g = rng.uniform(-4, 4)
            joint = taylor_expm(-1j * g * (p.mat + q.mat))
            prod = exp_projector_phase(p, g).mat @ exp_projector_phase(q, g).mat
            np.testing.assert_allclose(joint, prod, atol=1e-12)

    def test_unitary_preserves_norm(self, rng):
        for _ in range(10):
            p = projector((2, 2), random_state(rng).amps)
            u = exp_projector_phase(p, rng.uniform(-4, 4))
            s = random_state(rng)
            assert abs(apply(u, s).norm() - 1.0) <= 1e-12


class TestInnerApplyNormalize:
    def test_orthogonal_basis_states(self):
        assert inner(basis_state((2,), 0), basis_state((2,), 1)) == 0

    def test_plus_plus_against_correlated_state(self):
        # hand expansion: only the HH and VV terms survive, each 1/2 * 1/sqrt2
        plus_plus = PureState((2, 2), np.full(4, 0.5))
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert abs(inner(plus_plus, bell) - 1 / math.sqrt(2)) <= 1e-12

    def test_conjugate_linear_in_first_argument(self, rng):
        a, b = random_state(rng), random_state(rng)
        assert abs(inner(a, b) - np.conj(inner(b, a))) <= 1e-12

    def test_apply_identity(self, rng):
        s = random_state(rng)
        np.testing.assert_allclose(apply(identity((2, 2)), s).amps, s.amps)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(basis_state((2,), 0), basis_state((3,), 0))

    def test_normalize(self):
        s = normalize(PureState((2,), np.array([3.0, 4.0])))
        assert abs(s.norm() - 1.0) <= 1e-12

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize(PureState((2,), np.zeros(2)))


class TestPartialInner:
    def test_product_state_contraction(self, rng):
        left = random_state(rng, (2, 2))
        right = random_state(rng, (2,))
        joint = tensor(left, right)
        got = partial_inner(right, joint)
        np.testing.assert_allclose(got.amps, left.amps, atol=1e-12)

    def test_norm_is_projection_probability(self, rng):
        state = random_state(rng, (2, 2, 2))
        phi = random_state(rng, (2,))
        prob = partial_inner(phi, state).norm() ** 2
        proj = tensor(identity((2, 2)), projector((2,), phi.amps))
        expected = np.vdot(state.amps, proj.mat @ state.amps).real
        assert abs(prob - expected) <= 1e-12


class TestValidation:
    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            PureState((MAX_TOTAL_DIM + 1,), np.zeros(MAX_TOTAL_DIM + 1))

    def test_amps_length_checked(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.zeros(3))

    def test_operator_shape_checked(self):
        with pytest.raises(ValueError):
            LinearOperator((2, 2), np.eye(3))

    def test_immutable(self):
        s = basis_state((2,), 0)
        with pytest.raises(ValueError):
            s.amps[0] = 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PureState((2,), np.array([np.nan, 0.0]))
