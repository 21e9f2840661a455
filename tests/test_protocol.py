"""Interaction, postselection, and meter readout."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modval import reconstruction
from modval.reconstruction import reconstruct_state
from modval.errors import OrthogonalPostselection
from modval.hilbert import PureState
from modval.presets import alt_postselection, phase_bell, postselection_preset, uniform_plus
from modval.protocol import (
    IDX_DOWN_UP,
    IDX_UP_DOWN,
    PlanOutcome,
    ProtocolConfig,
    measurement_plan,
    run_protocol,
)
from tests.conftest import (
    dense_run_protocol,
    random_pair,
    random_state,
)
from tests.oracle import (
    build_interaction,
    embedded,
    modular_definitional,
    pair_sum,
    prepare_meter,
    tensor,
)


class TestPrepareMeter:
    def test_zero_asymmetry(self):
        np.testing.assert_allclose(prepare_meter(0.0).amps, [0, 1, 0, 0])

    def test_unit_asymmetry_is_symmetric(self):
        expected = np.zeros(4)
        expected[IDX_UP_DOWN] = expected[IDX_DOWN_UP] = 1 / math.sqrt(2)
        np.testing.assert_allclose(prepare_meter(1.0).amps, expected, atol=1e-15)

    def test_reference_asymmetry(self):
        amps = prepare_meter(0.2).amps
        np.testing.assert_allclose(
            amps, [0, 1 / math.sqrt(1.04), 0.2 / math.sqrt(1.04), 0], atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            prepare_meter(-0.1)


class TestBuildInteraction:
    def test_zero_coupling_is_identity(self):
        u = build_interaction("pair", 1, 1, 0.0, (2, 2))
        np.testing.assert_allclose(u.mat, np.eye(16), atol=1e-15)

    def test_pair_equals_product_of_singles(self):
        u_pair = build_interaction("pair", 1, 1, math.pi, (2, 2))
        u_a = build_interaction("single_a", 1, None, math.pi, (2, 2))
        u_b = build_interaction("single_b", None, 1, math.pi, (2, 2))
        np.testing.assert_allclose(u_pair.mat, u_a.mat @ u_b.mat, atol=1e-12)

    def test_controlled_phase_action(self):
        # meter-A down AND system-A in |1>: sign flip; everything else fixed
        u = build_interaction("single_a", 1, None, math.pi, (2, 2))
        for idx in range(16):
            meter_a, _, sys_a, _ = np.unravel_index(idx, (2, 2, 2, 2))
            expected = -1.0 if (meter_a == 1 and sys_a == 1) else 1.0
            col = np.zeros(16)
            col[idx] = 1.0
            np.testing.assert_allclose(u.mat @ col, expected * col, atol=1e-13)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_interaction("pair", 2, 0, math.pi, (2, 2))
        with pytest.raises(ValueError, match="out of range"):
            build_interaction("single_b", None, 3, math.pi, (2, 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_interaction("both", 1, 1, math.pi, (2, 2))

    def test_unitary(self, rng):
        for kind, j, l in (("pair", 1, 1), ("single_a", 0, None), ("single_b", None, 1)):
            u = build_interaction(kind, j, l, rng.uniform(0, 2 * math.pi), (2, 2)).mat
            np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


def row(outcome: PlanOutcome, k: int) -> PlanOutcome:
    """Setting k of a readout, as a one-setting ``PlanOutcome``."""
    return PlanOutcome(*(getattr(outcome, field.name)[k:k + 1] for field in fields(PlanOutcome)))


def run_one(cfg, kind, j=None, l=None) -> PlanOutcome:
    """The readout of one plan setting: its row of ``run_protocol(cfg)``."""
    return row(run_protocol(cfg), measurement_plan(*cfg.dims).index((kind, j, l)))


class TestRunProtocol:
    def test_reference_configuration_probability(self):
        cfg = ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                             epsilon=0.2)
        out = run_one(cfg, "pair", 1, 1)
        assert abs(out.probabilities[0, 0] - 9 / 13) <= 1e-12
        assert abs(out.probabilities[0, 1] - 0.5) <= 1e-12
        # conditional state (|ud> + 0.2|du>)/sqrt(1.04), modular value 1
        expected = np.zeros(4, dtype=complex)
        expected[IDX_UP_DOWN] = 1 / math.sqrt(1.04)
        expected[IDX_DOWN_UP] = 0.2 / math.sqrt(1.04)
        np.testing.assert_allclose(out.conditional_meter_amps[0], expected, atol=1e-12)

    def test_vanishing_asymmetry_limit(self):
        cfg = ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                             epsilon=1e-8)
        out = run_one(cfg, "pair", 1, 1)
        np.testing.assert_allclose(out.probabilities[0], [0.5, 0.5], rtol=0, atol=1e-7)

    def test_orthogonal_postselection_raises(self):
        cfg = ProtocolConfig(system_state=phase_bell(math.pi), postselection=uniform_plus())
        with pytest.raises(OrthogonalPostselection):
            run_one(cfg, "pair", 1, 1)

    @pytest.mark.parametrize("kind,j,l", [("pair", 1, 1), ("single_a", 1, None),
                                          ("single_b", None, 1)])
    def test_entangled_meter_stays_in_signal_subspace(self, rng, kind, j, l):
        for _ in range(10):
            psi, phi = random_pair(rng)
            cfg = ProtocolConfig(system_state=psi, postselection=phi,
                                 epsilon=rng.uniform(0.05, 1.0))
            amps = run_one(cfg, kind, j, l).conditional_meter_amps[0]
            assert amps[0] == 0 and amps[3] == 0  # |uu> and |dd> are never populated

    def test_conditional_state_carries_the_modular_value(self, rng):
        # final meter = N [ eps * M |du> + |ud> ] with M from the
        # definitional oracle; the amplitude ratio is phase-free
        # the 2x2 plan's observables, in plan order
        observables = (embedded("a", 1), embedded("b", 1), pair_sum(1, 1))
        for _ in range(10):
            psi, phi = random_pair(rng)
            eps = rng.uniform(0.05, 0.5)
            cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=eps)
            out = run_protocol(cfg)
            for k, obs in enumerate(observables):
                m_val = modular_definitional(obs.mat, cfg.g, psi, phi)
                amps = out.conditional_meter_amps[k]
                ratio = amps[IDX_DOWN_UP] / amps[IDX_UP_DOWN]
                assert abs(ratio - eps * m_val) <= 1e-10

    def test_postselection_probability_formula(self, rng):
        for _ in range(10):
            psi, phi = random_pair(rng)
            eps = rng.uniform(0.05, 0.8)
            cfg = ProtocolConfig(system_state=psi, postselection=phi, epsilon=eps)
            m_val = modular_definitional(pair_sum(1, 1).mat, cfg.g, psi, phi)
            overlap = abs(np.vdot(phi.amps, psi.amps)) ** 2
            expected = overlap * (1 + eps**2 * abs(m_val) ** 2) / (1 + eps**2)
            out = run_one(cfg, "pair", 1, 1)
            assert abs(out.postselection_probability[0] - expected) <= 1e-12

    def test_product_system_factorizes(self, rng):
        # for product preparation and postselection the pair modular value
        # is the product of the single-side modular values
        for _ in range(10):
            parts = [random_state(rng, (2,)) for _ in range(4)]
            psi = tensor(parts[0], parts[1])
            phi = tensor(parts[2], parts[3])
            if abs(np.vdot(phi.amps, psi.amps)) < 0.05:
                continue
            eps = 0.3
            cfg = ProtocolConfig(system_state=PureState((2, 2), psi.amps),
                                 postselection=PureState((2, 2), phi.amps), epsilon=eps)
            amps = run_protocol(cfg).conditional_meter_amps  # single_a, single_b, pair
            single_a, single_b, pair = amps[:, IDX_DOWN_UP] / amps[:, IDX_UP_DOWN] / eps
            assert abs(pair - single_a * single_b) <= 1e-10


def assert_matches_oracle(cfg, atol=1e-12):
    """Every field of the readout within ``atol`` of the dense oracle's over the plan."""
    got = run_protocol(cfg)
    want = dense_run_protocol(cfg, measurement_plan(*cfg.dims))
    for field in fields(PlanOutcome):
        got_value, want_value = getattr(got, field.name), getattr(want, field.name)
        assert got_value.shape == want_value.shape == (cfg.dims[0] * cfg.dims[1] - 1,
                                                       *got_value.shape[1:])
        np.testing.assert_allclose(got_value, want_value, rtol=0, atol=atol,
                                   err_msg=field.name)


class TestDiagonalReadoutMatchesDenseOracle:
    """run_protocol against the dense meter (x) system simulation."""

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 3), (5, 4), (7, 5)])
    def test_every_setting_and_field(self, rng, dims):
        for _ in range(3):
            psi, phi = random_pair(rng, dims)
            cfg = ProtocolConfig(system_state=psi, postselection=phi,
                                 epsilon=rng.uniform(0.05, 1.0),
                                 g=rng.uniform(0.3, 2 * math.pi - 0.3))
            assert_matches_oracle(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(2, 4), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           epsilon=st.floats(0.05, 1.0, exclude_min=True),
           g=st.floats(0.3, 2 * math.pi - 0.3))
    def test_random_dims_property(self, m, n, seed, epsilon, g):
        psi, phi = random_pair(np.random.default_rng(seed), (m, n))
        assert_matches_oracle(ProtocolConfig(system_state=psi, postselection=phi,
                                             epsilon=epsilon, g=g))

    def test_error_paths_match(self):
        # the one error path left to the readout: a divergent modular value
        cfg = ProtocolConfig(system_state=phase_bell(math.pi), postselection=uniform_plus())
        with pytest.raises(OrthogonalPostselection):
            run_protocol(cfg)
        with pytest.raises(OrthogonalPostselection):
            dense_run_protocol(cfg, measurement_plan(*cfg.dims))


class TestOneBatchedReadout:
    """run_protocol reads the whole plan out in one call, whatever its size."""

    def test_run_protocol_is_one_batched_call(self, monkeypatch, rng):
        # an exact reconstruction reads its probabilities out in one call
        configs = {dims: ProtocolConfig(*random_pair(rng, dims)) for dims in ((2, 2), (6, 5))}
        batches = []

        def counted_run_protocol(cfg):
            outcome = run_protocol(cfg)
            batches.append(len(outcome.probabilities))
            return outcome

        built = Counter()
        post_init = PureState.__post_init__

        def counted_post_init(state):
            built[current] += 1
            post_init(state)

        monkeypatch.setattr(reconstruction, "run_protocol", counted_run_protocol)
        monkeypatch.setattr(PureState, "__post_init__", counted_post_init)
        for current, cfg in configs.items():
            reconstruct_state(cfg)
        assert batches == [3, 29]
        assert not built  # the readout builds no PureState, whatever the plan size


class TestConfigValidation:
    @pytest.mark.parametrize("g", [0.0, 2 * math.pi, -4 * math.pi, 1e-7,
                                   math.nan, math.inf])
    def test_vanishing_or_non_finite_coupling(self, g):
        with pytest.raises(ValueError, match="coupling"):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(), g=g)

    # an int beyond the float range used to raise OverflowError from math.isfinite
    @pytest.mark.parametrize("g", [10**400, -10**400], ids=["+10**400", "-10**400"])
    def test_coupling_beyond_the_float_range(self, g):
        with pytest.raises(ValueError, match="coupling g must be finite"):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(), g=g)

    def test_small_but_resolvable_coupling_accepted(self):
        cfg = ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                             g=1e-5)
        assert cfg.g == 1e-5

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                           epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                           epsilon=1.5)

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-300, math.nextafter(1e-8, 0.0)])
    def test_epsilon_floor(self, epsilon):
        # (p - 1/2)/epsilon loses log10(1/epsilon) digits: at 1e-17 the fig4a
        # table came back wrong with exit 0, and 1e-300 overflowed in the
        # readout; 1e-8 itself is accepted (test_vanishing_asymmetry_limit)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[1e-8, 1\]$"):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                           epsilon=epsilon)

    # epsilon=True used to run as epsilon = 1, and "0.2" raised a bare TypeError
    def test_epsilon_must_be_a_real_number(self):
        for epsilon in (True, np.bool_(True), "0.2", None, 0.2 + 0j):
            with pytest.raises(ValueError, match="epsilon must be a real number"):
                ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                               epsilon=epsilon)
        for epsilon in (1, np.float64(0.2), np.float32(0.5)):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(),
                           epsilon=epsilon)

    # g=True used to run as g = 1
    def test_g_must_be_a_real_number(self):
        for g in (True, False, "3.14", None, 3j):
            with pytest.raises(ValueError, match="g must be a real number"):
                ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(), g=g)
        for g in (3, np.float64(1.3)):
            ProtocolConfig(system_state=phase_bell(0.0), postselection=uniform_plus(), g=g)

    def test_normalization_required(self):
        bad = PureState((2, 2), np.array([1.0, 0, 0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            ProtocolConfig(system_state=bad, postselection=uniform_plus())

    def test_dims_must_match(self):
        with pytest.raises(ValueError, match="dims"):
            ProtocolConfig(system_state=phase_bell(0.0),
                           postselection=PureState((4,), np.full(4, 0.5)))

    def test_postselection_presets_take_the_system_dims(self):
        for dims in ((2, 2), (3, 2)):
            preset = postselection_preset("uniform_plus", dims)
            assert preset.dims == dims
            np.testing.assert_array_equal(preset.amps, uniform_plus(*dims).amps)
        np.testing.assert_array_equal(postselection_preset("alt_postselection", (2, 2)).amps,
                                      alt_postselection().amps)

    def test_alt_postselection_is_usable_at_pi(self):
        cfg = ProtocolConfig(system_state=phase_bell(math.pi),
                             postselection=alt_postselection())
        assert run_one(cfg, "pair", 1, 1).postselection_probability[0] > 0.1
