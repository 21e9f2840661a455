"""The public surface of the ``modval`` package."""

import types

import modval
import modval.cli  # noqa: F401  (its names are checked too)

PUBLIC_NAMES = {
    # errors
    "AllTrialsRejected", "ConfigError", "ModvalError", "NegativeDiscriminant",
    "OrthogonalPostselection", "ZeroReferenceWeakValue",
    # hilbert
    "DEFAULT_TOL", "LinearOperator", "PureState", "inner",
    # noise
    "CountingConfig", "MonteCarloResult", "NoisyEstimate", "monte_carlo", "noisy_trials",
    "sample_pauli_expectations", "trial_rngs",
    # presets
    "alt_postselection", "phase_bell", "postselection_preset", "state_preset", "uniform_plus",
    # protocol
    "MeterOutcome", "PlanOutcome", "ProtocolConfig", "run_protocol",
    # reconstruction
    "ReconstructionResult", "collect_probabilities", "definitional_modulars",
    "invert_probabilities", "measurement_plan", "modular_definitional",
    "modular_exact_inversion", "modular_first_order", "reconstruct", "reconstruct_state",
    "s_parameter", "weak_from_modulars",
    # tomography
    "DensityMatrix", "fidelity_pure", "fidelity_states", "linear_inversion",
    "pauli_expectations",
}

# names that only the tests use; they live in tests/oracle.py
TEST_ONLY = ("basis_state", "identity", "projector", "tensor", "tomography_settings",
             "shift_modular", "weak_definitional", "trial_rng")
REMOVED = ("Setting", "PlanEntry", "MeasurementPlan")


def test_public_names_are_the_explicit_list():
    public = {name for name, value in vars(modval).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_NAMES


def test_removed_and_test_only_names_are_absent_everywhere():
    modules = [modval] + [value for value in vars(modval).values()
                          if isinstance(value, types.ModuleType)]
    for module in modules:
        for name in TEST_ONLY + REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
