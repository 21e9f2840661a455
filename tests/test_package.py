"""The public surface of the ``modval`` package."""

import types
from dataclasses import fields

import modval
import modval.cli  # noqa: F401  (its names are checked too)

PUBLIC_NAMES = {
    # errors
    "AllTrialsRejected", "ConfigError", "ModvalError", "NegativeDiscriminant",
    "OrthogonalPostselection",
    # hilbert
    "PureState", "inner",
    # noise
    "CountingConfig", "MonteCarloResult", "NoisyEstimate", "monte_carlo", "noisy_trials",
    # presets
    "alt_postselection", "phase_bell", "postselection_preset", "state_preset", "uniform_plus",
    # protocol
    "PlanOutcome", "ProtocolConfig", "run_protocol",
    # reconstruction
    "ReconstructionResult", "definitional_modulars",
    "invert_probabilities", "modular_exact_inversion",
    "modular_first_order", "reconstruct", "reconstruct_state", "s_parameter",
    "weak_from_modulars",
    # tomography
    "DensityMatrix", "fidelity_pure", "fidelity_states", "linear_inversion",
    "pauli_expectations",
}

# names that only the tests use; they live in tests/oracle.py
TEST_ONLY = ("LinearOperator", "basis_state", "identity", "projector", "tensor",
             "tomography_settings", "modular_definitional", "shift_modular",
             "weak_definitional", "row_by_row_counts", "measurement_plan", "IDX_UP_DOWN",
             "IDX_DOWN_UP")
REMOVED = ("Setting", "PlanEntry", "MeasurementPlan", "MeterOutcome", "MeterMode",
           "ZeroReferenceWeakValue", "sample_pauli_expectations", "trial_rngs",
           "collect_probabilities", "InteractionKind", "Tolerances", "DEFAULT_TOL")


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


def test_records_hold_only_the_fields_callers_read():
    # the readout keeps no (S, 4) meter state; the trial counts live once, on the result
    assert tuple(f.name for f in fields(modval.PlanOutcome)) == (
        "postselection_probability", "probabilities")
    assert tuple(f.name for f in fields(modval.NoisyEstimate)) == ("mean", "std", "samples")
