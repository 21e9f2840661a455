"""Direct measurement of nonlocal bipartite pure states from modular values.

Simulates the qubit-meter protocol end to end: meter preparation,
controlled-phase interactions, postselection, detector probabilities,
modular-value inversion, and amplitude reconstruction, plus photon-counting
Monte Carlo error propagation and a linear-inversion tomography baseline.
"""

from .errors import (
    AllTrialsRejected,
    ConfigError,
    ModvalError,
    NegativeDiscriminant,
    OrthogonalPostselection,
    ZeroReferenceWeakValue,
)
from .hilbert import (
    DEFAULT_TOL,
    LinearOperator,
    PureState,
    inner,
)
from .noise import (
    CountingConfig,
    MonteCarloResult,
    NoisyEstimate,
    monte_carlo,
    noisy_trials,
    sample_pauli_expectations,
    trial_rngs,
)
from .presets import (
    alt_postselection,
    phase_bell,
    postselection_preset,
    state_preset,
    uniform_plus,
)
from .protocol import (
    MeterOutcome,
    PlanOutcome,
    ProtocolConfig,
    run_protocol,
)
from .reconstruction import (
    ReconstructionResult,
    collect_probabilities,
    definitional_modulars,
    invert_probabilities,
    measurement_plan,
    modular_definitional,
    modular_exact_inversion,
    modular_first_order,
    reconstruct,
    reconstruct_state,
    s_parameter,
    weak_from_modulars,
)
from .tomography import (
    DensityMatrix,
    fidelity_pure,
    fidelity_states,
    linear_inversion,
    pauli_expectations,
)

__version__ = "0.1.0"
