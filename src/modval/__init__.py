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
)
from .hilbert import (
    PureState,
    inner,
)
from .noise import (
    CountingConfig,
    MonteCarloResult,
    NoisyEstimate,
    monte_carlo,
    noisy_trials,
)
from .presets import (
    alt_postselection,
    phase_bell,
    postselection_preset,
    state_preset,
    uniform_plus,
)
from .protocol import (
    PlanOutcome,
    ProtocolConfig,
    measurement_plan,
    run_protocol,
    s_parameter,
)
from .reconstruction import (
    ReconstructionResult,
    definitional_modulars,
    invert_probabilities,
    modular_exact_inversion,
    modular_first_order,
    reconstruct,
    reconstruct_state,
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
