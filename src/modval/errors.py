"""Exception types shared across the package.

Each class carries the stable ``code`` that ``modval`` prints in its one
``error: <code>: <message>`` line and the ``exit_code`` the command ends with.
"""


class ModvalError(Exception):
    """Base class for protocol/reconstruction errors with a stable code and exit code."""

    code = "error"
    exit_code = 2


class OrthogonalPostselection(ModvalError):
    """Postselection is (numerically) orthogonal to the prepared state.

    Signals the divergence regime: modular and weak values blow up as the
    overlap goes to zero, so no finite estimate is reported.
    """

    code = "orthogonal_postselection"
    exit_code = 3


class NegativeDiscriminant(ModvalError):
    """Measured probabilities lie outside the reachable set of the meter.

    Only counting noise can cause this; exact probabilities always invert.
    Callers may clamp to the boundary instead of rejecting.
    """

    code = "negative_discriminant"
    exit_code = 4


class AllTrialsRejected(ModvalError):
    """Every Monte Carlo trial failed inversion; no estimate available."""

    code = "all_trials_rejected"
    exit_code = 5


class ConfigError(ModvalError):
    """Run configuration or command line could not be parsed or validated."""

    code = "config_error"
    exit_code = 2
