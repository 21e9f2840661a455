"""Exception types shared across the package."""


class ModvalError(Exception):
    """Base class for protocol/reconstruction errors with a stable code."""

    code = "error"


class OrthogonalPostselection(ModvalError):
    """Postselection is (numerically) orthogonal to the prepared state.

    Signals the divergence regime: modular and weak values blow up as the
    overlap goes to zero, so no finite estimate is reported.
    """

    code = "orthogonal_postselection"


class NegativeDiscriminant(ModvalError):
    """Measured probabilities lie outside the reachable set of the meter.

    Only counting noise can cause this; exact probabilities always invert.
    Callers may clamp to the boundary instead of rejecting.
    """

    code = "negative_discriminant"


class AllTrialsRejected(ModvalError):
    """Every Monte Carlo trial failed inversion; no estimate available."""

    code = "all_trials_rejected"


class ConfigError(ModvalError):
    """Run configuration could not be parsed or validated."""

    code = "config_error"
