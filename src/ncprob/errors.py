"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user input: malformed scenario, measure, or parameter."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its contract."""


class ConvergenceError(NumericalError):
    """An iterative solver (Newton, fixed point) did not converge."""


class FlowError(NumericalError):
    """An ODE flow violated its invariant or left its admissible region."""


class RecoveryError(NumericalError):
    """Recovered atoms do not carry the mass of the transform they came from."""


class ZeroMeanError(ValidationError):
    """Operation requires a circle measure with non-zero mean."""
