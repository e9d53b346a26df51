"""Exception hierarchy for the circle contact Hamilton-Jacobi laboratory."""


class CircleHJError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(CircleHJError):
    """Experiment configuration is malformed or inconsistent."""


class NoBracket(CircleHJError):
    """Velocity has no momentum preimage inside the search window.

    Signals either a violation of superlinearity on the window or a
    too-small p_max bound.
    """


class NonPositiveA(CircleHJError):
    """Kinetic coefficient of a quadratic model is not strictly positive."""


class NotConverged(CircleHJError):
    """An iterative solve exhausted its budget before reaching tolerance."""


class BlowUp(CircleHJError):
    """A characteristic trajectory left the admissible state window."""


class TurningPoint(CircleHJError):
    """The graph speed dH/dp vanished during an around-the-circle sweep.

    The stationary graph is not transverse here, so the circle sweep
    cannot continue; the current shooting candidate must be rejected.
    """


class InnerNotConverged(CircleHJError):
    """The per-step value fixed point failed; dt violates the contraction bound."""


class NoTrajectoryLanded(CircleHJError):
    """No sampled characteristic reached the target point (shooting action)."""


class CapTooSmall(CircleHJError):
    """A pinned-data evolution returned a value too close to the cap."""


class BracketFail(CircleHJError):
    """Bisection endpoints do not bracket the requested value."""


class EpsilonUnderflow(CircleHJError):
    """The oscillation amplitude of the explicit subsolution underflowed."""


class NotNontrivial(CircleHJError):
    """A run expected to produce an oscillating limit returned a flat one."""


class TouchingViolated(CircleHJError):
    """Initial datum does not touch the forward stationary solution from above."""


class SliceCountIncompatible(CircleHJError):
    """Requested period subdivision does not divide the stored slice count."""


class FlatObjective(CircleHJError):
    """Period detection found a stationary trace; no period is defined."""
