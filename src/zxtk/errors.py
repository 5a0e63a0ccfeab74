"""Exception types shared across the package."""

from __future__ import annotations


class ZxError(Exception):
    """Base class for all zxtk errors."""


class ArityError(ZxError):
    """A generator or wiring operation got an impossible arity."""


class ConfigError(ZxError, ValueError):
    """A setting read from the environment has an unusable value."""


class DiagramError(ZxError):
    """A diagram violates a structural invariant (bad edge incidences)."""


class CompositionError(ZxError):
    """Boundary arities do not line up for compose."""


class GroundNotAllowed(ZxError):
    """A pure-only operation was handed a diagram containing Ground."""


class NotWellFormed(ZxError):
    """A token state has |polarity| > 1 on some path.

    Carries the offending (path, term_tokens) pair as `witness`.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCycleBalanced(ZxError):
    """A token state has nonzero polarity on some cycle.

    Carries the offending (cycle, term_tokens) pair as `witness`.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NormalFormReached(ZxError):
    """step() was called on a state with no diffusible token."""


class FuseExceeded(ZxError):
    """A run used up its diffusion-step fuse before reaching a normal form."""

    def __init__(self, message: str, state=None, steps: int = 0):
        super().__init__(message)
        self.state = state
        self.steps = steps


class PathLimitExceeded(ZxError):
    """Path or cycle enumeration hit the configured cap."""


class DslSyntaxError(ZxError):
    """Text could not be parsed as a diagram expression.

    `position` is a 0-based offset into the source string.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class FormatError(ZxError):
    """A serialized document is malformed or has the wrong format tag."""
