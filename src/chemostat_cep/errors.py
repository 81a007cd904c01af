"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations

import math


class ChemostatError(Exception):
    """Base class for all toolkit errors.

    A refusal of one value names it: ``field`` is its name on the refusing
    type, such as ``"mu_max"``, ``"points[2]"`` or ``"x[1]"`` (for an
    :class:`InputError`, its key path in the scenario file), ``reason`` says
    what is wrong with it, and the message is ``field: reason``.  An error
    about no single value has ``field`` None and the message as its reason.
    """

    def __init__(self, reason: str, *, field: str | None = None):
        self.field = field
        self.reason = reason
        super().__init__(reason if field is None else f"{field}: {reason}")


class ParameterError(ChemostatError, ValueError):
    """A numeric parameter is outside its admissible range."""


def require_positive(owner: object, *names: str) -> None:
    """Refuse, by :class:`ParameterError`, a named attribute of ``owner`` that is not finite and > 0."""
    for name in names:
        v = getattr(owner, name)
        if not (math.isfinite(v) and v > 0.0):
            raise ParameterError(f"must be finite and > 0, got {v!r}", field=name)


class DomainError(ChemostatError, ValueError):
    """An evaluation was requested outside the mathematical domain."""


class CertificateError(ChemostatError):
    """A certificate constant could not be constructed or is non-positive."""


class WashoutError(CertificateError):
    """Certificate refused: the smallest break-even level is not below s_in."""

    def __init__(self, lam1: float, s_in: float):
        self.lam1 = lam1
        self.s_in = s_in
        super().__init__(
            f"washout scenario: smallest break-even concentration {lam1:g} "
            f"is not below the inflow concentration {s_in:g}"
        )


class StiffnessError(ChemostatError):
    """Step size underflow during integration; carries the failing time/state."""

    def __init__(self, t: float, y, message: str = "step size underflow"):
        self.t = t
        self.y = y
        super().__init__(f"{message} at t={t:g}, state={y!r}")


class DivergenceError(ChemostatError):
    """The state left the finite floating-point range during integration."""

    def __init__(self, t: float, y, message: str = "non-finite state"):
        self.t = t
        self.y = y
        super().__init__(f"{message} at t={t:g}, state={y!r}")


class InputError(ChemostatError):
    """A scenario file is missing, malformed, or inconsistent."""
