"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class ChemostatError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ChemostatError, ValueError):
    """A numeric parameter is outside its admissible range."""


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
