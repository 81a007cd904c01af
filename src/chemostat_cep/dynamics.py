"""Chemostat vector fields, coordinate charts, and predicted limit states.

The model couples one substrate with n consumer species under a common
removal rate.  Two charts are provided: the original (substrate, densities)
coordinates, and the (substrate, total biomass, proportions) coordinates.
The simulator integrates the original chart, which stays defined when the
biomass vanishes; the transformed chart and the derived mass/ratio channels
are computed from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ChartError, DomainError, ParameterError
from .growth import GrowthFunction, OrderedSpecies, monod_arrays

_SIMPLEX_TOL = 1e-12


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChemostatParams:
    """Operating parameters: removal rate d and inflow concentration s_in."""

    d: float
    s_in: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ParameterError(f"removal rate must be finite and > 0, got {self.d!r}")
        if not (math.isfinite(self.s_in) and self.s_in > 0.0):
            raise ParameterError(f"inflow concentration must be finite and > 0, got {self.s_in!r}")


@dataclass(frozen=True)
class State:
    """Point in the original chart: substrate level s and density vector x.

    Componentwise non-negative (the positive orthant is invariant under the
    dynamics).  The density array is stored as a read-only copy.
    """

    s: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        arr = _readonly(np.atleast_1d(self.x))
        object.__setattr__(self, "x", arr)
        if not math.isfinite(self.s) or self.s < 0.0:
            raise DomainError(f"substrate level must be finite and >= 0, got {self.s!r}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("species densities must be finite and >= 0")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class TransformedState:
    """Point in the biomass/proportion chart (undefined at zero biomass)."""

    s: float
    b: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "b", float(self.b))
        p = _readonly(np.atleast_1d(self.p))
        object.__setattr__(self, "p", p)
        if not math.isfinite(self.s) or self.s < 0.0:
            raise DomainError(f"substrate level must be finite and >= 0, got {self.s!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ChartError(f"total biomass must be > 0 in this chart, got {self.b!r}")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ChartError("proportions must be finite and >= 0")
        if abs(float(np.sum(p)) - 1.0) > _SIMPLEX_TOL:
            raise ChartError(f"proportions must sum to 1 within {_SIMPLEX_TOL:g}")


@dataclass(frozen=True)
class DerivedChannels:
    """Channels derived from a state: total mass m = b + s, ratios x_i / x_1.

    The ratio vector covers species 2..n and is None when the first species
    is absent.
    """

    m: float
    r: np.ndarray | None


def rhs_original(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
    state: State,
) -> tuple[float, np.ndarray]:
    """Time derivative (ds, dx) of the original chart at ``state``.

    ds = d (s_in - s) - sum_i mu_i(s) x_i and dx_i = (mu_i(s) - d) x_i,
    with unit yield coefficients.  The state is validated, then evaluated
    by :func:`vector_field`, the integrator's right-hand side.
    """
    if len(growths) != state.n:
        raise ParameterError("growth law count must match species count")
    dy = vector_field(params, growths)(0.0, np.concatenate(([state.s], state.x)))
    return float(dy[0]), dy[1:]


def rhs_transformed(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
    tstate: TransformedState,
) -> tuple[float, float, np.ndarray]:
    """Time derivative (ds, db, dp) of the biomass/proportion chart.

    The proportion derivatives satisfy sum_i dp_i = 0 identically.
    """
    if len(growths) != tstate.p.size:
        raise ParameterError("growth law count must match species count")
    mu = np.array([g(tstate.s) for g in growths])
    mubar = float(mu @ tstate.p)
    ds = params.d * (params.s_in - tstate.s) - mubar * tstate.b
    db = (mubar - params.d) * tstate.b
    dp = tstate.p * (mu - mubar)
    return ds, db, dp


def to_transformed(state: State) -> TransformedState:
    """Map (s, x) to (s, b, p).  Raises :class:`ChartError` at zero biomass."""
    b = float(np.sum(state.x))
    if b <= 0.0:
        raise ChartError("total biomass is zero; proportion chart undefined")
    return TransformedState(s=state.s, b=b, p=state.x / b)


def from_transformed(tstate: TransformedState) -> State:
    """Inverse chart map (s, b, p) -> (s, x)."""
    return State(s=tstate.s, x=tstate.b * tstate.p)


def derive_channels(state: State) -> DerivedChannels:
    """Total mass and ratio channels at a single state."""
    m = state.s + float(np.sum(state.x))
    if state.n >= 2 and state.x[0] > 0.0:
        r = _readonly(state.x[1:] / state.x[0])
    else:
        r = None
    return DerivedChannels(m=m, r=r)


def predicted_limit(params: ChemostatParams, ordered: OrderedSpecies) -> State:
    """Limit state implied by the exclusion principle, in input species order.

    When the smallest break-even level lies below the inflow concentration
    the substrate settles there and the surviving biomass s_in - lambda_1
    belongs to the minimal pack; only the pack total is predicted, so the
    vector spreads it equally over pack members.  Otherwise everything
    washes out and the substrate settles at s_in.
    """
    x = np.zeros(ordered.n)
    lam1 = ordered.pack_lambda(0)
    if lam1 < params.s_in:
        winners = ordered.packs[0]
        share = (params.s_in - lam1) / len(winners)
        for pos in winners:
            x[ordered.permutation[pos]] = share
        return State(s=lam1, x=x)
    return State(s=params.s_in, x=x)


def mass_closed_form(m0: float, params: ChemostatParams, t) -> float | np.ndarray:
    """Total mass solution s_in + (m0 - s_in) exp(-d t) of the mass balance."""
    out = params.s_in + (m0 - params.s_in) * np.exp(-params.d * np.asarray(t, dtype=float))
    if np.ndim(t) == 0:
        return float(out)
    return out


def vector_field(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Unvalidated f(t, y) with y = [s, x_1..x_n] for the integrator hot loop.

    Growth laws are evaluated with the substrate clamped at zero so that
    intermediate stage values with tiny negative substrate stay legal.  The
    rates of all Monod laws come from one array expression over their
    parameters, with the operations of ``Monod._rate_scalar`` in the same
    order; every other law overwrites its own entry through its scalar path
    (a Hill law needs the scalar ``pow``, since a vectorised pow loop may
    round differently).  Consumption is summed sequentially from 0, as a
    per-species loop would, so every call returns the same bits as one.
    Each call returns a new array; the closure reuses its work buffers, so
    one closure must not be called from two threads at once.
    """
    d = params.d
    s_in = params.s_in
    laws = tuple(growths)
    is_monod, mu_max, k_half = monod_arrays(laws)
    scalar_rows = [(i, g._rate_scalar) for i, (g, m) in enumerate(zip(laws, is_monod)) if not m]
    n = len(laws)
    den = np.empty(n)
    # Row 0 is 0.0 (the start of the running consumption sum) and then the
    # terms mu_i x_i; row 1 is a free slot and then dx_i = (mu_i - d) x_i.
    work = np.zeros((2, n + 1))
    rows = work[:, 1:]
    mu = work[0, 1:]
    dx = work[1, 1:]
    terms = work[0]
    out_row = work[1]

    def f(t: float, y: np.ndarray) -> np.ndarray:
        s = y.item(0)
        sc = s if s > 0.0 else 0.0
        np.multiply(mu_max, sc, out=mu)
        np.add(k_half, sc, out=den)
        np.divide(mu, den, out=mu)
        for i, rate in scalar_rows:
            mu[i] = rate(sc)
        np.subtract(mu, d, out=dx)
        np.multiply(rows, y[1:], out=rows)
        dy = out_row.copy()
        dy[0] = d * (s_in - s) - np.add.accumulate(terms)[-1]
        return dy

    return f
