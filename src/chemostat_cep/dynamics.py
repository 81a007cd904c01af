"""Chemostat parameters, states, vector field, and predicted limit states.

The model couples one substrate with n consumer species under a common
removal rate.  The simulator integrates the original (substrate, densities)
chart, which stays defined when the biomass vanishes; the biomass,
proportion, mass and ratio channels are derived from it per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .growth import GrowthFunction, OrderedSpecies, monod_arrays


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
        arr = np.array(self.x, dtype=float, ndmin=1)
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)
        if not math.isfinite(self.s) or self.s < 0.0:
            raise DomainError(f"substrate level must be finite and >= 0, got {self.s!r}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("species densities must be finite and >= 0")

    @property
    def n(self) -> int:
        return self.x.size


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


def vector_field(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
) -> Callable[..., np.ndarray]:
    """Unvalidated f(t, y, out=None) with y = [s, x_1..x_n] for the integrator hot loop.

    Growth laws are evaluated with the substrate clamped at zero so that
    intermediate stage values with tiny negative substrate stay legal.  The
    rates of all Monod laws come from one array expression over their
    parameters, with the operations of ``Monod._rate_scalar`` in the same
    order; every other law overwrites its own entry through its scalar path
    (a Hill law needs the scalar ``pow``, since a vectorised pow loop may
    round differently).  Consumption is summed sequentially from 0, as a
    per-species loop would, so every call returns the same bits as one.
    Given ``out``, a float array of y's shape, the call writes the derivative
    there and returns ``out``; without it, each call returns a new array.
    The closure reuses its work buffers, so one closure must not be called
    from two threads at once.
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

    def f(t: float, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        s = y.item(0)
        sc = s if s > 0.0 else 0.0
        np.multiply(mu_max, sc, out=mu)
        np.add(k_half, sc, out=den)
        np.divide(mu, den, out=mu)
        for i, rate in scalar_rows:
            mu[i] = rate(sc)
        np.subtract(mu, d, out=dx)
        np.multiply(rows, y[1:], out=rows)
        if out is None:
            out = out_row.copy()
        else:
            out[:] = out_row
        out[0] = d * (s_in - s) - np.add.accumulate(terms)[-1]
        return out

    return f
