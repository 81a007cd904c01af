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


# Monod laws from which the right-hand side takes its array body.  Only
# Monod rates are vectorised there; a Hill or table law goes through its
# scalar path in both bodies, at about the same cost (0.03-0.05 us more per
# law in plain floats).  Measured per call on a 2-core x86-64 VM: 27 Monod
# laws 7.5 us as arrays against 7.7 us in floats, 28 Monod laws 7.7 against
# 8.0 us; 28 laws cycling Monod, Hill and table 9.6 against 7.4 us, 40 such
# laws 12.6 against 10.6 us.
_ARRAY_FIELD_MIN_LAWS = 28


def vector_field(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
) -> Callable[..., np.ndarray]:
    """Unvalidated f(t, y, out=None) with y = [s, x_1..x_n] for the integrator hot loop.

    Growth laws are evaluated with the substrate clamped at zero so that
    intermediate stage values with tiny negative substrate stay legal.
    Every call returns the bits of a per-species loop: each law's rate,
    dx_i = (mu_i - d) x_i, and the consumption summed left to right from 0.
    With fewer than ``_ARRAY_FIELD_MIN_LAWS`` Monod laws the closure does
    exactly that in Python floats, each rate through the law's
    ``_rate_scalar``; the sum is an explicit loop because the built-in
    ``sum`` of floats is compensated from Python 3.12 on.  With more Monod
    laws, their rates come from one array expression over their parameters,
    with the operations of ``Monod._rate_scalar`` in the same order, and
    every other law overwrites its own entry through its scalar path (a
    Hill law needs the scalar ``pow``, since a vectorised pow loop may round
    differently).
    Given ``out``, a float array of y's shape that does not share memory
    with y, the call writes the derivative there and returns ``out``;
    without it, each call returns a new array.  A y whose length is not
    1 + the number of laws raises ``ValueError``.  The array body reuses its
    work buffers, so one such closure must not be called from two threads
    at once.
    """
    d = params.d
    s_in = params.s_in
    laws = tuple(growths)
    n = len(laws)
    size = n + 1
    is_monod, mu_max, k_half = monod_arrays(laws)
    if sum(is_monod) < _ARRAY_FIELD_MIN_LAWS:
        rates = [g._rate_scalar for g in laws]

        def f_floats(t: float, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            v = y.tolist()  # the derivative overwrites it entry by entry
            if len(v) != size:
                raise ValueError(f"state has {len(v)} entries, expected {size}")
            s = v[0]
            sc = s if s > 0.0 else 0.0
            total = 0.0
            for i, rate in enumerate(rates, 1):
                x_i = v[i]
                mu = rate(sc)
                v[i] = (mu - d) * x_i
                total += mu * x_i
            v[0] = d * (s_in - s) - total
            if out is None:
                return np.array(v)
            out[...] = v
            return out

        return f_floats

    scalar_rows = [(i, g._rate_scalar) for i, (g, m) in enumerate(zip(laws, is_monod)) if not m]
    den = np.empty(n)
    # Slot 0 of ``terms`` stays 0.0, the start of the running consumption
    # sum; slot i holds mu_i, then the term mu_i x_i.
    terms = np.zeros(size)
    mu = terms[1:]
    acc = np.empty(size)

    def f(t: float, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if len(y) != size:  # y[1:] of length 1 would broadcast over the laws
            raise ValueError(f"state has {len(y)} entries, expected {size}")
        s = y.item(0)
        sc = s if s > 0.0 else 0.0
        np.multiply(mu_max, sc, out=mu)
        np.add(k_half, sc, out=den)
        np.divide(mu, den, out=mu)
        for i, rate in scalar_rows:
            mu[i] = rate(sc)
        if out is None:
            out = np.empty(size)
        x, dx = y[1:], out[1:]
        np.subtract(mu, d, out=dx)
        np.multiply(dx, x, out=dx)
        np.multiply(mu, x, out=mu)
        np.add.accumulate(terms, out=acc)
        out[0] = d * (s_in - s) - acc.item(-1)
        return out

    return f
