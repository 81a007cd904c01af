"""Chemostat parameters, states, vector field, and predicted limit states.

The model couples one substrate with n consumer species under a common
removal rate.  The simulator integrates the original (substrate, densities)
chart, which stays defined when the biomass vanishes; the biomass,
proportion, mass and ratio channels are derived from it per sample.

Its right-hand side, ``vector_field``, is built once per system.  A system
with few Monod laws gets a function compiled for it from straight-line
Python source, in which every law's scalar rate is spelled out with its
parameters as float literals; a system with many gets one numpy expression
over its Monod laws.  Both give the bits of one per-species loop.  The
compiled body also takes and returns tuples of floats, which is how the
integrator's compiled step loop calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, require_positive
from .growth import GrowthFunction, OrderedSpecies, monod_arrays

# Dense output intervals over the horizon: the grid on which
# ``integrate.simulate`` samples a trajectory, and which a scenario's horizon
# must leave a positive width.
DENSE_INTERVALS = 2000


@dataclass(frozen=True)
class ChemostatParams:
    """Operating parameters: removal rate d and inflow concentration s_in."""

    d: float
    s_in: float

    def __post_init__(self):
        require_positive(self, "d", "s_in")


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
        for j, v in enumerate((self.s, *arr.tolist())):
            if not (math.isfinite(v) and v >= 0.0):
                reason = "must be >= 0" if math.isfinite(v) else "must be finite"
                raise DomainError(reason, field=f"x[{j - 1}]" if j else "s")

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
# Monod rates are vectorised there; a Hill or table law costs less in the
# compiled float body (about 0.16 us per law against 0.22 us), so it does
# not count.  Min-of-N interleaved per-call times on a 2-core x86-64 VM,
# floats against arrays, over three to six runs: 20 Monod laws 2.7 against
# 3.0 us, 22 laws 2.8-2.9 against 3.0-3.1 us, 23 laws 2.9-3.0 against
# 3.0 us, 24 laws 3.0-3.2 against 3.0-3.1 us, 26 laws 3.2-3.3 against
# 3.0-3.2 us, 28 laws 3.4-3.6 against 3.0-3.1 us, 34 laws 4.4 against
# 3.1 us, 40 laws 5.1 against 3.1-3.2 us, 100 laws 12.5-12.8 against
# 3.3 us.  From 26 laws on the array body won every run; at 24-25 the two
# are within noise.  Beside 26 Monod laws, 10 Hill or table laws give 5.3
# against 5.5 us; 60 Monod and 60 Hill or table laws 18.3 against 16.2 us.
_ARRAY_FIELD_MIN_LAWS = 26


def _float_body(d: float, s_in: float, laws: tuple[GrowthFunction, ...]) -> Callable[..., np.ndarray]:
    """The plain-float body for these laws, compiled from straight-line source.

    Each law contributes the lines of its ``_rate_source``, then its
    ``dx_i`` and its consumption term.  Besides the laws' own float
    literals, only ``d``, ``s_in`` (as float literals), the state size and
    the law indices enter the source.  The body is ``f(y, out=None)``:
    called with a sequence of floats alone, it returns the derivative as a
    tuple; with ``out`` it writes the same floats into ``out``.
    """
    d, s_in = repr(float(d)), repr(float(s_in))
    size = len(laws) + 1
    lines = [
        "def f_floats(y, out=None):",
        "    if out is None:",
        "        v = y",
        "    else:",
        "        v = y.tolist()",
        f"        if len(v) != {size}:",
        f"            raise ValueError(f'state has {{len(v)}} entries, expected {size}')",
        "    s, " + "".join(f"x{i}, " for i in range(1, size)) + "= v",
        "    sc = s if s > 0.0 else 0.0",
        "    total = 0.0",
    ]
    namespace: dict[str, object] = {}
    for i, g in enumerate(laws, 1):
        rate_lines, names = g._rate_source(i)
        namespace.update(names)
        lines += ["    " + line for line in rate_lines]
        lines += [f"    dx{i} = (mu - {d}) * x{i}", f"    total += mu * x{i}"]
    lines += [
        f"    v = ({d} * ({s_in} - s) - total, " + "".join(f"dx{i}, " for i in range(1, size)) + ")",
        "    if out is None:",
        "        return v",
        "    out[...] = v",
        "    return out",
    ]
    exec(compile("\n".join(lines), "<vector_field>", "exec"), namespace)
    return namespace["f_floats"]


def vector_field(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
) -> Callable[..., np.ndarray]:
    """Unvalidated f(y, out) with y = [s, x_1..x_n] for the integrator hot loop.

    The chemostat is autonomous, so the field takes no time argument.
    Growth laws are evaluated with the substrate clamped at zero so that
    intermediate stage values with tiny negative substrate stay legal.
    Every call writes the bits of a per-species loop: each law's rate,
    dx_i = (mu_i - d) x_i, and the consumption summed left to right from 0.
    With fewer than ``_ARRAY_FIELD_MIN_LAWS`` Monod laws the function is
    compiled here, once per call of ``vector_field``, from straight-line
    Python source that does exactly that in Python floats, one scalar
    operation at a time, without SIMD or BLAS.  Every law's
    ``_rate_scalar`` is spelled out in species order (its ``_rate_source``):
    the method's operations in its order, with ``repr`` literals that read
    back to the parameters' floats, so each rate has the method's bits.
    The sum is one ``+=`` per species, because the built-in ``sum`` of
    floats is compensated from Python 3.12 on.  With more Monod laws, their
    rates come from one array expression over their parameters, with the
    operations of ``Monod._rate_scalar`` in the same order, and every other
    law overwrites its own entry through its scalar path (a Hill law needs
    the scalar ``pow``, since a vectorised pow loop may round differently).
    The call writes the derivative into ``out``, a float array of y's
    shape that does not share memory with y, and returns ``out``.  A y
    whose length is not 1 + the number of laws raises ``ValueError``.  The
    compiled body's ``out`` may be left out: then y is a tuple of 1 + n
    floats and the derivative is returned as a tuple, with the same bits.
    The array body reuses its work buffers, and it passes d and the
    clamped substrate to its ufuncs as 0-d arrays that it owns, the
    substrate one rewritten by every call.  Like the work buffers, they
    are state shared by every call, so one such closure must not be called
    from two threads at once.
    """
    d = params.d
    s_in = params.s_in
    laws = tuple(growths)
    n = len(laws)
    size = n + 1
    is_monod, mu_max, k_half = monod_arrays(laws)
    if sum(is_monod) < _ARRAY_FIELD_MIN_LAWS:
        return _float_body(d, s_in, laws)

    scalar_rows = [(i, g._rate_scalar) for i, (g, m) in enumerate(zip(laws, is_monod)) if not m]
    den = np.empty(n)
    # Slot 0 of ``terms`` stays 0.0, the start of the running consumption
    # sum; slot i holds mu_i, then the term mu_i x_i.
    terms = np.zeros(size)
    mu = terms[1:]
    acc = np.empty(size)
    # The clamped substrate and d as 0-d float64 operands, since a ufunc
    # given a Python float converts it on every call; every output goes
    # positionally, since an ``out=`` keyword is parsed on every call.
    sc_buf = np.empty(())
    d_buf = np.array(float(d))
    multiply, add, subtract, divide, accumulate = np.multiply, np.add, np.subtract, np.divide, np.add.accumulate

    def f(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        if len(y) != size:  # y[1:] of length 1 would broadcast over the laws
            raise ValueError(f"state has {len(y)} entries, expected {size}")
        s = y.item(0)
        sc = s if s > 0.0 else 0.0
        sc_buf[()] = sc
        multiply(mu_max, sc_buf, mu)
        add(k_half, sc_buf, den)
        divide(mu, den, mu)
        for i, rate in scalar_rows:
            mu[i] = rate(sc)
        x, dx = y[1:], out[1:]
        subtract(mu, d_buf, dx)
        multiply(dx, x, dx)
        multiply(mu, x, mu)
        accumulate(terms, 0, None, acc)  # axis 0, no dtype, into acc
        out[0] = d * (s_in - s) - acc.item(-1)
        return out

    return f
