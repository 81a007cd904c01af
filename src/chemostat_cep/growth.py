"""Growth laws, break-even concentrations, and species ordering.

Every law is an increasing function of the substrate level with zero growth
at zero substrate.  Three concrete shapes are supported: Monod, Hill, and
tabulated piecewise-linear laws.  The break-even concentration of a law is
the substrate level at which growth exactly balances the removal rate; it is
the quantity that ranks species in the competition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError

# Bisection runs until the bracket cannot be split further, so this cap is a
# safety net, not a tolerance (float64 exhausts in ~1100 halvings worst case).
_BISECT_MAX_ITER = 4000

# Absolute width floor for the bisection bracket.  A purely relative stop
# would leave too much absolute error on large roots.
_BISECT_WIDTH_CAP = 1e-12

# Relative stop of the break-even bisection.
ROOT_TOL = 1e-12

# Break-even levels within this relative distance share a pack.
EQ_TOL = 1e-9

# Break-even probes reach no further than PROBE_FACTOR * s_in; a law that
# stays below the removal rate up to there has an infinite level.
PROBE_FACTOR = 1e6


def _as_substrate(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError(f"substrate level must be finite and >= 0, got {s!r}")
    return arr


class GrowthFunction:
    """Base class for specific growth rate laws mu(s)."""

    kind: str = "abstract"

    def __call__(self, s):
        """Evaluate mu at substrate level(s) s >= 0 (scalar or array)."""
        arr = _as_substrate(s)
        out = self._rate(arr)
        if np.ndim(s) == 0:
            return float(out)
        return out

    def rate_unchecked(self, s: float) -> float:
        """Scalar fast path without domain validation (integrator hot loop).

        Negative arguments are clamped to zero so that tiny undershoots in
        intermediate integration stages stay inside the law's domain.
        """
        return self._rate_scalar(s if s > 0.0 else 0.0)

    def _rate(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _rate_scalar(self, s: float) -> float:
        return float(self._rate(np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class Monod(GrowthFunction):
    """mu(s) = mu_max * s / (k + s)."""

    mu_max: float
    k: float

    kind = "monod"

    def __post_init__(self):
        if not (math.isfinite(self.mu_max) and self.mu_max > 0.0):
            raise ParameterError(f"monod mu_max must be finite and > 0, got {self.mu_max!r}")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ParameterError(f"monod k must be finite and > 0, got {self.k!r}")

    def _rate(self, s: np.ndarray) -> np.ndarray:
        return self.mu_max * s / (self.k + s)

    def _rate_scalar(self, s: float) -> float:
        return self.mu_max * s / (self.k + s)


@dataclass(frozen=True)
class Hill(GrowthFunction):
    """mu(s) = mu_max * s**p / (k**p + s**p) with exponent p >= 1.

    Both paths evaluate the law as mu_max * u / (1 + u) for s <= k and as
    mu_max / (1 + u) above k, with u = (min(s, k) / max(s, k))**p.  Since
    u lies in [0, 1], no power overflows, however steep the law.
    """

    mu_max: float
    k: float
    p: float

    kind = "hill"

    def __post_init__(self):
        if not (math.isfinite(self.mu_max) and self.mu_max > 0.0):
            raise ParameterError(f"hill mu_max must be finite and > 0, got {self.mu_max!r}")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ParameterError(f"hill k must be finite and > 0, got {self.k!r}")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ParameterError(f"hill exponent must be finite and >= 1, got {self.p!r}")

    def _rate(self, s: np.ndarray) -> np.ndarray:
        u = np.power(np.minimum(s, self.k) / np.maximum(s, self.k), self.p)
        return self.mu_max * np.where(s <= self.k, u, 1.0) / (1.0 + u)

    def _rate_scalar(self, s: float) -> float:
        if s <= self.k:
            u = (s / self.k) ** self.p
            return self.mu_max * u / (1.0 + u)
        return self.mu_max / (1.0 + (self.k / s) ** self.p)


@dataclass(frozen=True)
class Table(GrowthFunction):
    """Piecewise-linear law through ordered (s, mu) nodes.

    Inside the node range the law interpolates linearly; beyond the last node
    it continues with the final chord's slope, so the law is strictly
    increasing on all of [0, inf).  Construction enforces the paper's
    hypotheses: the first node is (0, 0), so mu(0) = 0, and both substrate
    values and rates increase strictly from node to node.
    """

    points: tuple[tuple[float, float], ...]

    kind = "table"

    def __post_init__(self):
        pts = tuple((float(a), float(b)) for a, b in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ParameterError("table law needs at least two nodes")
        ss = [a for a, _ in pts]
        if any(not math.isfinite(v) for v in ss) or any(
            not math.isfinite(v) for _, v in pts
        ):
            raise ParameterError("table nodes must be finite")
        if any(b <= a for a, b in zip(ss, ss[1:])):
            raise ParameterError("table substrate nodes must be strictly increasing")
        if pts[0] != (0.0, 0.0):
            raise ParameterError(f"table first node must be (0, 0), so that mu(0) = 0, got {pts[0]!r}")
        if any(b[1] <= a[1] for a, b in zip(pts, pts[1:])):
            raise ParameterError("table node rates must increase strictly")

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.array([a for a, _ in self.points])
        mu = np.array([b for _, b in self.points])
        return s, mu

    @cached_property
    def _segments(self) -> tuple[list[float], list[float], list[float]]:
        """Node lists and chord slopes, as ``np.interp`` computes them."""
        xs = [a for a, _ in self.points]
        ys = [b for _, b in self.points]
        slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
        return xs, ys, slopes

    def _rate(self, s: np.ndarray) -> np.ndarray:
        xs, ys = self._nodes
        out = np.interp(s, xs, ys)
        tail = s > xs[-1]
        if np.any(tail):
            tail_slope = self._segments[2][-1]
            out = np.where(tail, ys[-1] + tail_slope * (s - xs[-1]), out)
        return out

    def _rate_scalar(self, s: float) -> float:
        # np.interp's arithmetic without its array wrapper: the node value
        # at a node, the chord formula in between.  The first node is s = 0,
        # so every s >= 0 lies at or above it.
        xs, ys, slopes = self._segments
        if not s <= xs[-1]:  # NaN lands here too and stays NaN
            return ys[-1] + slopes[-1] * (s - xs[-1])
        j = bisect_right(xs, s) - 1
        if s == xs[j]:
            return ys[j]
        return slopes[j] * (s - xs[j]) + ys[j]


def monod_arrays(laws: Sequence[GrowthFunction]) -> tuple[list[bool], np.ndarray, np.ndarray]:
    """Which laws are Monod, and their ``mu_max`` and ``k`` as arrays.

    Other laws get harmless stand-in parameters 0 and 1, so an array
    evaluation gives 0 * s / (1 + s) in their entries until the caller
    overwrites them with the law's own rate.
    """
    is_monod = [type(g) is Monod for g in laws]
    mu_max = np.array([g.mu_max if m else 0.0 for g, m in zip(laws, is_monod)])
    k_half = np.array([g.k if m else 1.0 for g, m in zip(laws, is_monod)])
    return is_monod, mu_max, k_half


def rate_matrix(laws: Sequence[GrowthFunction], s) -> np.ndarray:
    """Rates of several laws on one substrate grid, one row per law.

    Row k is bitwise equal to ``laws[k](s)``; the grid is validated as a law
    validates it, then ``rate_rows`` evaluates it.
    """
    arr = _as_substrate(s)
    rates = rate_rows(laws, monod_arrays(laws), arr.reshape(-1))
    return rates.reshape((len(laws),) + arr.shape)


def rate_rows(
    laws: Sequence[GrowthFunction], monod: tuple[list[bool], np.ndarray, np.ndarray], s: np.ndarray
) -> np.ndarray:
    """Unvalidated rates of ``laws`` on a 1-D float grid ``s`` of finite levels >= 0.

    ``monod`` is ``monod_arrays(laws)``, so a caller evaluating the same
    laws on many grids prepares it once.  Monod rows come from one array
    expression over the parameter arrays, with the operations of
    ``Monod._rate`` in the same order, written in place so that at most one
    more matrix (the ``k + s`` denominators) is alive.  Every other law then
    overwrites its own row: tables interpolate per law, and a Hill row needs
    ``np.power`` with its own scalar exponent, as in ``Hill._rate``, since a
    vectorised pow loop may round differently.
    """
    is_monod, mu_max, k_half = monod
    out = np.multiply(mu_max[:, None], s)
    np.divide(out, k_half[:, None] + s, out=out)
    for k, g in enumerate(laws):
        if not is_monod[k]:
            out[k] = g._rate(s)
    return out


def break_even(g: GrowthFunction, d: float, *, s_probe_max: float = 1e6) -> float:
    """Solve mu(s) = d by bracketing and bisection.

    The bracket is doubled outward from 1 until mu exceeds d, probing no
    further than ``s_probe_max``; if the law never reaches d below the probe
    bound the result is ``math.inf``.  Bisection then narrows the bracket
    until it is narrower than both ``ROOT_TOL`` times its midpoint and
    ``_BISECT_WIDTH_CAP``, or cannot be split further.

    Every built-in law is increasing with mu(0) = 0 by construction, so the
    bracket holds one crossing.  Raises :class:`ParameterError` for d <= 0
    or a probe bound that is not finite and > 0.
    """
    if not (isinstance(d, (int, float)) and math.isfinite(d) and d > 0.0):
        raise ParameterError(f"removal rate must be finite and > 0, got {d!r}")
    if not (math.isfinite(s_probe_max) and s_probe_max > 0.0):
        raise ParameterError(f"probe bound must be finite and > 0, got {s_probe_max!r}")

    # Every probe is a finite float >= 0 made here, so the probes go straight
    # to the scalar rate the right-hand side evaluates: the level is the root
    # of the same mu the trajectory relaxes to.
    rate = g._rate_scalar
    hi = min(1.0, s_probe_max)
    while rate(hi) <= d:
        if hi >= s_probe_max:
            return math.inf
        hi = min(hi * 2.0, s_probe_max)

    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if rate(mid) < d:
            lo = mid
        else:
            hi = mid
        if hi - lo <= min(ROOT_TOL * mid, _BISECT_WIDTH_CAP):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SpeciesRecord:
    """One species with its identifier, growth law and break-even level."""

    id: str
    growth: GrowthFunction
    lam: float


@dataclass(frozen=True)
class OrderedSpecies:
    """Species sorted by ascending break-even level, grouped into packs.

    ``records[k]`` was input position ``permutation[k]``.  ``packs`` is a
    partition of record positions into consecutive groups whose break-even
    levels agree within ``EQ_TOL``; across packs the levels are strictly
    increasing.  Species whose level is infinite share one final pack.
    """

    records: tuple[SpeciesRecord, ...]
    permutation: tuple[int, ...]
    packs: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def n_packs(self) -> int:
        return len(self.packs)

    def pack_lambda(self, pack_idx: int) -> float:
        return self.records[self.packs[pack_idx][0]].lam

    def pack_ids(self, pack_idx: int) -> tuple[str, ...]:
        return tuple(self.records[k].id for k in self.packs[pack_idx])


def _same_pack(lam_ref: float, lam: float) -> bool:
    if math.isinf(lam_ref) and math.isinf(lam):
        return True
    if math.isinf(lam_ref) or math.isinf(lam):
        return False
    return abs(lam - lam_ref) <= EQ_TOL * max(lam_ref, lam)


def order_species(
    species: Sequence[tuple[str, GrowthFunction]], d: float, s_in: float
) -> OrderedSpecies:
    """Compute break-even levels, sort ascending, and pack near-equal levels.

    Levels are probed up to ``PROBE_FACTOR * s_in``.  The sort is stable, so
    species that tie keep their input order inside a pack.  Infinite levels
    sort last and form a single pack.
    """
    probe = PROBE_FACTOR * s_in
    return pack_species(species, [break_even(g, d, s_probe_max=probe) for _, g in species])


def pack_species(
    species: Sequence[tuple[str, GrowthFunction]], lams: Sequence[float]
) -> OrderedSpecies:
    """Sort species by already computed break-even levels and pack them.

    This is the sort/pack step of :func:`order_species`; ``lams[k]`` is the
    level of ``species[k]``.  A subset of an ordered scenario can be
    re-packed with the levels it already has, without new bisections.
    """
    if len(species) == 0:
        raise ParameterError("need at least one species")
    if len(lams) != len(species):
        raise ParameterError("one break-even level per species is required")
    order = sorted(range(len(species)), key=lambda i: lams[i])
    records = tuple(
        SpeciesRecord(species[i][0], species[i][1], lams[i]) for i in order
    )

    packs: list[tuple[int, ...]] = []
    current = [0]
    for pos in range(1, len(records)):
        if _same_pack(records[current[0]].lam, records[pos].lam):
            current.append(pos)
        else:
            packs.append(tuple(current))
            current = [pos]
    packs.append(tuple(current))

    return OrderedSpecies(records=records, permutation=tuple(order), packs=tuple(packs))
