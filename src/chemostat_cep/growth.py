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

from .errors import DomainError, ModelError, ParameterError

# Bisection runs until the bracket cannot be split further, so this cap is a
# safety net, not a tolerance (float64 exhausts in ~1100 halvings worst case).
_BISECT_MAX_ITER = 4000

# Absolute width floor for the bisection bracket.  A purely relative stop
# would leave too much absolute error on large roots.
_BISECT_WIDTH_CAP = 1e-12


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
    """mu(s) = mu_max * s**p / (k**p + s**p) with exponent p >= 1."""

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

    @cached_property
    def _k_pow(self) -> float:
        try:
            return self.k**self.p
        except OverflowError:  # a float power raises where np.power gives inf
            return math.inf

    def _saturated(self, s):
        """mu_max / (1 + (k/s)**p), the law where the direct form overflows; 0 at s = 0."""
        with np.errstate(over="ignore", divide="ignore"):
            return self.mu_max / (1.0 + np.power(self.k / np.asarray(s, dtype=float), self.p))

    def _rate(self, s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            sp = np.power(s, self.p)
            num, den = self.mu_max * sp, self._k_pow + sp
            out = num / den
        over = np.isinf(num) | np.isinf(den)
        if over.any():
            out = np.where(over, self._saturated(s), out)
        return out

    def _rate_scalar(self, s: float) -> float:
        try:
            sp = s**self.p
        except OverflowError:  # a float power raises where np.power gives inf
            sp = math.inf
        num, den = self.mu_max * sp, self._k_pow + sp
        if num < math.inf and den < math.inf:
            return num / den
        return float(self._saturated(s))


@dataclass(frozen=True)
class Table(GrowthFunction):
    """Piecewise-linear law through ordered (s, mu) nodes.

    Inside the node range the law interpolates linearly; beyond the last node
    it continues with the final chord's slope so a strictly increasing table
    stays strictly increasing on all of [0, inf).  Nodes only need strictly
    increasing substrate values at construction; rate monotonicity and the
    zero-growth origin are checked by ``validate_growth`` so that defective
    tables can be diagnosed rather than rejected unseen.
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
        if ss[0] < 0.0:
            raise ParameterError("table substrate nodes must be >= 0")
        if any(b < 0.0 for _, b in pts):
            raise ParameterError("table rates must be >= 0")

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

    @cached_property
    def _tail_slope(self) -> float:
        s, mu = self._nodes
        slope = (mu[-1] - mu[-2]) / (s[-1] - s[-2])
        return max(float(slope), 0.0)

    @property
    def nodes_strictly_increasing(self) -> bool:
        _, mu = self._nodes
        return bool(np.all(np.diff(mu) > 0.0))

    def _rate(self, s: np.ndarray) -> np.ndarray:
        xs, ys = self._nodes
        out = np.interp(s, xs, ys)
        tail = s > xs[-1]
        if np.any(tail):
            out = np.where(tail, ys[-1] + self._tail_slope * (s - xs[-1]), out)
        return out

    def _rate_scalar(self, s: float) -> float:
        # np.interp's arithmetic without its array wrapper: the node value
        # at a node, y_0 below the first node, the chord formula in between.
        xs, ys, slopes = self._segments
        if not s <= xs[-1]:  # NaN lands here too and stays NaN
            return ys[-1] + self._tail_slope * (s - xs[-1])
        j = bisect_right(xs, s) - 1
        if j < 0:
            return ys[0]
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

    Row k is bitwise equal to ``laws[k](s)``.  Monod rows come from one
    array expression over the parameter arrays, with the operations of
    ``Monod._rate`` in the same order, written in place so that at most one
    more matrix (the ``k + s`` denominators) is alive.  Every other law then
    overwrites its own row: tables interpolate per law, and a Hill row needs
    ``np.power`` with its own scalar exponent, as in ``Hill._rate``, since a
    vectorised pow loop may round differently.
    """
    arr = _as_substrate(s)
    flat = arr.reshape(-1)
    is_monod, mu_max, k_half = monod_arrays(laws)
    out = np.multiply(mu_max[:, None], flat)
    np.divide(out, k_half[:, None] + flat, out=out)
    for k, g in enumerate(laws):
        if not is_monod[k]:
            out[k] = g._rate(flat)
    return out.reshape((len(laws),) + arr.shape)


@dataclass(frozen=True)
class BreakEven:
    """Substrate level at which a growth law balances the removal rate.

    ``value`` is a finite positive level, or ``math.inf`` when the law never
    reaches the removal rate below the probe bound.
    """

    value: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def break_even(
    g: GrowthFunction,
    d: float,
    *,
    root_tol: float = 1e-12,
    s_probe_max: float = 1e6,
) -> BreakEven:
    """Solve mu(s) = d by bracketing and bisection.

    The bracket is doubled outward from 1 until mu exceeds d, probing no
    further than ``s_probe_max``; if the law never reaches d below the probe
    bound the result is the infinite sentinel.  Bisection then narrows the
    bracket to floating-point resolution, which is always at least as tight
    as the relative ``root_tol`` guarantee.

    Raises :class:`ParameterError` for d <= 0 and :class:`ModelError` for
    tabulated laws whose node rates are not strictly increasing.
    """
    if not (isinstance(d, (int, float)) and math.isfinite(d) and d > 0.0):
        raise ParameterError(f"removal rate must be finite and > 0, got {d!r}")
    if not (math.isfinite(s_probe_max) and s_probe_max > 0.0):
        raise ParameterError(f"probe bound must be finite and > 0, got {s_probe_max!r}")
    if not (math.isfinite(root_tol) and root_tol > 0.0):
        raise ParameterError(f"root tolerance must be finite and > 0, got {root_tol!r}")
    if isinstance(g, Table) and not g.nodes_strictly_increasing:
        raise ModelError("table rates are not strictly increasing; bracket is unreliable")

    # Every probe is a finite float >= 0 made here, so the law's array path
    # runs without the domain check of ``g(...)``; it gives the same bits.
    rate = g._rate
    hi = min(1.0, s_probe_max)
    while rate(hi) <= d:
        if hi >= s_probe_max:
            return BreakEven(math.inf)
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
        if hi - lo <= min(root_tol * mid, _BISECT_WIDTH_CAP):
            break
    return BreakEven(0.5 * (lo + hi))


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
    levels agree within the equality tolerance; across packs the levels are
    strictly increasing.  Species whose level is infinite share one final
    pack.
    """

    records: tuple[SpeciesRecord, ...]
    permutation: tuple[int, ...]
    packs: tuple[tuple[int, ...], ...]
    eq_tol: float

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def n_packs(self) -> int:
        return len(self.packs)

    def pack_lambda(self, pack_idx: int) -> float:
        return self.records[self.packs[pack_idx][0]].lam

    def pack_growths(self, pack_idx: int) -> tuple[GrowthFunction, ...]:
        return tuple(self.records[k].growth for k in self.packs[pack_idx])

    def pack_ids(self, pack_idx: int) -> tuple[str, ...]:
        return tuple(self.records[k].id for k in self.packs[pack_idx])


def _same_pack(lam_ref: float, lam: float, eq_tol: float) -> bool:
    if math.isinf(lam_ref) and math.isinf(lam):
        return True
    if math.isinf(lam_ref) or math.isinf(lam):
        return False
    return abs(lam - lam_ref) <= eq_tol * max(lam_ref, lam)


def order_species(
    species: Sequence[tuple[str, GrowthFunction]],
    d: float,
    *,
    eq_tol: float = 1e-9,
    root_tol: float = 1e-12,
    s_probe_max: float = 1e6,
) -> OrderedSpecies:
    """Compute break-even levels, sort ascending, and pack near-equal levels.

    The sort is stable, so species that tie keep their input order inside a
    pack.  Infinite levels sort last and form a single pack.
    """
    lams = [
        break_even(g, d, root_tol=root_tol, s_probe_max=s_probe_max).value
        for _, g in species
    ]
    return pack_species(species, lams, eq_tol=eq_tol)


def pack_species(
    species: Sequence[tuple[str, GrowthFunction]],
    lams: Sequence[float],
    *,
    eq_tol: float = 1e-9,
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
        if _same_pack(records[current[0]].lam, records[pos].lam, eq_tol):
            current.append(pos)
        else:
            packs.append(tuple(current))
            current = [pos]
    packs.append(tuple(current))

    return OrderedSpecies(
        records=records,
        permutation=tuple(order),
        packs=tuple(packs),
        eq_tol=eq_tol,
    )


@dataclass(frozen=True)
class GrowthValidation:
    """Grid report of growth-law assumption checks.

    ``zero_value`` is mu(0); ``monotone_violations`` lists grid segments
    (s_lo, s_hi, mu_lo, mu_hi) on which the law failed to increase strictly.
    Violations are data, not exceptions.
    """

    zero_value: float
    monotone_violations: tuple[tuple[float, float, float, float], ...]

    @property
    def zero_ok(self) -> bool:
        return self.zero_value == 0.0

    @property
    def ok(self) -> bool:
        return self.zero_ok and not self.monotone_violations


def validate_growth(g: GrowthFunction, s_max: float, grid_n: int) -> GrowthValidation:
    """Check mu(0) = 0 and strict increase on a uniform grid of grid_n+1 points."""
    if not (math.isfinite(s_max) and s_max > 0.0):
        raise ParameterError(f"s_max must be finite and > 0, got {s_max!r}")
    if grid_n < 2:
        raise ParameterError(f"grid_n must be >= 2, got {grid_n!r}")
    grid = np.linspace(0.0, s_max, grid_n + 1)
    mu = g(grid)
    violations = []
    for j in range(grid_n):
        if not mu[j + 1] > mu[j]:
            violations.append((float(grid[j]), float(grid[j + 1]), float(mu[j]), float(mu[j + 1])))
    return GrowthValidation(
        zero_value=float(mu[0]),
        monotone_violations=tuple(violations),
    )
