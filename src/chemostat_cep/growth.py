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

from .errors import DomainError, ParameterError, require_positive

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
    """Base class of the three growth laws mu(s): Monod, Hill and Table.

    No class outside this module may derive from it, so every law went
    through a constructor that makes it increasing with mu(0) = 0, which
    the certificate and the break-even bisection rely on.  Each law has one
    array path, its row of :func:`rate_rows`, and one scalar path,
    ``_rate_scalar``, which ``_rate_source(i)`` spells out: Python lines
    that set ``mu`` (and may set ``u`` and ``j``) with the same operations
    in the same order and the parameters as ``repr`` literals, which read
    back to the same floats, so the lines give the method's bits; and the
    names they read, each carrying ``i`` apart from ``bisect_right``.
    """

    kind: str = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__module__ != __name__:
            raise TypeError(f"{cls.__qualname__}: growth laws are Monod, Hill and Table only")

    def __call__(self, s):
        """Evaluate mu at substrate level(s) s >= 0 (scalar or array)."""
        out = rate_matrix([self], s)[0]
        return float(out) if np.ndim(s) == 0 else out

    def rate_unchecked(self, s: float) -> float:
        """Scalar fast path without domain validation (integrator hot loop).

        Negative arguments are clamped to zero so that tiny undershoots in
        intermediate integration stages stay inside the law's domain.
        """
        return self._rate_scalar(s if s > 0.0 else 0.0)


@dataclass(frozen=True)
class Monod(GrowthFunction):
    """mu(s) = mu_max * s / (k + s)."""

    mu_max: float
    k: float

    kind = "monod"

    def __post_init__(self):
        require_positive(self, "mu_max", "k")

    def _rate_scalar(self, s: float) -> float:
        return self.mu_max * s / (self.k + s)

    def _rate_source(self, i: int) -> tuple[list[str], dict[str, object]]:
        return [f"mu = {_literal(self.mu_max)} * sc / ({_literal(self.k)} + sc)"], {}


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
        require_positive(self, "mu_max", "k")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ParameterError(f"must be finite and >= 1, got {self.p!r}", field="p")

    def _rate(self, s: np.ndarray) -> np.ndarray:
        u = np.power(np.minimum(s, self.k) / np.maximum(s, self.k), self.p)
        return self.mu_max * np.where(s <= self.k, u, 1.0) / (1.0 + u)

    def _rate_scalar(self, s: float) -> float:
        if s <= self.k:
            u = (s / self.k) ** self.p
            return self.mu_max * u / (1.0 + u)
        return self.mu_max / (1.0 + (self.k / s) ** self.p)

    def _rate_source(self, i: int) -> tuple[list[str], dict[str, object]]:
        mu_max, k, p = _literal(self.mu_max), _literal(self.k), _literal(self.p)
        return [
            f"mu = {mu_max} * (u := (sc / {k}) ** {p}) / (1.0 + u) if sc <= {k}"
            f" else {mu_max} / (1.0 + ({k} / sc) ** {p})"
        ], {}


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
        for i, (a, b) in enumerate(pts):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ParameterError("node must be finite", field=f"points[{i}]")
        if pts and pts[0] != (0.0, 0.0):
            raise ParameterError("first node must be [0, 0], so that mu(0) = 0", field="points[0]")
        for i in range(1, len(pts)):
            if not pts[i][0] > pts[i - 1][0]:
                raise ParameterError("node substrate values must increase strictly", field=f"points[{i}]")
            if not pts[i][1] > pts[i - 1][1]:
                raise ParameterError("node rates must increase strictly", field=f"points[{i}]")
        if len(pts) < 2:
            raise ParameterError("needs at least two nodes", field="points")

    @cached_property
    def _segments(self) -> tuple[list[float], list[float], list[float]]:
        """Node lists and chord slopes, as ``np.interp`` computes them."""
        xs = [a for a, _ in self.points]
        ys = [b for _, b in self.points]
        slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
        return xs, ys, slopes

    @cached_property
    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The node lists as float64 arrays, which ``np.interp`` would make on every call."""
        xs, ys, _ = self._segments
        return np.array(xs), np.array(ys)

    def _rate(self, s: np.ndarray) -> np.ndarray:
        xs, ys, slopes = self._segments
        out = np.interp(s, *self._node_arrays)
        tail = s > xs[-1]
        if np.any(tail):
            out = np.where(tail, ys[-1] + slopes[-1] * (s - xs[-1]), out)
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

    def _rate_source(self, i: int) -> tuple[list[str], dict[str, object]]:
        # The node lists are bound by name, so a long table compiles to the
        # same few lines; so is the tail slope, a chord slope that may have
        # overflowed to inf, which has no literal.
        xs, ys, slopes = self._segments
        x_last, y_last = _literal(xs[-1]), _literal(ys[-1])
        return [
            f"if not sc <= {x_last}:",
            f"    mu = {y_last} + tail_{i} * (sc - {x_last})",
            "else:",
            f"    j = bisect_right(xs_{i}, sc) - 1",
            f"    mu = ys_{i}[j] if sc == xs_{i}[j] else sl_{i}[j] * (sc - xs_{i}[j]) + ys_{i}[j]",
        ], {f"xs_{i}": xs, f"ys_{i}": ys, f"sl_{i}": slopes, f"tail_{i}": slopes[-1], "bisect_right": bisect_right}


def _literal(v: float) -> str:
    """A validated finite parameter as a float literal of the same value."""
    return repr(float(v))


def monod_arrays(laws: Sequence[GrowthFunction]) -> tuple[list[bool], np.ndarray, np.ndarray]:
    """Which laws are Monod, and their ``mu_max`` and ``k`` as arrays.

    Hill and table laws get harmless stand-in parameters 0 and 1, so an
    array evaluation gives 0 * s / (1 + s) in their entries until the
    caller overwrites them with the law's own rate.
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
    rates = rate_rows(laws, arr.reshape(-1))
    return rates.reshape((len(laws),) + arr.shape)


def rate_rows(laws: Sequence[GrowthFunction], s: np.ndarray) -> np.ndarray:
    """Unvalidated rates of ``laws`` on a 1-D float grid ``s`` of finite levels >= 0.

    Monod rows come from one array expression over the parameter arrays of
    ``monod_arrays``, with the operations of ``Monod._rate_scalar`` in the
    same order, written in place so that at most one more matrix (the
    ``k + s`` denominators) is alive.  This is the only array path of a
    Monod law.  Every other law then overwrites its own row with its
    ``_rate``: tables interpolate per law, and a Hill row needs ``np.power``
    with its own scalar exponent, since a vectorised pow loop may round
    differently.
    """
    is_monod, mu_max, k_half = monod_arrays(laws)
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

    Every law is increasing with mu(0) = 0 by construction, so the
    bracket holds one crossing.  Raises :class:`ParameterError` for d <= 0
    or a probe bound that is not finite and > 0.
    """
    if not (isinstance(d, (int, float)) and math.isfinite(d) and d > 0.0):
        raise ParameterError(f"must be finite and > 0, got {d!r}", field="d")
    if not (math.isfinite(s_probe_max) and s_probe_max > 0.0):
        raise ParameterError(f"must be finite and > 0, got {s_probe_max!r}", field="s_probe_max")

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
