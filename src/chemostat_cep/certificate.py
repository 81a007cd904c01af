"""Separation margins, domination gaps, and dilution bounds.

For species ordered by break-even level, consecutive packs are separated by
widened substrate intervals on which the faster pack strictly dominates every
slower one.  This module constructs explicit constants witnessing that
picture: per-boundary margins (s_i_minus, s_i_plus), a uniform domination gap
nu, the rate gaps gamma_minus / gamma_plus at the outermost margins, the
widened dilution bounds (d_minus, d_plus), and the nested absorbing intervals
[s_1_minus, s_i_plus].

Every law increases (the paper's hypothesis), so on a margin grid cell
[s_k, s_k+1] pack i's slowest rate at s_k less the fastest higher rate at
s_k+1 bounds the domination gap on the whole cell; nu, the smallest such
bound over every boundary, is proved on the margins, not sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ParameterError, WashoutError
from .growth import Hill, Monod, OrderedSpecies, Table, monod_arrays, rate_matrix, rate_rows

GRID_N = 2048  # grid intervals per margin interval

_DELTA_MIN_REL = 1e-9  # extension floor relative to the smallest break-even level

# Slack on a comparison of two computed rates (row selection, cell bounds):
# far above the few-ulp error of a Monod, Hill (``np.power``) or table rate.
_ROUNDING_ALLOWANCE = (1.0 - 1e-12) ** 2


@dataclass(frozen=True)
class PackSummary:
    """One pack of species sharing a break-even level (inf for unreachable)."""

    ids: tuple[str, ...]
    lam: float


@dataclass(frozen=True)
class Boundary:
    """Margins around the gap between pack i and pack i+1.

    ``lam_upper_eff`` is the upper break-even level actually used; it is the
    overshoot cap instead of the true level when the latter is infinite or
    beyond the cap (``capped`` marks that substitution).
    """

    s_minus: float
    s_plus: float
    lam_lower: float
    lam_upper_eff: float
    capped: bool
    delta: float
    gap_min: float


@dataclass(frozen=True)
class Certificate:
    """Constructive constants certifying the competition's outcome.

    A degenerate certificate (fewer than two packs with finite break-even
    level) carries the pack summary and notes but no margins; its ``nu`` and
    rate bounds are None.
    """

    d: float
    s_in: float
    packs: tuple[PackSummary, ...]
    boundaries: tuple[Boundary, ...]
    nu: float | None
    gamma_minus: float | None
    gamma_plus: float | None
    d_minus: float | None
    d_plus: float | None
    gamma_plus_skipped: tuple[int, ...]
    notes: tuple[str, ...]

    @property
    def degenerate(self) -> bool:
        return self.nu is None

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        if not self.boundaries:
            return ()
        left = self.boundaries[0].s_minus
        return tuple((left, b.s_plus) for b in self.boundaries)

    def to_text(self) -> str:
        """Key: value report, one line per quantity."""
        lines = [
            f"status: {'degenerate' if self.degenerate else 'ok'}",
            f"d: {self.d:.17g}",
            f"s_in: {self.s_in:.17g}",
            f"packs: {len(self.packs)}",
        ]
        for i, p in enumerate(self.packs, start=1):
            lam = "inf" if math.isinf(p.lam) else f"{p.lam:.17g}"
            lines.append(f"pack_{i}: lambda={lam} ids={','.join(p.ids)}")
        for i, b in enumerate(self.boundaries, start=1):
            lines.append(
                f"boundary_{i}: s_minus={b.s_minus:.17g} s_plus={b.s_plus:.17g} "
                f"gap_min={b.gap_min:.17g} capped={str(b.capped).lower()}"
            )
        if not self.degenerate:
            lines += [
                f"nu: {self.nu:.17g}",
                f"gamma_minus: {self.gamma_minus:.17g}",
                f"gamma_plus: {self.gamma_plus:.17g}",
                f"d_minus: {self.d_minus:.17g}",
                f"d_plus: {self.d_plus:.17g}",
            ]
            for i, iv in enumerate(self.intervals, start=1):
                lines.append(f"interval_{i}: [{iv[0]:.17g}, {iv[1]:.17g}]")
        if self.gamma_plus_skipped:
            skipped = ",".join(str(i + 1) for i in self.gamma_plus_skipped)
            lines.append(f"gamma_plus_skipped_packs: {skipped}")
        lines.append(f"grid_n: {GRID_N}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-safe summary (infinite levels rendered as the string 'inf')."""

        def num(v):
            if v is None:
                return None
            return "inf" if math.isinf(v) else v

        return {
            "status": "degenerate" if self.degenerate else "ok",
            "d": self.d,
            "s_in": self.s_in,
            "packs": [{"ids": list(p.ids), "lambda": num(p.lam)} for p in self.packs],
            "boundaries": [
                {
                    "s_minus": b.s_minus,
                    "s_plus": b.s_plus,
                    "gap_min": b.gap_min,
                    "capped": b.capped,
                }
                for b in self.boundaries
            ],
            "nu": self.nu,
            "gamma_minus": self.gamma_minus,
            "gamma_plus": self.gamma_plus,
            "d_minus": self.d_minus,
            "d_plus": self.d_plus,
            "gamma_plus_skipped_packs": [i + 1 for i in self.gamma_plus_skipped],
            "intervals": [list(iv) for iv in self.intervals],
            "grid_n": GRID_N,
            "notes": list(self.notes),
        }


def _gap_rows(ordered: OrderedSpecies, i: int, rows: np.ndarray | None = None) -> tuple:
    """The laws the margin grids of boundary i evaluate, ready for ``_pack_gap``.

    Returns (laws, count, monod): pack i's laws followed by the slower-pack
    laws at the record positions ``rows`` (all of them for ``None``), how
    many of them are pack i's, and their ``monod_arrays``.  Leaving out rows
    that cannot set the maximum (``_envelope_rows``) gives the same gap
    bitwise.
    """
    first = ordered.packs[i][0]
    split = ordered.packs[i + 1][0]
    if rows is None:
        rows = range(split, ordered.n)
    laws = [rec.growth for rec in ordered.records[first:split]]
    laws += [ordered.records[k].growth for k in rows]
    return laws, split - first, monod_arrays(laws)


def _pack_gap(gap_rows: tuple, s_grid: np.ndarray) -> np.ndarray:
    """Lower bounds of the domination gap of pack i over all packs above it, per grid cell.

    ``gap_rows`` is ``_gap_rows(ordered, i, rows)``, and ``s_grid`` a 1-D
    grid of finite levels > 0 (a ``linspace`` between two margins), which
    is not validated again.  Pack-wise means the slowest member of pack i
    (row minimum f) against the fastest member of any higher pack (row
    maximum g), so a positive bound certifies every member pair.  With
    increasing laws, f(s_k) - g(s_k+1) bounds the gap on [s_k, s_k+1];
    f is lowered by ``_ROUNDING_ALLOWANCE`` for the rounding of both rates.
    """
    laws, count, monod = gap_rows
    rates = rate_rows(laws, monod, s_grid)
    return np.min(rates[:count, :-1], axis=0) * _ROUNDING_ALLOWANCE - np.max(rates[count:, 1:], axis=0)


def overshoot_cap(lam_lower: float, s_in: float) -> float:
    """Upper margin stand-in when the next break-even level is out of reach."""
    return max(2.0 * s_in, 2.0 * lam_lower)


def _boundary_levels(ordered: OrderedSpecies, i: int, s_in: float) -> tuple[float, float, bool]:
    """Lower level, effective upper level, and whether the cap replaced the latter."""
    lam_lo = ordered.pack_lambda(i)
    lam_hi = ordered.pack_lambda(i + 1)
    cap = overshoot_cap(lam_lo, s_in)
    capped = not math.isfinite(lam_hi) or lam_hi > cap
    return lam_lo, (cap if capped else lam_hi), capped


def _margins(lam_lo: float, lam_hi_eff: float, delta: float) -> tuple[float, float]:
    """Margins at extension delta, before the nesting limit is applied."""
    return lam_lo - min(delta, 0.5 * lam_lo), lam_hi_eff + delta


def _envelope_rows(ordered: OrderedSpecies, s_in: float) -> list[np.ndarray]:
    """Per boundary, the slower-pack record positions that can set the maximum.

    Every margin grid of boundary i lies in its widest interval [L, R], the
    margins at the starting extension: the shrink loop and the nesting
    limit only move them inward.  Let M be the largest rate at L among the
    slower laws of the built-in types, which their constructors make
    increasing.  Such a law whose rate at R is below M (with a rounding
    allowance) lies below the law attaining M at every grid point, so it
    never sets the maximum of the slower rows and is left out.  Every other
    law (a ``GrowthFunction`` subclass of the caller's), the one attaining M,
    and any row whose comparison is NaN are kept.  All ends come from one
    ``rate_matrix`` call.
    """
    n_bounds = ordered.n_packs - 1
    ends, steps = [], []
    for i in range(n_bounds):
        lam_lo, lam_hi_eff, _ = _boundary_levels(ordered, i, s_in)
        ends += _margins(lam_lo, lam_hi_eff, 0.5 * (lam_hi_eff - lam_lo))
        steps.append((lam_hi_eff - lam_lo) / GRID_N)  # no grid step is smaller
    laws = [rec.growth for rec in ordered.records]
    rates = rate_matrix(laws, ends)  # column 2i is L, column 2i + 1 is R
    # (record, boundary) masks: the record is in a slower pack, and its law
    # is of a built-in type, increasing by construction.
    splits = [ordered.packs[i + 1][0] for i in range(n_bounds)]
    slower = np.arange(ordered.n)[:, None] >= np.array(splits)
    monotone = np.array([type(g) in (Monod, Hill, Table) for g in laws])[:, None]
    left = np.where(slower & monotone, rates[:, 0::2], -np.inf)
    cols = np.arange(n_bounds)
    top = np.argmax(left, axis=0)  # the first NaN, if any
    bound = left[top, cols] * _ROUNDING_ALLOWANCE
    # A subnormal (or zero) M has no relative rounding bound: keep every row.
    below = (rates[:, 1::2] < bound) & (bound >= np.finfo(float).tiny)
    # A linspace point can round past R only when the step is a few ulps of R.
    below &= np.array(steps) > 2.0**-40 * np.array(ends[1::2])
    keep = slower & ~(monotone & below)
    keep[top, cols] |= slower[top, cols]
    return [np.flatnonzero(k) for k in keep.T]


def separation_margins(
    ordered: OrderedSpecies,
    i: int,
    s_in: float,
    *,
    s_plus_limit: float | None = None,
    rows: np.ndarray | None = None,
) -> Boundary:
    """Margins (s_i_minus, s_i_plus) around the boundary between packs i, i+1.

    Starting from symmetric extensions of half the level gap, the extension
    halves until every cell bound (``_pack_gap``) of pack i's domination gap
    over all higher packs is positive on [s_i_minus, s_i_plus].  The lower
    margin never crosses zero and the upper one stays below ``s_plus_limit``
    when given (used to keep absorbing intervals nested).  ``rows`` selects
    the slower-pack records the grids evaluate, as in :func:`_gap_rows`,
    whose laws are prepared once for every grid.

    Raises :class:`CertificateError` when no positive-gap extension exists
    down to the floor, which means the ordering data contradicts the growth
    laws.
    """
    if not 0 <= i < ordered.n_packs - 1:
        raise ParameterError(f"boundary index {i} out of range")
    lam_lo, lam_hi_eff, capped = _boundary_levels(ordered, i, s_in)
    if not lam_hi_eff > lam_lo:
        raise CertificateError(
            f"effective upper level {lam_hi_eff:g} does not exceed lower level {lam_lo:g}"
        )

    delta = 0.5 * (lam_hi_eff - lam_lo)
    delta_min = _DELTA_MIN_REL * ordered.pack_lambda(0)
    gap_rows = _gap_rows(ordered, i, rows)
    while True:
        s_minus, s_plus = _margins(lam_lo, lam_hi_eff, delta)
        if s_plus_limit is not None and s_plus >= s_plus_limit:
            s_plus = lam_hi_eff + 0.5 * (s_plus_limit - lam_hi_eff)
        grid = np.linspace(s_minus, s_plus, GRID_N + 1)
        gap_min = float(np.min(_pack_gap(gap_rows, grid)))
        if gap_min > 0.0:
            return Boundary(
                s_minus=s_minus,
                s_plus=s_plus,
                lam_lower=lam_lo,
                lam_upper_eff=lam_hi_eff,
                capped=capped,
                delta=delta,
                gap_min=gap_min,
            )
        if delta <= delta_min:
            raise CertificateError(
                f"no positive domination gap around boundary {i + 1} down to "
                f"extension {delta_min:g}; growth curves touch between levels "
                f"{lam_lo:g} and {lam_hi_eff:g}, contradicting the strict ordering"
            )
        delta *= 0.5


def gamma_bounds(
    ordered: OrderedSpecies,
    margins: tuple[tuple[float, float], ...],
    d: float,
) -> tuple[float, float, tuple[int, ...]]:
    """Rate gaps at the outermost margins.

    gamma_minus is the shortfall of the fastest first-pack law below the
    removal rate at the leftmost margin.  gamma_plus is the smallest excess
    over the removal rate of any lower-pack law at the margin below each
    higher pack; packs with an unreachable break-even level are skipped
    there (their indices are reported, not silently dropped).
    """
    if len(margins) != ordered.n_packs - 1:
        raise ParameterError("one margin pair per boundary is required")
    # Every law at the leftmost margin (column 0) and at the upper margin
    # below each higher pack (column i), in one matrix evaluation.
    s_points = [margins[0][0]] + [s_plus for _, s_plus in margins]
    rates = rate_matrix([rec.growth for rec in ordered.records], s_points)
    s1_minus = margins[0][0]
    mu1 = float(np.max(rates[: len(ordered.packs[0]), 0]))
    gamma_minus = d - mu1
    if gamma_minus <= 0.0:
        raise CertificateError(
            f"first pack already grows at rate {mu1:g} >= removal rate at s={s1_minus:g}"
        )

    # Column c of ``excess`` holds every law at the upper margin below pack
    # index c + 1, and ``lower`` keeps the records of the packs below that
    # pack (none for a skipped pack): one masked minimum over them all.
    higher = range(1, ordered.n_packs)
    skipped = tuple(i for i in higher if not math.isfinite(ordered.pack_lambda(i)))
    split = [0 if i in skipped else ordered.packs[i][0] for i in higher]
    lower = np.arange(ordered.n)[:, None] < np.array(split)
    excess = rates[:, 1:] - d
    gamma_plus = float(np.min(excess, where=lower, initial=math.inf))
    if gamma_plus <= 0.0:
        short = lower & (excess <= 0.0)
        c = int(np.argmax(short.any(axis=0)))
        k = int(np.argmax(short[:, c]))
        j = next(j for j, pack in enumerate(ordered.packs) if k <= pack[-1])
        raise CertificateError(
            f"pack {j + 1} does not outgrow the removal rate at "
            f"s={margins[c][1]:g} (needed below pack {c + 2})"
        )
    if not math.isfinite(gamma_plus):
        raise CertificateError("no finite pack above the first; gamma_plus undefined")
    return gamma_minus, gamma_plus, skipped


def dilution_bounds(gamma_minus: float, gamma_plus: float, d: float) -> tuple[float, float]:
    """Widened removal-rate bounds d -/+ half the respective rate gap."""
    if not gamma_minus > 0.0 or not gamma_plus > 0.0:
        raise ParameterError("rate gaps must be positive")
    return d - 0.5 * gamma_minus, d + 0.5 * gamma_plus


def build_certificate(
    ordered: OrderedSpecies,
    d: float,
    s_in: float,
) -> Certificate:
    """Assemble the full certificate for an ordered species list.

    Raises :class:`WashoutError` when the smallest break-even level is not
    below the inflow concentration (no certificate exists; simulation is
    still meaningful).  Returns a degenerate certificate when fewer than two
    packs have finite break-even levels.
    """
    packs = tuple(
        PackSummary(ids=ordered.pack_ids(i), lam=ordered.pack_lambda(i))
        for i in range(ordered.n_packs)
    )
    lam1 = ordered.pack_lambda(0)
    if not lam1 < s_in:
        raise WashoutError(lam1, s_in)

    notes = []
    for i, p in enumerate(packs):
        if len(p.ids) > 1:
            notes.append(
                f"pack {i + 1} groups {len(p.ids)} species with equal break-even "
                f"levels ({','.join(p.ids)}); only their combined biomass is resolved"
            )

    n_finite = sum(1 for p in packs if math.isfinite(p.lam))
    if n_finite < 2:
        notes.append(
            "degenerate: fewer than two packs with finite break-even levels; "
            "no separation margins to certify"
        )
        return Certificate(
            d=d,
            s_in=s_in,
            packs=packs,
            boundaries=(),
            nu=None,
            gamma_minus=None,
            gamma_plus=None,
            d_minus=None,
            d_plus=None,
            gamma_plus_skipped=(),
            notes=tuple(notes),
        )

    # Build margins from the top boundary down, limiting each upper margin by
    # the one above so the absorbing intervals come out nested.
    # Each grid evaluates only the slower laws that can set its maximum.
    boundaries: list[Boundary] = [None] * (ordered.n_packs - 1)  # type: ignore[list-item]
    rows = _envelope_rows(ordered, s_in)
    limit = None
    for i in range(ordered.n_packs - 2, -1, -1):
        b = separation_margins(ordered, i, s_in, s_plus_limit=limit, rows=rows[i])
        boundaries[i] = b
        limit = b.s_plus
        if b.capped:
            notes.append(
                f"boundary {i + 1}: upper break-even level unreachable, used "
                f"overshoot cap {b.lam_upper_eff:g}"
            )

    margins = tuple((b.s_minus, b.s_plus) for b in boundaries)
    # Each gap_min is the smallest cell bound on the boundary's final margin
    # grid, so no grid is evaluated a second time for nu.
    nu = min(b.gap_min for b in boundaries)
    gamma_minus, gamma_plus, skipped = gamma_bounds(ordered, margins, d)
    d_minus, d_plus = dilution_bounds(gamma_minus, gamma_plus, d)
    if not 0.0 < d_minus < d < d_plus:
        raise CertificateError(
            f"dilution bounds ({d_minus:g}, {d_plus:g}) do not straddle {d:g}"
        )
    if skipped:
        notes.append(
            "gamma_plus skipped packs with unreachable break-even levels: "
            + ",".join(str(i + 1) for i in skipped)
        )

    cert = Certificate(
        d=d,
        s_in=s_in,
        packs=packs,
        boundaries=tuple(boundaries),
        nu=nu,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        d_minus=d_minus,
        d_plus=d_plus,
        gamma_plus_skipped=skipped,
        notes=tuple(notes),
    )
    # The self-check's grids are the final margin grids just evaluated, so
    # it reads their minima instead of evaluating them again.
    problems = _certificate_problems(cert, [b.gap_min for b in boundaries])
    if problems:
        raise CertificateError("certificate failed self-check: " + "; ".join(problems))
    return cert


def recheck_certificate(cert: Certificate, ordered: OrderedSpecies) -> list[str]:
    """Re-verify every certificate inequality from the laws.

    Returns a list of violation descriptions (empty when the certificate
    holds).  Every boundary's cell bounds are evaluated afresh with every
    slower law, and the rate gaps and dilution bounds are recomputed, so
    this also checks certificates built elsewhere; ``build_certificate``
    makes the margin checks on its final margin grids.  A finer grid could
    only raise a cell bound, so the grid is the construction's.
    """
    if cert.degenerate:
        return []
    gap_mins = [
        float(np.min(_pack_gap(_gap_rows(ordered, i), np.linspace(b.s_minus, b.s_plus, GRID_N + 1))))
        for i, b in enumerate(cert.boundaries)
    ]
    problems = _certificate_problems(cert, gap_mins)

    # gamma_bounds also checks that every lower-pack law outgrows the removal
    # rate at each higher boundary's upper margin, the chain gamma_plus needs.
    margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
    try:
        gamma_minus, gamma_plus, skipped = gamma_bounds(ordered, margins, cert.d)
    except CertificateError as exc:
        return problems + [str(exc)]
    if abs(gamma_minus - cert.gamma_minus) > 1e-12 * max(1.0, abs(cert.gamma_minus)):
        problems.append("gamma_minus does not match its recomputation")
    if abs(gamma_plus - cert.gamma_plus) > 1e-12 * max(1.0, abs(cert.gamma_plus)):
        problems.append("gamma_plus does not match its recomputation")
    if skipped != cert.gamma_plus_skipped:
        problems.append("gamma_plus pack exclusions do not match")
    d_minus, d_plus = dilution_bounds(gamma_minus, gamma_plus, cert.d)
    if abs(d_minus - cert.d_minus) > 1e-12 or abs(d_plus - cert.d_plus) > 1e-12:
        problems.append("dilution bounds do not match their recomputation")
    if not 0.0 < cert.d_minus < cert.d < cert.d_plus:
        problems.append("dilution bounds do not straddle the removal rate")
    return problems


def _certificate_problems(cert: Certificate, gap_mins: list[float]) -> list[str]:
    """The margin inequalities, given each boundary's smallest cell bound."""
    problems: list[str] = []
    prev_plus = None
    for i, (b, gap_min) in enumerate(zip(cert.boundaries, gap_mins)):
        if not 0.0 < b.s_minus < b.lam_lower:
            problems.append(f"boundary {i + 1}: s_minus {b.s_minus:g} not in (0, lambda)")
        if not b.s_plus > b.lam_upper_eff:
            problems.append(f"boundary {i + 1}: s_plus {b.s_plus:g} not above upper level")
        if prev_plus is not None and not b.s_plus > prev_plus:
            problems.append(f"boundary {i + 1}: absorbing intervals not nested")
        prev_plus = b.s_plus
        if not 0.0 < cert.nu <= gap_min:
            problems.append(f"boundary {i + 1}: nu {cert.nu:g} not in (0, domination gap bound {gap_min:g}]")
    return problems
