"""Trajectory-level verification of the competition's long-run claims.

Each check turns an asymptotic statement into a finite-horizon proxy with an
explicit threshold, measures the relevant quantities on one simulated
trajectory, and records pass/fail together with what was measured.  A report
aggregates the applicable claims; its overall verdict is their conjunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .certificate import Certificate, build_certificate
from .dynamics import ChemostatParams, State, predicted_limit
from .errors import CertificateError, ChemostatError, WashoutError
from .growth import GrowthFunction, OrderedSpecies, order_species, pack_species, rate_matrix
from .integrate import (
    Trajectory,
    _B_ZERO,
    first_persistent_entry,  # noqa: F401  (perfbench/tracing.py patches this name here)
    persistent_entries,
    scan_persistent_entry,
    simulate,
)

if TYPE_CHECKING:  # scenario hashes the thresholds below, so it imports this module
    from .scenario import Scenario

# Claim thresholds of run_report.
EPS_MASS = 1e-6  # mass-relaxation band
EPS_WASHOUT = 1e-4  # final density of a washed-out species
EPS_FLOOR = 1e-3  # biomass floor after the burn-in
EPS_P = 1e-4  # final proportion of every losing pack
EPS_FINAL = 1e-3  # final-state error

_RATIO_FLOOR = 1e-300  # discard ratio samples below this before taking logs
_MIN_FIT_SAMPLES = 8


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim: measured quantities against their thresholds."""

    claim_id: str
    applicable: bool
    passed: bool
    measured: dict
    thresholds: dict
    detail: str = ""


def _not_applicable(claim_id: str, detail: str) -> ClaimResult:
    return ClaimResult(claim_id, False, True, {}, {}, detail)


@dataclass(frozen=True)
class VerificationReport:
    """All claim results for one scenario plus the certificate summary."""

    scenario_digest: str
    certificate: dict | None
    claims: tuple[ClaimResult, ...]
    overall_pass: bool

    def to_dict(self) -> dict:
        return {
            "scenario_digest": self.scenario_digest,
            "certificate": self.certificate,
            "claims": [
                {
                    "id": c.claim_id,
                    "applicable": c.applicable,
                    "pass": c.passed,
                    "measured": _json_safe(c.measured),
                    "thresholds": _json_safe(c.thresholds),
                    "detail": c.detail,
                }
                for c in self.claims
            ],
            "overall_pass": self.overall_pass,
        }

    def to_text(self) -> str:
        width = max((len(c.claim_id) for c in self.claims), default=10)
        lines = [f"{'claim'.ljust(width)}  status  detail"]
        for c in self.claims:
            status = "n/a " if not c.applicable else ("PASS" if c.passed else "FAIL")
            shown = c.detail
            if not shown and c.measured:
                shown = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(c.measured.items()))
            lines.append(f"{c.claim_id.ljust(width)}  {status}    {shown}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _json_safe(d: Mapping) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, float):
            if math.isinf(v):
                v = "inf" if v > 0 else "-inf"
            elif math.isnan(v):
                v = "nan"
        out[k] = v
    return out


def fit_log_decay(
    t: np.ndarray, v: np.ndarray
) -> tuple[float | None, int] | tuple[list[float | None], np.ndarray]:
    """Least-squares slope of log v over t, skipping sub-floor samples.

    For 1-D ``v`` returns (slope, samples used); slope is None when too few
    samples remain to support a line.  For 2-D ``v`` (samples x columns)
    every column is fitted on its own usable samples, in one pass, and the
    result is (list of slopes or None, array of samples used).  This is the
    single-tail case of ``fit_log_decay_tails``, on a copy of ``v``.
    """
    one = np.ndim(v) == 1
    buf = np.array(v, dtype=float)
    slopes, n = fit_log_decay_tails(t, buf[:, None] if one else buf, [0])[0]
    if one:
        return slopes[0], int(n[0])
    return slopes, n


def fit_log_decay_tails(
    t: np.ndarray,
    v: np.ndarray,
    starts: Sequence[int | None],
) -> list[tuple[list[float | None], np.ndarray] | None]:
    """Decay slopes of every column of ``v`` on the tail from every start.

    Returns, per start, what 2-D ``fit_log_decay`` returns on
    ``t[start:], v[start:]``, and None for a None start.  ``v`` (samples x
    columns, float) is the work buffer: its rows from the first start on are
    overwritten.

    Those rows are cut at every start into segments.  Each segment gives,
    per column and over the column's usable samples, the count, the means of
    t and log v, and the centred sums S_tt and S_ty.  Merging the segments
    from the end with the pairwise update of Chan, Golub and LeVeque gives
    every tail's sums in one pass over the samples, and the slope is
    S_ty / S_tt.  Raw sums of t*y over long tails are not used: they cancel
    badly on short tails at the end of long horizons.
    """
    t = np.asarray(t, dtype=float)
    cuts = sorted({s for s in starts if s is not None})
    if not cuts:
        return [None] * len(starts)
    block = v[cuts[0]:]
    mask = np.isfinite(block)
    mask &= block > _RATIO_FLOOR
    np.log(block, out=block, where=mask)
    # Measure times and logs from the last sample and each column's last
    # usable log, so a mean's rounding scales with how far its rows lie
    # from the end, as in a two-pass fit of a short final tail.
    if block.shape[0]:
        last = block.shape[0] - 1 - np.argmax(mask[::-1], axis=0)
        np.subtract(block, block[last, np.arange(block.shape[1])], out=block, where=mask)
        t = t - t[-1]
    block[~mask] = 0.0

    tails = {}
    acc = None
    bounds = cuts + [t.size]
    for a, b in reversed(list(zip(bounds[:-1], bounds[1:]))):
        seg = _segment_moments(t[a:b], v[a:b], mask[a - cuts[0] : b - cuts[0]])
        acc = seg if acc is None else _merge_moments(seg, acc)
        tails[a] = acc

    out: list[tuple[list[float | None], np.ndarray] | None] = []
    for start in starts:
        if start is None:
            out.append(None)
            continue
        n, _, _, s_tt, s_ty = tails[start]
        slopes: list[float | None] = [None] * n.size
        for j in np.flatnonzero(n >= _MIN_FIT_SAMPLES):
            slopes[j] = float(s_ty[j] / s_tt[j])
        out.append((slopes, n))
    return out


def _segment_moments(t: np.ndarray, y: np.ndarray, mask: np.ndarray) -> tuple:
    """(count, mean t, mean y, S_tt, S_ty) of each column over its masked rows.

    ``y`` is zero outside the mask and is centred in place.  Columns with no
    usable row get zero means, so merging them changes nothing.
    """
    n = np.count_nonzero(mask, axis=0)
    if t.size == 0:
        zero = np.zeros(n.size)
        return n, zero, zero, zero, zero
    w = mask.astype(float)
    n1 = np.maximum(n, 1)
    c = np.mean(t)
    t0 = t - c
    t_bar = (t0 @ w) / n1
    s_tt = (t0 * t0) @ w - n * t_bar * t_bar
    y_bar = y.sum(axis=0) / n1
    y -= y_bar
    y *= w
    s_ty = t0 @ y - t_bar * y.sum(axis=0)
    return n, (c + t_bar) * (n > 0), y_bar, s_tt, s_ty


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Moments of the union of two disjoint row sets (Chan et al.)."""
    n_a, t_a, y_a, tt_a, ty_a = a
    n_b, t_b, y_b, tt_b, ty_b = b
    n = n_a + n_b
    w_b = n_b / np.maximum(n, 1)
    d_t = t_b - t_a
    d_y = y_b - y_a
    cross = n_a * w_b
    return (
        n,
        t_a + d_t * w_b,
        y_a + d_y * w_b,
        tt_a + tt_b + d_t * d_t * cross,
        ty_a + ty_b + d_t * d_y * cross,
    )


def check_mass_convergence(
    traj: Trajectory, params: ChemostatParams, eps: float
) -> ClaimResult:
    """Total mass reaches and keeps an eps-band around s_in.

    The entry time is predicted from the exact exponential relaxation of the
    mass balance and compared against the trajectory's persistent entry into
    the band; every sample past the predicted time must sit inside the band.
    """
    t = traj.times
    m = traj.channels.m
    dev0 = abs(float(m[0]) - params.s_in)
    t_pred = math.log(dev0 / eps) / params.d if dev0 > eps else 0.0

    after = t >= t_pred - 1e-12
    if not np.any(after):
        return ClaimResult(
            "mass_convergence",
            True,
            False,
            {"predicted_entry": t_pred, "horizon": traj.horizon},
            {"eps": eps},
            "predicted entry time lies beyond the horizon",
        )
    resid = float(np.max(np.abs(m[after] - params.s_in)))

    inside = np.abs(m - params.s_in) <= eps
    entry_idx, _ = scan_persistent_entry(inside)
    empirical = float(t[entry_idx]) if entry_idx is not None else None
    time_tol = max(0.05 * t_pred, 2.0 * traj.meta.dense_dt)
    ok_time = empirical is not None and abs(empirical - t_pred) <= time_tol
    passed = resid <= eps and ok_time
    return ClaimResult(
        "mass_convergence",
        True,
        passed,
        {
            "initial_mass": float(m[0]),
            "predicted_entry": t_pred,
            "empirical_entry": empirical,
            "max_residual_after_entry": resid,
        },
        {"eps": eps, "entry_time_tol": time_tol},
    )


def check_washout_species(
    traj: Trajectory, ordered: OrderedSpecies, s_in: float, eps: float
) -> ClaimResult:
    """Species whose break-even level is at or above s_in die out.

    Each such density must end below eps and be non-increasing (within
    integrator noise) over the final tenth of the samples.
    """
    targets = [
        (rec.id, ordered.permutation[pos])
        for pos, rec in enumerate(ordered.records)
        if rec.lam >= s_in
    ]
    if not targets:
        return _not_applicable("washout_extinction", "no species with break-even level >= s_in")

    tail_start = int(0.9 * (traj.times.size - 1))
    abs_tol = traj.meta.abs_tol
    worst_final = 0.0
    worst_increase = 0.0
    monotone_ok = True
    for _, orig in targets:
        xj = traj.states[:, 1 + orig]
        worst_final = max(worst_final, float(xj[-1]))
        tail = xj[tail_start:]
        increase = np.diff(tail) - (1e-6 * tail[:-1] + abs_tol)
        if increase.size and float(np.max(increase)) > 0.0:
            monotone_ok = False
            worst_increase = max(worst_increase, float(np.max(np.diff(tail))))
    passed = worst_final < eps and monotone_ok
    return ClaimResult(
        "washout_extinction",
        True,
        passed,
        {
            "species": len(targets),
            "worst_final_density": worst_final,
            "worst_tail_increase": worst_increase,
        },
        {"eps": eps},
    )


def check_biomass_floor(
    traj: Trajectory,
    ordered: OrderedSpecies,
    params: ChemostatParams,
    eps_floor: float,
) -> ClaimResult:
    """Total biomass stays above a positive floor after a burn-in.

    Applicable only when some initially present species has a break-even
    level below s_in; the burn-in is the first tenth of the horizon.
    """
    x0 = traj.states[0, 1:]
    viable = any(
        x0[ordered.permutation[pos]] > 0.0 and rec.lam < params.s_in
        for pos, rec in enumerate(ordered.records)
    )
    if not viable:
        return _not_applicable(
            "biomass_floor", "no initially present species can grow at s_in"
        )
    t_burn = 0.1 * traj.horizon
    after = traj.times >= t_burn
    floor = float(np.min(traj.channels.b[after]))
    return ClaimResult(
        "biomass_floor",
        True,
        floor >= eps_floor,
        {"floor": floor, "burn_in": t_burn},
        {"eps_floor": eps_floor},
    )


def check_substrate_frame(
    traj: Trajectory,
    cert: Certificate,
    growths: Sequence[GrowthFunction],
    params: ChemostatParams,
) -> ClaimResult:
    """Substrate derivative is framed by the widened dilution bounds.

    First locates the time from which d*(s_in - s)/b stays inside
    [d_minus, d_plus]; past that time every sampled derivative must lie
    between the frame rails, up to a slack covering integration accuracy.
    """
    if cert.degenerate:
        return _not_applicable("substrate_frame", "degenerate certificate")
    t = traj.times
    s = traj.states[:, 0]
    b = traj.channels.b
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = np.where(b >= _B_ZERO, params.d * (params.s_in - s) / b, np.nan)
    inside = np.isfinite(dz) & (dz >= cert.d_minus) & (dz <= cert.d_plus)
    entry_idx, _ = scan_persistent_entry(inside)
    if entry_idx is None:
        half = t.size // 2
        tail = dz[half:][np.isfinite(dz[half:])]
        rng = (float(np.min(tail)), float(np.max(tail))) if tail.size else (math.nan, math.nan)
        return ClaimResult(
            "substrate_frame",
            True,
            False,
            {"dz_late_min": rng[0], "dz_late_max": rng[1]},
            {"d_minus": cert.d_minus, "d_plus": cert.d_plus},
            "frame never established before the horizon",
        )

    T = float(t[entry_idx])
    sl = slice(entry_idx, None)
    x = traj.states[sl, 1:]
    s_a = s[sl]
    b_a = b[sl]
    # C order, as a column stack of the rows, keeps einsum's summation order
    mu = np.ascontiguousarray(rate_matrix(growths, s_a).T)
    mubar = np.einsum("ij,ij->i", traj.channels.p[sl], mu)
    sdot = params.d * (params.s_in - s_a) - np.einsum("ij,ij->i", mu, x)
    phi_lo = (cert.d_minus - mubar) * b_a
    phi_hi = (cert.d_plus - mubar) * b_a
    slack = 100.0 * traj.meta.rel_tol * (1.0 + params.s_in) * (1.0 + params.d)
    low_gap = phi_lo - sdot - slack
    high_gap = sdot - phi_hi - slack
    violations = int(np.count_nonzero(low_gap > 0.0) + np.count_nonzero(high_gap > 0.0))
    worst = max(float(np.max(low_gap)), float(np.max(high_gap)), 0.0)
    return ClaimResult(
        "substrate_frame",
        True,
        violations == 0,
        {"frame_time": T, "violations": violations, "worst_violation": worst},
        {"d_minus": cert.d_minus, "d_plus": cert.d_plus, "slack": slack},
    )


def check_induction_properties(
    traj: Trajectory,
    cert: Certificate,
    id_to_column: Mapping[str, int],
    eps_p: float,
) -> list[ClaimResult]:
    """Per-stage absorbing-interval entries and ratio decay.

    Stage i requires the substrate to enter the i-th absorbing interval for
    good, no earlier than the next (wider) stage's entry, and every pack
    above i to decay: the log of its summed density ratio against the lead
    species must fall at least at rate nu less a slack of 0.1 nu, and its
    final proportion must end below eps_p.

    Stage i measures its entry, the slope and final proportion of pack
    i + 1 (the pack it newly excludes), and the governing values over every
    pack above i: ``slope_max`` and ``p_final_max`` with their packs (see
    ``_governing``).  Slopes are None without an entry.  So a stage reports
    eight values, and each pack's final proportion appears in one stage.
    """
    if cert.degenerate:
        return [_not_applicable("exclusion_stage_1", "degenerate certificate")]
    nu = cert.nu
    slope_threshold = -nu + 0.1 * nu

    entries = persistent_entries(traj, cert.intervals)
    ref_col = id_to_column[cert.packs[0].ids[0]]
    x_ref = traj.states[:, ref_col]
    t = traj.times
    order_slack = 2e-9 * traj.horizon

    # Column j - 1 holds pack j's summed density over the lead species, for
    # every pack above the first; each stage fits the tail from its entry.
    cols = [[id_to_column[sid] for sid in pack.ids] for pack in cert.packs[1:]]
    ratios = np.empty((t.size, len(cols)))
    for c, pack_cols in enumerate(cols):
        ratios[:, c] = traj.states[:, pack_cols].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratios, x_ref[:, None], out=ratios)
    ratios[x_ref <= 0.0] = np.nan
    p_final_by_pack = [
        float(np.sum(traj.channels.p[-1, [c - 1 for c in pack_cols]])) for pack_cols in cols
    ]

    starts = [
        None if rec.entry_time is None else int(np.searchsorted(t, rec.entry_time, side="left"))
        for rec in entries
    ]
    fits = fit_log_decay_tails(t, ratios, starts)

    results = []
    for i, rec in enumerate(entries):
        measured: dict = {
            "entry_time": rec.entry_time,
            "excursions": rec.excursions,
        }
        details = []
        ok = rec.entry_time is not None
        if not ok:
            details.append("no persistent entry into the absorbing interval")
        if i + 1 < len(entries) and rec.entry_time is not None:
            nxt = entries[i + 1].entry_time
            if nxt is not None and rec.entry_time < nxt - order_slack:
                ok = False
                details.append("entered the smaller interval earlier than the larger one")

        slopes = [None] * (len(cols) - i) if fits[i] is None else fits[i][0][i:]
        p_finals = p_final_by_pack[i:]
        measured[f"slope_pack_{i + 2}"] = slopes[0]
        measured[f"p_final_pack_{i + 2}"] = p_finals[0]
        measured["slope_max"], measured["slope_max_pack"] = _governing(slopes, i + 2)
        measured["p_final_max"], measured["p_final_max_pack"] = _governing(p_finals, i + 2)

        if rec.entry_time is not None:
            for j, (slope, p_final) in enumerate(zip(slopes, p_finals), start=i + 1):
                prop_ok = math.isfinite(p_final) and p_final < eps_p
                if slope is None:
                    decay_ok = prop_ok
                    if prop_ok:
                        details.append(f"pack {j + 1} ratio below the log floor; extinct")
                    else:
                        details.append(f"pack {j + 1} ratio unfittable")
                else:
                    decay_ok = slope <= slope_threshold
                    if not decay_ok:
                        details.append(
                            f"pack {j + 1} decay rate {slope:.4g} above {slope_threshold:.4g}"
                        )
                if not prop_ok:
                    details.append(f"pack {j + 1} final proportion {p_final:.4g} >= {eps_p:g}")
                ok = ok and decay_ok and prop_ok

        results.append(
            ClaimResult(
                f"exclusion_stage_{i + 1}",
                True,
                ok,
                measured,
                {"nu": nu, "slope_threshold": slope_threshold, "eps_p": eps_p},
                "; ".join(details),
            )
        )
    return results


def _governing(values: Sequence[float | None], first_pack: int) -> tuple[float | None, int | None]:
    """The value that governs a stage among its packs' values, and its pack.

    ``values[k]`` belongs to pack ``first_pack + k``.  None values are
    skipped; the first non-finite value governs, otherwise the largest one,
    and ties go to the lowest pack.  (None, None) when every value is None.
    """
    best, pack = None, None
    for j, v in enumerate(values, start=first_pack):
        if v is not None and (pack is None or (math.isfinite(best) and not v <= best)):
            best, pack = v, j
    return best, pack


def check_final_convergence(traj: Trajectory, predicted: State, eps: float) -> ClaimResult:
    """Final state matches the predicted limit within eps.

    The winner pack is compared by its summed density (only the pack total
    is predicted); every other density must end at or below eps.
    """
    s_final = float(traj.states[-1, 0])
    x_final = traj.states[-1, 1:]
    winner = predicted.x > 0.0
    s_err = abs(s_final - predicted.s)
    pack_err = abs(float(np.sum(x_final[winner])) - float(np.sum(predicted.x[winner])))
    others = x_final[~winner]
    others_max = float(np.max(others)) if others.size else 0.0
    passed = s_err <= eps and pack_err <= eps and others_max <= eps
    return ClaimResult(
        "final_state",
        True,
        passed,
        {
            "substrate_error": s_err,
            "winner_pack_error": pack_err,
            "max_loser_density": others_max,
        },
        {"eps": eps},
    )


def run_report(scenario: Scenario) -> VerificationReport:
    """Simulate a scenario once and evaluate every applicable claim.

    The law constructors enforce the paper's hypotheses mu(0) = 0 and
    increasing laws; a scenario without a viable species present initially
    takes the washout path.  Simulation and certificate failures become
    failed report entries rather than exceptions, so a report is always
    produced.
    """
    params = scenario.params
    tols = scenario.tolerances
    growths = [g for _, g in scenario.species]

    ordered_full = order_species(scenario.species, params.d, params.s_in)
    lam_by_id = {rec.id: rec.lam for rec in ordered_full.records}
    id_to_column = {sid: 1 + k for k, (sid, _) in enumerate(scenario.species)}

    claims: list[ClaimResult] = []
    cert_summary: dict | None = None
    try:
        traj = simulate(
            params,
            growths,
            scenario.initial,
            scenario.horizon,
            rel_tol=tols.rel_tol,
            abs_tol=tols.abs_tol,
        )
    except ChemostatError as exc:
        claims.append(
            ClaimResult("simulation", True, False, {}, {}, f"integration failed: {exc}")
        )
        return VerificationReport(scenario.digest(), None, tuple(claims), False)

    claims.append(check_mass_convergence(traj, params, EPS_MASS))
    claims.append(check_washout_species(traj, ordered_full, params.s_in, EPS_WASHOUT))
    claims.append(check_biomass_floor(traj, ordered_full, params, EPS_FLOOR))

    active = [
        (sid, g)
        for (sid, g), xi in zip(scenario.species, scenario.initial.x)
        if xi > 0.0
    ]
    viable = any(lam_by_id[sid] < params.s_in for sid, _ in active)

    cert: Certificate | None = None
    if viable:
        ordered_active = pack_species(active, [lam_by_id[sid] for sid, _ in active])
        try:
            cert = build_certificate(ordered_active, params.d, params.s_in)
            cert_summary = cert.to_dict()
        except WashoutError as exc:  # unreachable when viable, kept for safety
            cert_summary = {"status": "washout", "detail": str(exc)}
        except CertificateError as exc:
            cert_summary = {"status": "error", "detail": str(exc)}
            claims.append(
                ClaimResult(
                    "certificate_construction", True, False, {}, {}, str(exc)
                )
            )
        pred_reduced = predicted_limit(params, ordered_active)
        x_full = np.zeros(len(scenario.species))
        for red_idx, (sid, _) in enumerate(active):
            x_full[id_to_column[sid] - 1] = pred_reduced.x[red_idx]
        predicted = State(s=pred_reduced.s, x=x_full)
    else:
        cert_summary = {
            "status": "washout",
            "detail": "no initially present species has a break-even level below s_in",
        }
        predicted = State(s=params.s_in, x=np.zeros(len(scenario.species)))

    if cert is not None and not cert.degenerate:
        claims.append(check_substrate_frame(traj, cert, growths, params))
        claims.extend(check_induction_properties(traj, cert, id_to_column, EPS_P))
    else:
        why = (
            "degenerate certificate"
            if cert is not None
            else (cert_summary or {}).get("detail", "no certificate")
        )
        claims.append(_not_applicable("substrate_frame", why))
        claims.append(_not_applicable("exclusion_stage_1", why))

    claims.append(check_final_convergence(traj, predicted, EPS_FINAL))

    overall = all(c.passed for c in claims if c.applicable)
    return VerificationReport(scenario.digest(), cert_summary, tuple(claims), overall)
