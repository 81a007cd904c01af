"""Trajectory-level verification of the competition's long-run claims.

Each check turns an asymptotic statement into a finite-horizon proxy with an
explicit threshold, measures the relevant quantities on one simulated
trajectory, and records pass/fail together with what was measured.  A report
aggregates the applicable claims; its overall verdict is their conjunction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .certificate import GRID_N, Certificate, build_certificate, json_number
from .dynamics import ChemostatParams, State, predicted_limit
from .errors import CertificateError, ChemostatError
from .growth import (
    EQ_TOL,
    PROBE_FACTOR,
    ROOT_TOL,
    OrderedSpecies,
    order_species,
    pack_species,
)
from .integrate import (
    EntryRecord,
    Trajectory,
    first_persistent_entry,  # noqa: F401  (perfbench/tracing.py patches this name here)
    per_biomass,
    persistent_entries,
    scan_persistent_entry,
    simulate,
)
from .scenario import Scenario

# Claim thresholds; each check reads its own when it runs.
EPS_MASS = 1e-6  # mass-relaxation band
EPS_WASHOUT = 1e-4  # final density of a washed-out species
EPS_FLOOR = 1e-3  # biomass floor after the burn-in
EPS_P = 1e-4  # final proportion of every losing pack
EPS_FINAL = 1e-3  # final-state error


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
                    "measured": {k: json_number(v) for k, v in c.measured.items()},
                    "thresholds": {k: json_number(v) for k, v in c.thresholds.items()},
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


def fit_log_decay(
    t: np.ndarray, v: np.ndarray
) -> tuple[float | None, int] | tuple[list[float | None], np.ndarray]:
    """Least-squares slope of log v over t, on the samples above 1e-300.

    Only the tests and the benchmark's tracer use this: the exclusion
    stages check the comparison inequality (``comparison_excess``).  For
    1-D ``v`` returns (slope, samples used); slope is None when fewer than
    8 samples are usable.  For 2-D ``v`` (samples x columns) every column is
    fitted on its own usable samples and the result is (list of slopes or
    None, array of samples used).  Two passes: the means, then the sums of
    centred products.
    """
    one = np.ndim(v) == 1
    v = np.array(v, dtype=float, ndmin=2).T if one else np.array(v, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    mask = np.isfinite(v) & (v > 1e-300)
    used = np.count_nonzero(mask, axis=0)
    n = np.maximum(used, 1)
    t = np.where(mask, t, 0.0)
    y = np.log(v, out=np.zeros_like(v), where=mask)
    t = np.where(mask, t - t.sum(axis=0) / n, 0.0)
    y = np.where(mask, y - y.sum(axis=0) / n, 0.0)
    s_ty, s_tt = (t * y).sum(axis=0), (t * t).sum(axis=0)
    slopes = [float(a / b) if k >= 8 else None for a, b, k in zip(s_ty, s_tt, used)]
    if one:
        return slopes[0], int(used[0])
    return slopes, used


def comparison_excess(t: np.ndarray, v: np.ndarray, starts: Sequence[int | None], rate: float) -> np.ndarray:
    """Largest rise of g = ln v + rate t over every column's tail from every start.

    Returns the (starts x columns) matrix whose entry (k, c) is the maximum
    over samples j >= ``starts[k]`` of g[j, c] - g[starts[k], c], NaN
    samples skipped.  It is NaN where the start is None or g at the start is
    not finite (v zero, NaN or inf there); elsewhere it lies in [0, inf],
    and it is 0 exactly when column c stays at or under
    v[start, c] exp(-rate (t - t[start])) on every sample of the tail.  A
    start must index a sample.  ``v`` (samples x columns, float) is the
    work buffer: its rows from the first start on are overwritten with g.

    One reversed ``np.fmax.accumulate`` over those rows gives every tail's
    maximum at once, with no loop over starts.
    """
    excess = np.full((len(starts), v.shape[1]), np.nan)
    rows = [k for k, s in enumerate(starts) if s is not None]
    if not rows:
        return excess
    first = min(starts[k] for k in rows)
    g = v[first:]
    at = [starts[k] - first for k in rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(g, out=g)
        g += rate * t[first:, None]
        peak = np.fmax.accumulate(g[::-1], axis=0)[::-1]
        base = g[at]
        excess[rows] = np.where(np.isfinite(base), peak[at] - base, np.nan)
    return excess


def check_mass_convergence(traj: Trajectory, params: ChemostatParams) -> ClaimResult:
    """Total mass reaches and keeps an ``EPS_MASS``-band around s_in.

    The entry time is predicted from the exact exponential relaxation of the
    mass balance and compared against the trajectory's persistent entry into
    the band; every sample past the predicted time must sit inside the band.
    """
    t = traj.times
    m = traj.channels.m
    dev0 = abs(float(m[0]) - params.s_in)
    t_pred = math.log(dev0 / EPS_MASS) / params.d if dev0 > EPS_MASS else 0.0

    after = t >= t_pred - 1e-12
    if not np.any(after):
        return ClaimResult(
            "mass_convergence",
            True,
            False,
            {"predicted_entry": t_pred, "horizon": traj.horizon},
            {"eps": EPS_MASS},
            "predicted entry time lies beyond the horizon",
        )
    resid = float(np.max(np.abs(m[after] - params.s_in)))

    inside = np.abs(m - params.s_in) <= EPS_MASS
    entry_idx, _ = scan_persistent_entry(inside)
    empirical = float(t[entry_idx]) if entry_idx is not None else None
    time_tol = max(0.05 * t_pred, 2.0 * traj.meta.dense_dt)
    ok_time = empirical is not None and abs(empirical - t_pred) <= time_tol
    passed = resid <= EPS_MASS and ok_time
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
        {"eps": EPS_MASS, "entry_time_tol": time_tol},
    )


def check_washout_species(traj: Trajectory, ordered: OrderedSpecies, s_in: float) -> ClaimResult:
    """Species whose break-even level is at or above s_in die out.

    Each such density must end below ``EPS_WASHOUT`` and be non-increasing
    (within integrator noise) over the final tenth of the samples.
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
    passed = worst_final < EPS_WASHOUT and monotone_ok
    return ClaimResult(
        "washout_extinction",
        True,
        passed,
        {
            "species": len(targets),
            "worst_final_density": worst_final,
            "worst_tail_increase": worst_increase,
        },
        {"eps": EPS_WASHOUT},
    )


def check_biomass_floor(traj: Trajectory, ordered: OrderedSpecies, params: ChemostatParams) -> ClaimResult:
    """Total biomass stays above the floor ``EPS_FLOOR`` after a burn-in.

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
        floor >= EPS_FLOOR,
        {"floor": floor, "burn_in": t_burn},
        {"eps_floor": EPS_FLOOR},
    )


def check_substrate_frame(traj: Trajectory, cert: Certificate, params: ChemostatParams) -> ClaimResult:
    """Substrate derivative is framed by the widened dilution bounds.

    The frame (d_minus - mu_bar) b <= s' <= (d_plus - mu_bar) b, with
    s' = d (s_in - s) - sum mu_i x_i and mu_bar b = sum mu_i x_i, is the
    statement that z = d (s_in - s) / b lies in [d_minus, d_plus]: s' less
    a rail is b (z - d_minus) or b (z - d_plus).  So no growth law is
    evaluated; the frame time is the persistent entry of z into
    [d_minus, d_plus] on the dense samples (z is undefined, and outside,
    below the biomass floor).
    """
    if cert.degenerate:
        return _not_applicable("substrate_frame", "degenerate certificate")
    t = traj.times
    dz = per_biomass(params.d * (params.s_in - traj.states[:, 0]), traj.channels.b)
    inside = np.isfinite(dz) & (dz >= cert.d_minus) & (dz <= cert.d_plus)
    entry_idx, _ = scan_persistent_entry(inside)
    thresholds = {"d_minus": cert.d_minus, "d_plus": cert.d_plus}
    if entry_idx is None:
        half = t.size // 2
        tail = dz[half:][np.isfinite(dz[half:])]
        rng = (float(np.min(tail)), float(np.max(tail))) if tail.size else (math.nan, math.nan)
        return ClaimResult(
            "substrate_frame",
            True,
            False,
            {"dz_late_min": rng[0], "dz_late_max": rng[1]},
            thresholds,
            "frame never established before the horizon",
        )
    return ClaimResult("substrate_frame", True, True, {"frame_time": float(t[entry_idx])}, thresholds)


def check_induction_properties(
    traj: Trajectory,
    cert: Certificate,
    id_to_column: Mapping[str, int],
) -> list[ClaimResult]:
    """Per-stage absorbing-interval entries and the comparison inequality.

    Stage i requires the substrate to enter the i-th absorbing interval for
    good, and every pack above i to be excluded: from the entry t_a on, its
    summed density ratio r against the lead species must stay under
    r(t_a) exp(-rate (t - t_a)), with rate = 0.9 nu (the paper's comparison
    of solutions), and its final proportion must end below ``EPS_P``.  While
    s is in I_i the rate holds where mu_lead - max over packs > i >= rate on
    I_i; boundary 1 certifies that for stage 1 only, and for i >= 2 it is
    measured, not certified.

    Each entry t_a is the first dense sample of the persistent tail
    (``persistent_entries``), and the stage's check starts at that sample.
    The intervals are nested with a common left end, so on the one set of
    samples a smaller interval is never entered before a larger one.
    ``comparison_excess`` gives every stage's largest rise of ln r + rate t
    over every pack at once, and ``_stage_claims`` reads the verdicts off
    the (stages x packs) excesses.
    """
    if cert.degenerate:
        return [_not_applicable("exclusion_stage_1", "degenerate certificate")]

    entries = persistent_entries(traj, cert.intervals)
    t = traj.times
    x_ref = traj.states[:, id_to_column[cert.packs[0].ids[0]]]

    # Column c holds pack c + 2's summed density over the lead species, for
    # every pack above the first, and p_final[c] its final proportion.  One
    # ``take`` reads every pack's first member; a pack with more members is
    # then summed member by member.  (``np.add.reduceat`` over all members
    # is slower at every n, and adds a0 + (a1 + a2) where the sum adds
    # (a0 + a1) + a2.)
    cols = [[id_to_column[sid] for sid in pack.ids] for pack in cert.packs[1:]]
    ratios = traj.states.take([pack_cols[0] for pack_cols in cols], axis=1)
    p_last = per_biomass(traj.states[-1, 1:], traj.channels.b[-1])
    p_final = p_last[[pack_cols[0] - 1 for pack_cols in cols]]
    for c, pack_cols in enumerate(cols):
        if len(pack_cols) > 1:
            ratios[:, c] = traj.states[:, pack_cols].sum(axis=1)
            p_final[c] = np.sum(p_last[[k - 1 for k in pack_cols]])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratios, x_ref[:, None], out=ratios)
    ratios[x_ref <= 0.0] = np.nan

    starts = [rec.index for rec in entries]
    rate = 0.9 * cert.nu
    excess = comparison_excess(t, ratios, starts, rate)

    def witness(i: int, c: int) -> float:
        """Time of the largest rise of pack c + 2 in stage i (its first sample)."""
        return float(t[starts[i] + np.nanargmax(ratios[starts[i] :, c])])

    return _stage_claims(entries, excess, witness, p_final, cert.nu, rate)


def _stage_claims(
    entries: Sequence[EntryRecord],
    excess: np.ndarray,
    witness: Callable[[int, int], float],
    p_final: np.ndarray,
    nu: float,
    rate: float,
) -> list[ClaimResult]:
    """One claim per stage from its entry and the (stages x packs) excesses.

    Row i of ``excess`` is stage i's, column c is pack c + 2, and
    ``p_final[c]`` that pack's final proportion; stage i checks the packs
    c >= i.  An excess is measured where it is not NaN and the stage has an
    entry; the pair then passes when the excess is at most 0 and the final
    proportion is below ``EPS_P``, and otherwise it rests on its final
    proportion alone (the ratio was zero, undefined or infinite at the
    entry).  ``witness(i, c)`` is the time of a positive excess.

    Stage i measures its entry, the excess and final proportion of pack
    i + 2 (the pack it newly excludes), and the governing values over every
    pack it checks: ``excess_max`` and ``p_final_max`` with their packs (see
    ``_governing``).  So a stage reports eight values, and each pack's final
    proportion appears in one stage.  Only failing or unmeasured pairs write
    a detail; a failing excess names its witness, the time and value of the
    largest rise.
    """
    m = len(entries)
    times = [rec.entry_time for rec in entries]
    packs = np.arange(m)
    upper = packs >= packs[:, None]
    checked = packs >= np.array([m if e is None else i for i, e in enumerate(times)])[:, None]
    measured_pairs = ~np.isnan(excess) & checked
    p_list = p_final.tolist()
    prop_list = [math.isfinite(p) and p < EPS_P for p in p_list]

    stage_ok = [e is not None for e in times]
    missing = "no persistent entry into the absorbing interval"
    details: list[list[str]] = [[] if e is not None else [missing] for e in times]
    # A checked pair passes silently when its excess is measured and both
    # the inequality and its final proportion hold.  The others, few in
    # practice, write their details.
    quiet = measured_pairs & (excess <= 0.0) & np.array(prop_list)
    rows, cols = np.nonzero(checked & ~quiet)
    for i, c in zip(rows.tolist(), cols.tolist()):
        prop = prop_list[c]
        if not measured_pairs[i, c]:
            why = "ratio not positive and finite at the entry"
            details[i].append(f"pack {c + 2} {why}; extinct" if prop else f"pack {c + 2} {why}")
        elif not excess[i, c] <= 0.0:
            details[i].append(f"pack {c + 2} excess {float(excess[i, c]):.4g} at t={witness(i, c):.6g}")
            stage_ok[i] = False
        if not prop:
            details[i].append(f"pack {c + 2} final proportion {p_list[c]:.4g} >= {EPS_P:g}")
            stage_ok[i] = False

    excess_max, excess_pack = _governing(excess, measured_pairs)
    p_max, p_pack = _governing(p_final, upper)
    results = []
    for i, rec in enumerate(entries):
        measured = {
            "entry_time": rec.entry_time,
            "excursions": rec.excursions,
            f"excess_pack_{i + 2}": float(excess[i, i]) if measured_pairs[i, i] else None,
            f"p_final_pack_{i + 2}": p_list[i],
            "excess_max": excess_max[i],
            "excess_max_pack": None if excess_pack[i] is None else excess_pack[i] + 2,
            "p_final_max": p_max[i],
            "p_final_max_pack": p_pack[i] + 2,
        }
        results.append(
            ClaimResult(
                f"exclusion_stage_{i + 1}",
                True,
                stage_ok[i],
                measured,
                {"nu": nu, "rate": rate, "eps_p": EPS_P},
                "; ".join(details[i]),
            )
        )
    return results


def _governing(
    values: np.ndarray, valid: np.ndarray
) -> tuple[list[float | None], list[int | None]]:
    """Per row, the value that governs among the valid entries, and its column.

    ``values`` is a matrix or a row broadcast over every row of ``valid``.
    Invalid entries (a None value) are skipped; the first non-finite value
    governs, otherwise the largest one, and ties go to the lowest column.
    (None, None) for a row without a valid entry.

    One argmax per matrix: the key is -inf at invalid entries, +inf at NaN
    and +inf values, and the value elsewhere, so its first largest entry is
    the first NaN or +inf value and otherwise the largest value.  A leading
    -inf, the only non-finite value the key does not lift, governs its row.
    """
    vals = np.where(valid, values, -np.inf)
    cols = np.where(vals < np.inf, vals, np.inf).argmax(axis=1).tolist()
    out: tuple[list, list] = ([], [])
    for i, (c, first) in enumerate(zip(cols, valid.argmax(axis=1).tolist())):
        if not valid[i, first]:
            c = None
        elif vals[i, first] == -math.inf:
            c = first
        out[0].append(None if c is None else float(vals[i, c]))
        out[1].append(c)
    return out


def check_final_convergence(traj: Trajectory, predicted: State) -> ClaimResult:
    """Final state matches the predicted limit within ``EPS_FINAL``.

    The winner pack is compared by its summed density (only the pack total
    is predicted); every other density must end at or below ``EPS_FINAL``.
    """
    s_final = float(traj.states[-1, 0])
    x_final = traj.states[-1, 1:]
    winner = predicted.x > 0.0
    s_err = abs(s_final - predicted.s)
    pack_err = abs(float(np.sum(x_final[winner])) - float(np.sum(predicted.x[winner])))
    others = x_final[~winner]
    others_max = float(np.max(others)) if others.size else 0.0
    passed = s_err <= EPS_FINAL and pack_err <= EPS_FINAL and others_max <= EPS_FINAL
    return ClaimResult(
        "final_state",
        True,
        passed,
        {
            "substrate_error": s_err,
            "winner_pack_error": pack_err,
            "max_loser_density": others_max,
        },
        {"eps": EPS_FINAL},
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
    ordered_full = order_species(scenario.species, params.d, params.s_in)
    lam_by_id = {rec.id: rec.lam for rec in ordered_full.records}
    id_to_column = {sid: 1 + k for k, (sid, _) in enumerate(scenario.species)}

    claims: list[ClaimResult] = []
    try:
        traj = simulate(
            params,
            scenario.growths,
            scenario.initial,
            scenario.horizon,
            rel_tol=tols.rel_tol,
            abs_tol=tols.abs_tol,
        )
    except ChemostatError as exc:
        claims.append(
            ClaimResult("simulation", True, False, {}, {}, f"integration failed: {exc}")
        )
        return VerificationReport(scenario_digest(scenario), None, tuple(claims), False)

    claims.append(check_mass_convergence(traj, params))
    claims.append(check_washout_species(traj, ordered_full, params.s_in))
    claims.append(check_biomass_floor(traj, ordered_full, params))

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
        except CertificateError as exc:  # never WashoutError: a viable species is present
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
        claims.append(check_substrate_frame(traj, cert, params))
        claims.extend(check_induction_properties(traj, cert, id_to_column))
    else:
        why = "degenerate certificate" if cert is not None else cert_summary["detail"]
        claims.append(_not_applicable("substrate_frame", why))
        claims.append(_not_applicable("exclusion_stage_1", why))

    claims.append(check_final_convergence(traj, predicted))

    overall = all(c.passed for c in claims if c.applicable)
    return VerificationReport(scenario_digest(scenario), cert_summary, tuple(claims), overall)


def scenario_digest(scenario: Scenario) -> str:
    """Stable content hash of everything that affects a scenario's run."""
    payload = {
        "d": scenario.params.d,
        "s_in": scenario.params.s_in,
        "species": [
            [sid, g.kind, sorted((k, v) for k, v in vars(g).items() if not k.startswith("_"))]
            for sid, g in scenario.species
        ],
        "initial": [scenario.initial.s, list(map(float, scenario.initial.x))],
        "horizon": scenario.horizon,
        # Former scenario keys, now constants, are hashed under their old
        # names so digests stay stable.
        "tolerances": {**vars(scenario.tolerances), "eps_p": EPS_P, "eps_final": EPS_FINAL},
        "options": {
            "grid_n": GRID_N,
            "dense_dt": None,  # horizon / DENSE_INTERVALS
            "eps_mass": EPS_MASS,
            "eps_washout": EPS_WASHOUT,
            "eps_floor": EPS_FLOOR,
            "eq_tol": EQ_TOL,
            "root_tol": ROOT_TOL,
            "probe_factor": PROBE_FACTOR,
            "persistence_grace": 0.0,
        },
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()
