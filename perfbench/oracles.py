"""Output checks that share no code with ``src/``.

They work only from the generated scenario dicts and the bytes the program
wrote: closed-form break-even levels, the closed-form mass law, and the
shape of the verification report.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

# Break-even levels come from bisection to floating-point resolution, so a
# correct report agrees with the closed forms far inside this tolerance.
LAMBDA_REL_TOL = 1e-9
# The mass balance is integrated at rel_tol 1e-8; the closed-form law then
# holds to about this absolute error per unit of inflow concentration.
MASS_ABS_TOL = 1e-8
# The command's default probe bound, ``probe_factor * s_in``.
PROBE_FACTOR = 1e6
# Two levels closer than this share a pack (the command's default eq_tol).
EQ_TOL = 1e-9


def closed_form_level(law: dict, d: float, s_in: float) -> float:
    """Substrate level where ``law`` equals ``d`` (inf when never reached)."""
    kind = law["kind"]
    if kind == "monod":
        lam = law["k"] * d / (law["mu_max"] - d) if law["mu_max"] > d else math.inf
    elif kind == "hill":
        ratio = d / (law["mu_max"] - d) if law["mu_max"] > d else math.inf
        lam = law["k"] * ratio ** (1.0 / law["p"])
    else:
        pts = law["points"]
        lam = math.inf
        for (s0, m0), (s1, m1) in zip(pts, pts[1:]):
            if m0 < d <= m1:
                lam = s0 + (d - m0) * (s1 - s0) / (m1 - m0)
                break
        else:
            (s0, m0), (s1, m1) = pts[-2], pts[-1]
            slope = (m1 - m0) / (s1 - s0)
            if slope > 0.0:
                lam = s1 + (d - m1) / slope
    return lam if lam < PROBE_FACTOR * s_in else math.inf


def _level(v) -> float:
    return math.inf if v == "inf" else float(v)


def _active_levels(sc: dict) -> list[float]:
    """Closed-form levels of the species present initially."""
    return [
        closed_form_level(law, sc["d"], sc["s_in"])
        for (_, law), x in zip(sc["species"], sc["x"])
        if x > 0.0
    ]


def expected_claims(sc: dict) -> list[str]:
    """Claim ids of a verify report on ``sc``, in report order."""
    s_in = sc["s_in"]
    active = _active_levels(sc)
    head = ["mass_convergence", "washout_extinction", "biomass_floor"]
    finite = sorted(v for v in active if math.isfinite(v))
    packs = []
    for v in finite:
        if not packs or abs(v - packs[-1]) > EQ_TOL * max(v, packs[-1]):
            packs.append(v)
    n_packs = len(packs) + (1 if len(finite) < len(active) else 0)
    if not finite or finite[0] >= s_in or len(packs) < 2:
        return head + ["substrate_frame", "exclusion_stage_1", "final_state"]
    stages = [f"exclusion_stage_{i + 1}" for i in range(n_packs - 1)]
    return head + ["substrate_frame"] + stages + ["final_state"]


def check_report(sc: dict, data: bytes, exit_code: int) -> tuple[list[str], float]:
    """Problems in a verify report, and the worst relative break-even error."""
    try:
        rep = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], math.nan
    problems = []
    ids = [c.get("id") for c in rep.get("claims", [])]
    want = expected_claims(sc)
    if ids != want:
        problems.append(f"claim ids {ids} != expected {want}")
    overall = all(c["pass"] for c in rep.get("claims", []) if c.get("applicable"))
    if rep.get("overall_pass") is not overall:
        problems.append("overall_pass is not the conjunction of applicable claims")
    if exit_code != (0 if overall else 1):
        problems.append(f"exit code {exit_code} disagrees with verdict {overall}")

    d, s_in = sc["d"], sc["s_in"]
    laws = dict(sc["species"])
    worst = 0.0
    cert = rep.get("certificate") or {}
    for pack in cert.get("packs", []):
        got = _level(pack["lambda"])
        for sid in pack["ids"]:
            want_lam = closed_form_level(laws[sid], d, s_in)
            if math.isinf(want_lam) or math.isinf(got):
                if got != want_lam:
                    problems.append(f"{sid}: level {got} != closed form {want_lam}")
                    worst = math.inf
                continue
            err = abs(got - want_lam) / want_lam
            worst = max(worst, err)
            if not err <= LAMBDA_REL_TOL:
                problems.append(f"{sid}: level {got!r} off closed form {want_lam!r} by {err:.3g}")
    if any(v < s_in for v in _active_levels(sc)) and not cert.get("packs"):
        problems.append("viable scenario has no certificate packs")
    return problems, worst


def check_trajectory_csv(sc: dict, data: bytes, exit_code: int) -> tuple[list[str], float]:
    """Problems in a trajectory CSV, and the worst deviation from the mass law."""
    if exit_code != 0:
        return [f"simulate exited with {exit_code}"], math.nan
    text = data.decode("utf-8")
    header = text[: text.index("\n")].split(",")
    n = len(sc["species"])
    want = ["t", "s"] + [f"x{i}" for i in range(1, n + 1)] + ["b"]
    want += [f"p{i}" for i in range(1, n + 1)] + ["m"] + [f"r{i}" for i in range(2, n + 1)]
    if header != want:
        return [f"header {header[:4]}... does not match {n} species"], math.nan
    cols = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, usecols=(0, 1, want.index("m")))
    t, s, m = cols[:, 0], cols[:, 1], cols[:, 2]
    problems = []
    horizon = 100.0 / sc["d"]
    # The default grid has horizon / 2000 spacing; rounding may add one row.
    if t[0] != 0.0 or abs(t[-1] - horizon) > 1e-12 * horizon or t.size not in (2001, 2002):
        problems.append(f"time grid {t[0]}..{t[-1]} ({t.size} rows) is not [0, {horizon}] at horizon / 2000")
    if s[0] != sc["s0"]:
        problems.append(f"initial substrate {s[0]!r} != {sc['s0']!r}")
    m0 = sc["s0"] + sum(sc["x"])
    law = sc["s_in"] + (m0 - sc["s_in"]) * np.exp(-sc["d"] * t)
    err = float(np.max(np.abs(m - law)))
    if not err <= MASS_ABS_TOL * sc["s_in"]:
        problems.append(f"mass law violated by {err:.3g}")
    return problems, err
