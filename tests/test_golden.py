"""Golden regression: certificates and claim outcomes pinned to stored values.

``golden.json`` holds, for the two example scenarios and one seeded
30-species Monod scenario, the certificate text (17 significant digits) and
every claim's ``applicable``/``pass`` flags and measured values.  Any change
to the numbers the verifier produces shows up here: every value must match
exactly.

Regenerate (only when a change is meant to move the numbers, and say why)::

    PYTHONPATH=src python tests/test_golden.py --write

This maps the stored data to the current stage layout (``stage_layout``),
keeps every stored value a fresh capture agrees with, takes the fresh value
elsewhere, and prints each value that moved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, build_certificate, order_species, simulate
from chemostat_cep.scenario import Scenario, Tolerances, parse_scenario
from chemostat_cep.verify import run_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def monod_30() -> Scenario:
    """30 Monod species with distinct levels in (0.5, 6.5); species 8 starts absent."""
    rng = np.random.default_rng(30)
    d = 1.0
    lams = rng.uniform(0.5, 6.5, 30)
    mu_max = rng.uniform(1.5, 4.0, 30)
    x = rng.uniform(0.005, 0.02, 30)
    x[7] = 0.0
    species = tuple(
        (f"m{i:02d}", Monod(mu_max=float(mu_max[i]), k=float(lams[i] * (mu_max[i] - d) / d)))
        for i in range(30)
    )
    return Scenario(
        params=ChemostatParams(d=d, s_in=10.0),
        species=species,
        initial=State(s=10.0, x=x),
        horizon=80.0,
        tolerances=Tolerances(),
    )


def scenarios() -> dict[str, Scenario]:
    return {
        "canonical": parse_scenario(str(ROOT / "scenarios" / "canonical.yaml")),
        "with_washout": parse_scenario(str(ROOT / "scenarios" / "with_washout.yaml")),
        "monod_30": monod_30(),
    }


def capture(sc: Scenario) -> dict:
    active = [(sid, g) for (sid, g), xi in zip(sc.species, sc.initial.x) if xi > 0.0]
    ordered = order_species(active, sc.params.d, sc.params.s_in)
    cert = build_certificate(ordered, sc.params.d, sc.params.s_in)
    report = run_report(sc).to_dict()
    return {
        "certificate_text": cert.to_text(),
        "report_certificate": report["certificate"],
        "claims": [
            {k: c[k] for k in ("id", "applicable", "pass", "measured")} for c in report["claims"]
        ],
        "overall_pass": report["overall_pass"],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", params=sorted(scenarios()))
def pair(request):
    return _golden()[request.param], capture(scenarios()[request.param])


def test_certificate_text_is_pinned(pair):
    want, got = pair
    assert got["certificate_text"] == want["certificate_text"]
    assert got["report_certificate"] == want["report_certificate"]


def test_claim_verdicts_are_pinned(pair):
    want, got = pair
    assert [(c["id"], c["applicable"], c["pass"]) for c in got["claims"]] == [
        (c["id"], c["applicable"], c["pass"]) for c in want["claims"]
    ]
    assert got["overall_pass"] == want["overall_pass"]


def test_measured_values_are_pinned(pair):
    want, got = pair
    for w, g in zip(want["claims"], got["claims"]):
        assert g["measured"].keys() == w["measured"].keys(), w["id"]
        for key, wv in w["measured"].items():
            assert g["measured"][key] == wv, (w["id"], key)


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_stage_entries_are_nested_dense_samples(name):
    # Each stage's interval holds the next one's, so on the one set of dense
    # samples the entries cannot increase from stage 1 to stage m; each is
    # the first sample of its persistent tail.
    sc = scenarios()[name]
    tols = sc.tolerances
    traj = simulate(sc.params, sc.growths, sc.initial, sc.horizon, rel_tol=tols.rel_tol, abs_tol=tols.abs_tol)
    stages = [c for c in run_report(sc).claims if c.claim_id.startswith("exclusion_stage_")]
    entries = [c.measured["entry_time"] for c in stages]
    assert len(entries) >= 2 and None not in entries
    assert all(wide <= narrow for narrow, wide in zip(entries, entries[1:]))
    assert set(entries) <= set(traj.times.tolist())


def _governing(values: dict[int, object]) -> tuple:
    """(value, pack) of the first non-finite value, else of the largest one
    (lowest pack on ties), over the non-None values of ``{pack: value}``."""
    present = [(pack, v) for pack, v in values.items() if v is not None]
    if not present:
        return None, None

    def rank(item):
        pack, v = item
        x = float(v)  # JSON keeps non-finite values as "nan" / "inf"
        return (not math.isfinite(x), x if math.isfinite(x) else 0.0, -pack)

    pack, v = max(present, key=rank)
    return v, pack


def stage_layout(claims: list[dict]) -> list[dict]:
    """Claims whose stages list every slower pack, with one pack per stage.

    Stage k of the full layout holds ``slope_pack_j`` and ``p_final_pack_j``
    for every pack j > k (none without an entry); the final proportions are
    the same in every stage.  Stage k of the one-pack layout keeps
    ``entry_time`` and ``excursions``, pack k + 1's two values and the
    governing slope and proportion over packs j > k.  Values are carried
    over as stored; claims in a one-pack layout (with slopes, or with the
    excesses that replaced them) pass through unchanged.
    """
    stages = [c for c in claims if c["id"].startswith("exclusion_stage_") and "entry_time" in c["measured"]]
    if not stages or "p_final_max" in stages[0]["measured"]:
        return claims
    p_final: dict[int, object] = {}
    for c in stages:
        for key, v in c["measured"].items():
            if key.startswith("p_final_pack_"):
                assert p_final.setdefault(int(key.rsplit("_", 1)[1]), v) == v, (c["id"], key)
    packs = range(2, len(stages) + 2)
    out = []
    for c in claims:
        if not any(c is st for st in stages):
            out.append(c)
            continue
        k = int(c["id"].rsplit("_", 1)[1])
        old = c["measured"]
        slopes = {j: old.get(f"slope_pack_{j}") for j in packs if j > k}
        finals = {j: p_final.get(j) for j in packs if j > k}
        new = {"entry_time": old["entry_time"], "excursions": old["excursions"]}
        new[f"slope_pack_{k + 1}"] = slopes[k + 1]
        new[f"p_final_pack_{k + 1}"] = finals[k + 1]
        new["slope_max"], new["slope_max_pack"] = _governing(slopes)
        new["p_final_max"], new["p_final_max_pack"] = _governing(finals)
        out.append({**c, "measured": new})
    return out


def test_stage_layout_maps_the_full_layout():
    old = [
        {"id": "mass_convergence", "measured": {"initial_mass": 10.0}},
        {"id": "exclusion_stage_1", "pass": False, "measured": {
            "entry_time": 3.0, "excursions": 1,
            "slope_pack_2": -0.5, "p_final_pack_2": 1e-6,
            "slope_pack_3": -0.25, "p_final_pack_3": "nan",
            "slope_pack_4": -0.25, "p_final_pack_4": 2e-6,
        }},
        {"id": "exclusion_stage_2", "pass": False, "measured": {
            "entry_time": 2.0, "excursions": 0,
            "slope_pack_3": None, "p_final_pack_3": "nan",
            "slope_pack_4": None, "p_final_pack_4": 2e-6,
        }},
        {"id": "exclusion_stage_3", "pass": True, "measured": {
            "entry_time": 1.0, "excursions": 0, "slope_pack_4": -0.75, "p_final_pack_4": 2e-6,
        }},
    ]
    new = stage_layout(old)
    assert new[0] is old[0] and [c["pass"] for c in new[1:]] == [False, False, True]
    assert [c["measured"] for c in new[1:]] == [
        {"entry_time": 3.0, "excursions": 1, "slope_pack_2": -0.5, "p_final_pack_2": 1e-6,
         "slope_max": -0.25, "slope_max_pack": 3, "p_final_max": "nan", "p_final_max_pack": 3},
        {"entry_time": 2.0, "excursions": 0, "slope_pack_3": None, "p_final_pack_3": "nan",
         "slope_max": None, "slope_max_pack": None, "p_final_max": "nan", "p_final_max_pack": 3},
        {"entry_time": 1.0, "excursions": 0, "slope_pack_4": -0.75, "p_final_pack_4": 2e-6,
         "slope_max": -0.75, "slope_max_pack": 4, "p_final_max": 2e-6, "p_final_max_pack": 4},
    ]
    assert stage_layout(new) == new


def derive(stored: dict | None, fresh: dict) -> tuple[dict, int, list[str]]:
    """A fresh capture carrying every stored measured value it agrees with,
    the count of those values, and one line per value that moved."""
    if stored is None:
        return fresh, 0, ["new scenario"]
    stored = {**stored, "claims": stage_layout(stored["claims"])}
    moved = [key for key in ("certificate_text", "report_certificate", "overall_pass") if stored[key] != fresh[key]]
    if [c["id"] for c in stored["claims"]] != [c["id"] for c in fresh["claims"]]:
        return fresh, 0, moved + ["claim ids"]
    kept = 0
    claims = []
    for w, g in zip(stored["claims"], fresh["claims"]):
        moved += [f'{g["id"]}.{key}' for key in ("applicable", "pass") if w[key] != g[key]]
        measured = dict(g["measured"])
        for key, gv in g["measured"].items():
            if key in w["measured"] and w["measured"][key] == gv:
                measured[key] = w["measured"][key]
                kept += 1
            else:
                moved.append(f'{g["id"]}.{key}: {w["measured"].get(key, "absent")!r} -> {gv!r}')
        moved += [f'{g["id"]}.{key}: dropped' for key in w["measured"].keys() - g["measured"].keys()]
        claims.append({**g, "measured": measured})
    return {**fresh, "claims": claims}, kept, moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    stored = _golden()
    data = {}
    for name, sc in scenarios().items():
        data[name], kept, moved = derive(stored.get(name), capture(sc))
        print(f"{name}: {kept} measured values kept as stored, {len(moved)} moved")
        for line in moved:
            print(f"  {line}")
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
