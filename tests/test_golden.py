"""Golden regression: certificates and claim outcomes pinned to stored values.

``golden.json`` holds, for the two example scenarios and one seeded
30-species Monod scenario, the certificate text (17 significant digits) and
every claim's ``applicable``/``pass`` flags and measured values.  Any change
to the numbers the verifier produces shows up here.  Decay slopes are
least-squares fits whose last bits depend on the summation order, so they
are compared within 1e-9 relative; everything else must match exactly.

Regenerate (only when a change is meant to move the numbers, and say why)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, build_certificate, order_species
from chemostat_cep.cli import Options, Scenario, Tolerances, parse_scenario
from chemostat_cep.verify import run_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SLOPE_REL_TOL = 1e-9


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
        options=Options(),
    )


def scenarios() -> dict[str, Scenario]:
    return {
        "canonical": parse_scenario(str(ROOT / "scenarios" / "canonical.yaml")),
        "with_washout": parse_scenario(str(ROOT / "scenarios" / "with_washout.yaml")),
        "monod_30": monod_30(),
    }


def capture(sc: Scenario) -> dict:
    opts = sc.options
    active = [(sid, g) for (sid, g), xi in zip(sc.species, sc.initial.x) if xi > 0.0]
    ordered = order_species(
        active,
        sc.params.d,
        eq_tol=opts.eq_tol,
        root_tol=opts.root_tol,
        s_probe_max=opts.probe_factor * sc.params.s_in,
    )
    cert = build_certificate(ordered, sc.params.d, sc.params.s_in, grid_n=opts.grid_n)
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
            gv = g["measured"][key]
            if key.startswith("slope_pack_") and wv is not None:
                assert gv is not None and math.isclose(gv, wv, rel_tol=SLOPE_REL_TOL, abs_tol=0.0), (w["id"], key)
            else:
                assert gv == wv, (w["id"], key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    data = {name: capture(sc) for name, sc in scenarios().items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
