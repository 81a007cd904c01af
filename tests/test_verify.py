"""Claim checks: positives, not-applicable paths, and sabotage controls."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, Table, build_certificate, order_species, run_report, simulate
from chemostat_cep.errors import ParameterError
from chemostat_cep.verify import (
    check_biomass_floor,
    check_final_convergence,
    check_induction_properties,
    check_mass_convergence,
    check_substrate_frame,
    check_washout_species,
    fit_log_decay,
    _governing,
)

from conftest import CANONICAL_SPECIES, LAM, make_scenario

PARAMS = ChemostatParams(d=1.0, s_in=10.0)
GROWTHS = [g for _, g in CANONICAL_SPECIES]
ID_TO_COL = {"sp1": 1, "sp2": 2, "sp3": 3}


@pytest.fixture(scope="module")
def washout_added_trajectory():
    species = CANONICAL_SPECIES + (("slow", Monod(1.0, 1.0)),)
    traj = simulate(
        PARAMS,
        [g for _, g in species],
        State(s=10.0, x=np.array([0.01] * 4)),
        80.0,
    )
    ordered = order_species(species, 1.0, 10.0)
    return traj, ordered


class TestMassConvergence:
    def test_equilibrium_start(self):
        traj = simulate(PARAMS, [Monod(3, 1)], State(s=9.9, x=np.array([0.1])), 20.0)
        res = check_mass_convergence(traj, PARAMS, 1e-6)
        assert res.passed
        assert res.measured["predicted_entry"] == 0.0
        assert res.measured["empirical_entry"] == 0.0

    def test_canonical(self, canonical_trajectory):
        res = check_mass_convergence(canonical_trajectory, PARAMS, 1e-6)
        assert res.passed
        pred = res.measured["predicted_entry"]
        emp = res.measured["empirical_entry"]
        assert abs(emp - pred) <= 0.05 * pred

    def test_sabotaged_prediction_fails(self, canonical_trajectory):
        res = check_mass_convergence(canonical_trajectory, ChemostatParams(2.0, 10.0), 1e-6)
        assert not res.passed


class TestWashoutSpecies:
    def test_added_slow_species_dies(self, washout_added_trajectory):
        traj, ordered = washout_added_trajectory
        res = check_washout_species(traj, ordered, 10.0, 1e-4)
        assert res.passed
        assert res.measured["worst_final_density"] < 1e-4

    def test_not_applicable_without_washout_species(self, canonical_trajectory, canonical_ordered):
        res = check_washout_species(canonical_trajectory, canonical_ordered, 10.0, 1e-4)
        assert not res.applicable

    def test_vacuous_when_starting_absent(self):
        species = CANONICAL_SPECIES + (("slow", Monod(1.0, 1.0)),)
        traj = simulate(
            PARAMS,
            [g for _, g in species],
            State(s=10.0, x=np.array([0.01, 0.01, 0.01, 0.0])),
            40.0,
        )
        ordered = order_species(species, 1.0, 10.0)
        res = check_washout_species(traj, ordered, 10.0, 1e-4)
        assert res.passed


class TestBiomassFloor:
    def test_canonical(self, canonical_trajectory, canonical_ordered):
        res = check_biomass_floor(canonical_trajectory, canonical_ordered, PARAMS, 1e-3)
        assert res.passed
        assert res.measured["floor"] > 9.0

    def test_not_applicable_in_washout(self):
        params = ChemostatParams(d=1.0, s_in=0.4)
        traj = simulate(params, GROWTHS, State(s=0.4, x=np.array([0.01] * 3)), 10.0)
        ordered = order_species(CANONICAL_SPECIES, 1.0, params.s_in)
        res = check_biomass_floor(traj, ordered, params, 1e-3)
        assert not res.applicable

    def test_tiny_inoculum_still_grows(self):
        traj = simulate(PARAMS, GROWTHS, State(s=10.0, x=np.array([1e-8] * 3)), 80.0)
        ordered = order_species(CANONICAL_SPECIES, 1.0, 10.0)
        res = check_biomass_floor(traj, ordered, PARAMS, 1e-3)
        assert res.passed


class TestSubstrateFrame:
    def test_canonical(self, canonical_trajectory, canonical_certificate):
        res = check_substrate_frame(canonical_trajectory, canonical_certificate, GROWTHS, PARAMS)
        assert res.passed
        assert res.measured["violations"] == 0
        assert res.measured["frame_time"] < 2.0

    def test_balanced_start_framed_immediately(self, canonical_certificate):
        # initial mass equal to s_in keeps the mass ratio pinned at one
        traj = simulate(PARAMS, GROWTHS, State(s=9.97, x=np.array([0.01] * 3)), 40.0)
        res = check_substrate_frame(traj, canonical_certificate, GROWTHS, PARAMS)
        assert res.passed
        assert res.measured["frame_time"] == 0.0

    def test_shifted_rail_fails(self, canonical_trajectory, canonical_certificate):
        cert = canonical_certificate
        bad = dataclasses.replace(cert, d_plus=cert.d - cert.gamma_minus / 4.0)
        res = check_substrate_frame(canonical_trajectory, bad, GROWTHS, PARAMS)
        assert not res.passed


class TestInduction:
    def test_canonical_stages(self, canonical_trajectory, canonical_certificate):
        results = check_induction_properties(
            canonical_trajectory, canonical_certificate, ID_TO_COL, 1e-4
        )
        assert [r.claim_id for r in results] == ["exclusion_stage_1", "exclusion_stage_2"]
        assert all(r.passed for r in results)
        t1 = results[0].measured["entry_time"]
        t2 = results[1].measured["entry_time"]
        assert t1 >= t2  # the smaller interval is entered no earlier
        nu = canonical_certificate.nu
        assert results[1].measured["slope_pack_3"] <= -nu + 0.1 * nu

    def test_two_species(self):
        pair = (("a", Monod(3, 1)), ("b", Monod(4, 2)))
        traj = simulate(PARAMS, [g for _, g in pair], State(s=10.0, x=np.array([0.01, 0.01])), 80.0)
        ordered = order_species(pair, 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        results = check_induction_properties(traj, cert, {"a": 1, "b": 2}, 1e-4)
        assert len(results) == 1
        assert results[0].passed

    def test_corrupted_nu_fails(self, canonical_trajectory, canonical_certificate):
        bad = dataclasses.replace(canonical_certificate, nu=50.0 * canonical_certificate.nu)
        results = check_induction_properties(canonical_trajectory, bad, ID_TO_COL, 1e-4)
        assert not all(r.passed for r in results)


def _monod_report(n: int, horizon: float):
    """Report on n Monod species with distinct levels in (0.5, 6.5), all present."""
    rng = np.random.default_rng(n)
    lams = rng.uniform(0.5, 6.5, n)
    mu_max = rng.uniform(1.5, 4.0, n)
    species = [(f"m{i:02d}", Monod(float(mu_max[i]), float(lams[i] * (mu_max[i] - 1.0)))) for i in range(n)]
    return run_report(make_scenario(species=species, x=[0.01] * n, horizon=horizon))


STAGE_KEYS = {"entry_time", "excursions", "slope_max", "slope_max_pack", "p_final_max", "p_final_max_pack"}


@pytest.fixture(scope="module", params=[(10, 10.0), (10, 20.0), (40, 20.0)], ids=lambda p: f"n{p[0]}-h{p[1]:g}")
def short_monod_report(request):
    return _monod_report(*request.param)


class TestStageLayout:
    """Each stage reports its own pack and the values that govern its verdict."""

    def test_report_is_linear_in_n(self, short_monod_report):
        stages = [c for c in short_monod_report.claims if c.claim_id.startswith("exclusion_stage_")]
        assert len(stages) >= 9
        for k, c in enumerate(stages, start=1):
            assert len(c.measured) <= 8
            assert c.measured.keys() == STAGE_KEYS | {f"slope_pack_{k + 1}", f"p_final_pack_{k + 1}"}
        finals = [key for c in short_monod_report.claims for key in c.measured if key.startswith("p_final_pack_")]
        assert sorted(finals) == sorted(f"p_final_pack_{j}" for j in range(2, len(stages) + 2))

    def test_governing_values_explain_the_verdict(self, short_monod_report):
        stages = [c for c in short_monod_report.claims if c.claim_id.startswith("exclusion_stage_")]
        # The reports hold passing, failing and entry-less stages.
        assert {(c.passed, c.measured["entry_time"] is None) for c in stages} == (
            {(True, False), (False, False), (False, True)}
            if len(stages) > 20
            else {(True, False), (False, False)}
        )
        for c in stages:
            m, thr, eps_p = c.measured, c.thresholds["slope_threshold"], c.thresholds["eps_p"]
            slope_fails = m["slope_max"] is not None and not m["slope_max"] <= thr
            prop_fails = not (math.isfinite(m["p_final_max"]) and m["p_final_max"] < eps_p)
            if m["entry_time"] is None:
                assert m["slope_max"] is None and m["slope_max_pack"] is None
                assert not c.passed
                continue
            if "earlier than" not in c.detail:
                assert c.passed == (not slope_fails and not prop_fails), c.claim_id
            if slope_fails:
                assert f"pack {m['slope_max_pack']} decay rate" in c.detail
            if prop_fails:
                assert f"pack {m['p_final_max_pack']} final proportion" in c.detail

    @pytest.mark.parametrize(
        "values, want",
        [
            ([-0.3, -0.1, -0.2], (-0.1, 3)),
            ([-0.1, -0.3, -0.1], (-0.1, 2)),  # ties go to the lowest pack
            ([None, -0.3, None], (-0.3, 3)),
            ([None, None], (None, None)),
            ([0.2, math.inf, math.nan, 5.0], (math.inf, 3)),  # the first non-finite value
            ([math.nan, math.inf], (math.nan, 2)),
        ],
    )
    def test_governing_rule(self, values, want):
        got = _governing(values, 2)
        assert got[1] == want[1]
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))

    def test_failing_stage_names_the_governing_pack(self, canonical_certificate):
        # At horizon 10, pack 2 ends at p = 0.271 and pack 3 at p = 0.391.
        traj = simulate(PARAMS, GROWTHS, State(s=10.0, x=np.array([0.01] * 3)), 10.0)
        stage_1, stage_2 = check_induction_properties(traj, canonical_certificate, ID_TO_COL, 0.3)
        m = stage_1.measured
        assert not stage_1.passed and not stage_2.passed
        assert m["p_final_pack_2"] < 0.3 <= m["p_final_max"]
        assert m["p_final_max_pack"] == 3 and stage_2.measured["p_final_pack_3"] == m["p_final_max"]
        assert re.findall(r"pack (\d+) final proportion", stage_1.detail) == ["3"]
        start = int(np.searchsorted(traj.times, m["entry_time"]))
        slope_3, _ = fit_log_decay(traj.times[start:], traj.states[start:, 3] / traj.states[start:, 1])
        if m["slope_pack_2"] >= slope_3:
            assert (m["slope_max"], m["slope_max_pack"]) == (m["slope_pack_2"], 2)
        else:
            assert (m["slope_max"], m["slope_max_pack"]) == (pytest.approx(slope_3, rel=1e-9), 3)


class TestFinalConvergence:
    def test_canonical(self, canonical_trajectory):
        predicted = State(s=LAM[0], x=np.array([9.5, 0.0, 0.0]))
        res = check_final_convergence(canonical_trajectory, predicted, 1e-3)
        assert res.passed

    def test_wrong_prediction_fails(self, canonical_trajectory):
        predicted = State(s=LAM[1], x=np.array([0.0, 10.0 - LAM[1], 0.0]))
        res = check_final_convergence(canonical_trajectory, predicted, 1e-3)
        assert not res.passed


class TestRunReport:
    def test_canonical_passes(self):
        report = run_report(make_scenario())
        assert report.overall_pass
        ids = [c.claim_id for c in report.claims]
        assert "mass_convergence" in ids
        assert "exclusion_stage_1" in ids and "exclusion_stage_2" in ids
        assert "final_state" in ids
        assert report.certificate["status"] == "ok"
        # reproducible bit-identically
        again = run_report(make_scenario())
        assert again.to_dict() == report.to_dict()

    def test_washout_path(self):
        report = run_report(make_scenario(x=(0.01, 0.01, 0.01), s0=0.4, s_in=0.4, horizon=100.0))
        assert report.overall_pass
        assert report.certificate["status"] == "washout"
        by_id = {c.claim_id: c for c in report.claims}
        assert by_id["washout_extinction"].applicable and by_id["washout_extinction"].passed
        assert not by_id["biomass_floor"].applicable
        assert not by_id["substrate_frame"].applicable
        assert by_id["final_state"].passed

    def test_absent_lead_species_reduces_the_competition(self):
        # with sp1 absent the winner is sp2; its slower gap needs more time
        report = run_report(make_scenario(x=(0.0, 0.01, 0.01), horizon=200.0))
        assert report.overall_pass
        final = [c for c in report.claims if c.claim_id == "final_state"][0]
        assert final.passed

    def test_degenerate_pack_report(self):
        twins = (("u", Monod(3, 1)), ("v", Monod(3, 1)))
        report = run_report(make_scenario(species=twins, x=(0.01, 0.02), horizon=60.0))
        assert report.certificate["status"] == "degenerate"
        by_id = {c.claim_id: c for c in report.claims}
        assert not by_id["substrate_frame"].applicable
        assert by_id["final_state"].passed
        assert report.overall_pass

    def test_table_that_does_not_increase_cannot_reach_run_report(self):
        # the parser refuses this law, and a library caller cannot build it
        # either, so no scenario that breaks the hypotheses reaches run_report
        with pytest.raises(ParameterError, match="node rates must increase strictly"):
            Table(((0.0, 0.0), (1.0, 0.5), (2.0, 0.4), (10.0, 3.0)))

    def test_text_rendering(self):
        report = run_report(make_scenario(horizon=30.0))
        text = report.to_text()
        assert "overall:" in text
        assert "mass_convergence" in text
