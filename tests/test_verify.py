"""Claim checks: positives, not-applicable paths, and sabotage controls."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, build_certificate, order_species, run_report, simulate
from chemostat_cep.verify import (
    check_biomass_floor,
    check_final_convergence,
    check_induction_properties,
    check_mass_convergence,
    check_substrate_frame,
    check_washout_species,
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

    def test_text_rendering(self):
        report = run_report(make_scenario(horizon=30.0))
        text = report.to_text()
        assert "overall:" in text
        assert "mass_convergence" in text
