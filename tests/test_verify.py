"""Claim checks: positives, not-applicable paths, and sabotage controls."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostat_cep import (
    ChemostatParams,
    Hill,
    Monod,
    State,
    Table,
    build_certificate,
    order_species,
    parse_scenario,
    run_report,
    simulate,
)
from chemostat_cep import verify
from chemostat_cep.errors import ParameterError
from chemostat_cep.verify import (
    check_biomass_floor,
    check_final_convergence,
    check_induction_properties,
    check_mass_convergence,
    check_substrate_frame,
    check_washout_species,
    _governing,
)

from conftest import CANONICAL_SPECIES, LAM, frame_reference, make_scenario

ROOT = Path(__file__).resolve().parent.parent

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
        res = check_mass_convergence(traj, PARAMS)
        assert res.passed
        assert res.measured["predicted_entry"] == 0.0
        assert res.measured["empirical_entry"] == 0.0

    def test_canonical(self, canonical_trajectory):
        res = check_mass_convergence(canonical_trajectory, PARAMS)
        assert res.passed
        pred = res.measured["predicted_entry"]
        emp = res.measured["empirical_entry"]
        assert abs(emp - pred) <= 0.05 * pred

    def test_sabotaged_prediction_fails(self, canonical_trajectory):
        res = check_mass_convergence(canonical_trajectory, ChemostatParams(2.0, 10.0))
        assert not res.passed


class TestWashoutSpecies:
    def test_added_slow_species_dies(self, washout_added_trajectory):
        traj, ordered = washout_added_trajectory
        res = check_washout_species(traj, ordered, 10.0)
        assert res.passed
        assert res.measured["worst_final_density"] < 1e-4

    def test_not_applicable_without_washout_species(self, canonical_trajectory, canonical_ordered):
        res = check_washout_species(canonical_trajectory, canonical_ordered, 10.0)
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
        res = check_washout_species(traj, ordered, 10.0)
        assert res.passed


class TestBiomassFloor:
    def test_canonical(self, canonical_trajectory, canonical_ordered):
        res = check_biomass_floor(canonical_trajectory, canonical_ordered, PARAMS)
        assert res.passed
        assert res.measured["floor"] > 9.0

    def test_not_applicable_in_washout(self):
        params = ChemostatParams(d=1.0, s_in=0.4)
        traj = simulate(params, GROWTHS, State(s=0.4, x=np.array([0.01] * 3)), 10.0)
        ordered = order_species(CANONICAL_SPECIES, 1.0, params.s_in)
        res = check_biomass_floor(traj, ordered, params)
        assert not res.applicable

    def test_tiny_inoculum_still_grows(self):
        traj = simulate(PARAMS, GROWTHS, State(s=10.0, x=np.array([1e-8] * 3)), 80.0)
        ordered = order_species(CANONICAL_SPECIES, 1.0, 10.0)
        res = check_biomass_floor(traj, ordered, PARAMS)
        assert res.passed


def _assert_frame_matches_reference(traj, cert, growths, params):
    """The check agrees with the derivative form (``conftest.frame_reference``)."""
    res = check_substrate_frame(traj, cert, params)
    established, frame_time, violations = frame_reference(traj, cert, growths, params)
    assert res.passed == established
    if established:
        assert res.measured == {"frame_time": frame_time}
        assert violations == 0
    else:
        assert res.detail == "frame never established before the horizon"
    assert res.thresholds == {"d_minus": cert.d_minus, "d_plus": cert.d_plus}
    return res


class TestSubstrateFrame:
    def test_canonical(self, canonical_trajectory, canonical_certificate):
        res = _assert_frame_matches_reference(canonical_trajectory, canonical_certificate, GROWTHS, PARAMS)
        assert res.passed
        assert res.measured["frame_time"] < 2.0

    def test_with_washout(self):
        sc = parse_scenario(str(ROOT / "scenarios" / "with_washout.yaml"))
        traj = simulate(sc.params, sc.growths, sc.initial, sc.horizon, sc.tolerances.rel_tol, sc.tolerances.abs_tol)
        present = [sp for sp, xi in zip(sc.species, sc.initial.x) if xi > 0.0]
        cert = build_certificate(order_species(present, sc.params.d, sc.params.s_in), sc.params.d, sc.params.s_in)
        assert _assert_frame_matches_reference(traj, cert, sc.growths, sc.params).passed

    def test_balanced_start_framed_immediately(self, canonical_certificate):
        # initial mass equal to s_in keeps the mass ratio pinned at one
        traj = simulate(PARAMS, GROWTHS, State(s=9.97, x=np.array([0.01] * 3)), 40.0)
        res = _assert_frame_matches_reference(traj, canonical_certificate, GROWTHS, PARAMS)
        assert res.passed
        assert res.measured["frame_time"] == 0.0

    def test_shifted_rail_fails(self, canonical_trajectory, canonical_certificate):
        cert = canonical_certificate
        bad = dataclasses.replace(cert, d_plus=cert.d - cert.gamma_minus / 4.0)
        res = _assert_frame_matches_reference(canonical_trajectory, bad, GROWTHS, PARAMS)
        assert not res.passed

    @given(
        kinds=st.lists(st.sampled_from(["monod", "hill", "table"]), min_size=2, max_size=5),
        lam0=st.floats(0.5, 2.0),
        gaps=st.lists(st.floats(0.3, 1.5), min_size=5, max_size=5),
        mu_max=st.lists(st.floats(1.5, 5.0), min_size=5, max_size=5),
        hill_p=st.floats(1.0, 3.0),
        x0=st.lists(st.floats(0.005, 0.05), min_size=5, max_size=5),
        s0=st.floats(0.0, 10.0),
    )
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_mixed_laws_match_the_derivative_form(self, kinds, lam0, gaps, mu_max, hill_p, x0, s0):
        species = []
        lam = lam0
        for i, kind in enumerate(kinds):
            top = mu_max[i]
            if kind == "monod":
                g = Monod(top, lam * (top - 1.0))
            elif kind == "hill":
                g = Hill(top, lam * (top - 1.0) ** (1.0 / hill_p), hill_p)
            else:
                g = Table(((0.0, 0.0), (lam, 1.0), (2.0 * lam + 5.0, top + 1.0)))
            species.append((f"sp{i}", g))
            lam += gaps[i]
        growths = [g for _, g in species]
        traj = simulate(PARAMS, growths, State(s=s0, x=np.array(x0[: len(kinds)])), 40.0)
        cert = build_certificate(order_species(species, 1.0, 10.0), 1.0, 10.0)
        _assert_frame_matches_reference(traj, cert, growths, PARAMS)


class TestInduction:
    def test_canonical_stages(self, canonical_trajectory, canonical_certificate):
        results = check_induction_properties(canonical_trajectory, canonical_certificate, ID_TO_COL)
        assert [r.claim_id for r in results] == ["exclusion_stage_1", "exclusion_stage_2"]
        assert all(r.passed for r in results)
        t1 = results[0].measured["entry_time"]
        t2 = results[1].measured["entry_time"]
        assert t1 >= t2  # the smaller interval is entered no earlier
        assert results[1].measured["excess_pack_3"] <= 0.0

    def test_two_species(self):
        pair = (("a", Monod(3, 1)), ("b", Monod(4, 2)))
        traj = simulate(PARAMS, [g for _, g in pair], State(s=10.0, x=np.array([0.01, 0.01])), 80.0)
        ordered = order_species(pair, 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        results = check_induction_properties(traj, cert, {"a": 1, "b": 2})
        assert len(results) == 1
        assert results[0].passed

    def test_tied_pack_is_the_sum_of_its_members(self):
        # Nine species share one law, so pack 2 has nine members: its ratio
        # and final proportion are their sums, not its first member's.
        species = (("a", Monod(3, 1)),) + tuple((f"b{k}", Monod(4, 2)) for k in range(9))
        x = np.array([0.01] + [0.001 * (k + 1) for k in range(9)])
        traj = simulate(PARAMS, [g for _, g in species], State(s=10.0, x=x), 40.0)
        cert = build_certificate(order_species(species, 1.0, 10.0), 1.0, 10.0)
        assert [len(pack.ids) for pack in cert.packs] == [1, 9]
        (stage,) = check_induction_properties(traj, cert, {sid: 1 + k for k, (sid, _) in enumerate(species)})
        members = list(range(2, 11))
        x_final = traj.states[-1, 1:]
        assert stage.measured["p_final_pack_2"] == float(np.sum(x_final[[c - 1 for c in members]] / x_final.sum()))
        # The excess of the summed ratio, bit for bit: no BLAS product
        # stands between the states and the check.
        start = int(np.searchsorted(traj.times, stage.measured["entry_time"]))
        ratio = traj.states[start:, members].sum(axis=1) / traj.states[start:, 1]
        g = np.log(ratio) + stage.thresholds["rate"] * traj.times[start:]
        assert stage.measured["excess_pack_2"] == float(np.max(g) - g[0])

    def test_corrupted_nu_fails(self, canonical_trajectory, canonical_certificate):
        bad = dataclasses.replace(canonical_certificate, nu=50.0 * canonical_certificate.nu)
        results = check_induction_properties(canonical_trajectory, bad, ID_TO_COL)
        assert not all(r.passed for r in results)

    def test_one_rise_after_the_entry_fails_with_its_witness(self, canonical_trajectory, canonical_certificate):
        # Pack 2's ratio rises by e^0.01 over the one spacing after stage 1's
        # entry and decays as before from there on; its final proportion
        # stays far below EPS_P.  A least-squares slope of the tail still
        # reads a steep decay; the inequality names the rise.
        traj = canonical_trajectory
        entry = check_induction_properties(traj, canonical_certificate, ID_TO_COL)[0].measured["entry_time"]
        a = int(np.searchsorted(traj.times, entry))
        states = traj.states.copy()
        states[a + 1, 2] = states[a, 2] / states[a, 1] * math.exp(0.01) * states[a + 1, 1]
        stage_1, stage_2 = check_induction_properties(
            dataclasses.replace(traj, states=states), canonical_certificate, ID_TO_COL
        )
        m = stage_1.measured
        assert not stage_1.passed and stage_2.passed
        assert m["p_final_pack_2"] < verify.EPS_P and m["excess_max_pack"] == 2
        rise = 0.01 + stage_1.thresholds["rate"] * float(traj.times[a + 1] - traj.times[a])
        assert m["excess_pack_2"] == m["excess_max"] == pytest.approx(rise, rel=1e-9)
        assert stage_1.detail == f"pack 2 excess {m['excess_pack_2']:.4g} at t={float(traj.times[a + 1]):.6g}"

    def test_a_decay_slower_than_the_rate_fails_at_the_horizon(self, canonical_trajectory, canonical_certificate):
        # From stage 1's entry on, pack 2's ratio decays at 0.8 nu, slower
        # than the rate 0.9 nu: g rises at 0.1 nu up to the horizon.
        traj, nu = canonical_trajectory, canonical_certificate.nu
        entry = check_induction_properties(traj, canonical_certificate, ID_TO_COL)[0].measured["entry_time"]
        a = int(np.searchsorted(traj.times, entry))
        states = traj.states.copy()
        decay = np.exp(-0.8 * nu * (traj.times[a:] - traj.times[a]))
        states[a:, 2] = states[a, 2] / states[a, 1] * decay * states[a:, 1]
        stage_1, _ = check_induction_properties(
            dataclasses.replace(traj, states=states), canonical_certificate, ID_TO_COL
        )
        assert stage_1.thresholds["rate"] == 0.9 * nu
        excess = stage_1.measured["excess_pack_2"]
        assert excess == pytest.approx(0.1 * nu * (traj.horizon - float(traj.times[a])), rel=1e-6)
        assert f"pack 2 excess {excess:.4g} at t={traj.horizon:.6g}" in stage_1.detail and not stage_1.passed


def _monod_report(n: int, horizon: float):
    """Report on n Monod species with distinct levels in (0.5, 6.5), all present."""
    rng = np.random.default_rng(n)
    lams = rng.uniform(0.5, 6.5, n)
    mu_max = rng.uniform(1.5, 4.0, n)
    species = [(f"m{i:02d}", Monod(float(mu_max[i]), float(lams[i] * (mu_max[i] - 1.0)))) for i in range(n)]
    return run_report(make_scenario(species=species, x=[0.01] * n, horizon=horizon))


STAGE_KEYS = {"entry_time", "excursions", "excess_max", "excess_max_pack", "p_final_max", "p_final_max_pack"}


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
            assert c.measured.keys() == STAGE_KEYS | {f"excess_pack_{k + 1}", f"p_final_pack_{k + 1}"}
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
            m, eps_p = c.measured, c.thresholds["eps_p"]
            excess_fails = m["excess_max"] is not None and not m["excess_max"] <= 0.0
            prop_fails = not (math.isfinite(m["p_final_max"]) and m["p_final_max"] < eps_p)
            if m["entry_time"] is None:
                assert m["excess_max"] is None and m["excess_max_pack"] is None
                assert not c.passed
                continue
            if "earlier than" not in c.detail:
                assert c.passed == (not excess_fails and not prop_fails), c.claim_id
            if excess_fails:
                assert f"pack {m['excess_max_pack']} excess" in c.detail
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
        row = np.array([[math.nan if v is None else v for v in values]])
        best, col = _governing(row, np.array([[v is not None for v in values]]))
        got = (best[0], None if col[0] is None else col[0] + 2)
        assert got[1] == want[1]
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))

    def test_failing_stage_names_the_governing_pack(self, canonical_certificate, monkeypatch):
        # At horizon 10, pack 2 ends at p = 0.271 and pack 3 at p = 0.391.
        monkeypatch.setattr(verify, "EPS_P", 0.3)
        traj = simulate(PARAMS, GROWTHS, State(s=10.0, x=np.array([0.01] * 3)), 10.0)
        stage_1, stage_2 = check_induction_properties(traj, canonical_certificate, ID_TO_COL)
        m = stage_1.measured
        assert not stage_1.passed and not stage_2.passed
        assert m["p_final_pack_2"] < 0.3 <= m["p_final_max"]
        assert m["p_final_max_pack"] == 3 and stage_2.measured["p_final_pack_3"] == m["p_final_max"]
        assert re.findall(r"pack (\d+) final proportion", stage_1.detail) == ["3"]
        start = int(np.searchsorted(traj.times, m["entry_time"]))
        g = np.log(traj.states[start:, 3] / traj.states[start:, 1]) + stage_1.thresholds["rate"] * traj.times[start:]
        excess_3 = float(np.max(g) - g[0])
        if m["excess_pack_2"] >= excess_3:
            assert (m["excess_max"], m["excess_max_pack"]) == (m["excess_pack_2"], 2)
        else:
            assert (m["excess_max"], m["excess_max_pack"]) == (excess_3, 3)


class TestFinalConvergence:
    def test_canonical(self, canonical_trajectory):
        predicted = State(s=LAM[0], x=np.array([9.5, 0.0, 0.0]))
        res = check_final_convergence(canonical_trajectory, predicted)
        assert res.passed

    def test_wrong_prediction_fails(self, canonical_trajectory):
        predicted = State(s=LAM[1], x=np.array([0.0, 10.0 - LAM[1], 0.0]))
        res = check_final_convergence(canonical_trajectory, predicted)
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
