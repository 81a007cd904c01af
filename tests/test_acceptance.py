"""Acceptance gate: ten end-to-end criteria on the canonical scenario.

The canonical setup is three Monod competitors at removal rate 1 and inflow
10, break-even levels (0.5, 2/3, 0.75), inoculated at 0.01 each, run to
horizon 80 at rel_tol 1e-8.  Each test prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them live.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, build_certificate, order_species, run_report, simulate
from chemostat_cep import verify
from chemostat_cep.certificate import recheck_certificate
from chemostat_cep.growth import break_even
from chemostat_cep.integrate import first_persistent_entry
from chemostat_cep.verify import (
    check_biomass_floor,
    check_final_convergence,
    check_induction_properties,
    check_mass_convergence,
    check_substrate_frame,
    check_washout_species,
    fit_log_decay,
)

from conftest import CANONICAL_SPECIES, LAM, frame_reference, make_scenario, mass_closed_form, refined_gaps

PARAMS = ChemostatParams(d=1.0, s_in=10.0)
GROWTHS = [g for _, g in CANONICAL_SPECIES]
X0 = State(s=10.0, x=np.array([0.01, 0.01, 0.01]))
ID_TO_COL = {"sp1": 1, "sp2": 2, "sp3": 3}


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    else:
        print(f"[acceptance] {label}: PASS")


def test_c01_break_even_oracle():
    with criterion("C1 break-even bisection vs closed form"):
        rng = np.random.default_rng(20260811)
        start = time.perf_counter()
        for _ in range(100):
            d = float(rng.uniform(0.1, 2.0))
            mu_max = float(rng.uniform(1.05, 20.0)) * d
            k = float(rng.uniform(0.01, 100.0))
            expected = k * d / (mu_max - d)
            got = break_even(Monod(mu_max, k), d, s_probe_max=1e9)
            assert abs(got - expected) <= 1e-10 * max(1.0, expected / 1e3)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_c02_mass_law(canonical_trajectory):
    with criterion("C2 total-mass relaxation vs closed form"):
        start = time.perf_counter()
        traj = simulate(PARAMS, GROWTHS, X0, 80.0, rel_tol=1e-8, abs_tol=1e-10)
        elapsed = time.perf_counter() - start
        m = traj.channels.m
        expected = mass_closed_form(float(m[0]), PARAMS, traj.times)
        assert float(np.max(np.abs(m - expected))) <= 1e-5
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_c03_exclusion_end_state(canonical_trajectory):
    with criterion("C3 final state at (0.5, 9.5, 0, 0)"):
        final = canonical_trajectory.states[-1]
        target = np.array([LAM[0], 10.0 - LAM[0], 0.0, 0.0])
        assert float(np.max(np.abs(final - target))) <= 1e-3
        tighter = simulate(PARAMS, GROWTHS, X0, 80.0, rel_tol=5e-9, abs_tol=5e-11)
        assert float(np.max(np.abs(final - tighter.states[-1]))) < 1e-6


def test_c04_transient_dominance_reversal(canonical_trajectory):
    with criterion("C4 early leader loses"):
        mus_at_inflow = [g(10.0) for g in GROWTHS]
        assert mus_at_inflow[2] > mus_at_inflow[1] > mus_at_inflow[0]
        assert mus_at_inflow == pytest.approx([30 / 11, 40 / 12, 50 / 13], rel=1e-12)
        leaders = np.argmax(canonical_trajectory.states[:, 1:], axis=1)
        changes = int(np.count_nonzero(np.diff(leaders)))
        assert changes >= 1
        assert leaders[-1] == 0  # species 1 holds the lead at the horizon
        assert 2 in leaders  # the steepest law led at some point


def test_c05_certificate_validity(canonical_ordered, canonical_certificate):
    with criterion("C5 certificate constants, nu below the gap on a 10x finer grid"):
        cert = canonical_certificate
        assert cert.nu > 0.0
        assert cert.gamma_minus > 0.0 and cert.gamma_plus > 0.0
        assert recheck_certificate(cert, canonical_ordered) == []
        assert cert.nu <= min(refined_gaps(canonical_ordered, cert, 10))


def test_c06_substrate_frame(canonical_trajectory, canonical_certificate):
    with criterion("C6 substrate derivative framed after the frame time"):
        res = check_substrate_frame(canonical_trajectory, canonical_certificate, PARAMS)
        assert res.passed
        # the derivative form holds on every sample from the frame time on
        established, frame_time, violations = frame_reference(
            canonical_trajectory, canonical_certificate, GROWTHS, PARAMS
        )
        assert established and res.measured["frame_time"] == frame_time
        assert violations == 0


def test_c07_staged_exclusion(canonical_trajectory, canonical_certificate):
    with criterion("C7 entry ordering, ratio decay, final proportions"):
        cert = canonical_certificate
        results = check_induction_properties(canonical_trajectory, cert, ID_TO_COL)
        assert all(r.passed for r in results)
        t1 = results[0].measured["entry_time"]
        t2 = results[1].measured["entry_time"]
        assert t1 >= t2
        assert results[1].measured["excess_pack_3"] <= 0.0
        x_final = canonical_trajectory.states[-1, 1:]
        p = x_final / x_final.sum()
        assert p[1] < 1e-4 and p[2] < 1e-4


def test_c08_washout_species_added(canonical_trajectory):
    with criterion("C8 unreachable-level species washes out harmlessly"):
        species = CANONICAL_SPECIES + (("slow", Monod(1.0, 1.0)),)
        growths = [g for _, g in species]
        assert break_even(Monod(1.0, 1.0), 1.0) == math.inf
        traj = simulate(PARAMS, growths, State(s=10.0, x=np.array([0.01] * 4)), 80.0)
        assert traj.states[-1, 4] < 1e-4
        ordered = order_species(species, 1.0, 10.0)
        assert check_washout_species(traj, ordered, 10.0).passed
        # the three-species outcome is undisturbed beyond 1e-4
        base = canonical_trajectory.states[-1]
        assert float(np.max(np.abs(traj.states[-1, :4] - base))) < 1e-4


def test_c09_identical_level_packing():
    with criterion("C9 duplicated species stay in lockstep and decay as a pack"):
        species = CANONICAL_SPECIES + (("sp3b", Monod(5.0, 3.0)),)
        growths = [g for _, g in species]
        traj = simulate(PARAMS, growths, State(s=10.0, x=np.array([0.01, 0.01, 0.01, 0.02])), 80.0)
        ratio = traj.states[:, 4] / traj.states[:, 3]
        drift = float((ratio.max() - ratio.min()) / ratio.mean())
        assert drift <= 1e-6
        ordered = order_species(species, 1.0, 10.0)
        assert ordered.packs == ((0,), (1,), (2, 3))
        cert = build_certificate(ordered, 1.0, 10.0)
        entry = first_persistent_entry(traj, cert.intervals[1])
        assert entry.entry_time is not None
        packed = (traj.states[:, 3] + traj.states[:, 4]) / traj.states[:, 1]
        window = traj.times >= entry.entry_time
        slope, _ = fit_log_decay(traj.times[window], packed[window])
        assert slope is not None
        assert slope <= -cert.nu + 0.1 * cert.nu


def test_c10_negative_controls(canonical_trajectory, canonical_ordered, canonical_certificate, monkeypatch):
    with criterion("C10 corrupted constants and thresholds all flip to fail"):
        traj = canonical_trajectory
        cert = canonical_certificate
        flips = []

        # 1. mass-law prediction with a wrong removal rate
        flips.append(check_mass_convergence(traj, ChemostatParams(2.0, 10.0)))
        # 2. mass threshold far below integrator accuracy
        monkeypatch.setattr(verify, "EPS_MASS", 1e-16)
        flips.append(check_mass_convergence(traj, PARAMS))
        # 3. washout threshold below the reachable density floor
        species = CANONICAL_SPECIES + (("slow", Monod(1.0, 1.0)),)
        trajw = simulate(PARAMS, [g for _, g in species], State(s=10.0, x=np.array([0.01] * 4)), 80.0)
        ord4 = order_species(species, 1.0, 10.0)
        monkeypatch.setattr(verify, "EPS_WASHOUT", 1e-300)
        flips.append(check_washout_species(trajw, ord4, 10.0))
        # 4. biomass floor above the physically possible level
        monkeypatch.setattr(verify, "EPS_FLOOR", 2.0 * PARAMS.s_in)
        flips.append(check_biomass_floor(traj, canonical_ordered, PARAMS))
        # 5. frame rail pushed below the limit of the mass ratio
        bad_frame = dataclasses.replace(cert, d_plus=cert.d - cert.gamma_minus / 4.0)
        flips.append(check_substrate_frame(traj, bad_frame, PARAMS))
        # 6. inflated domination margin makes the decay requirement unmeetable
        bad_nu = dataclasses.replace(cert, nu=50.0 * cert.nu)
        stage = check_induction_properties(traj, bad_nu, ID_TO_COL)
        flips.append(min(stage, key=lambda c: c.passed))
        # 7. final-state tolerance below the integrator's resolution
        predicted = State(s=LAM[0], x=np.array([9.5, 0.0, 0.0]))
        monkeypatch.setattr(verify, "EPS_FINAL", 1e-13)
        flips.append(check_final_convergence(traj, predicted))

        assert len(flips) >= 6
        for claim in flips:
            assert claim.applicable and not claim.passed, claim.claim_id
        # 8. a corrupted certificate no longer survives the grid recheck
        bad_cert = dataclasses.replace(cert, nu=5.0 * cert.nu)
        assert recheck_certificate(bad_cert, canonical_ordered) != []


def test_end_to_end_report():
    with criterion("end-to-end verify on the canonical scenario"):
        report = run_report(make_scenario())
        assert report.overall_pass
