"""Integrator accuracy, dense output, determinism, and persistent entries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat_cep import ChemostatParams, Monod, State, integrate, simulate
from chemostat_cep.errors import DomainError, ParameterError
from chemostat_cep.integrate import _initial_step, first_persistent_entry, scan_persistent_entry

from conftest import CANONICAL_SPECIES, mass_closed_form

PARAMS = ChemostatParams(d=1.0, s_in=10.0)
GROWTHS = [g for _, g in CANONICAL_SPECIES]
X0 = State(s=10.0, x=np.array([0.01, 0.01, 0.01]))


class TestSimulate:
    def test_single_species_converges(self):
        traj = simulate(PARAMS, [Monod(3, 1)], State(s=10.0, x=np.array([0.1])), 60.0)
        assert traj.states[-1, 0] == pytest.approx(0.5, abs=1e-6)
        assert traj.states[-1, 1] == pytest.approx(9.5, abs=1e-6)

    def test_no_biomass_reduces_to_linear_flushing(self):
        traj = simulate(PARAMS, [Monod(3, 1)], State(s=3.0, x=np.array([0.0])), 10.0)
        expected = mass_closed_form(3.0, PARAMS, traj.times)
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-6)
        np.testing.assert_array_equal(traj.states[:, 1], np.zeros(traj.times.size))

    def test_canonical_losers_extinct(self, canonical_trajectory):
        final = canonical_trajectory.states[-1]
        assert final[1] == pytest.approx(9.5, abs=1e-3)
        assert final[2] < 1e-4 and final[3] < 1e-4
        # cross-check against a run at halved tolerances
        tighter = simulate(PARAMS, GROWTHS, X0, 80.0, rel_tol=5e-9, abs_tol=5e-11)
        np.testing.assert_allclose(final, tighter.states[-1], atol=1e-6)

    def test_dense_grid_shape(self, canonical_trajectory):
        t = canonical_trajectory.times
        assert t.size == 2001  # horizon / (horizon/2000) + 1
        assert t[0] == 0.0 and t[-1] == 80.0
        assert np.all(np.diff(t) > 0.0)
        assert np.max(np.diff(t)) <= 80.0 / 2000.0 + 1e-12

    def test_mass_channel_tracks_closed_form(self, canonical_trajectory):
        traj = canonical_trajectory
        expected = mass_closed_form(float(traj.channels.m[0]), PARAMS, traj.times)
        bound = 100.0 * traj.meta.rel_tol * (1.0 + PARAMS.s_in)
        assert np.max(np.abs(traj.channels.m - expected)) <= bound

    def test_positivity(self, canonical_trajectory):
        assert canonical_trajectory.meta.min_component_preclip >= -canonical_trajectory.meta.abs_tol
        assert np.min(canonical_trajectory.states) >= 0.0

    def test_undershoot_beyond_abs_tol_is_rejected(self):
        # At these tolerances the substrate ends up to 8.17 below zero on
        # steps the error norm accepts; clipping them lifted the mass at the
        # horizon to 113.08.  Such steps are rejected instead.
        traj = simulate(
            PARAMS, [Monod(20.0, 0.01)], State(s=10.0, x=np.array([100.0])), 0.05, rel_tol=1e-2, abs_tol=1e-4
        )
        assert traj.meta.min_component_preclip >= -traj.meta.abs_tol
        assert np.min(traj.step_states) >= 0.0 and np.min(traj.states) >= 0.0
        m = traj.channels.m
        assert abs(m[-1] - mass_closed_form(float(m[0]), PARAMS, 0.05)) <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="clipping undershoots within abs_tol adds mass on every accepted step "
        "(FOUND in CHANGES.md: integrate.simulate still lets clipping within abs_tol add mass)",
    )
    def test_clipping_within_abs_tol_keeps_the_mass(self):
        # The clipped golden case at rel_tol 1e-3: 2513 accepted steps with
        # pre-clip minima down to -9.27e-5, each clipped to 0, leave the mass
        # 0.090 above its closed form (4.3e-14 at rel_tol 1e-2).
        traj = simulate(
            PARAMS, [Monod(20.0, 0.01)], State(s=10.0, x=np.array([100.0])), 0.05, rel_tol=1e-3, abs_tol=1e-4
        )
        m = traj.channels.m
        assert abs(m[-1] - mass_closed_form(float(m[0]), PARAMS, 0.05)) <= 1e-8 * PARAMS.s_in

    def test_tolerance_convergence(self):
        coarse = simulate(PARAMS, GROWTHS, X0, 80.0, rel_tol=1e-8, abs_tol=1e-10)
        fine = simulate(PARAMS, GROWTHS, X0, 80.0, rel_tol=5e-9, abs_tol=5e-11)
        diff = float(np.max(np.abs(coarse.states[-1] - fine.states[-1])))
        assert diff < 10.0 * 1e-8

    def test_deterministic(self):
        a = simulate(PARAMS, GROWTHS, X0, 20.0)
        b = simulate(PARAMS, GROWTHS, X0, 20.0)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.step_times, b.step_times)
        assert a.meta == b.meta

    @pytest.mark.parametrize(
        "kw",
        [
            {"horizon": 0.0},
            {"horizon": -1.0},
            {"rel_tol": 0.0},
            {"rel_tol": 2.0},
            {"abs_tol": 0.0},
            {"dense_dt": 0.0},
        ],
    )
    def test_bad_arguments(self, kw):
        args = {"horizon": 10.0, "rel_tol": 1e-8, "abs_tol": 1e-10, "dense_dt": None}
        args.update(kw)
        with pytest.raises(ParameterError):
            simulate(PARAMS, [Monod(3, 1)], State(s=1.0, x=np.array([0.1])), **args)

    def test_growth_count_mismatch(self):
        with pytest.raises(ParameterError):
            simulate(PARAMS, GROWTHS, State(s=1.0, x=np.array([0.1])), 10.0)

    def test_hostile_scale_raises_typed_error(self):
        # an absurd growth scale must end in a diagnosis, not a hang
        from chemostat_cep.errors import DivergenceError, StiffnessError

        with pytest.raises((StiffnessError, DivergenceError)) as exc:
            simulate(PARAMS, [Monod(1e300, 1.0)], State(s=10.0, x=np.array([0.1])), 10.0)
        assert exc.value.t >= 0.0


class TestRhsCount:
    """``IntegratorStats.rhs_evals`` counts the RHS calls actually made."""

    @staticmethod
    def _counted_simulate(monkeypatch, *args, **kwargs):
        calls = [0]
        factory = integrate.vector_field

        def counting_factory(*fargs):
            f = factory(*fargs)

            def counted(t, y, out=None):
                calls[0] += 1
                return f(t, y, out=out)

            return counted

        monkeypatch.setattr(integrate, "vector_field", counting_factory)
        traj = simulate(*args, **kwargs)
        return traj, calls[0]

    @pytest.mark.parametrize(
        "growths, x, horizon",
        [
            (GROWTHS, [0.01, 0.01, 0.01], 80.0),
            ([Monod(3, 1)], [0.0], 10.0),
            ([Monod(3, 1), Monod(1, 1)], [0.5, 2.0], 25.0),
        ],
    )
    def test_reported_count_equals_calls(self, monkeypatch, growths, x, horizon):
        traj, calls = self._counted_simulate(
            monkeypatch, PARAMS, growths, State(s=10.0, x=np.array(x)), horizon
        )
        assert traj.meta.rhs_evals == calls

    def test_initial_step_reports_its_own_calls(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return np.array([np.inf, 0.0])

        y0 = np.array([1.0, 1.0])
        # overflowing derivative norm: fallback step, no RHS call
        assert _initial_step(f, 0.0, y0, np.array([np.inf, 0.0]), 10.0, 1e-8, 1e-10) == (1e-6, 0)
        assert calls == []
        # overflowing second derivative estimate: fallback after one call
        assert _initial_step(f, 0.0, y0, np.array([1.0, 0.0]), 10.0, 1e-8, 1e-10) == (1e-6, 1)
        assert len(calls) == 1


class TestMassLawProperty:
    @given(
        mu2=st.floats(1.3, 6.0),
        k2=st.floats(0.3, 5.0),
        s0=st.floats(0.0, 15.0),
        x0=st.floats(0.0, 4.0),
        x1=st.floats(0.0, 4.0),
    )
    # the first-step guess fell below the underflow limit here
    @example(mu2=2.0, k2=1.0, s0=1e-12, x0=0.0, x1=0.0)
    @settings(max_examples=15, deadline=None)
    def test_mass_channel_relaxes_for_any_setup(self, mu2, k2, s0, x0, x1):
        traj = simulate(
            PARAMS,
            [Monod(3.0, 1.0), Monod(mu2, k2)],
            State(s=s0, x=np.array([x0, x1])),
            12.0,
        )
        expected = mass_closed_form(float(traj.channels.m[0]), PARAMS, traj.times)
        bound = 100.0 * traj.meta.rel_tol * (1.0 + PARAMS.s_in)
        assert float(np.max(np.abs(traj.channels.m - expected))) <= bound


class TestSample:
    def test_initial_state_is_exact(self, canonical_trajectory):
        st = canonical_trajectory.sample(0.0)
        assert st.s == 10.0
        np.testing.assert_array_equal(st.x, X0.x)

    def test_step_node_identity(self, canonical_trajectory):
        traj = canonical_trajectory
        k = len(traj.step_times) // 2
        st = traj.sample(float(traj.step_times[k]))
        assert st.s == traj.step_states[k, 0]
        np.testing.assert_array_equal(st.x, traj.step_states[k, 1:])

    def test_mid_step_matches_linear_closed_form(self):
        # with no biomass the substrate relaxes exponentially; the dense
        # interpolant must track it within the integrator's accuracy scale
        traj = simulate(PARAMS, [Monod(3, 1)], State(s=3.0, x=np.array([0.0])), 10.0,
                        rel_tol=1e-8, abs_tol=1e-10)
        mids = 0.5 * (traj.step_times[:-1] + traj.step_times[1:])
        worst = max(
            abs(traj.sample(float(t)).s - mass_closed_form(3.0, PARAMS, float(t)))
            for t in mids
        )
        assert worst <= 10.0 * 1e-8 * (1.0 + PARAMS.s_in)

    def test_outside_range_rejected(self, canonical_trajectory):
        with pytest.raises(DomainError):
            canonical_trajectory.sample(-0.5)
        with pytest.raises(DomainError):
            canonical_trajectory.sample(80.5)


class TestPersistentEntry:
    def test_immediate_membership(self, canonical_trajectory):
        rec = first_persistent_entry(canonical_trajectory, (0.0, 11.0))
        assert rec.entry_time == 0.0
        assert rec.excursions == 0

    def test_canonical_interval_entry(self, canonical_trajectory, canonical_certificate):
        rec = first_persistent_entry(canonical_trajectory, canonical_certificate.intervals[1])
        assert rec.entry_time is not None and 0.0 < rec.entry_time < 80.0
        # the substrate really is inside from the entry time onward
        t = canonical_trajectory.times
        s = canonical_trajectory.states[:, 0]
        lo, hi = canonical_certificate.intervals[1]
        after = t >= rec.entry_time
        assert np.all((s[after] >= lo) & (s[after] <= hi))
        # and just before the entry it was outside
        before = canonical_trajectory.sample(rec.entry_time - 0.05).s
        assert not (lo <= before <= hi)

    def test_disjoint_interval_absent(self, canonical_trajectory):
        rec = first_persistent_entry(canonical_trajectory, (100.0, 200.0))
        assert rec.entry_time is None
        assert rec.excursions == 0

    def test_bad_interval(self, canonical_trajectory):
        with pytest.raises(ParameterError):
            first_persistent_entry(canonical_trajectory, (1.0, 1.0))

    def test_scan_counts_excursions(self):
        inside = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1, 1], dtype=bool)
        assert scan_persistent_entry(inside) == (6, 2)

    def test_scan_trailing_exit_blocks(self):
        inside = np.array([0, 1, 1, 1, 0], dtype=bool)
        assert scan_persistent_entry(inside) == (None, 1)

    def test_scan_short_excursion_resets_the_entry(self):
        inside = np.array([0, 0, 1, 1, 0, 1, 1, 1, 1, 1], dtype=bool)
        assert scan_persistent_entry(inside) == (5, 1)
