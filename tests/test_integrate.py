"""Integrator accuracy, dense output, determinism, and persistent entries."""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat_cep import ChemostatParams, Monod, State, dynamics, integrate, parse_scenario, simulate
from chemostat_cep.dynamics import _ARRAY_FIELD_MIN_LAWS
from chemostat_cep.errors import DomainError, ParameterError, StiffnessError
from chemostat_cep.integrate import _initial_step, first_persistent_entry, scan_persistent_entry

from conftest import CANONICAL_SPECIES, mass_closed_form

ROOT = Path(__file__).resolve().parent.parent
PARAMS = ChemostatParams(d=1.0, s_in=10.0)
GROWTHS = [g for _, g in CANONICAL_SPECIES]
X0 = State(s=10.0, x=np.array([0.01, 0.01, 0.01]))


def mass_after_steps(m0: float, params: ChemostatParams, step_times: np.ndarray) -> float:
    """Mass at the last of ``step_times`` for an explicit Dormand-Prince run.

    The mass obeys the linear law m' = d (s_in - m), and an explicit
    Runge-Kutta step maps a linear law through its stability polynomial,
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 + z^5/120 + z^6/600 for this pair,
    with z = -d h.  So, up to rounding and whatever the tolerances, a run
    ends at s_in + (m0 - s_in) times the product of R over its steps; the
    closed form s_in + (m0 - s_in) e^(-d t) holds only to the tolerances.
    """
    z = -params.d * np.diff(step_times)
    r = 1.0 + z * (1.0 + z / 2 * (1.0 + z / 3 * (1.0 + z / 4 * (1.0 + z / 5 * (1.0 + z / 5)))))
    return params.s_in + (m0 - params.s_in) * float(np.prod(r))


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
        assert np.min(canonical_trajectory.step_states) >= 0.0
        assert np.min(canonical_trajectory.states) >= 0.0

    def test_undershoot_is_rejected(self):
        # At these tolerances the substrate ends up to 8.17 below zero on
        # steps the error norm accepts; clipping them lifted the mass at the
        # horizon to 113.08.  Such steps are rejected instead.
        traj = simulate(
            PARAMS, [Monod(20.0, 0.01)], State(s=10.0, x=np.array([100.0])), 0.05, rel_tol=1e-2, abs_tol=1e-4
        )
        assert np.min(traj.step_states) >= 0.0 and np.min(traj.states) >= 0.0
        m = traj.channels.m
        assert abs(m[-1] - mass_closed_form(float(m[0]), PARAMS, 0.05)) <= 1e-6

    def test_clipping_within_abs_tol_keeps_the_mass(self):
        # The clipped golden case at rel_tol 1e-3: trial steps that the error
        # norm accepts end down to -9.27e-5, within abs_tol.  Clipping them
        # to 0 left the mass 0.090 above its closed form; rejected, they
        # leave it within rounding of it.
        traj = simulate(
            PARAMS, [Monod(20.0, 0.01)], State(s=10.0, x=np.array([100.0])), 0.05, rel_tol=1e-3, abs_tol=1e-4
        )
        m = traj.channels.m
        assert abs(m[-1] - mass_closed_form(float(m[0]), PARAMS, 0.05)) <= 1e-8 * PARAMS.s_in

    @pytest.mark.xfail(
        strict=True,
        raises=StiffnessError,
        reason="the step size underflows at t = 12.66 when s_in is large against the laws' k "
        "(FOUND in CHANGES.md: integrate.simulate fails with step size underflow on admissible scenarios)",
    )
    def test_large_inflow_concentration_integrates(self, tmp_path):
        # The canonical scenario at s_in = 1e20 is admissible input.
        text = (ROOT / "scenarios" / "canonical.yaml").read_text(encoding="utf-8")
        path = tmp_path / "large_inflow.yaml"
        path.write_text(text.replace("s_in: 10.0", "s_in: 1.0e20"), encoding="utf-8")
        sc = parse_scenario(str(path))
        assert sc.params.s_in == 1e20
        tols = sc.tolerances
        traj = simulate(sc.params, sc.growths, sc.initial, sc.horizon, rel_tol=tols.rel_tol, abs_tol=tols.abs_tol)
        assert traj.horizon == sc.horizon

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
            {"horizon": 1e-321},  # horizon / DENSE_INTERVALS underflows to 0
        ],
    )
    def test_bad_arguments(self, kw):
        args = {"horizon": 10.0, "rel_tol": 1e-8, "abs_tol": 1e-10}
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


# The Dormand-Prince 4(5) tableau as printed (Dormand & Prince 1980), exact.
DP_A = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
)
DP_B = (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84))
DP_C = (F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1))  # the nodes of stages 1-5
DP_D = (
    F(-12715105075, 11282082432),
    F(0),
    F(87487479700, 32700410799),
    F(-10690763975, 1880347072),
    F(701980252875, 199316789632),
    F(-1453857185, 822651844),
    F(69997945, 29380423),
)


def reference_step(f, y: list[float], h: float) -> tuple[list[float], list[list[float]]]:
    """One Dormand-Prince step from ``y`` by the textbook formula, in Python floats.

    Stage i is y + h * sum_j a_ij k_j, with h outside the sum.  Returns the
    end state and the interpolant coefficients [y, ydiff, h k0 - ydiff,
    ydiff - h k6 - (h k0 - ydiff), h sum_j d_j k_j] with ydiff = y_new - y.
    """

    def comb(weights, k):
        return [h * sum(float(w) * k_j[m] for w, k_j in zip(weights, k)) for m in range(len(y))]

    k = [f(0.0, np.array(y)).tolist()]
    for c, row in zip(DP_C, DP_A):
        k.append(f(float(c) * h, np.array([u + v for u, v in zip(y, comb(row, k))])).tolist())
    y_new = [u + v for u, v in zip(y, comb(DP_B, k))]
    k.append(f(h, np.array(y_new)).tolist())
    ydiff = [u - v for u, v in zip(y_new, y)]
    bspl = [h * k0 - dy for k0, dy in zip(k[0], ydiff)]
    top = [dy - h * k6 - b for dy, k6, b in zip(ydiff, k[6], bspl)]
    return y_new, [y, ydiff, bspl, top, comb(DP_D, k)]


class TestReferenceStep:
    """The folded stage products against the textbook step formula."""

    @pytest.mark.parametrize("case", ["canonical", "mixed_5"])
    def test_first_step_matches_the_textbook_formula(self, case):
        from test_golden_trajectories import cases

        params, growths, x0, horizon = cases()[case]
        traj = simulate(params, growths, x0, horizon)
        y0 = traj.step_states[0].tolist()
        y_new, coeffs = reference_step(dynamics.vector_field(params, growths), y0, float(traj.step_times[1]))
        scale = max(map(abs, y0 + y_new))
        assert np.max(np.abs(traj.step_states[1] - y_new)) <= 1e-14 * scale
        assert np.max(np.abs(traj.step_coeffs[0] - np.array(coeffs))) <= 1e-14 * scale


@pytest.mark.parametrize("min_laws", [0, sys.maxsize], ids=["array_body", "float_body"])
class TestNonFiniteTrialStep:
    """A trial step whose end state is not finite is rejected.

    ``simulate`` checks only the error norm and the end state's minimum;
    the premise is that each RHS body gives a non-finite derivative
    component wherever the state's component is non-finite, which the
    error estimate then carries.
    """

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("j", [0, 2], ids=["s", "x_2"])
    def test_rhs_keeps_the_component_non_finite(self, monkeypatch, min_laws, j, value):
        monkeypatch.setattr(dynamics, "_ARRAY_FIELD_MIN_LAWS", min_laws)
        y = np.array([2.0, 0.5, 0.5, 0.5])
        y[j] = value
        with np.errstate(over="ignore", invalid="ignore"):
            dy = dynamics.vector_field(PARAMS, GROWTHS)(0.0, y)
        assert not np.isfinite(dy[j])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("j", [0, 2], ids=["s", "x_2"])
    def test_step_is_rejected(self, monkeypatch, min_laws, j, value):
        monkeypatch.setattr(dynamics, "_ARRAY_FIELD_MIN_LAWS", min_laws)
        factory = integrate.vector_field
        injected = []

        def injecting_factory(*args):
            f = factory(*args)
            last_t = [None]

            def g(t, y, out=None):
                # The end state of a trial step is evaluated right after the
                # last stage, at the same time; corrupt the first one in place.
                if t == last_t[0] and not injected:
                    y[j] = value
                    injected.append(t)
                last_t[0] = t
                return f(t, y, out=out)

            return g

        monkeypatch.setattr(integrate, "vector_field", injecting_factory)
        traj = simulate(PARAMS, GROWTHS, X0, 5.0)
        assert injected and injected[0] > 0.0
        assert traj.meta.steps_rejected >= 1
        assert np.isfinite(traj.step_states).all() and np.isfinite(traj.step_coeffs).all()
        assert traj.step_times[1] < injected[0]  # the corrupted step was not taken


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
            # enough laws for the array body; the cases above take plain floats
            (
                [Monod(3.0 + 0.05 * k, 1.0 + 0.02 * k) for k in range(_ARRAY_FIELD_MIN_LAWS)],
                [0.01] * _ARRAY_FIELD_MIN_LAWS,
                20.0,
            ),
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

    @given(
        mu=st.tuples(st.floats(1.3, 30.0), st.floats(1.3, 30.0)),
        k=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
        x=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
        s0=st.floats(0.0, 15.0),
        rel_tol=st.floats(1e-8, 1e-3),
        abs_tol=st.floats(1e-12, 1e-3),
        # past the substrate crash a fast species holds the step at its
        # stability limit, so the cost grows with the horizon
        horizon=st.floats(0.05, 3.0),
    )
    # a fast species at loose tolerances whose clipped undershoots once left
    # the mass 0.140 above its closed form
    @example(mu=(20.0, 3.0), k=(0.01, 1.0), x=(100.0, 0.0), s0=10.0, rel_tol=1e-3, abs_tol=1e-4, horizon=0.05)
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_final_mass_keeps_the_step_law_for_fast_species(self, mu, k, x, s0, rel_tol, abs_tol, horizon):
        traj = simulate(
            PARAMS,
            [Monod(mu[0], k[0]), Monod(mu[1], k[1])],
            State(s=s0, x=np.array(x)),
            horizon,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        m = traj.channels.m
        assert abs(m[-1] - mass_after_steps(float(m[0]), PARAMS, traj.step_times)) <= 1e-8 * PARAMS.s_in


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
        # the entry is the first dense sample of the persistent tail: the
        # substrate is inside from that sample onward and outside at the one before
        t = canonical_trajectory.times
        s = canonical_trajectory.states[:, 0]
        lo, hi = canonical_certificate.intervals[1]
        k = rec.index
        assert rec.entry_time == t[k]
        assert np.all((s[k:] >= lo) & (s[k:] <= hi))
        assert not (lo <= s[k - 1] <= hi)

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
