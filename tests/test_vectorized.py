"""Array evaluations along the species axis against their scalar references.

``rate_matrix``, the batched ``fit_log_decay``, the suffix-maximum excesses,
the one-rule persistent-entry scan and its all-intervals form, the array
stage verdicts and governing values, dense output, the certificate's pack
gaps, ``gamma_bounds`` and self-check and both bodies of the integrator's
right-hand side each replace a per-species, per-stage, per-pair or
per-sample loop; these properties pin them to the loop they replace.  The
table row of the right-hand side and the break-even bisection drop numpy
wrappers, and are pinned to the wrapped calls.  The certificate's margin
grids evaluate only the slower laws that can set the envelope, and are
pinned to the grids that evaluate every law.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
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
    simulate,
)
from chemostat_cep import certificate as certificate_mod
from chemostat_cep import dynamics, integrate
from chemostat_cep.certificate import (
    GRID_N,
    _ROUNDING_ALLOWANCE,
    _envelope_rows,
    _gap_rows,
    _pack_gap,
    gamma_bounds,
    recheck_certificate,
    separation_margins,
)
from chemostat_cep.dynamics import _ARRAY_FIELD_MIN_LAWS, vector_field
from chemostat_cep.errors import CertificateError, DomainError, ParameterError
from chemostat_cep.growth import GrowthFunction, break_even, pack_species, rate_matrix
from chemostat_cep.integrate import (
    EntryRecord,
    persistent_entries,
    scan_persistent_entry,
)
from chemostat_cep.verify import EPS_P, ClaimResult, _governing, _stage_claims, comparison_excess, fit_log_decay

from conftest import CANONICAL_SPECIES, compute_nu, refined_gaps

ROOT = Path(__file__).resolve().parent.parent

pos = st.floats(min_value=0.01, max_value=20.0, allow_nan=False, allow_infinity=False)

monods = st.builds(Monod, mu_max=pos, k=pos)
hills = st.builds(Hill, mu_max=pos, k=pos, p=st.floats(min_value=1.0, max_value=600.0))


@st.composite
def tables(draw):
    steps = draw(st.lists(st.tuples(pos, pos), min_size=1, max_size=5))
    pts, s, mu = [(0.0, 0.0)], 0.0, 0.0
    for ds, dmu in steps:
        s, mu = s + ds, mu + dmu
        pts.append((s, mu))
    return Table(points=tuple(pts))


laws = st.lists(st.one_of(monods, hills, tables()), min_size=1, max_size=8)
grids = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestRateMatrix:
    @given(laws, grids)
    @settings(max_examples=150, deadline=None)
    def test_rows_are_bitwise_equal_to_each_law(self, gs, s):
        # s = 0 and a point beyond every table's last node are always included
        grid = np.array([0.0] + s + [1e4])
        rates = rate_matrix(gs, grid)
        assert rates.shape == (len(gs), grid.size)
        for row, g in zip(rates, gs):
            assert np.array_equal(row, g(grid))

    @given(laws, st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scalar_substrate_gives_one_rate_per_law(self, gs, s):
        rates = rate_matrix(gs, s)
        assert rates.shape == (len(gs),)
        assert [float(r) for r in rates] == [g(s) for g in gs]

    def test_negative_substrate_rejected(self):
        with pytest.raises(DomainError):
            rate_matrix([Monod(3, 1)], [1.0, -1e-9])

    @given(laws, grids)
    @settings(max_examples=150, deadline=None)
    def test_every_built_law_is_zero_at_zero_and_non_decreasing(self, gs, s):
        # _envelope_rows treats every built-in law as non-decreasing, up to
        # its rounding allowance: a computed quotient can drop by an ulp
        # between adjacent floats, so each grid point is paired with its
        # next float too.
        pts = sorted([0.0] + s + [1e4])
        grid = np.array(sorted(pts + [math.nextafter(v, math.inf) for v in pts]))
        rates = rate_matrix(gs, grid)
        assert np.all(rates[:, 0] == 0.0)
        assert np.all(rates[:, 1:] >= rates[:, :-1] * _ROUNDING_ALLOWANCE)


def _polyfit_reference(t, v):
    mask = np.isfinite(v) & (v > 1e-300)
    if np.count_nonzero(mask) < 8:
        return None
    return float(np.polyfit(t[mask], np.log(v[mask]), 1)[0])


class TestBatchedDecayFit:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_polyfit_on_masked_columns(self, seed, n, cols, hole_rate):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 100.0, n))
        slope = rng.uniform(-3.0, -0.05, cols)
        v = np.exp(rng.uniform(-50, 50, cols) + np.outer(t, slope) + rng.normal(0, 0.1, (n, cols)))
        holes = rng.random((n, cols)) < hole_rate
        v[holes] = rng.choice([0.0, np.nan, np.inf, -1.0, 1e-310], holes.sum())
        slopes, used = fit_log_decay(t, v)
        assert len(slopes) == cols and used.shape == (cols,)
        for j in range(cols):
            ref = _polyfit_reference(t, v[:, j])
            usable = np.isfinite(v[:, j]) & (v[:, j] > 1e-300)
            assert used[j] == np.count_nonzero(usable)
            if ref is None:
                assert slopes[j] is None
            else:
                assert slopes[j] == pytest.approx(ref, rel=1e-9, abs=0.0)
            one, n_one = fit_log_decay(t, v[:, j])
            assert n_one == used[j]
            assert (one is None) == (ref is None)
            if ref is not None:
                assert one == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_columns_without_enough_usable_samples_give_none(self):
        t = np.linspace(0.0, 10.0, 20)
        good = np.exp(-0.5 * t)
        seven = good.copy()
        seven[7:] = np.nan
        floored = good.copy()
        floored[5:] = 1e-301
        infinite = np.full_like(good, np.inf)
        slopes, used = fit_log_decay(t, np.column_stack([good, seven, floored, infinite]))
        assert slopes[0] == pytest.approx(-0.5, rel=1e-12)
        assert slopes[1:] == [None, None, None]
        assert used.tolist() == [20, 7, 5, 0]

    def test_one_dimensional_contract(self):
        t = np.linspace(0.0, 10.0, 50)
        slope, n = fit_log_decay(t, 3.0 * np.exp(-0.25 * t))
        assert isinstance(slope, float) and isinstance(n, int)
        assert slope == pytest.approx(-0.25, rel=1e-12) and n == 50
        assert fit_log_decay(t[:7], np.ones(7)) == (None, 7)


def _excess_reference(t, v, starts, rate):
    """Per start and column, a loop over the tail: the largest g[j] - g[a]
    over the samples j >= a whose g is not NaN, with g = ln v + rate t; None
    where the start is None or g[a] is not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(v) + rate * t[:, None]
    out = []
    for a in starts:
        row = []
        for c in range(v.shape[1]):
            if a is None or not math.isfinite(g[a, c]):
                row.append(None)
                continue
            best = g[a, c]
            for j in range(a + 1, t.size):
                if not math.isnan(g[j, c]) and g[j, c] > best:
                    best = g[j, c]
            row.append(float(best - g[a, c]))
        out.append(row)
    return out


@st.composite
def excess_inputs(draw):
    """A ratio block like the induction check's, stage starts into it, a rate.

    Columns decay with noise that may beat the rate; holes are NaN, inf and
    zero samples; rows where the lead species is zero are NaN throughout.
    Starts come unsorted, duplicated and None, and include the last sample.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([1, 2, 12, 40, 301]))
    cols = draw(st.integers(min_value=1, max_value=8))
    t = np.linspace(0.0, draw(st.sampled_from([1.0, 80.0])), n)
    rate = draw(st.sampled_from([0.0, 0.05, 2.0]))
    decay = rng.uniform(0.0, 3.0, cols)
    noise = rng.normal(0.0, draw(st.sampled_from([0.0, 0.01, 1.0])), (n, cols))
    v = np.exp(rng.uniform(-50.0, 50.0, cols) - np.outer(t, decay) + noise)
    holes = rng.random((n, cols)) < draw(st.floats(min_value=0.0, max_value=0.5))
    v[holes] = rng.choice([0.0, np.nan, np.inf], holes.sum())
    v[rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.2))] = np.nan
    anywhere = [int(k) for k in rng.integers(0, n, draw(st.integers(0, 6)))]
    starts = draw(st.permutations(anywhere + [n - 1] + [None] * draw(st.integers(0, 2))))
    return t, v, list(starts), rate


class TestComparisonExcess:
    @given(excess_inputs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_tail_matches_the_per_stage_per_pack_loop(self, inputs):
        t, v, starts, rate = inputs
        got = comparison_excess(t, v.copy(), starts, rate)
        assert got.shape == (len(starts), v.shape[1])
        want = _excess_reference(t, v, starts, rate)
        assert [[None if math.isnan(x) else x for x in row] for row in got.tolist()] == want

    @pytest.mark.parametrize("seed", range(20))
    def test_short_noisy_tails_at_the_end_of_a_long_horizon(self, seed):
        # Logs near 45 that decay at exactly the rate: g stays near 45 up to
        # noise of 0.1, so whether a tail of 8-16 samples passes turns on the
        # noise alone, and rounding in g would flip the decision.
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 80.0, 2001)
        v = np.exp(45.0 - 0.05 * t[:, None] + rng.normal(0.0, 0.1, (2001, 4)))
        starts = list(range(1985, 1994))
        got = comparison_excess(t, v.copy(), starts, 0.05)
        assert got.tolist() == _excess_reference(t, v, starts, 0.05)
        g = np.log(v) + 0.05 * t[:, None]
        for k, a in enumerate(starts):
            # exactly 0 where the start is its tail's maximum, positive elsewhere
            assert ((got[k] == 0.0) == (g[a] >= g[a:].max(axis=0))).all()
            assert (got[k] >= 0.0).all()

    def test_the_rate_is_the_bound(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.exp(-np.outer(t, [0.5, 0.5, 0.25]))
        v[60, 2] = 1.0  # a late jump back to the start's value
        excess = comparison_excess(t, v, [0, 50, None], 0.4)
        assert excess[0, :2].tolist() == [0.0, 0.0]  # e^-0.5t stays under e^-0.4t
        assert excess[0, 2] == pytest.approx(0.4 * 6.0)  # t = 6, back at ln 1
        assert excess[1, 2] == pytest.approx(0.25 * 5.0 + 0.4 * 1.0)
        assert np.isnan(excess[2]).all()
        assert comparison_excess(t, np.exp(-np.outer(t, [0.3])), [0], 0.4)[0, 0] == pytest.approx(0.1 * 10.0)

    def test_a_ratio_without_a_log_at_the_start_is_not_measured(self):
        t = np.arange(4.0)
        v = np.array([[0.0, np.nan, np.inf, 1.0]] * 4)
        v[1:, 3] = np.inf  # an inf after a finite start is an infinite excess
        assert [[None if math.isnan(x) else x for x in row] for row in comparison_excess(t, v, [0], 1.0).tolist()] == [
            [None, None, None, math.inf]
        ]

    def test_rows_before_the_first_start_are_untouched(self):
        t = np.linspace(0.0, 1.0, 10)
        v = np.column_stack([np.exp(-t), np.full(10, np.nan)])
        comparison_excess(t, v, [4, None], 1.0)
        assert np.array_equal(v[:4, 0], np.exp(-t[:4]))
        assert np.array_equal(v[4:, 0], np.log(np.exp(-t[4:])) + t[4:])
        assert np.isnan(comparison_excess(t, v, [None], 1.0)).all()


def _governing_reference(values, first_pack):
    """The governing value of a stage and its pack, one pack at a time:
    None values are skipped, the first non-finite value governs, otherwise
    the largest one, and ties go to the lowest pack."""
    best, pack = None, None
    for j, v in enumerate(values, start=first_pack):
        if v is not None and (pack is None or (math.isfinite(best) and not v <= best)):
            best, pack = v, j
    return best, pack


def _stage_claims_reference(entries, excess, p_final, nu, rate, eps_p):
    """The per-stage, per-pair loop ``_stage_claims`` is held to; a positive
    excess of pack c + 2 in stage i has its witness at time i + c / 8."""
    p_final_by_pack = [float(p) for p in p_final]
    results = []
    for i, rec in enumerate(entries):
        measured = {"entry_time": rec.entry_time, "excursions": rec.excursions}
        details = []
        ok = rec.entry_time is not None
        if not ok:
            details.append("no persistent entry into the absorbing interval")

        if rec.entry_time is None:
            stage_excess = [None] * (len(entries) - i)
        else:
            stage_excess = [None if math.isnan(x) else float(x) for x in excess[i, i:]]
        p_finals = p_final_by_pack[i:]
        measured[f"excess_pack_{i + 2}"] = stage_excess[0]
        measured[f"p_final_pack_{i + 2}"] = p_finals[0]
        measured["excess_max"], measured["excess_max_pack"] = _governing_reference(stage_excess, i + 2)
        measured["p_final_max"], measured["p_final_max_pack"] = _governing_reference(p_finals, i + 2)

        if rec.entry_time is not None:
            for j, (x, p) in enumerate(zip(stage_excess, p_finals), start=i + 1):
                prop_ok = math.isfinite(p) and p < eps_p
                if x is None:
                    holds = prop_ok
                    why = "ratio not positive and finite at the entry"
                    details.append(f"pack {j + 1} {why}; extinct" if prop_ok else f"pack {j + 1} {why}")
                else:
                    holds = x <= 0.0
                    if not holds:
                        details.append(f"pack {j + 1} excess {x:.4g} at t={i + (j - 1) / 8:.6g}")
                if not prop_ok:
                    details.append(f"pack {j + 1} final proportion {p:.4g} >= {eps_p:g}")
                ok = ok and holds and prop_ok

        results.append(
            ClaimResult(
                f"exclusion_stage_{i + 1}",
                True,
                ok,
                measured,
                {"nu": nu, "rate": rate, "eps_p": eps_p},
                "; ".join(details),
            )
        )
    return results


def _same_value(a, b) -> bool:
    """Equal values of the same type, None told apart from NaN."""
    if a is None or b is None:
        return a is b
    if type(a) is not type(b):
        return False
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


# Excesses around 0, repeated for ties, NaN for an unmeasured pair and inf
# for a ratio that overflows; proportions around eps_p.
_excess_values = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, 1e-300, 0.5]),
    st.floats(min_value=0.0, max_value=2.0),
)
# Any value the governing rule may meet, -inf included.
_governed_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.45, -0.3, 0.0]),
    st.floats(min_value=-2.0, max_value=1.0),
)
_p_values = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, 1e-5, 1e-4, 0.3]),
    st.floats(min_value=0.0, max_value=1.0),
)
_entry_times = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 2.0 + 1e-10]), st.floats(0.0, 10.0))


@st.composite
def stage_inputs(draw):
    """Entries, (stages x packs) excesses, final proportions, nu and rate."""
    m = draw(st.integers(min_value=1, max_value=7))
    times = [draw(_entry_times) for _ in range(m)]
    entries = [
        EntryRecord((0.1, 1.0 + k), e, draw(st.integers(0, 3)), None if e is None else k)
        for k, e in enumerate(times)
    ]
    excess = np.array(draw(st.lists(_excess_values, min_size=m * m, max_size=m * m))).reshape(m, m)
    p_final = np.array(draw(st.lists(_p_values, min_size=m, max_size=m)))
    nu = draw(st.sampled_from([0.5, 0.05]))
    return entries, excess, p_final, nu, 0.9 * nu


class TestStageClaims:
    @given(stage_inputs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    @example(  # a stage without entry, NaN and inf values
        (
            [
                EntryRecord((0.1, 1.0), 1.0, 0, 1),
                EntryRecord((0.1, 2.0), 2.0, 1, 2),
                EntryRecord((0.1, 3.0), None, 0, None),
            ],
            np.array([[0.0, math.nan, 0.0], [math.inf, 0.0, 1e-3], [0.0, 0.0, 0.0]]),
            np.array([1e-5, math.nan, math.inf]),
            0.5,
            0.45,
        )
    )
    def test_matches_the_per_pair_loop(self, inputs):
        entries, excess, p_final, nu, rate = inputs
        got = _stage_claims(entries, excess, lambda i, c: i + c / 8, p_final, nu, rate)
        want = _stage_claims_reference(*inputs, EPS_P)
        assert [c.claim_id for c in got] == [c.claim_id for c in want]
        for g, w in zip(got, want):
            assert (g.applicable, g.passed, g.detail) == (w.applicable, w.passed, w.detail), w.claim_id
            assert list(g.measured) == list(w.measured) and list(g.thresholds) == list(w.thresholds)
            for key in w.measured:
                assert _same_value(g.measured[key], w.measured[key]), (w.claim_id, key)
            assert g.thresholds == w.thresholds

    @given(st.lists(st.one_of(st.none(), _governed_values), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    @example([None, -math.inf, 0.5, math.nan])  # a leading -inf governs
    @example([None, -math.inf])
    def test_governing_matches_the_per_pack_loop(self, values):
        row = np.array([[math.nan if v is None else v for v in values]])
        best, col = _governing(row, np.array([[v is not None for v in values]]))
        want_best, want_pack = _governing_reference(values, 2)
        assert (None if col[0] is None else col[0] + 2) == want_pack
        assert _same_value(best[0], None if want_best is None else float(want_best))


def _runs_reference(inside):
    runs = []
    start = 0
    for k in range(1, inside.size):
        if inside[k] != inside[start]:
            runs.append((start, k - 1, bool(inside[start])))
            start = k
    runs.append((start, inside.size - 1, bool(inside[start])))
    return runs


def _scan_reference(times, inside):
    """The run-walking scan that ``scan_persistent_entry`` replaced, with no
    tolerated excursion: (entry index, exits after the first entry,
    persistent flag)."""
    if not np.any(inside):
        return None, 0, False
    runs = _runs_reference(inside)
    first_in = next(pos for pos, r in enumerate(runs) if r[2])
    exits = sum(1 for r in runs[first_in + 1 :] if not r[2])

    # Walk backwards: an outside run ends the persistent tail, and a
    # trailing one leaves no entry at all.
    entry_run = None
    for pos in range(len(runs) - 1, -1, -1):
        start, end, is_in = runs[pos]
        if is_in:
            entry_run = pos
            continue
        # membership between samples is unknown, so an outside run extends
        # half a spacing on each available side
        duration = float(times[end] - times[start])
        if start > 0:
            duration += 0.5 * float(times[start] - times[start - 1])
        if end < times.size - 1:
            duration += 0.5 * float(times[end + 1] - times[end])
        if pos == len(runs) - 1 or duration > 0.0:
            break
    if entry_run is None:
        return None, exits, False
    return runs[entry_run][0], exits, entry_run == len(runs) - 1


membership = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=200),
    st.integers(1, 200).map(lambda n: [True] * n),
    st.integers(1, 200).map(lambda n: [False] * n),
    st.lists(st.booleans(), min_size=0, max_size=199).map(lambda b: b + [False]),
)


class TestPersistentScan:
    @given(membership, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_run_walking_reference(self, bits, data):
        inside = np.array(bits, dtype=bool)
        steps = data.draw(st.lists(st.floats(1e-6, 10.0), min_size=len(bits), max_size=len(bits)))
        times = np.cumsum(steps)
        idx, exits = scan_persistent_entry(inside)
        # the reference's persistent flag holds exactly when there is an entry
        assert (idx, exits, idx is not None) == _scan_reference(times, inside)


def _sample_reference(traj, t):
    """The quartic continuous extension at one time, written out per step.

    Step nodes give their stored state, times at or past the last node the
    final state; elsewhere c1 + theta (c2 + (1 - theta) (c3 + theta (c4 +
    (1 - theta) c5))) on the enclosing step, clipped at zero.
    """
    if t >= traj.step_times[-1]:
        return traj.step_states[-1]
    k = min(max(bisect_right(traj.step_times, t) - 1, 0), len(traj.step_times) - 2)
    t0 = traj.step_times[k]
    if t == t0:
        return traj.step_states[k]
    c1, c2, c3, c4, c5 = traj.step_coeffs[k]
    theta = (t - t0) / (traj.step_times[k + 1] - t0)
    y = c1 + theta * (c2 + (1.0 - theta) * (c3 + theta * (c4 + (1.0 - theta) * c5)))
    return np.maximum(y, 0.0)


def _assert_dense_equals_sample(traj):
    mids = 0.5 * (traj.step_times[:-1] + traj.step_times[1:])
    for t, row in zip(traj.times, traj.states):
        assert np.array_equal(row, _sample_reference(traj, float(t))), t
    for t in np.concatenate((traj.times, mids)):
        st_ = traj.sample(float(t))
        ref = _sample_reference(traj, float(t))
        assert np.array_equal(np.concatenate(([st_.s], st_.x)), ref), t


class TestDenseStates:
    def test_canonical_dense_grid_equals_sample(self, canonical_trajectory):
        _assert_dense_equals_sample(canonical_trajectory)

    @given(
        st.floats(min_value=1.2, max_value=6.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=30.0),
        st.sampled_from([integrate.DENSE_INTERVALS, 200, 25]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_runs_dense_grid_equals_sample(self, mu2, k2, s0, x1, horizon, intervals):
        growths = [Monod(3.0, 1.0), Monod(mu2, k2)]
        x0 = State(s=s0, x=np.array([0.05, x1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate, "DENSE_INTERVALS", intervals)
            traj = simulate(ChemostatParams(1.0, 10.0), growths, x0, horizon)
        _assert_dense_equals_sample(traj)


def _assert_entries_agree(traj, intervals, got):
    """Each entry against ``scan_persistent_entry`` on its own interval:
    the first dense sample of the persistent tail, its time exactly."""
    assert len(got) == len(intervals)
    s = traj.states[:, 0]
    for rec, (lo, hi) in zip(got, intervals):
        idx, excursions = scan_persistent_entry((s >= lo) & (s <= hi))
        assert (rec.interval, rec.index, rec.excursions) == ((lo, hi), idx, excursions)
        assert rec.entry_time == (None if idx is None else traj.times[idx])


class TestPersistentEntries:
    def test_canonical_intervals_agree_with_the_per_interval_scan(
        self, canonical_trajectory, canonical_certificate
    ):
        traj = canonical_trajectory
        # the certificate's stages, one holding from t = 0, one never entered
        intervals = list(canonical_certificate.intervals) + [(0.0, 11.0), (100.0, 200.0)]
        got = persistent_entries(traj, intervals)
        _assert_entries_agree(traj, intervals, got)
        assert got[-2].entry_time == 0.0 and got[-1].entry_time is None

    @given(
        st.floats(min_value=1.2, max_value=6.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=0.5, max_value=30.0),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=12.0), st.floats(min_value=1e-3, max_value=12.0)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_runs_agree_with_the_per_interval_scan(self, mu2, k2, s0, horizon, ivs):
        growths = [Monod(3.0, 1.0), Monod(mu2, k2)]
        x0 = State(s=s0, x=np.array([0.05, 0.05]))
        traj = simulate(ChemostatParams(1.0, 10.0), growths, x0, horizon)
        intervals = [(lo, lo + w) for lo, w in ivs]
        _assert_entries_agree(traj, intervals, persistent_entries(traj, intervals))

    def test_empty_interval_list(self, canonical_trajectory):
        assert persistent_entries(canonical_trajectory, []) == []

    @given(
        st.floats(min_value=1.2, max_value=6.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=0.5, max_value=30.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.lists(
            st.one_of(st.integers(min_value=1, max_value=4), st.floats(min_value=1e-3, max_value=4.0)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_nested_intervals_enter_in_order(self, mu2, k2, s0, horizon, lo, widenings):
        # Intervals sharing lo, each wider than the last by a few ulps
        # (an int) or by a width (a float): every point inside one is inside
        # the next, so the entries never increase, exactly.
        growths = [Monod(3.0, 1.0), Monod(mu2, k2)]
        x0 = State(s=s0, x=np.array([0.05, 0.05]))
        traj = simulate(ChemostatParams(1.0, 10.0), growths, x0, horizon)
        hi = lo + 0.1
        intervals = [(lo, hi)]
        for w in widenings:
            if isinstance(w, int):
                for _ in range(w):
                    hi = float(np.nextafter(hi, math.inf))
            else:
                hi += w
            intervals.append((lo, hi))
        times = [rec.entry_time for rec in persistent_entries(traj, intervals)]
        for narrow, wide in zip(times, times[1:]):
            assert narrow is None or (wide is not None and narrow >= wide)

    def test_nested_disjoint_and_unfinished_intervals(self, canonical_trajectory, canonical_certificate):
        traj = canonical_trajectory
        s_end = float(traj.states[-1, 0])
        nested = list(canonical_certificate.intervals)
        disjoint = [(100.0, 200.0), (1.0, 5.0), (0.0, 0.5 * s_end)]  # the last one excludes the final sample
        intervals = nested + disjoint + nested[:1]
        got = persistent_entries(traj, intervals)
        _assert_entries_agree(traj, intervals, got)
        assert got[-1] == got[0] and got[-2].entry_time is None and got[-4].entry_time is None

    def test_reversed_interval_is_named(self, canonical_trajectory):
        with pytest.raises(ParameterError, match=r"lo < hi, got \(2\.0, 1\.0\)"):
            persistent_entries(canonical_trajectory, [(0.0, 1.0), (2.0, 1.0), (3.0, 3.0)])


@st.composite
def membership_rows(draw):
    """Rows of one length: random, all inside, all outside, ending outside."""
    n = draw(st.integers(min_value=1, max_value=120))
    row = st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.just([True] * n),
        st.just([False] * n),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1).map(lambda b: b + [False]),
    )
    return draw(st.lists(row, min_size=0, max_size=8)), n


class TestPersistentScanRows:
    @given(membership_rows())
    @settings(max_examples=300, deadline=None)
    def test_every_row_matches_its_own_scan(self, rows_n):
        rows, n = rows_n
        inside = np.array(rows, dtype=bool).reshape(len(rows), n)
        idx, exits = scan_persistent_entry(inside)
        assert list(zip(idx, exits)) == [scan_persistent_entry(row) for row in inside]
        times = np.arange(1.0, n + 1.0)
        assert [(i, x, i is not None) for i, x in zip(idx, exits)] == [_scan_reference(times, row) for row in inside]


def _pack_growths(ordered, i):
    return [ordered.records[k].growth for k in ordered.packs[i]]


def _pack_gap_reference(ordered, i, grid):
    lower = np.min([g(grid) for g in _pack_growths(ordered, i)], axis=0) * _ROUNDING_ALLOWANCE
    uppers = [g(grid) for j in range(i + 1, ordered.n_packs) for g in _pack_growths(ordered, j)]
    return lower[:-1] - np.max(uppers, axis=0)[1:]


MIXED = CANONICAL_SPECIES + (
    ("sp3b", Monod(5.0, 3.0)),
    ("h", Hill(2.0, 1.5, 2.0)),
    ("tab", Table(((0.0, 0.0), (1.0, 0.9), (4.0, 2.0)))),
    ("slow", Monod(1.0, 1.0)),
)


class TestCertificateArrays:
    def test_pack_gap_bitwise_equal_to_per_law_loop(self):
        ordered = order_species(MIXED, 1.0, 10.0)
        for i in range(ordered.n_packs - 1):
            grid = np.linspace(0.1, 12.0, 513)
            assert np.array_equal(_pack_gap(_gap_rows(ordered, i), grid), _pack_gap_reference(ordered, i, grid))

    def test_nu_is_compute_nu_on_the_same_margins(self):
        ordered = order_species(MIXED, 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        assert cert.nu == compute_nu(ordered, margins)

    def test_gamma_bounds_match_scalar_loop(self):
        ordered = order_species(MIXED, 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        gamma_minus, gamma_plus, skipped = gamma_bounds(ordered, margins, 1.0)
        assert gamma_minus == 1.0 - max(g(margins[0][0]) for g in _pack_growths(ordered, 0))
        finite = [i for i in range(1, ordered.n_packs) if np.isfinite(ordered.pack_lambda(i))]
        assert gamma_plus == min(
            g(margins[i - 1][1]) - 1.0 for i in finite for j in range(i) for g in _pack_growths(ordered, j)
        )
        assert skipped == tuple(i for i in range(1, ordered.n_packs) if i not in finite)

    def test_gamma_bounds_names_the_first_pack_that_falls_short(self, canonical_ordered):
        # below pack 3, the upper margin 0.6 lies under pack 2's level 2/3
        with pytest.raises(CertificateError, match=r"pack 2 does not outgrow .* below pack 3"):
            gamma_bounds(canonical_ordered, ((0.3, 0.6), (0.3, 0.6)), 1.0)


def _mixed_species(seed):
    """Monod, Hill and table laws with levels spread below s_in = 10."""
    rng = np.random.default_rng(seed)
    species = []
    for i, lam in enumerate(rng.permutation(np.linspace(0.6, 8.0, 12))):
        mu_max = float(rng.uniform(1.5, 5.0))
        kind = i % 3
        if kind == 0:
            g = Monod(mu_max, float(lam * (mu_max - 1.0)))
        elif kind == 1:
            p = float(rng.uniform(1.0, 3.0))
            g = Hill(mu_max, float(lam * (mu_max - 1.0) ** (1.0 / p)), p)
        else:
            g = Table(((0.0, 0.0), (float(lam), 1.0), (float(2.0 * lam + 5.0), mu_max + 1.0)))
        species.append((f"sp{i}", g))
    return tuple(species)


def _certificate_cases():
    cases = []
    for name in ("canonical", "with_washout"):
        sc = parse_scenario(str(ROOT / "scenarios" / f"{name}.yaml"))
        cases.append((name, order_species(sc.species, sc.params.d, sc.params.s_in)))
    cases.append(("mixed", order_species(MIXED, 1.0, 10.0)))
    cases += [(f"mixed-{seed}", order_species(_mixed_species(seed), 1.0, 10.0)) for seed in range(6)]
    return cases


class TestCertificateSelfCheck:
    @pytest.mark.parametrize("name,ordered", _certificate_cases())
    def test_construction_reads_the_grids_a_recheck_evaluates(self, name, ordered):
        cert = build_certificate(ordered, 1.0, 10.0)
        assert not cert.degenerate
        assert recheck_certificate(cert, ordered) == []
        for i, b in enumerate(cert.boundaries):
            grid = np.linspace(b.s_minus, b.s_plus, GRID_N + 1)
            assert b.gap_min == float(np.min(_pack_gap(_gap_rows(ordered, i), grid)))

    @pytest.mark.parametrize("name,ordered", _certificate_cases())
    def test_nu_is_below_the_gap_on_a_64_times_refined_grid(self, name, ordered):
        cert = build_certificate(ordered, 1.0, 10.0)
        assert 0.0 < cert.nu <= min(refined_gaps(ordered, cert, 64))


# Laws at d = 1 whose break-even level is (about) a given lam.


def _monod_at(lam, mu_max):
    return Monod(mu_max, lam * (mu_max - 1.0))


def _hill_at(lam, mu_max, p):
    return Hill(mu_max, lam * (mu_max - 1.0) ** (1.0 / p), p)


def _table_at(lam, q, fracs):
    fracs = sorted(set(fracs) | {0.5, 2.0})
    return Table(((0.0, 0.0),) + tuple((lam * u, u**q) for u in fracs))


mu_maxes = st.floats(min_value=1.05, max_value=100.0)


@st.composite
def law_at(draw, lam, kinds=("monod", "hill", "table")):
    kind = draw(st.sampled_from(kinds))
    if kind == "monod":
        return _monod_at(lam, draw(mu_maxes))
    if kind == "hill":
        return _hill_at(lam, draw(mu_maxes), draw(st.floats(min_value=1.0, max_value=4.0)))
    fracs = draw(st.lists(st.integers(1, 30), max_size=4))
    return _table_at(lam, draw(st.floats(min_value=0.6, max_value=1.4)), [f / 10 for f in fracs])


@st.composite
def certificate_species(draw):
    """Mixed laws: multi-species packs, steep slow laws, capped, unreachable
    and zero-at-the-left-end laws, each drawn at random."""
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=2, max_size=8))
    species = []
    for lam in 0.2 + np.cumsum(gaps):
        species.append(draw(law_at(float(lam))))
        # pack partners: laws with the same closed-form level
        for _ in range(draw(st.integers(0, 2))):
            species.append(draw(law_at(float(lam), kinds=("monod", "hill"))))
    if draw(st.booleans()):  # above the overshoot cap max(2 s_in, 2 lam)
        species.append(draw(law_at(draw(st.floats(min_value=25.0, max_value=60.0)))))
    if draw(st.booleans()):  # never reaches the removal rate
        species.append(Monod(draw(st.floats(min_value=0.2, max_value=0.95)), 1.0))
    if draw(st.booleans()):  # s**600 underflows to 0 below s = 0.29
        species.append(Hill(2.0, draw(st.floats(min_value=0.5, max_value=3.0)), 600.0))
    order = draw(st.permutations(range(len(species))))
    return tuple((f"sp{k}", species[k]) for k in order)


def _outcome(fn):
    try:
        return fn()
    except CertificateError as exc:
        return str(exc)


def _assert_certificate_matches_every_row(ordered, d=1.0, s_in=10.0):
    """build_certificate against the same construction with every slower row."""
    got = _outcome(lambda: build_certificate(ordered, d, s_in))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificate_mod, "_envelope_rows", lambda o, s: [None] * (o.n_packs - 1))
        want = _outcome(lambda: build_certificate(ordered, d, s_in))
    assert got == want
    if isinstance(got, str):
        return None
    rows = _envelope_rows(ordered, s_in)
    limit = None
    for i in reversed(range(len(got.boundaries))):
        b = got.boundaries[i]
        ref = separation_margins(ordered, i, s_in, s_plus_limit=limit)
        assert (b.s_minus, b.s_plus, b.delta, b.gap_min) == (ref.s_minus, ref.s_plus, ref.delta, ref.gap_min)
        grid = np.linspace(b.s_minus, b.s_plus, GRID_N + 1)
        every = _pack_gap(_gap_rows(ordered, i), grid)
        assert np.array_equal(_pack_gap(_gap_rows(ordered, i, rows[i]), grid), every)
        assert b.gap_min == float(np.min(every))
        limit = ref.s_plus
    if not got.degenerate:
        margins = tuple((b.s_minus, b.s_plus) for b in got.boundaries)
        assert got.nu == compute_nu(ordered, margins)
    return got


def _slower_rates(ordered, i, s):
    split = ordered.packs[i + 1][0]
    return np.array([rec.growth(s) for rec in ordered.records[split:]])


# One deterministic set per case the row selection must get right.
ENVELOPE_CASES = {
    # On the first margin grid the nearly flat table sets the slower packs'
    # maximum at both ends, and the steep Monod law sets it in between.
    "overtaking": (("low", Monod(3.0, 1.0)), ("flat", Table(((0.0, 0.0), (0.4, 0.5), (1.9, 0.55), (2.0, 1.0)))),
                   ("steep", _monod_at(2.05, 100.0)), ("top", _monod_at(4.0, 2.0))),
    "multi-species packs": tuple(
        (f"p{j}{m}", law) for j, lam in enumerate((0.5, 1.5, 3.0))
        for m, law in enumerate((_monod_at(lam, 2.0), _monod_at(lam, 9.0), _hill_at(lam, 3.0, 2.5)))
    ),
    "capped and unreachable": (("a", _monod_at(0.8, 3.0)), ("b", _monod_at(3.0, 2.0)),
                               ("capped", _monod_at(40.0, 1.5)), ("never", Monod(0.5, 1.0)),
                               ("also-never", Hill(0.9, 2.0, 2.0))),
    # sp2 overtakes sp1 below the upper margin at the starting extension.
    "shrinks": (("sp1", _monod_at(1.0, 1.1)), ("sp2", _monod_at(3.0, 100.0)), ("sp3", _monod_at(5.0, 4.0))),
    # At the first left end s = 0.25 every slower rate underflows to 0
    # (s**600), so their maximum there is 0; s**600 overflows above 3.26.
    "zero at the left end": (("a", _monod_at(0.5, 100.0)), ("h1", Hill(2.0, 1.5, 600.0)),
                             ("h2", Hill(2.0, 2.0, 600.0)), ("h3", Hill(2.0, 2.8, 600.0))),
    # The unreachable pack's rates are subnormal, where rounding has no
    # relative bound, so t1 is evaluated although it ends below t2's start.
    "subnormal rates": (("a", Monod(3.0, 1.0)), ("b", _monod_at(2.0, 2.0)),
                        ("t1", Monod(1e-320, 1.0)), ("t2", Monod(3e-320, 0.01))),
}


class TestEnvelopeRows:
    @given(certificate_species())
    @settings(max_examples=60, deadline=None)
    def test_certificate_bitwise_equal_to_every_row_path(self, species):
        _assert_certificate_matches_every_row(order_species(species, 1.0, 10.0))

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    def test_case(self, case):
        ordered = order_species(ENVELOPE_CASES[case], 1.0, 10.0)
        cert = _assert_certificate_matches_every_row(ordered)
        assert not cert.degenerate
        b0 = cert.boundaries[0]
        if case == "overtaking":
            grid = np.linspace(b0.s_minus, b0.s_plus, GRID_N + 1)
            assert set(np.argmax(_slower_rates(ordered, 0, grid), axis=0)) == {0, 1}
        elif case == "multi-species packs":
            assert all(len(p.ids) == 3 for p in cert.packs)
        elif case == "capped and unreachable":
            assert cert.boundaries[-1].capped and math.isinf(cert.packs[-1].lam)
        elif case == "shrinks":
            assert b0.delta < 0.5 * (b0.lam_upper_eff - b0.lam_lower)
        elif case == "zero at the left end":
            assert b0.s_minus < 0.26 and _slower_rates(ordered, 0, b0.s_minus).max() == 0.0
        elif case == "subnormal rates":
            assert _envelope_rows(ordered, 10.0)[-1].size == 2

    @given(mu_maxes, mu_maxes, st.floats(min_value=1.05, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_steep_slow_law_that_overtakes_a_nearer_one(self, mu_near, mu_far, ratio):
        species = (("low", Monod(3.0, 1.0)), ("near", _monod_at(2.0, mu_near)), ("far", _monod_at(2.0 * ratio, mu_far)))
        _assert_certificate_matches_every_row(order_species(species, 1.0, 10.0))

    def test_wide_monod_set_drops_most_rows(self):
        rng = np.random.default_rng(7)
        lams = rng.permutation(np.linspace(0.5, 6.5, 100) + rng.uniform(0.0, 0.05, 100))
        species = tuple((f"m{k}", _monod_at(float(lam), float(rng.uniform(1.2, 6.0)))) for k, lam in enumerate(lams))
        ordered = order_species(species, 1.0, 10.0)
        rows = _envelope_rows(ordered, 10.0)
        kept = sum(r.size for r in rows)
        slower = sum(ordered.n - ordered.packs[i + 1][0] for i in range(ordered.n_packs - 1))
        assert slower == 4950 and kept < 0.2 * slower
        _assert_certificate_matches_every_row(ordered)

    def test_laws_of_other_types_are_always_evaluated(self):
        class Custom(Monod):
            pass

        species = (("a", Monod(3.0, 1.0)), ("b", _monod_at(2.0, 5.0)), ("c", Custom(1.5, 1.5)), ("d", _monod_at(4.0, 1.2)))
        ordered = order_species(species, 1.0, 10.0)
        custom = next(k for k, rec in enumerate(ordered.records) if rec.id == "c")
        assert all(custom in r for r in _envelope_rows(ordered, 10.0)[:2])
        _assert_certificate_matches_every_row(ordered)


def _gamma_bounds_reference(ordered, margins, d):
    """The per-pack loop that ``gamma_bounds`` replaced."""
    rates = rate_matrix([rec.growth for rec in ordered.records], [margins[0][0]] + [hi for _, hi in margins])
    mu1 = float(np.max(rates[: len(ordered.packs[0]), 0]))
    gamma_minus = d - mu1
    if gamma_minus <= 0.0:
        raise CertificateError(f"first pack already grows at rate {mu1:g} >= removal rate at s={margins[0][0]:g}")
    gamma_plus = math.inf
    skipped = []
    for i in range(1, ordered.n_packs):
        if not math.isfinite(ordered.pack_lambda(i)):
            skipped.append(i)
            continue
        excess = rates[: ordered.packs[i][0], i] - d
        short = np.flatnonzero(excess <= 0.0)
        if short.size:
            j = next(j for j, pack in enumerate(ordered.packs) if short[0] <= pack[-1])
            raise CertificateError(
                f"pack {j + 1} does not outgrow the removal rate at "
                f"s={margins[i - 1][1]:g} (needed below pack {i + 1})"
            )
        gamma_plus = min(gamma_plus, float(np.min(excess)))
    if not math.isfinite(gamma_plus):
        raise CertificateError("no finite pack above the first; gamma_plus undefined")
    return gamma_minus, gamma_plus, tuple(skipped)


class TestGammaBounds:
    @given(certificate_species(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_gamma_bounds_match_the_per_pack_loop(self, species, data):
        # Upper margins anywhere around the levels: some packs fall short,
        # and the first one to do so names itself as the loop did.
        ordered = order_species(species, 1.0, 10.0)
        k = ordered.n_packs - 1
        lows = data.draw(st.lists(st.floats(min_value=0.01, max_value=0.4), min_size=k, max_size=k))
        highs = data.draw(st.lists(st.floats(min_value=0.2, max_value=12.0), min_size=k, max_size=k))
        margins = tuple(zip(lows, highs))
        assert _outcome(lambda: gamma_bounds(ordered, margins, 1.0)) == _outcome(
            lambda: _gamma_bounds_reference(ordered, margins, 1.0)
        )

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    def test_gamma_bounds_on_certificate_margins(self, case):
        ordered = order_species(ENVELOPE_CASES[case], 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        got = gamma_bounds(ordered, margins, 1.0)
        assert got == _gamma_bounds_reference(ordered, margins, 1.0)
        assert got[2] == cert.gamma_plus_skipped
        # packs with an infinite level, as in two of the cases, are skipped
        assert got[2] == tuple(i for i in range(ordered.n_packs) if math.isinf(ordered.pack_lambda(i)))


class TestPackSpecies:
    def test_subset_repacked_from_known_levels_equals_fresh_ordering(self):
        full = order_species(MIXED, 1.0, 10.0)
        lam = {rec.id: rec.lam for rec in full.records}
        subset = [sp for k, sp in enumerate(MIXED) if k % 3 != 1]
        assert pack_species(subset, [lam[sid] for sid, _ in subset]) == order_species(subset, 1.0, 10.0)


def _rate_reference(g, s):
    """The integrator's per-law rate before it was vectorised.

    A law of another type than the three built-in ones (a subclass of one
    of them included) is its own ``_rate_scalar``.
    """
    s = s if s > 0.0 else 0.0
    if type(g) not in (Monod, Hill, Table):
        return g._rate_scalar(s)
    if isinstance(g, Table):
        xs, ys = g._nodes
        if s > xs[-1]:
            return float(ys[-1]) + g._segments[2][-1] * (s - float(xs[-1]))
        return float(np.interp(s, xs, ys))
    if isinstance(g, Hill):
        u = (min(s, g.k) / max(s, g.k)) ** g.p
        return g.mu_max * (u if s <= g.k else 1.0) / (1.0 + u)
    return g.mu_max * s / (g.k + s)


def _field_reference(params, growths, y):
    """The per-species loop that ``vector_field`` replaces (y[0] a numpy float)."""
    s = y[0]
    dy = np.empty_like(y)
    consumption = 0.0
    for i, g in enumerate(growths):
        mu = _rate_reference(g, s)
        dy[1 + i] = (mu - params.d) * y[1 + i]
        consumption += mu * y[1 + i]
    dy[0] = params.d * (params.s_in - s) - consumption
    return dy


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


SPECIAL_SUBSTRATES = [0.0, -0.0, -1e-300, -1e-12, -1e-9, 1e-300, 1e150, 1e300, math.inf, -math.inf, math.nan]
special_substrates = st.sampled_from(SPECIAL_SUBSTRATES)
# Law counts on both sides of the choice between the plain-float body and
# the array body, at the choice and far above it.  Every check runs both
# bodies, each forced through ``_ARRAY_FIELD_MIN_LAWS`` (``_fields``).
FIELD_LAW_COUNTS = (1, _ARRAY_FIELD_MIN_LAWS - 1, _ARRAY_FIELD_MIN_LAWS, 100)
# Every phase but shrinking: a wrong body fails on tens of laws at once, and
# shrinking such an example can take minutes where the first failure is
# reported in seconds.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@st.composite
def field_inputs(draw, n):
    """n laws, a state vector and a substrate at the edges the stages can reach.

    The substrate is drawn from tiny undershoots, zero, table nodes, points
    beyond the last node, huge values and non-finite trial-stage values;
    densities may be negative, as in a trial stage.
    """
    gs = draw(st.lists(st.one_of(monods, hills, tables()), min_size=n, max_size=n))
    nodes = [a for g in gs if isinstance(g, Table) for a, _ in g.points]
    candidates = [special_substrates, st.floats(min_value=0.0, max_value=1e3)]
    if nodes:
        candidates.append(st.sampled_from(nodes))
        candidates.append(st.sampled_from(nodes).map(lambda a: 1.5 * a + 1.0))
    s = draw(st.one_of(*candidates))
    x = draw(st.lists(st.floats(min_value=-1.0, max_value=50.0), min_size=n, max_size=n))
    return gs, np.array([s] + x)


def _mixed_laws(n):
    """n laws cycling through the Monod, Hill and table laws of ``MIXED``."""
    return [MIXED[k % len(MIXED)][1] for k in range(n)]


def _fields(params, gs):
    """The array body and the plain-float body of ``vector_field(params, gs)``."""
    fields = []
    for min_laws in (0, sys.maxsize):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_ARRAY_FIELD_MIN_LAWS", min_laws)
            fields.append(vector_field(params, gs))
    assert [f.__name__ for f in fields] == ["f", "f_floats"]
    return fields


def _assert_field_matches_reference(params, gs, y):
    with np.errstate(all="ignore"):
        want = _field_reference(params, gs, y)
    for f in _fields(params, gs):
        out = np.full_like(y, np.nan)
        with np.errstate(all="ignore"):
            got = f(0.0, y)
            again = f(1.0, y.copy())
            written = f(2.0, y, out=out)
        assert np.array_equal(_bits(got), _bits(want)), (f.__name__, got, want)
        assert np.array_equal(_bits(again), _bits(want))
        assert written is out
        assert np.array_equal(_bits(out), _bits(want))


class TestVectorField:
    @pytest.mark.parametrize("n", FIELD_LAW_COUNTS)
    @given(data=st.data(), d=st.floats(min_value=0.1, max_value=5.0), s_in=st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_bitwise_equal_to_per_species_loop(self, n, data, d, s_in):
        gs, y = data.draw(field_inputs(n))
        _assert_field_matches_reference(ChemostatParams(d=d, s_in=s_in), gs, y)

    @pytest.mark.parametrize("n", FIELD_LAW_COUNTS)
    @pytest.mark.parametrize("s", SPECIAL_SUBSTRATES)
    def test_special_substrates_with_negative_densities(self, n, s):
        x = np.linspace(-1.0, 3.0, n) if n > 1 else np.array([-0.5])
        _assert_field_matches_reference(ChemostatParams(1.3, 10.0), _mixed_laws(n), np.concatenate(([s], x)))

    @pytest.mark.parametrize("n", [_ARRAY_FIELD_MIN_LAWS - 1, _ARRAY_FIELD_MIN_LAWS])
    def test_each_call_returns_a_new_array(self, n):
        for f in _fields(ChemostatParams(1.0, 10.0), _mixed_laws(n)):
            y = np.linspace(1.0, 2.0, n + 1)
            a = f(0.0, y)
            b = f(0.0, 2.0 * y)
            assert a is not b and not np.shares_memory(a, b)
            assert np.array_equal(a, f(0.0, y))

    @pytest.mark.parametrize("n", FIELD_LAW_COUNTS)
    def test_state_of_the_wrong_length_raises(self, n):
        for f in _fields(ChemostatParams(1.0, 10.0), _mixed_laws(n)):
            # a single density would broadcast over every law in an array expression
            for size in {1, 2, n, n + 2} - {n + 1}:
                with pytest.raises(ValueError, match=f"state has {size} entries, expected {n + 1}"):
                    f(0.0, np.linspace(1.0, 2.0, size), out=np.empty(size))

    @pytest.mark.parametrize(
        "n_monod, n_other",
        [(0, 100), (_ARRAY_FIELD_MIN_LAWS - 1, 0), (_ARRAY_FIELD_MIN_LAWS - 1, 60), (_ARRAY_FIELD_MIN_LAWS, 0),
         (_ARRAY_FIELD_MIN_LAWS, 60)],
    )
    def test_body_is_chosen_by_the_monod_count(self, n_monod, n_other):
        # only Monod rates are vectorised in the array body; a Hill or table
        # law costs less in plain floats, so it never counts towards the array
        gs = [Monod(1.0 + 0.1 * k, 0.5) for k in range(n_monod)] + [Hill(2.0, 1.5, 2.0)] * n_other
        f = vector_field(ChemostatParams(1.0, 10.0), gs)
        assert f.__name__ == ("f" if n_monod >= _ARRAY_FIELD_MIN_LAWS else "f_floats")


class _HalfMonod(Monod):
    """A Monod subclass with its own scalar rate, half the Monod rate."""

    def _rate_scalar(self, s: float) -> float:
        return 0.5 * super()._rate_scalar(s)


class _Linear(GrowthFunction):
    """A law the package does not know: its scalar rate is the base class's array path."""

    def __init__(self, a: float):
        self.a = a

    def _rate(self, s: np.ndarray) -> np.ndarray:
        return self.a * s


class _ReprFloat(float):
    """A float whose ``repr`` is not a number."""

    def __repr__(self) -> str:
        return "not_a_number()"


def _substrates_near(points):
    """Each point, its neighbouring floats and 1.5 x point + 1."""
    near = [(math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf), 1.5 * a + 1.0) for a in points]
    return [s for group in near for s in group]


class TestCompiledFloatBody:
    """The plain-float body, compiled per system, against the per-species loop."""

    def test_other_laws_run_their_own_rate(self):
        gs = [_HalfMonod(2.0, 0.5), Monod(2.0, 0.5), _Linear(0.25), Hill(2.0, 1.5, 2.0), _Linear(3.0)]
        y = np.array([2.0, 1.0, 1.0, 0.5, 1.5, 2.0])
        _assert_field_matches_reference(ChemostatParams(1.0, 10.0), gs, y)
        dy = vector_field(ChemostatParams(1.0, 10.0), gs)(0.0, y)
        assert dy[1] == (0.5 * (2.0 * 2.0 / 2.5) - 1.0) * 1.0 and dy[3] == (0.25 * 2.0 - 1.0) * 0.5

    @pytest.mark.parametrize("s", SPECIAL_SUBSTRATES + [5e-324, 1e-310, 1.5, 2.0, 1e10])
    def test_extreme_literals(self, s):
        gs = [
            Monod(2.0, 5e-324),
            Monod(1e300, 1e-310),
            Hill(1e300, 5e-324, 600.0),
            Hill(3.0, 1.5, 600.0),
            Hill(2.0, 1e300, 1.0),
            Monod(_ReprFloat(2.5), _ReprFloat(0.5)),
            Table(((0.0, 0.0), (5e-324, 1e300))),  # a chord slope of inf
        ]
        x = np.linspace(-1.0, 3.0, len(gs))
        _assert_field_matches_reference(ChemostatParams(1e-300, 1e300), gs, np.concatenate(([s], x)))

    def test_ten_thousand_node_table(self):
        xs = np.cumsum(np.linspace(0.5, 2.0, 10_000)) - 0.5
        ys = np.sqrt(xs) * 3.0
        table = Table(tuple(zip(xs.tolist(), ys.tolist())))
        gs = [Monod(2.0, 0.5), table, Hill(3.0, 1.5, 2.0)]
        for s in [0.0, -1e-12, xs[-1] * 4.0] + _substrates_near(xs[[1, 2, 4_999, 9_998, 9_999]].tolist()):
            _assert_field_matches_reference(ChemostatParams(1.0, 10.0), gs, np.array([s, 1.0, 2.0, 0.5]))

    def test_two_thousand_hill_laws_compile(self):
        gs = [Hill(2.0 + 0.001 * k, 1.5, 1.0 + 0.01 * k) for k in range(2_000)]
        x = np.linspace(0.0, 1.0, len(gs))
        for s in (0.0, 1.5, 7.0):
            _assert_field_matches_reference(ChemostatParams(1.0, 10.0), gs, np.concatenate(([s], x)))


class TestTableScalarRow:
    @given(tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_interp_path(self, table, data):
        nodes = [a for a, _ in table.points]
        s = data.draw(st.one_of(
            st.sampled_from(nodes),
            st.sampled_from(nodes).map(lambda a: math.nextafter(a, math.inf)),
            st.sampled_from(nodes).map(lambda a: math.nextafter(a, 0.0)),
            st.floats(min_value=0.0, max_value=2.0 * nodes[-1] + 1.0),
            st.floats(min_value=0.0, max_value=1e300),
        ))
        assert _bits(table._rate_scalar(s)) == _bits(float(table._rate(np.asarray(s))))


def _break_even_reference(g, d, s_probe_max=1e6):
    """The bisection of ``break_even`` with every probe through ``g.rate_unchecked``."""
    rate = g.rate_unchecked
    hi = min(1.0, s_probe_max)
    while rate(hi) <= d:
        if hi >= s_probe_max:
            return math.inf
        hi = min(hi * 2.0, s_probe_max)
    lo = 0.0
    for _ in range(4000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if rate(mid) < d:
            lo = mid
        else:
            hi = mid
        if hi - lo <= min(1e-12 * mid, 1e-12):
            break
    return 0.5 * (lo + hi)


class TestBreakEvenProbes:
    @given(
        st.one_of(monods, hills, tables()),
        st.floats(min_value=0.05, max_value=25.0),
        st.sampled_from([1e2, 1e6]),
    )
    # A level is the bisection root of the rate the RHS evaluates.  At one
    # probe of the second law np.power and libm pow differ in the last bit,
    # so bisecting on the array path would move its level; the first law
    # split the same way under an earlier Hill form.
    @example(Hill(13.622, 1.251, 2.059), 11.642, 1e6)
    @example(Hill(4.872, 9.034, 2.845), 2.225, 1e6)
    @settings(max_examples=300, deadline=None)
    def test_level_is_the_root_of_the_integrators_rate(self, g, d, probe):
        got = break_even(g, d, s_probe_max=probe)
        assert _bits(got) == _bits(_break_even_reference(g, d, probe))
