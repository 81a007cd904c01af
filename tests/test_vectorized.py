"""Array evaluations along the species axis against their scalar references.

``rate_matrix``, the batched ``fit_log_decay``, the merged-moment tail fits,
the run splitter behind persistent entries, the lockstep entry bisection,
dense output, the certificate's pack gaps and self-check and the
integrator's right-hand side each replace a per-species, per-stage or
per-sample loop; these properties pin them to the loop they replace.  The
table row of the right-hand side and the break-even bisection drop numpy
wrappers, and are pinned to the wrapped calls.  The certificate's margin
grids evaluate only the slower laws that can set the envelope, and are
pinned to the grids that evaluate every law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat_cep import (
    CertificateError,
    ChemostatParams,
    DomainError,
    Hill,
    Monod,
    State,
    Table,
    break_even,
    build_certificate,
    compute_nu,
    gamma_bounds,
    order_species,
    recheck_certificate,
    separation_margins,
    simulate,
)
from chemostat_cep import certificate as certificate_mod
from chemostat_cep.certificate import _envelope_rows, _pack_gap
from chemostat_cep.cli import parse_scenario
from chemostat_cep.dynamics import vector_field
from chemostat_cep.growth import pack_species, rate_matrix
from chemostat_cep.integrate import (
    EntryRecord,
    _membership_runs,
    persistent_entries,
    scan_persistent_entry,
)
from chemostat_cep.verify import fit_log_decay, fit_log_decay_tails

from conftest import CANONICAL_SPECIES

ROOT = Path(__file__).resolve().parent.parent

pos = st.floats(min_value=0.01, max_value=20.0, allow_nan=False, allow_infinity=False)

monods = st.builds(Monod, mu_max=pos, k=pos)
hills = st.builds(Hill, mu_max=pos, k=pos, p=st.floats(min_value=1.0, max_value=4.0))


@st.composite
def tables(draw):
    steps = draw(st.lists(st.tuples(pos, pos), min_size=1, max_size=5))
    pts, s, mu = [(0.0, 0.0)], 0.0, 0.0
    for ds, dmu in steps:
        s, mu = s + ds, mu + dmu
        pts.append((s, mu))
    return Table(points=tuple(pts))


@st.composite
def offset_tables(draw):
    """Tables whose first node lies above s = 0, so y_0 holds below it."""
    t = draw(tables())
    dx = draw(pos)
    return Table(points=tuple((a + dx, b) for a, b in t.points))


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


def _tail_fit_reference(t, v, floor=1e-300):
    """One masked, centred closed-form fit of one tail on its own.

    Times are centred on the tail's mean and logs on each column's mean
    over its usable samples, in two passes.
    """
    mask = np.isfinite(v) & (v > floor)
    n = np.count_nonzero(mask, axis=0)
    fit = n >= 8
    slopes = [None] * n.size
    if np.any(fit):
        t0 = t - np.mean(t)
        y = mask.astype(float)
        n_fit = np.where(fit, n, 1)
        t_bar = (t0 @ y) / n_fit
        s_tt = (t0 * t0) @ y - n_fit * t_bar * t_bar
        np.log(v, out=y, where=mask)
        y -= y.sum(axis=0) / n_fit
        y *= mask
        s_ty = t0 @ y - t_bar * y.sum(axis=0)
        for j in np.flatnonzero(fit):
            slopes[j] = float(s_ty[j] / s_tt[j])
    return slopes, n


@st.composite
def tail_fit_inputs(draw):
    """A ratio block like the induction check's, and stage starts into it.

    Columns decay until they fall under the log floor; holes are NaN, inf,
    zero, negative or sub-floor samples; rows where the lead species is
    zero are NaN throughout.  Starts come unsorted, duplicated and None,
    and some leave 8-16 samples at the end of a long horizon.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([12, 40, 301, 2001]))
    cols = draw(st.integers(min_value=1, max_value=8))
    horizon = draw(st.sampled_from([1.0, 80.0, 800.0]))
    t = np.linspace(0.0, horizon, n)
    rate = rng.uniform(0.05, 3.0, cols) * 80.0 / horizon
    v = np.exp(rng.uniform(-50.0, 50.0, cols) - np.outer(t, rate) + rng.normal(0.0, 0.1, (n, cols)))
    holes = rng.random((n, cols)) < draw(st.floats(min_value=0.0, max_value=0.5))
    v[holes] = rng.choice([0.0, np.nan, np.inf, -1.0, 1e-310], holes.sum())
    v[rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.2))] = np.nan
    late = [int(k) for k in rng.integers(max(0, n - 16), max(1, n - 7), 3)]
    anywhere = [int(k) for k in rng.integers(0, n + 1, draw(st.integers(0, 6)))]
    starts = draw(st.permutations(late + anywhere + [None] * draw(st.integers(0, 2))))
    return t, v, list(starts)


class TestMergedTailFits:
    @given(tail_fit_inputs())
    @settings(max_examples=150, deadline=None)
    def test_every_tail_matches_a_two_pass_fit_of_that_tail(self, inputs):
        t, v, starts = inputs
        fits = fit_log_decay_tails(t, v.copy(), starts)
        assert len(fits) == len(starts)
        for start, fit in zip(starts, fits):
            if start is None:
                assert fit is None
                continue
            slopes, n = fit
            ref_slopes, ref_n = _tail_fit_reference(t[start:], v[start:].copy())
            assert n.tolist() == ref_n.tolist()
            for got, ref in zip(slopes, ref_slopes):
                assert (got is None) == (ref is None)
                if ref is not None:
                    assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_short_noisy_tails_at_the_end_of_a_long_horizon(self, seed):
        # Logs near 45 whose trend over 8-16 samples is lost in the noise,
        # so the slopes are small and rounding in the tails' means shows.
        # Measured from the end these agree to 2e-13; measured from t = 0
        # and log 0 they drift by 1e-12 to 5e-10.
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 80.0, 2001)
        v = np.exp(45.0 - 0.05 * t[:, None] + rng.normal(0.0, 0.1, (2001, 4)))
        starts = list(range(1985, 1994))
        for start, (slopes, _) in zip(starts, fit_log_decay_tails(t, v.copy(), starts)):
            ref, _ = _tail_fit_reference(t[start:], v[start:].copy())
            assert slopes == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_columns_turn_unfittable_on_later_tails(self):
        t = np.linspace(0.0, 10.0, 40)
        v = np.exp(-np.outer(t, [0.5, 1.0]))
        v[30:, 1] = np.nan  # 30 usable samples, then none
        fits = fit_log_decay_tails(t, v, [0, 25, 30, 40, None])
        assert [s is None for s in fits[0][0]] == [False, False]
        assert [s is None for s in fits[1][0]] == [False, True]  # 5 usable
        assert fits[2][1].tolist() == [10, 0]
        assert fits[3][0] == [None, None] and fits[3][1].tolist() == [0, 0]
        assert fits[4] is None
        assert fits[0][0][0] == pytest.approx(-0.5, rel=1e-12)

    def test_values_are_overwritten_with_their_logs(self):
        t = np.linspace(0.0, 1.0, 10)
        v = np.column_stack([np.exp(-t), np.full(10, np.nan)])
        fit_log_decay_tails(t, v, [4])
        assert np.array_equal(v[:4, 0], np.exp(-t[:4]))  # rows before the first start untouched
        assert np.all(np.isfinite(v[4:]))


def _runs_reference(inside):
    runs = []
    start = 0
    for k in range(1, inside.size):
        if inside[k] != inside[start]:
            runs.append((start, k - 1, bool(inside[start])))
            start = k
    runs.append((start, inside.size - 1, bool(inside[start])))
    return runs


class TestMembershipRuns:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, bits):
        inside = np.array(bits, dtype=bool)
        assert _membership_runs(inside) == _runs_reference(inside)

    @pytest.mark.parametrize("bits", [[True], [False], [True] * 9, [False] * 9])
    def test_length_one_and_constant(self, bits):
        inside = np.array(bits, dtype=bool)
        assert _membership_runs(inside) == [(0, len(bits) - 1, bits[0])]


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
        st.sampled_from([None, 0.05, 0.37]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_runs_dense_grid_equals_sample(self, mu2, k2, s0, x1, horizon, dense_dt):
        growths = [Monod(3.0, 1.0), Monod(mu2, k2)]
        x0 = State(s=s0, x=np.array([0.05, x1]))
        traj = simulate(ChemostatParams(1.0, 10.0), growths, x0, horizon, dense_dt=dense_dt)
        _assert_dense_equals_sample(traj)


def _entry_reference(traj, interval, grace):
    """One interval's entry, bisected one ``Trajectory.sample`` at a time."""
    lo, hi = interval
    t = traj.times
    s = traj.states[:, 0]
    idx, excursions, persistent = scan_persistent_entry(t, (s >= lo) & (s <= hi), grace)
    if idx is None:
        return EntryRecord((lo, hi), None, False, excursions)
    if idx == 0:
        return EntryRecord((lo, hi), 0.0, persistent, excursions)
    t_out, t_in = float(t[idx - 1]), float(t[idx])
    tol = max(1e-12, 1e-9 * traj.horizon)
    while t_in - t_out > tol:
        mid = 0.5 * (t_out + t_in)
        if lo <= traj.sample(mid).s <= hi:
            t_in = mid
        else:
            t_out = mid
    return EntryRecord((lo, hi), t_in, persistent, excursions)


class TestPersistentEntries:
    def test_canonical_intervals_match_per_interval_bisection(
        self, canonical_trajectory, canonical_certificate
    ):
        traj = canonical_trajectory
        # the certificate's stages, one holding from t = 0, one never entered
        intervals = list(canonical_certificate.intervals) + [(0.0, 11.0), (100.0, 200.0)]
        for grace in (0.0, 0.5):
            got = persistent_entries(traj, intervals, grace)
            assert got == [_entry_reference(traj, iv, grace) for iv in intervals]
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
        st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_runs_match_per_interval_bisection(self, mu2, k2, s0, horizon, ivs, grace):
        growths = [Monod(3.0, 1.0), Monod(mu2, k2)]
        x0 = State(s=s0, x=np.array([0.05, 0.05]))
        traj = simulate(ChemostatParams(1.0, 10.0), growths, x0, horizon)
        intervals = [(lo, lo + w) for lo, w in ivs]
        got = persistent_entries(traj, intervals, grace)
        assert got == [_entry_reference(traj, iv, grace) for iv in intervals]

    def test_empty_interval_list(self, canonical_trajectory):
        assert persistent_entries(canonical_trajectory, []) == []


def _pack_gap_reference(ordered, i, grid):
    lower = np.min([g(grid) for g in ordered.pack_growths(i)], axis=0)
    uppers = [g(grid) for j in range(i + 1, ordered.n_packs) for g in ordered.pack_growths(j)]
    return lower - np.max(uppers, axis=0)


MIXED = CANONICAL_SPECIES + (
    ("sp3b", Monod(5.0, 3.0)),
    ("h", Hill(2.0, 1.5, 2.0)),
    ("tab", Table(((0.0, 0.0), (1.0, 0.9), (4.0, 2.0)))),
    ("slow", Monod(1.0, 1.0)),
)


class TestCertificateArrays:
    def test_pack_gap_bitwise_equal_to_per_law_loop(self):
        ordered = order_species(MIXED, 1.0)
        for i in range(ordered.n_packs - 1):
            grid = np.linspace(0.1, 12.0, 513)
            assert np.array_equal(_pack_gap(ordered, i, grid), _pack_gap_reference(ordered, i, grid))

    def test_nu_is_compute_nu_on_the_same_margins(self):
        ordered = order_species(MIXED, 1.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        assert cert.nu == compute_nu(ordered, margins, grid_n=cert.grid_n)

    def test_gamma_bounds_match_scalar_loop(self):
        ordered = order_species(MIXED, 1.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        gamma_minus, gamma_plus, skipped = gamma_bounds(ordered, margins, 1.0)
        assert gamma_minus == 1.0 - max(g(margins[0][0]) for g in ordered.pack_growths(0))
        finite = [i for i in range(1, ordered.n_packs) if np.isfinite(ordered.pack_lambda(i))]
        assert gamma_plus == min(
            g(margins[i - 1][1]) - 1.0 for i in finite for j in range(i) for g in ordered.pack_growths(j)
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
        probe = sc.options.probe_factor * sc.params.s_in
        cases.append((name, order_species(sc.species, sc.params.d, s_probe_max=probe)))
    cases.append(("mixed", order_species(MIXED, 1.0)))
    cases += [(f"mixed-{seed}", order_species(_mixed_species(seed), 1.0)) for seed in range(6)]
    return cases


class TestCertificateSelfCheck:
    @pytest.mark.parametrize("name,ordered", _certificate_cases())
    def test_construction_reads_the_grids_a_recheck_evaluates(self, name, ordered):
        cert = build_certificate(ordered, 1.0, 10.0)
        assert not cert.degenerate
        assert recheck_certificate(cert, ordered, grid_factor=1) == []
        for i, b in enumerate(cert.boundaries):
            grid = np.linspace(b.s_minus, b.s_plus, cert.grid_n + 1)
            assert b.gap_min == float(np.min(_pack_gap(ordered, i, grid)))


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


def _assert_certificate_matches_every_row(ordered, d=1.0, s_in=10.0, grid_n=2048):
    """build_certificate against the same construction with every slower row."""
    got = _outcome(lambda: build_certificate(ordered, d, s_in, grid_n=grid_n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificate_mod, "_envelope_rows", lambda o, s, n: [None] * (o.n_packs - 1))
        want = _outcome(lambda: build_certificate(ordered, d, s_in, grid_n=grid_n))
    assert got == want
    if isinstance(got, str):
        return None
    rows = _envelope_rows(ordered, s_in, grid_n)
    limit = None
    for i in reversed(range(len(got.boundaries))):
        b = got.boundaries[i]
        ref = separation_margins(ordered, i, s_in, grid_n=grid_n, s_plus_limit=limit)
        assert (b.s_minus, b.s_plus, b.delta, b.gap_min) == (ref.s_minus, ref.s_plus, ref.delta, ref.gap_min)
        grid = np.linspace(b.s_minus, b.s_plus, grid_n + 1)
        every = _pack_gap(ordered, i, grid)
        assert np.array_equal(_pack_gap(ordered, i, grid, rows[i]), every)
        assert b.gap_min == float(np.min(every))
        limit = ref.s_plus
    if not got.degenerate:
        margins = tuple((b.s_minus, b.s_plus) for b in got.boundaries)
        assert got.nu == compute_nu(ordered, margins, grid_n=grid_n)
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
        _assert_certificate_matches_every_row(order_species(species, 1.0))

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    def test_case(self, case):
        ordered = order_species(ENVELOPE_CASES[case], 1.0)
        cert = _assert_certificate_matches_every_row(ordered)
        assert not cert.degenerate
        b0 = cert.boundaries[0]
        if case == "overtaking":
            grid = np.linspace(b0.s_minus, b0.s_plus, cert.grid_n + 1)
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
            assert _envelope_rows(ordered, 10.0, cert.grid_n)[-1].size == 2

    @given(mu_maxes, mu_maxes, st.floats(min_value=1.05, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_steep_slow_law_that_overtakes_a_nearer_one(self, mu_near, mu_far, ratio):
        species = (("low", Monod(3.0, 1.0)), ("near", _monod_at(2.0, mu_near)), ("far", _monod_at(2.0 * ratio, mu_far)))
        _assert_certificate_matches_every_row(order_species(species, 1.0))

    def test_wide_monod_set_drops_most_rows(self):
        rng = np.random.default_rng(7)
        lams = rng.permutation(np.linspace(0.5, 6.5, 100) + rng.uniform(0.0, 0.05, 100))
        species = tuple((f"m{k}", _monod_at(float(lam), float(rng.uniform(1.2, 6.0)))) for k, lam in enumerate(lams))
        ordered = order_species(species, 1.0)
        rows = _envelope_rows(ordered, 10.0, 2048)
        kept = sum(r.size for r in rows)
        slower = sum(ordered.n - ordered.packs[i + 1][0] for i in range(ordered.n_packs - 1))
        assert slower == 4950 and kept < 0.2 * slower
        _assert_certificate_matches_every_row(ordered)

    def test_laws_of_other_types_are_always_evaluated(self):
        class Custom(Monod):
            pass

        species = (("a", Monod(3.0, 1.0)), ("b", _monod_at(2.0, 5.0)), ("c", Custom(1.5, 1.5)), ("d", _monod_at(4.0, 1.2)))
        ordered = order_species(species, 1.0)
        custom = next(k for k, rec in enumerate(ordered.records) if rec.id == "c")
        assert all(custom in r for r in _envelope_rows(ordered, 10.0, 2048)[:2])
        _assert_certificate_matches_every_row(ordered)


class TestPackSpecies:
    def test_subset_repacked_from_known_levels_equals_fresh_ordering(self):
        full = order_species(MIXED, 1.0)
        lam = {rec.id: rec.lam for rec in full.records}
        subset = [sp for k, sp in enumerate(MIXED) if k % 3 != 1]
        assert pack_species(subset, [lam[sid] for sid, _ in subset]) == order_species(subset, 1.0)


def _rate_reference(g, s):
    """The integrator's per-law rate before it was vectorised."""
    s = s if s > 0.0 else 0.0
    if isinstance(g, Table):
        xs, ys = g._nodes
        if s > xs[-1]:
            return float(ys[-1]) + g._tail_slope * (s - float(xs[-1]))
        return float(np.interp(s, xs, ys))
    if isinstance(g, Hill):
        sp = s**g.p
        num, den = g.mu_max * sp, g.k**g.p + sp
        if math.isinf(num) or math.isinf(den):  # overflow: the law as mu_max / (1 + (k/s)**p)
            return g.mu_max / (1.0 + np.power(g.k / s, g.p)) if s > 0.0 else 0.0
        return num / den
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


many_laws = st.lists(st.one_of(monods, hills, tables(), offset_tables()), min_size=1, max_size=120)
special_substrates = st.sampled_from(
    [0.0, -0.0, -1e-300, -1e-12, -1e-9, 1e-300, 1e150, 1e300, math.inf, -math.inf, math.nan]
)


@st.composite
def field_inputs(draw):
    """Laws, a state vector and a substrate at the edges the stages can reach.

    The substrate is drawn from tiny undershoots, zero, table nodes, points
    beyond the last node, huge values and non-finite trial-stage values;
    densities may be negative, as in a trial stage.
    """
    gs = draw(many_laws)
    nodes = [a for g in gs if isinstance(g, Table) for a, _ in g.points]
    candidates = [special_substrates, st.floats(min_value=0.0, max_value=1e3)]
    if nodes:
        candidates.append(st.sampled_from(nodes))
        candidates.append(st.sampled_from(nodes).map(lambda a: 1.5 * a + 1.0))
    s = draw(st.one_of(*candidates))
    x = draw(st.lists(st.floats(min_value=-1.0, max_value=50.0), min_size=len(gs), max_size=len(gs)))
    return gs, np.array([s] + x)


class TestVectorField:
    @given(field_inputs(), st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_per_species_loop(self, inputs, d, s_in):
        gs, y = inputs
        params = ChemostatParams(d=d, s_in=s_in)
        f = vector_field(params, gs)
        with np.errstate(all="ignore"):
            want = _field_reference(params, gs, y)
            got = f(0.0, y)
            again = f(1.0, y.copy())
        assert np.array_equal(_bits(got), _bits(want)), (got, want)
        assert np.array_equal(_bits(again), _bits(want))

    def test_each_call_returns_a_new_array(self):
        f = vector_field(ChemostatParams(1.0, 10.0), [g for _, g in MIXED])
        y = np.linspace(1.0, 2.0, len(MIXED) + 1)
        a = f(0.0, y)
        b = f(0.0, 2.0 * y)
        assert a is not b and not np.shares_memory(a, b)
        assert np.array_equal(a, f(0.0, y))


class TestTableScalarRow:
    @given(st.one_of(tables(), offset_tables()), st.data())
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


def _break_even_reference(g, d, root_tol=1e-12, s_probe_max=1e6):
    """The bisection of ``break_even`` with every probe through ``g(...)``."""
    hi = min(1.0, s_probe_max)
    while g(hi) <= d:
        if hi >= s_probe_max:
            return math.inf
        hi = min(hi * 2.0, s_probe_max)
    lo = 0.0
    for _ in range(4000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < d:
            lo = mid
        else:
            hi = mid
        if hi - lo <= min(root_tol * mid, 1e-12):
            break
    return 0.5 * (lo + hi)


class TestBreakEvenProbes:
    @given(
        st.one_of(monods, hills, tables(), offset_tables()),
        st.floats(min_value=0.05, max_value=25.0),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
        st.sampled_from([1e2, 1e6]),
    )
    # libm pow and np.power differ in the last bit of one probe of this law,
    # so probing with the scalar path would move its level
    @example(Hill(13.622, 1.251, 2.059), 11.642, 1e-12, 1e6)
    @settings(max_examples=300, deadline=None)
    def test_levels_identical_to_validated_probes(self, g, d, root_tol, probe):
        got = break_even(g, d, root_tol=root_tol, s_probe_max=probe).value
        assert _bits(got) == _bits(_break_even_reference(g, d, root_tol, probe))
