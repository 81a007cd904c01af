"""Growth laws, break-even roots, ordering/packing, and grid validation."""

from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat_cep import Hill, Monod, Table, order_species
from chemostat_cep.errors import DomainError, ParameterError
from chemostat_cep.growth import ROOT_TOL, GrowthFunction, break_even, rate_matrix


class TestEvaluation:
    def test_monod_zero(self):
        assert Monod(1.0, 1.0)(0.0) == 0.0

    def test_monod_closed_form(self):
        assert Monod(3.0, 1.0)(1.0) == pytest.approx(1.5, abs=0.0)

    def test_hill_closed_form(self):
        # 2 * 1 / (1 + 1)
        assert Hill(2.0, 1.0, 2.0)(1.0) == pytest.approx(1.0)
        assert Hill(2.0, 1.0, 2.0)(0.0) == 0.0

    def test_table_node_hit(self):
        g = Table(((0.0, 0.0), (1.0, 0.5), (10.0, 0.9)))
        assert g(1.0) == 0.5
        assert g(0.0) == 0.0

    def test_table_tail_keeps_increasing(self):
        g = Table(((0.0, 0.0), (1.0, 0.5), (10.0, 0.9)))
        assert g(20.0) > g(10.0) > g(5.0)

    def test_negative_substrate_rejected(self):
        with pytest.raises(DomainError):
            Monod(1.0, 1.0)(-0.1)

    def test_array_evaluation(self):
        g = Monod(3.0, 1.0)
        s = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(g(s), [0.0, 1.5, 2.25])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Monod(0.0, 1.0),
            lambda: Monod(1.0, -1.0),
            lambda: Hill(1.0, 1.0, 0.5),
            lambda: Table(((0.0, 0.0),)),
            lambda: Table(((1.0, 0.1), (1.0, 0.2))),
            lambda: Table(((0.0, 0.0), (1.0, -0.2))),
            # mu(0) = 0.5
            lambda: Table(((0.0, 0.5), (10.0, 3.0))),
            lambda: Table(((0.5, 0.0), (2.0, 1.0))),
            lambda: Table(((0.0, 0.0), (1.0, 0.5), (2.0, 0.4), (10.0, 3.0))),
            lambda: Table(((0.0, 0.0), (1.0, 0.5), (2.0, 0.5))),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("base", [GrowthFunction, Monod, Hill, Table])
    def test_laws_defined_elsewhere_are_refused(self, base):
        # Such a law would skip the constructors' checks, and the certificate
        # and the break-even bisection assume every law increases.
        with pytest.raises(TypeError, match="growth laws are Monod, Hill and Table only"):

            class Custom(base):
                pass


# Steep Hill laws whose powers overflow: s**600 above s = 3.26 for the first,
# k**600 itself for the second.
OVERFLOWING_HILLS = [Hill(2.0, 2.8, 600.0), Hill(2.0, 10.0, 600.0)]


def _hill_form_bound(p):
    """Relative distance allowed between Hill's evaluated form and the direct form.

    The power raises the rounding of s / k to the p-th power, which gives
    p / 2 ulps; the remaining operations of both forms add a few more.
    """
    return (p / 2.0 + 6.0) * np.finfo(float).eps


OVERFLOW_LEVELS = [0.0, 1e-300, 1.0, 2.79, 2.8, 3.3, 9.99, 10.0, 10.01, 50.0, 1e6, 1e300]


class TestHillOverflow:
    @pytest.mark.parametrize("g", OVERFLOWING_HILLS)
    def test_rates_finite_and_at_most_mu_max(self, g):
        s = np.array(OVERFLOW_LEVELS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = [g(s), rate_matrix([g], s)[0], [g.rate_unchecked(v) for v in OVERFLOW_LEVELS]]
        for rates in paths:
            rates = np.asarray(rates)
            assert np.all(np.isfinite(rates)) and np.all((0.0 <= rates) & (rates <= g.mu_max))
            assert rates[0] == 0.0 and rates[-1] == g.mu_max
            assert np.all(np.diff(rates) >= 0.0)
        assert g(3.3) == g.rate_unchecked(3.3)

    def test_non_overflowing_rates_match_the_direct_form(self):
        g = OVERFLOWING_HILLS[0]
        s = np.linspace(0.0, 3.2, 321)  # 3.2**600 < 1e300: the direct form is finite
        sp = np.power(s, g.p)
        direct = g.mu_max * sp / (g.k**g.p + sp)
        array = g(s)
        scalar = np.array([g.rate_unchecked(v) for v in s.tolist()])
        # Compared where every intermediate of both forms is a normal float.
        normal = direct >= 1e-300
        assert np.count_nonzero(normal) > 200
        bound = _hill_form_bound(g.p)
        assert np.all(np.abs(array - direct)[normal] <= bound * direct[normal])
        assert np.all(np.abs(scalar - array)[normal] <= 1e-15 * array[normal])

    @given(
        mu_max=st.floats(0.5, 5.0),
        k=st.floats(0.1, 10.0),
        p=st.floats(1.0, 4.0),
        s=st.floats(0.0, 20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_moderate_exponents_match_the_direct_form(self, mu_max, k, p, s):
        g = Hill(mu_max, k, p)
        sp = s**p
        direct = mu_max * sp / (k**p + sp)
        if direct >= 1e-300:  # every intermediate of both forms is a normal float
            array, scalar = g(s), g.rate_unchecked(s)
            assert abs(array - direct) <= _hill_form_bound(p) * direct
            assert abs(scalar - direct) <= _hill_form_bound(p) * direct
            assert abs(scalar - array) <= 1e-15 * array

    @pytest.mark.parametrize("g", OVERFLOWING_HILLS)
    def test_break_even_finite(self, g):
        lam = break_even(g, 1.0)
        assert math.isfinite(lam) and lam == pytest.approx(g.k, rel=1e-12)


class TestBreakEven:
    def test_monod_closed_form(self):
        # k*d/(mu_max - d) = 1/(3-1)
        assert break_even(Monod(3.0, 1.0), 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_identity_table(self):
        g = Table(((0.0, 0.0), (1.0, 1.0)))
        assert break_even(g, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_unreachable_rate_is_infinite(self):
        # sup mu = 1 = d is never attained
        assert break_even(Monod(1.0, 1.0), 1.0) == math.inf

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ParameterError):
            break_even(Monod(3.0, 1.0), 0.0)
        with pytest.raises(ParameterError) as exc:
            break_even(Monod(3.0, 1.0), -1.0)
        assert exc.value.field == "d" and str(exc.value) == "d: must be finite and > 0, got -1.0"

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bad_probe_bound_names_its_field(self, bound):
        with pytest.raises(ParameterError) as exc:
            break_even(Monod(3.0, 1.0), 1.0, s_probe_max=bound)
        assert exc.value.field == "s_probe_max"
        assert str(exc.value) == f"s_probe_max: must be finite and > 0, got {bound!r}"

    def test_non_monotone_table_rejected(self):
        # refused at construction, so break_even never sees such a law
        with pytest.raises(ParameterError, match="node rates must increase strictly"):
            Table(((0.0, 0.0), (1.0, 0.5), (2.0, 0.4)))

    @pytest.mark.parametrize(
        "points, i, reason",
        [
            (((0.5, 0.0), (1.0, 1.0)), 0, "first node must be [0, 0], so that mu(0) = 0"),
            (((0.0, 0.0), (2.0, 1.0), (1.0, 2.0)), 2, "node substrate values must increase strictly"),
            (((0.0, 0.0), (1.0, 0.5), (2.0, 0.5)), 2, "node rates must increase strictly"),
            (((0.0, 0.0), (1.0, 0.5), (math.inf, 3.0)), 2, "node must be finite"),
        ],
    )
    def test_table_refusal_names_its_node(self, points, i, reason):
        with pytest.raises(ParameterError) as exc:
            Table(points)
        assert (exc.value.field, exc.value.reason) == (f"points[{i}]", reason)
        assert str(exc.value) == f"points[{i}]: {reason}"

    @pytest.mark.parametrize(
        "law, field",
        [(lambda: Monod(0.0, 1.0), "mu_max"), (lambda: Hill(1.0, math.nan, 2.0), "k"), (lambda: Hill(1.0, 1.0, 0.5), "p")],
    )
    def test_law_parameter_refusal_names_its_field(self, law, field):
        with pytest.raises(ParameterError) as exc:
            law()
        assert exc.value.field == field and str(exc.value).startswith(f"{field}: must be finite and ")

    def test_probe_bound_respected(self):
        # root sits at 1e5, probe stops at 1e3
        g = Monod(2.0, 1e5)
        assert break_even(g, 1.0, s_probe_max=1e3) == math.inf
        assert break_even(g, 1.0, s_probe_max=1e7) == pytest.approx(1e5, rel=1e-10)

    @given(
        mu_max=st.floats(1.05, 20.0),
        k=st.floats(0.01, 100.0),
        d=st.floats(0.1, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_oracle(self, mu_max, k, d):
        if mu_max <= d * 1.05:
            mu_max = d * 1.05 + 1.0
        expected = k * d / (mu_max - d)
        got = break_even(Monod(mu_max, k), d, s_probe_max=1e9)
        if expected <= 1e3:
            assert abs(got - expected) <= 1e-10
        else:
            assert abs(got - expected) <= 1e-10 * expected

    @given(mu_max=st.floats(1.2, 10.0), k=st.floats(0.05, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_root_invariants(self, mu_max, k):
        g = Monod(mu_max, k)
        lam = break_even(g, 1.0)
        assert abs(g(lam) - 1.0) <= ROOT_TOL * 1.0
        assert g(lam - 10 * ROOT_TOL) < 1.0 < g(lam + 10 * ROOT_TOL)


class TestOrdering:
    def test_canonical_triple(self):
        trio = [("a", Monod(3, 1)), ("b", Monod(4, 2)), ("c", Monod(5, 3))]
        ordered = order_species(trio, 1.0, 10.0)
        lams = [r.lam for r in ordered.records]
        assert lams == pytest.approx([0.5, 2 / 3, 0.75], abs=1e-10)
        assert ordered.permutation == (0, 1, 2)
        assert ordered.packs == ((0,), (1,), (2,))

    def test_sorting_is_ascending(self):
        trio = [("c", Monod(5, 3)), ("a", Monod(3, 1)), ("b", Monod(4, 2))]
        ordered = order_species(trio, 1.0, 10.0)
        assert [r.id for r in ordered.records] == ["a", "b", "c"]
        assert ordered.permutation == (1, 2, 0)

    def test_identical_species_share_a_pack(self):
        pair = [("u", Monod(3, 1)), ("v", Monod(3, 1))]
        ordered = order_species(pair, 1.0, 10.0)
        assert ordered.packs == ((0, 1),)
        # stable: input order preserved inside the pack
        assert [r.id for r in ordered.records] == ["u", "v"]

    def test_infinite_levels_sort_last_in_one_pack(self):
        mix = [("slow", Monod(1, 1)), ("fast", Monod(3, 1)), ("never", Monod(0.5, 1))]
        ordered = order_species(mix, 1.0, 10.0)
        assert [r.id for r in ordered.records] == ["fast", "slow", "never"]
        assert ordered.packs == ((0,), (1, 2))
        assert math.isinf(ordered.pack_lambda(1))

    def test_packs_partition_the_index_set(self):
        mix = [("a", Monod(3, 1)), ("b", Monod(3, 1)), ("c", Monod(4, 2)), ("d", Monod(1, 1))]
        ordered = order_species(mix, 1.0, 10.0)
        flat = [k for pack in ordered.packs for k in pack]
        assert sorted(flat) == list(range(4))
        assert flat == sorted(flat)  # consecutive positions
        lams = [ordered.pack_lambda(i) for i in range(ordered.n_packs)]
        assert all(a < b or (math.isinf(a) and math.isinf(b)) for a, b in zip(lams, lams[1:]))

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            order_species([], 1.0, 10.0)


def _exact_rate(g, s: float) -> Decimal:
    """The law's rate at ``s`` to 60 digits (``decimal`` rounds powers correctly)."""
    with localcontext() as ctx:
        ctx.prec = 60
        s, mu_max, k = Decimal(s), Decimal(g.mu_max), Decimal(g.k)
        if isinstance(g, Hill):
            u = (s / k) ** Decimal(g.p)
            return mu_max * u / (1 + u)
        return mu_max * s / (k + s)


@given(
    s=st.floats(0.0, 50.0),
    ds=st.floats(1e-6, 5.0),
    mu_max=st.floats(0.1, 10.0),
    k=st.floats(0.01, 50.0),
    p=st.floats(1.0, 4.0),
)
@example(s=42, ds=1e-6, mu_max=1, k=0.01, p=2.375)  # both rates round to 0.9999999975181078
@settings(max_examples=60, deadline=None, derandomize=True)
def test_laws_increase_up_to_float_saturation(s, ds, mu_max, k, p):
    # a strict increase is only resolvable in floats where the exact increase
    # exceeds the rounding of the two rates, taken as two ulps of the larger
    for g in (Monod(mu_max, k), Hill(mu_max, k, p)):
        lo, hi = g(s), g(s + ds)
        assert 0.0 <= lo <= hi
        if _exact_rate(g, s + ds) - _exact_rate(g, s) > 2 * Decimal(math.ulp(hi)):
            assert hi > lo
