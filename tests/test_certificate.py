"""Certificate construction: margins, domination gap, rate and dilution bounds."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat_cep import Hill, Monod, Table, build_certificate, order_species
from chemostat_cep import certificate as certificate_mod
from chemostat_cep.certificate import (
    GRID_N,
    dilution_bounds,
    gamma_bounds,
    recheck_certificate,
    separation_margins,
)
from chemostat_cep.errors import CertificateError, ParameterError, WashoutError
from chemostat_cep.growth import OrderedSpecies, SpeciesRecord

from conftest import CANONICAL_SPECIES, LAM, compute_nu, refined_gaps


def _gap_oracle(growth_lo, growth_his, lo, hi, n=GRID_N):
    """Independent per-law evaluation on a grid of ``n`` intervals: the
    minimum of the pointwise gap, and of the cell bound low(s_k) - high(s_k+1)."""
    s = np.linspace(lo, hi, n + 1)
    low = growth_lo(s)
    high = np.max([g(s) for g in growth_his], axis=0)
    return float(np.min(low - high)), float(np.min(low[:-1] - high[1:]))


class TestSeparationMargins:
    def test_canonical_first_boundary(self, canonical_ordered):
        b = separation_margins(canonical_ordered, 0, 10.0)
        delta0 = 0.5 * (LAM[1] - LAM[0])
        assert b.s_minus == pytest.approx(LAM[0] - delta0, abs=1e-9)
        assert b.s_plus == pytest.approx(LAM[1] + delta0, abs=1e-9)
        assert not b.capped
        assert b.gap_min > 0.0
        # direct evaluation: gap between the two fastest laws at s = 0.5
        gap_at_half = Monod(3, 1)(0.5) - Monod(4, 2)(0.5)
        assert gap_at_half == pytest.approx(0.2, abs=1e-12)
        assert b.gap_min <= gap_at_half

    def test_well_separated_pair_first_try(self):
        ordered = order_species([("a", Monod(3, 1)), ("b", Monod(3, 2))], 1.0, 10.0)
        b = separation_margins(ordered, 0, 10.0)
        # lambdas 0.5 and 1.0, so the symmetric extension 0.25 survives as is
        assert b.s_minus == pytest.approx(0.25, abs=1e-9)
        assert b.s_plus == pytest.approx(1.25, abs=1e-9)

    def test_contradictory_ordering_fails(self):
        # hand-built ordering that contradicts the curves: the slower species
        # is presented as the faster pack
        fast, slow = Monod(3, 1), Monod(4, 2)
        ordered = OrderedSpecies(
            records=(
                SpeciesRecord("wrong", slow, 0.5),
                SpeciesRecord("also-wrong", fast, 2 / 3),
            ),
            permutation=(0, 1),
            packs=((0,), (1,)),
        )
        with pytest.raises(CertificateError):
            separation_margins(ordered, 0, 10.0)

    def test_upper_level_capped_when_unreachable(self):
        ordered = order_species([("a", Monod(3, 1)), ("slow", Monod(1, 1))], 1.0, 10.0)
        b = separation_margins(ordered, 0, 10.0)
        assert b.capped
        assert b.lam_upper_eff == pytest.approx(20.0)  # max(2 s_in, 2 lambda_1)
        assert b.s_plus > 20.0

    def test_bad_boundary_index(self, canonical_ordered):
        with pytest.raises(ParameterError):
            separation_margins(canonical_ordered, 2, 10.0)


@st.composite
def _mixed_case(draw):
    """(species, d, s_in): 2-5 Monod, Hill (p up to 600) and table laws at
    d = 1 with distinct break-even levels, the first below s_in = 10."""
    species = []
    for k, lam in enumerate(np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=5))).tolist()):
        mu_max = draw(st.floats(1.05, 20.0))
        kind = draw(st.sampled_from(("monod", "hill", "table")))
        if kind == "monod":
            g = Monod(mu_max, lam * (mu_max - 1.0))
        elif kind == "hill":
            p = draw(st.floats(1.0, 600.0))
            g = Hill(mu_max, lam * (mu_max - 1.0) ** (1.0 / p), p)
        else:
            g = Table(((0.0, 0.0), (lam, 1.0), (lam + draw(st.floats(0.1, 20.0)), mu_max)))
        species.append((f"sp{k}", g))
    return tuple(species), 1.0, 10.0


# sweep-small seed 3, scenario 68: the one benchmark certificate whose cell
# bound (3.36e-4) is below half the grid minimum of the gap (8.12e-4, at
# the left margin of boundary 2).
_STEEP_SLOWER_PACK = (
    (
        ("s1", Monod(4.577589218814849, 3.9629085966684237)),
        ("s2", Hill(4.263214779952276, 3.794985330647452, 2.096374716382858)),
        ("s3", Table(((0.0, 0.0), (1.166315680532792, 0.42668103661857626), (3.1200343058700324, 0.9228399078644575),
                      (5.420112545026638, 1.4228529756301638), (11.4915885054381, 2.5646300688641164)))),
        ("s4", Monod(0.7577189080128333, 2.2309927875693623)),
    ),
    1.1856042798071376,
    7.505893874854268,
)


# The gap is smallest at the table's kink s = 0.55, which no margin grid
# point hits: the grid minimum of the gap is above its minimum there.
_KINK_OFF_THE_GRID = ((("a", Monod(3.0, 1.0)), ("kink", Table(((0.0, 0.0), (0.55, 0.99), (10.0, 1.2))))), 1.0, 10.0)


class TestNu:
    @given(_mixed_case())
    @example(_STEEP_SLOWER_PACK)
    @example(_KINK_OFF_THE_GRID)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_nu_is_below_the_gap_on_a_64_times_refined_grid(self, case):
        species, d, s_in = case
        ordered = order_species(species, d, s_in)
        cert = build_certificate(ordered, d, s_in)
        assert 0.0 < cert.nu <= min(refined_gaps(ordered, cert, 64))

    def test_canonical_is_the_cell_bound_below_the_grid_minimum(self, canonical_ordered, canonical_certificate):
        cert = canonical_certificate
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        nu = compute_nu(canonical_ordered, margins)
        assert nu == cert.nu
        oracles = [
            _gap_oracle(Monod(3, 1), [Monod(4, 2), Monod(5, 3)], *margins[0]),
            _gap_oracle(Monod(4, 2), [Monod(5, 3)], *margins[1]),
        ]
        grid_min, cell_min = (min(col) for col in zip(*oracles))
        assert nu == pytest.approx(cell_min, rel=1e-9)
        # below the grid minimum by about one cell's rise of Monod(5, 3), not halved
        assert 0.99 * grid_min < nu < grid_min
        # the first-boundary gap equals 0.2 at both ends of [lambda_1, lambda_2]
        assert Monod(3, 1)(LAM[0]) - Monod(4, 2)(LAM[0]) == pytest.approx(0.2, abs=1e-12)
        assert Monod(3, 1)(LAM[1]) - Monod(4, 2)(LAM[1]) == pytest.approx(0.2, abs=1e-12)

    def test_far_apart_pair_is_bounded_on_the_first_cell(self):
        # lambdas 0.5 and 5.0: the gap minimum sits at the lower margin
        ordered = order_species([("a", Monod(3, 1)), ("b", Monod(1.5, 2.5))], 1.0, 10.0)
        b = separation_margins(ordered, 0, 10.0)
        nu = compute_nu(ordered, ((b.s_minus, b.s_plus),))
        assert nu == b.gap_min
        s0, s1 = np.linspace(b.s_minus, b.s_plus, GRID_N + 1)[:2]
        assert nu == pytest.approx(Monod(3, 1)(s0) - Monod(1.5, 2.5)(s1), rel=1e-9)
        assert 0.0 < nu < Monod(3, 1)(s0) - Monod(1.5, 2.5)(s0)

    def test_single_pack_rejected(self):
        ordered = order_species([("a", Monod(3, 1))], 1.0, 10.0)
        with pytest.raises(ParameterError):
            compute_nu(ordered, ())

    @pytest.mark.parametrize("widen", [1.5, 2.0, 4.0])
    def test_nu_monotone_in_margins(self, canonical_ordered, canonical_certificate, widen):
        # enlarging every margin can only shrink the certified gap
        cert = canonical_certificate
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        wide = tuple(
            (max(1e-6, lo - (widen - 1.0) * 0.1), hi + (widen - 1.0) * 0.01)
            for lo, hi in margins
        )
        nu_base = compute_nu(canonical_ordered, margins)
        nu_wide = compute_nu(canonical_ordered, wide)
        assert nu_wide <= nu_base + 1e-9


class TestGammaAndDilution:
    def test_gamma_minus_closed_form(self):
        ordered = order_species([("a", Monod(3, 1)), ("b", Monod(4, 2))], 1.0, 10.0)
        gm, gp, skipped = gamma_bounds(ordered, ((0.4, 0.8),), 1.0)
        # 1 - 3*0.4/1.4 = 1/7 and 3*0.8/1.8 - 1 = 1/3
        assert gm == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert gp == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert skipped == ()

    def test_gamma_minus_vanishes_at_the_level(self):
        ordered = order_species([("a", Monod(3, 1)), ("b", Monod(4, 2))], 1.0, 10.0)
        gm_wide, _, _ = gamma_bounds(ordered, ((0.4, 0.8),), 1.0)
        gm_tight, _, _ = gamma_bounds(ordered, ((0.499, 0.8),), 1.0)
        assert 0.0 < gm_tight < gm_wide

    def test_gamma_requires_margin_below_level(self):
        ordered = order_species([("a", Monod(3, 1)), ("b", Monod(4, 2))], 1.0, 10.0)
        with pytest.raises(CertificateError):
            gamma_bounds(ordered, ((0.6, 0.8),), 1.0)  # 0.6 is above lambda_1

    def test_dilution_bounds_arithmetic(self):
        dm, dp = dilution_bounds(1.0 / 7.0, 1.0 / 3.0, 1.0)
        assert dm == pytest.approx(1.0 - 1.0 / 14.0)
        assert dp == pytest.approx(1.0 + 1.0 / 6.0)
        dm2, dp2 = dilution_bounds(2.0, 2.0, 2.0)
        assert (dm2, dp2) == (1.0, 3.0)

    def test_degenerate_limit(self):
        dm, dp = dilution_bounds(1e-12, 1e-12, 1.0)
        assert dm == pytest.approx(1.0, abs=1e-12)
        assert dp == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_gaps_rejected(self):
        with pytest.raises(ParameterError):
            dilution_bounds(0.0, 1.0, 1.0)


class TestBuildCertificate:
    def test_canonical(self, canonical_certificate):
        cert = canonical_certificate
        assert not cert.degenerate
        assert cert.nu > 0.0
        assert cert.gamma_minus > 0.0 and cert.gamma_plus > 0.0
        assert 0.0 < cert.d_minus < 1.0 < cert.d_plus
        # nested absorbing intervals with a shared left end
        (i1, i2) = cert.intervals
        assert i1[0] == i2[0]
        assert i1[1] < i2[1]
        b1, b2 = cert.boundaries
        assert b1.s_minus < LAM[0] and b1.s_plus > LAM[1]
        assert b2.s_plus > LAM[2]

    def test_recheck_clean(self, canonical_ordered, canonical_certificate):
        assert recheck_certificate(canonical_certificate, canonical_ordered) == []

    @pytest.mark.parametrize("scale", [5.0, 0.0, -1.0])
    def test_recheck_catches_corruption(self, canonical_ordered, canonical_certificate, scale):
        bad = dataclasses.replace(canonical_certificate, nu=scale * canonical_certificate.nu)
        assert recheck_certificate(bad, canonical_ordered) != []

    def test_washout_refused(self):
        ordered = order_species(CANONICAL_SPECIES, 1.0, 10.0)
        with pytest.raises(WashoutError):
            build_certificate(ordered, 1.0, 0.4)  # lambda_1 = 0.5 >= s_in

    def test_single_pack_degenerates(self):
        ordered = order_species([("u", Monod(3, 1)), ("v", Monod(3, 1))], 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        assert cert.degenerate
        assert cert.intervals == ()
        assert any("pack" in note for note in cert.notes)

    def test_one_finite_pack_with_washout_degenerates(self):
        ordered = order_species([("a", Monod(3, 1)), ("slow", Monod(1, 1))], 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        assert cert.degenerate

    def test_unreachable_top_pack_is_capped_and_skipped(self):
        species = CANONICAL_SPECIES + (("slow", Monod(1.0, 1.0)),)
        ordered = order_species(species, 1.0, 10.0)
        cert = build_certificate(ordered, 1.0, 10.0)
        assert not cert.degenerate
        assert len(cert.boundaries) == 3
        assert cert.boundaries[2].capped
        assert cert.gamma_plus_skipped == (3,)  # pack position of the unreachable law
        assert math.isinf(cert.packs[3].lam)
        assert recheck_certificate(cert, ordered) == []

    def test_domination_chain_below_every_boundary(self, canonical_certificate):
        # laws from lower packs outgrow the removal rate at every upper margin
        cert = canonical_certificate
        for i in range(1, len(cert.boundaries) + 1):
            s_plus = cert.boundaries[i - 1].s_plus
            for _, g in CANONICAL_SPECIES[:i]:
                assert g(s_plus) > cert.d

    def test_text_and_dict_serialization(self, canonical_certificate):
        text = canonical_certificate.to_text()
        assert "nu:" in text and "d_minus:" in text and text.endswith("\n")
        d = canonical_certificate.to_dict()
        assert d["status"] == "ok"
        assert len(d["intervals"]) == 2

    def test_random_monod_families_always_certify(self, monkeypatch):
        # any strictly ordered Monod family below the inflow level must
        # produce a certificate that survives a recheck with every law,
        # also on coarser margin grids
        monkeypatch.setattr(certificate_mod, "GRID_N", 512)
        rng = np.random.default_rng(42)
        built = 0
        for _ in range(25):
            n = int(rng.integers(2, 5))
            species = [
                (f"s{k}", Monod(float(rng.uniform(1.2, 8.0)), float(rng.uniform(0.2, 6.0))))
                for k in range(n)
            ]
            ordered = order_species(species, 1.0, 10.0)
            if ordered.n_packs < 2 or not ordered.pack_lambda(0) < 10.0:
                continue
            finite = sum(
                1 for i in range(ordered.n_packs) if math.isfinite(ordered.pack_lambda(i))
            )
            cert = build_certificate(ordered, 1.0, 10.0)
            if finite < 2:
                assert cert.degenerate
                continue
            built += 1
            assert cert.nu > 0.0
            assert 0.0 < cert.d_minus < 1.0 < cert.d_plus
            assert recheck_certificate(cert, ordered) == []
            plus = [b.s_plus for b in cert.boundaries]
            assert all(a < b for a, b in zip(plus, plus[1:]))
        assert built >= 10  # the draw really exercised full certificates

    def test_nesting_enforced_for_close_upper_packs(self):
        # lambda gaps (0.1 -> 1.0 -> 1.01): the naive first-boundary extension
        # would overshoot the second boundary's margin
        species = [
            ("a", Monod(11.0, 1.0)),     # lambda = 0.1
            ("b", Monod(2.0, 1.0)),      # lambda = 1.0
            ("c", Monod(1.99, 0.9999)),  # lambda just above 1.0
        ]
        ordered = order_species(species, 1.0, 10.0)
        assert ordered.n_packs == 3
        cert = build_certificate(ordered, 1.0, 10.0)
        s_plus = [b.s_plus for b in cert.boundaries]
        assert s_plus[0] < s_plus[1]
        assert recheck_certificate(cert, ordered) == []
