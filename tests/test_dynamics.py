"""Vector field, the (s, b, p) chart as an oracle, derived channels, and predicted limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, order_species, simulate
from chemostat_cep.dynamics import _ARRAY_FIELD_MIN_LAWS, predicted_limit, vector_field
from chemostat_cep.errors import ChemostatError, DomainError, ParameterError
from chemostat_cep.growth import GrowthFunction
from chemostat_cep.integrate import _derive_channel_arrays, per_biomass

from conftest import CANONICAL_SPECIES, LAM, mass_closed_form

PARAMS = ChemostatParams(d=1.0, s_in=10.0)
GROWTHS = [g for _, g in CANONICAL_SPECIES]

# --------------------------------------------------------------------------
# The paper's (substrate, total biomass, proportions) chart.  The program
# integrates the original chart only; this chart is kept here as an
# independent oracle for it.

_SIMPLEX_TOL = 1e-12


class ChartError(ChemostatError):
    """The biomass/proportion chart is undefined at the requested state."""


@dataclass(frozen=True)
class TransformedState:
    """Point in the biomass/proportion chart (undefined at zero biomass)."""

    s: float
    b: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "b", float(self.b))
        p = np.array(self.p, dtype=float, ndmin=1)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        if not math.isfinite(self.s) or self.s < 0.0:
            raise DomainError(f"substrate level must be finite and >= 0, got {self.s!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ChartError(f"total biomass must be > 0 in this chart, got {self.b!r}")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ChartError("proportions must be finite and >= 0")
        if abs(float(np.sum(p)) - 1.0) > _SIMPLEX_TOL:
            raise ChartError(f"proportions must sum to 1 within {_SIMPLEX_TOL:g}")


def rhs_original(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
    state: State,
) -> tuple[float, np.ndarray]:
    """Time derivative (ds, dx) of the original chart at ``state``.

    ds = d (s_in - s) - sum_i mu_i(s) x_i and dx_i = (mu_i(s) - d) x_i,
    with unit yield coefficients.  The state is validated, then evaluated
    by :func:`vector_field`, the integrator's right-hand side.
    """
    if len(growths) != state.n:
        raise ParameterError("growth law count must match species count")
    y = np.concatenate(([state.s], state.x))
    dy = vector_field(params, growths)(y, np.empty_like(y))
    return float(dy[0]), dy[1:]


def rhs_transformed(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
    tstate: TransformedState,
) -> tuple[float, float, np.ndarray]:
    """Time derivative (ds, db, dp) of the biomass/proportion chart.

    The proportion derivatives satisfy sum_i dp_i = 0 identically.
    """
    if len(growths) != tstate.p.size:
        raise ParameterError("growth law count must match species count")
    mu = np.array([g(tstate.s) for g in growths])
    mubar = float(mu @ tstate.p)
    ds = params.d * (params.s_in - tstate.s) - mubar * tstate.b
    db = (mubar - params.d) * tstate.b
    dp = tstate.p * (mu - mubar)
    return ds, db, dp


def to_transformed(state: State) -> TransformedState:
    """Map (s, x) to (s, b, p).  Raises :class:`ChartError` at zero biomass."""
    b = float(np.sum(state.x))
    if b <= 0.0:
        raise ChartError("total biomass is zero; proportion chart undefined")
    return TransformedState(s=state.s, b=b, p=state.x / b)


def from_transformed(tstate: TransformedState) -> State:
    """Inverse chart map (s, b, p) -> (s, x)."""
    return State(s=tstate.s, x=tstate.b * tstate.p)


def _channels(state: State):
    """The simulator's derived channels of a single state."""
    return _derive_channel_arrays(np.concatenate(([state.s], state.x))[None, :])


def _random_positive_states(n_species, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s = float(rng.uniform(0.01, 12.0))
        x = rng.uniform(0.01, 5.0, size=n_species)
        yield State(s=s, x=x)


class TestOriginalField:
    def test_washout_equilibrium(self):
        ds, dx = rhs_original(PARAMS, GROWTHS, State(s=10.0, x=np.zeros(3)))
        assert ds == 0.0
        np.testing.assert_array_equal(dx, np.zeros(3))

    def test_single_species_equilibrium(self):
        # (lambda_1, s_in - lambda_1) is a rest point of the one-species model
        g = Monod(3.0, 1.0)
        ds, dx = rhs_original(PARAMS, [g], State(s=0.5, x=np.array([9.5])))
        assert abs(ds) < 1e-14
        assert abs(dx[0]) < 1e-14

    def test_direct_evaluation(self):
        state = State(s=10.0, x=np.ones(3))
        ds, dx = rhs_original(PARAMS, GROWTHS, state)
        mus = np.array([g(10.0) for g in GROWTHS])
        assert ds == pytest.approx(-float(mus.sum()), rel=1e-14)
        np.testing.assert_allclose(dx, mus - 1.0, rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            rhs_original(PARAMS, GROWTHS, State(s=1.0, x=np.ones(2)))

    def test_state_rejects_negative_components(self):
        with pytest.raises(DomainError):
            State(s=-1.0, x=np.ones(2))
        with pytest.raises(DomainError):
            State(s=1.0, x=np.array([1.0, -0.5]))

    @pytest.mark.parametrize(
        "s, x, field, reason",
        [
            (-1.0, [1.0, 1.0], "s", "must be >= 0"),
            (math.inf, [1.0, 1.0], "s", "must be finite"),
            (1.0, [1.0, -0.5, 2.0], "x[1]", "must be >= 0"),
            (1.0, [1.0, 2.0, math.nan], "x[2]", "must be finite"),
            (1.0, [-1.0, -math.inf], "x[0]", "must be >= 0"),
        ],
    )
    def test_state_refusal_names_its_component(self, s, x, field, reason):
        with pytest.raises(DomainError) as exc:
            State(s=s, x=np.array(x))
        assert (exc.value.field, exc.value.reason, str(exc.value)) == (field, reason, f"{field}: {reason}")

    def test_params_refusal_names_its_field(self):
        with pytest.raises(ParameterError) as exc:
            ChemostatParams(d=1.0, s_in=-2.0)
        assert (exc.value.field, str(exc.value)) == ("s_in", "s_in: must be finite and > 0, got -2.0")


class TestTransformedField:
    def test_single_species_proportion_frozen(self):
        t = TransformedState(s=2.0, b=1.5, p=np.array([1.0]))
        _, _, dp = rhs_transformed(PARAMS, [Monod(3, 1)], t)
        assert dp[0] == 0.0

    def test_identical_species_keep_proportions(self):
        g = Monod(3, 1)
        t = TransformedState(s=2.0, b=1.5, p=np.array([0.5, 0.5]))
        _, _, dp = rhs_transformed(PARAMS, [g, g], t)
        np.testing.assert_array_equal(dp, np.zeros(2))

    def test_proportion_derivatives_sum_to_zero(self):
        for state in _random_positive_states(3, 50, seed=7):
            t = to_transformed(state)
            _, _, dp = rhs_transformed(PARAMS, GROWTHS, t)
            assert abs(float(np.sum(dp))) <= 1e-13

    def test_chart_consistency(self):
        # pushing the original field through the chart differential must
        # reproduce the transformed field
        for state in _random_positive_states(3, 100, seed=11):
            ds, dx = rhs_original(PARAMS, GROWTHS, state)
            b = float(np.sum(state.x))
            db = float(np.sum(dx))
            dp = dx / b - state.x * db / b**2
            t = to_transformed(state)
            ds2, db2, dp2 = rhs_transformed(PARAMS, GROWTHS, t)
            assert ds2 == pytest.approx(ds, rel=1e-10, abs=1e-12)
            assert db2 == pytest.approx(db, rel=1e-10, abs=1e-12)
            np.testing.assert_allclose(dp2, dp, rtol=1e-10, atol=1e-12)

    def test_mass_identity(self):
        # ds + sum(dx) collapses to the linear mass balance algebraically
        for state in _random_positive_states(3, 50, seed=13):
            ds, dx = rhs_original(PARAMS, GROWTHS, state)
            m = state.s + float(np.sum(state.x))
            assert ds + float(np.sum(dx)) == pytest.approx(
                PARAMS.d * (PARAMS.s_in - m), rel=1e-13, abs=1e-13
            )


class TestChartMaps:
    def test_symmetric_pair(self):
        t = to_transformed(State(s=1.0, x=np.array([2.0, 2.0])))
        assert t.b == 4.0
        np.testing.assert_array_equal(t.p, [0.5, 0.5])

    def test_round_trip(self):
        for state in _random_positive_states(4, 50, seed=17):
            back = from_transformed(to_transformed(state))
            assert back.s == state.s
            np.testing.assert_allclose(back.x, state.x, rtol=1e-14)

    def test_zero_biomass_rejected(self):
        with pytest.raises(ChartError):
            to_transformed(State(s=1.0, x=np.zeros(2)))
        with pytest.raises(ChartError):
            TransformedState(s=1.0, b=0.0, p=np.array([1.0]))

    def test_simplex_enforced(self):
        with pytest.raises(ChartError):
            TransformedState(s=1.0, b=1.0, p=np.array([0.6, 0.6]))


class TestDerivedChannels:
    def test_mass_and_proportions(self):
        x = np.array([2.0, 4.0, 1.0])
        ch = _channels(State(s=1.0, x=x))
        assert ch.m[0] == 8.0 and ch.b[0] == 7.0
        np.testing.assert_allclose(per_biomass(x, ch.b[0]), [2.0 / 7.0, 4.0 / 7.0, 1.0 / 7.0])
        # undefined below the biomass floor 1e-12, and at zero biomass
        tiny = np.array([[4e-13, 5e-13], [0.0, 0.0], [1e-12, 0.0]])
        p = per_biomass(tiny, tiny.sum(axis=1)[:, None])
        assert np.all(np.isnan(p[:2])) and p[2].tolist() == [1.0, 0.0]


class TestPredictedLimit:
    def test_canonical(self, canonical_ordered):
        lim = predicted_limit(PARAMS, canonical_ordered)
        assert lim.s == pytest.approx(LAM[0], abs=1e-10)
        np.testing.assert_allclose(lim.x, [9.5, 0.0, 0.0], atol=1e-10)

    def test_washout(self):
        ordered = order_species(CANONICAL_SPECIES, 1.0, 0.4)
        lim = predicted_limit(ChemostatParams(d=1.0, s_in=0.4), ordered)
        assert lim.s == 0.4
        np.testing.assert_array_equal(lim.x, np.zeros(3))

    def test_minimal_pack_shares_the_biomass(self):
        ordered = order_species([("u", Monod(3, 1)), ("v", Monod(3, 1)), ("w", Monod(4, 2))], 1.0, 10.0)
        lim = predicted_limit(PARAMS, ordered)
        assert lim.x[0] == pytest.approx(lim.x[1])
        assert lim.x[0] + lim.x[1] == pytest.approx(10.0 - 0.5, abs=1e-9)
        assert lim.x[2] == 0.0


class TestMassClosedForm:
    def test_equilibrium_start(self):
        assert mass_closed_form(10.0, PARAMS, 5.0) == 10.0

    def test_initial_condition(self):
        assert mass_closed_form(3.0, PARAMS, 0.0) == 3.0

    def test_half_life(self):
        assert mass_closed_form(0.0, PARAMS, math.log(2.0)) == pytest.approx(5.0, rel=1e-15)

    def test_vectorized(self):
        t = np.array([0.0, 1.0, 2.0])
        out = mass_closed_form(4.0, PARAMS, t)
        np.testing.assert_allclose(out, 10.0 - 6.0 * np.exp(-t))


class TestLogRatioLaw:
    def test_against_finite_differences(self):
        # d/dt log r_i = mu_i(s) - mu_1(s) along a simulated trajectory
        traj = simulate(
            PARAMS,
            GROWTHS,
            State(s=10.0, x=np.array([0.01, 0.01, 0.01])),
            20.0,
            rel_tol=1e-10,
            abs_tol=1e-12,
        )
        h = 1e-4
        for t in (1.0, 3.0, 7.5, 15.0):
            fwd, bwd = (x[1:] / x[0] for x in (traj.sample(t + h).x, traj.sample(t - h).x))
            fd = (np.log(fwd) - np.log(bwd)) / (2 * h)
            s_mid = traj.sample(t).s
            expected = np.array([g(s_mid) - GROWTHS[0](s_mid) for g in GROWTHS[1:]])
            np.testing.assert_allclose(fd, expected, atol=5e-6)

    @pytest.mark.parametrize("n", [len(GROWTHS), _ARRAY_FIELD_MIN_LAWS])  # plain-float and array body
    def test_vector_field_clamps_substrate(self, n):
        growths = [GROWTHS[k % len(GROWTHS)] for k in range(n)]
        y = np.concatenate(([-1e-12], np.ones(n)))
        dy = vector_field(PARAMS, growths)(y, np.empty_like(y))
        assert np.all(np.isfinite(dy))
        # every rate is taken at s = 0, where mu(0) = 0
        assert np.array_equal(dy[1:], np.full(n, -PARAMS.d))
        assert dy[0] == PARAMS.d * (PARAMS.s_in + 1e-12)
