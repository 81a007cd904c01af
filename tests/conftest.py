"""Shared fixtures (the canonical three-Monod scenario and variants) and the
closed forms several test modules use as references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, order_species, simulate
from chemostat_cep import certificate as certificate_mod
from chemostat_cep.certificate import _pack_gap, build_certificate
from chemostat_cep.errors import CertificateError, ParameterError
from chemostat_cep.growth import OrderedSpecies
from chemostat_cep.scenario import Scenario, Tolerances

CANONICAL_SPECIES = (
    ("sp1", Monod(mu_max=3.0, k=1.0)),
    ("sp2", Monod(mu_max=4.0, k=2.0)),
    ("sp3", Monod(mu_max=5.0, k=3.0)),
)
LAM = (0.5, 2.0 / 3.0, 0.75)  # closed-form k*d/(mu_max - d) at d = 1


def make_scenario(
    species=CANONICAL_SPECIES,
    x=(0.01, 0.01, 0.01),
    s0=10.0,
    d=1.0,
    s_in=10.0,
    horizon=80.0,
    **kw,
) -> Scenario:
    return Scenario(
        params=ChemostatParams(d=d, s_in=s_in),
        species=tuple(species),
        initial=State(s=s0, x=np.array(x, dtype=float)),
        horizon=horizon,
        tolerances=kw.pop("tolerances", Tolerances()),
        **kw,
    )


@pytest.fixture(scope="session")
def canonical_scenario() -> Scenario:
    return make_scenario()


@pytest.fixture(scope="session")
def canonical_ordered():
    return order_species(CANONICAL_SPECIES, 1.0, 10.0)


@pytest.fixture(scope="session")
def canonical_certificate(canonical_ordered):
    return build_certificate(canonical_ordered, 1.0, 10.0)


@pytest.fixture(scope="session")
def canonical_trajectory(canonical_scenario):
    sc = canonical_scenario
    return simulate(
        sc.params,
        sc.growths,
        sc.initial,
        sc.horizon,
        rel_tol=sc.tolerances.rel_tol,
        abs_tol=sc.tolerances.abs_tol,
    )


def mass_closed_form(m0: float, params: ChemostatParams, t) -> float | np.ndarray:
    """Total mass solution s_in + (m0 - s_in) exp(-d t) of the mass balance."""
    out = params.s_in + (m0 - params.s_in) * np.exp(-params.d * np.asarray(t, dtype=float))
    if np.ndim(t) == 0:
        return float(out)
    return out


def compute_nu(
    ordered: OrderedSpecies,
    margins: tuple[tuple[float, float], ...],
) -> float:
    """Uniform domination margin: half the smallest gap over all boundaries,
    on grids of ``GRID_N`` intervals."""
    if ordered.n_packs < 2:
        raise ParameterError("need at least two packs for a domination margin")
    if len(margins) != ordered.n_packs - 1:
        raise ParameterError("one margin pair per boundary is required")
    worst = math.inf
    for i, (s_minus, s_plus) in enumerate(margins):
        grid = np.linspace(s_minus, s_plus, certificate_mod.GRID_N + 1)
        worst = min(worst, float(np.min(_pack_gap(ordered, i, grid))))
    if worst <= 0.0:
        raise CertificateError(f"non-positive domination gap {worst:g} on margins")
    return 0.5 * worst
