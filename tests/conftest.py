"""Shared fixtures: the canonical three-Monod scenario and variants."""

from __future__ import annotations

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, order_species, simulate
from chemostat_cep.certificate import build_certificate
from chemostat_cep.scenario import Options, Scenario, Tolerances

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
        options=kw.pop("options", Options()),
        **kw,
    )


@pytest.fixture(scope="session")
def canonical_scenario() -> Scenario:
    return make_scenario()


@pytest.fixture(scope="session")
def canonical_ordered():
    return order_species(CANONICAL_SPECIES, 1.0, s_probe_max=1e7)


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
