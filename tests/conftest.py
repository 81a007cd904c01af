"""Shared fixtures (the canonical three-Monod scenario and variants) and the
closed forms several test modules use as references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Monod, State, order_species, simulate
from chemostat_cep import certificate as certificate_mod
from chemostat_cep.certificate import build_certificate
from chemostat_cep.errors import CertificateError, ParameterError
from chemostat_cep.growth import OrderedSpecies, rate_matrix
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
    """Uniform domination gap: the smallest cell bound over all boundaries,
    on grids of ``GRID_N`` intervals, from ``rate_matrix`` alone.

    On a cell [s_k, s_k+1] of boundary i's grid, the bound is the slowest
    rate of pack i at s_k, lowered by the rounding allowance, less the
    fastest rate of any higher pack at s_k+1.
    """
    if ordered.n_packs < 2:
        raise ParameterError("need at least two packs for a domination margin")
    if len(margins) != ordered.n_packs - 1:
        raise ParameterError("one margin pair per boundary is required")
    worst = math.inf
    for i, (s_minus, s_plus) in enumerate(margins):
        first, split = ordered.packs[i][0], ordered.packs[i + 1][0]
        laws = [rec.growth for rec in ordered.records[first:]]
        rates = rate_matrix(laws, np.linspace(s_minus, s_plus, certificate_mod.GRID_N + 1))
        slowest = rates[: split - first].min(axis=0) * certificate_mod._ROUNDING_ALLOWANCE
        fastest = rates[split - first :].max(axis=0)
        worst = min(worst, float(np.min(slowest[:-1] - fastest[1:])))
    if worst <= 0.0:
        raise CertificateError(f"non-positive domination gap {worst:g} on margins")
    return worst


def refined_gaps(ordered: OrderedSpecies, cert, factor: int) -> list[float]:
    """Per boundary, the smallest pointwise gap of pack i over the packs above
    on a grid ``factor`` times finer than the certificate's, from each law's
    own ``__call__``."""
    gaps = []
    for i, b in enumerate(cert.boundaries):
        s = np.linspace(b.s_minus, b.s_plus, factor * certificate_mod.GRID_N + 1)
        slowest = np.min([ordered.records[k].growth(s) for k in ordered.packs[i]], axis=0)
        fastest = np.max([rec.growth(s) for rec in ordered.records[ordered.packs[i + 1][0] :]], axis=0)
        gaps.append(float(np.min(slowest - fastest)))
    return gaps


def frame_reference(traj, cert, growths, params) -> tuple[bool, float | None, int | None]:
    """The substrate frame in its derivative form, from each law's own ``__call__``.

    The frame time is the first sample after the last one where
    z = d (s_in - s) / b is undefined (b below 1e-12) or outside
    [d_minus, d_plus].  From it on, every sampled s' = d (s_in - s) - sum mu_i x_i
    must lie between the rails (d_minus - mu_bar) b and (d_plus - mu_bar) b,
    with mu_bar = sum p_i mu_i, up to the slack
    100 rel_tol (1 + s_in) (1 + d).  Returns (frame established, frame time,
    count of samples off the rails); the last two are None when the last
    sample is outside.
    """
    s = traj.states[:, 0]
    x = traj.states[:, 1:]
    b = x.sum(axis=1)
    outside = [
        k
        for k, (sk, bk) in enumerate(zip(s.tolist(), b.tolist()))
        if not (bk >= 1e-12 and cert.d_minus <= params.d * (params.s_in - sk) / bk <= cert.d_plus)
    ]
    if outside and outside[-1] == s.size - 1:
        return False, None, None
    start = outside[-1] + 1 if outside else 0
    s, x, b = s[start:], x[start:], b[start:]
    mu = np.column_stack([g(s) for g in growths])
    mubar = (x / b[:, None] * mu).sum(axis=1)
    sdot = params.d * (params.s_in - s) - (mu * x).sum(axis=1)
    slack = 100.0 * traj.meta.rel_tol * (1.0 + params.s_in) * (1.0 + params.d)
    low = (cert.d_minus - mubar) * b - slack
    high = (cert.d_plus - mubar) * b + slack
    return True, float(traj.times[start]), int(np.count_nonzero((sdot < low) | (sdot > high)))
