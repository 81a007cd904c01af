"""Golden trajectories: the integrator's output pinned to stored hashes.

``golden_trajectories.json`` holds, for the canonical scenario and two seeded
mixed-law scenarios, the sha256 of the raw bytes of ``states``,
``step_times``, ``step_states`` and ``step_coeffs`` and the full
``IntegratorStats``.  The mixed scenarios cover the law kinds the Monod-only
goldens of ``test_golden.py`` lack: a Table winner and an unreachable Hill
at n = 5, and a Monod/Hill/Table mix at n = 20.  The clipped case, a fast
Monod species at loose tolerances, undershoots zero on accepted steps, so it
pins the clip branch and the pre-clip state stored in the interpolant.  Any
change to the right-hand side or to the step loop that moves a single bit
shows up here.

The integrator is deterministic on a fixed platform, but the last bits of
``pow`` and of the numpy loops may differ between CPUs and libraries, so the
hashes belong to the platform that wrote them.

Regenerate (only when a change is meant to move the trajectories, and say
why)::

    PYTHONPATH=src python tests/test_golden_trajectories.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Hill, Monod, State, Table, simulate
from chemostat_cep.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_trajectories.json"
ARRAYS = ("states", "step_times", "step_states", "step_coeffs")


def _law(rng: np.random.Generator, kind: str, lam: float, d: float):
    """A law of the given kind whose break-even level is (near) ``lam``."""
    mu_max = d * rng.uniform(1.5, 5.0)
    if kind == "monod":
        return Monod(mu_max=mu_max, k=lam * (mu_max - d) / d)
    if kind == "hill":
        p = rng.uniform(1.0, 3.0)
        return Hill(mu_max=mu_max, k=lam / (d / (mu_max - d)) ** (1.0 / p), p=p)
    fracs = np.sort(rng.uniform(0.2, 3.0, 4))
    q = rng.uniform(0.6, 1.4)
    return Table(points=((0.0, 0.0),) + tuple((lam * u, d * u**q) for u in fracs))


def mixed(seed: int, n: int, winner: str, unreachable_hill: bool):
    """n seeded species; the lowest level has kind ``winner``.

    With ``unreachable_hill`` the last species is a Hill law whose maximum
    rate lies below the removal rate, so its break-even level is infinite.
    """
    rng = np.random.default_rng(seed)
    d, s_in = 1.0, 10.0
    n_reach = n - 1 if unreachable_hill else n
    lams = np.sort(rng.uniform(0.5, 6.5, n_reach))
    kinds = [winner] + [("monod", "hill", "table")[i % 3] for i in range(1, n_reach)]
    growths = [_law(rng, kind, float(lam), d) for kind, lam in zip(kinds, lams)]
    if unreachable_hill:
        growths.append(Hill(mu_max=rng.uniform(0.3, 0.9), k=rng.uniform(0.5, 3.0), p=rng.uniform(1.0, 3.0)))
    x0 = State(s=s_in, x=rng.uniform(0.005, 0.05, n))
    return ChemostatParams(d=d, s_in=s_in), growths, x0, 60.0


def cases() -> dict:
    sc = parse_scenario(str(ROOT / "scenarios" / "canonical.yaml"))
    return {
        "canonical": (sc.params, sc.growths, sc.initial, sc.horizon),
        "mixed_5": mixed(5, 5, "table", unreachable_hill=True),
        "mixed_20": mixed(20, 20, "monod", unreachable_hill=False),
        "clipped": clipped(),
    }


def clipped():
    """One fast Monod species at loose tolerances: accepted steps undershoot."""
    params = ChemostatParams(d=1.0, s_in=10.0)
    return params, [Monod(mu_max=20.0, k=0.01)], State(s=10.0, x=[100.0]), 0.05, 1e-2, 1e-4


def capture(params, growths, x0, horizon, rel_tol=1e-8, abs_tol=1e-10) -> dict:
    traj = simulate(params, growths, x0, horizon, rel_tol, abs_tol)
    out = {name: hashlib.sha256(getattr(traj, name).tobytes()).hexdigest() for name in ARRAYS}
    out["shapes"] = {name: list(getattr(traj, name).shape) for name in ARRAYS}
    out["meta"] = dataclasses.asdict(traj.meta)
    return out


@pytest.mark.parametrize("name", sorted(cases()))
def test_trajectory_bytes_are_pinned(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = capture(*cases()[name])
    assert got["meta"] == want["meta"]
    assert got["shapes"] == want["shapes"]
    for array in ARRAYS:
        assert got[array] == want[array], array


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_trajectories.py --write")
    data = {name: capture(*case) for name, case in cases().items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
