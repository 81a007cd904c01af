"""Golden trajectories: the integrator's output pinned to stored hashes.

``golden_trajectories.json`` holds, for the canonical scenario and two seeded
mixed-law scenarios, the sha256 of the raw bytes of ``states``,
``step_times``, ``step_states`` and ``step_coeffs`` and the full
``IntegratorStats``.  The mixed scenarios cover the law kinds the Monod-only
goldens of ``test_golden.py`` lack: a Table winner and an unreachable Hill
at n = 5, and a Monod/Hill/Table mix at n = 20.  The clipped case, a fast
Monod species at loose tolerances, has trial steps that the error norm
accepts but that end far below zero, so it pins their rejection.  Any
change to the right-hand side or to the step loop that moves a single bit
shows up here.  The right-hand side has a plain-float body for few laws
and an array body for many; every case also runs with each body forced,
so both are pinned to the same bytes.

The integrator is deterministic on a fixed platform, but the last bits of
``pow`` and of the numpy loops may differ between CPUs and libraries, and
every stage of a step is an ``np.dot``, whose summation order is chosen by
the BLAS kernel: OpenBLAS, built DYNAMIC_ARCH, picks one per CPU.  So the
hashes belong to the platform and the kernel that wrote them, SkylakeX;
under ``OPENBLAS_CORETYPE=Haswell`` or ``Prescott`` all 12 cases here and
the 3 of ``test_golden.py::test_measured_values_are_pinned`` fail (ROADMAP
item 5).

Regenerate (only when a change is meant to move the trajectories, and say
why)::

    PYTHONPATH=src python tests/test_golden_trajectories.py --write

which prints every hash, shape and statistic that moved against the stored
file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from chemostat_cep import ChemostatParams, Hill, Monod, State, Table, dynamics, simulate
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
    """One fast Monod species at loose tolerances: trial steps undershoot."""
    params = ChemostatParams(d=1.0, s_in=10.0)
    return params, [Monod(mu_max=20.0, k=0.01)], State(s=10.0, x=[100.0]), 0.05, 1e-2, 1e-4


def capture(params, growths, x0, horizon, rel_tol=1e-8, abs_tol=1e-10) -> dict:
    traj = simulate(params, growths, x0, horizon, rel_tol, abs_tol)
    out = {name: hashlib.sha256(getattr(traj, name).tobytes()).hexdigest() for name in ARRAYS}
    out["shapes"] = {name: list(getattr(traj, name).shape) for name in ARRAYS}
    out["meta"] = dataclasses.asdict(traj.meta)
    return out


def _assert_pinned(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = capture(*cases()[name])
    assert got["meta"] == want["meta"]
    assert got["shapes"] == want["shapes"]
    for array in ARRAYS:
        assert got[array] == want[array], array


@pytest.mark.parametrize("name", sorted(cases()))
def test_trajectory_bytes_are_pinned(name):
    _assert_pinned(name)


@pytest.mark.parametrize("min_laws", [0, sys.maxsize], ids=["array_body", "float_body"])
@pytest.mark.parametrize("name", sorted(cases()))
def test_both_rhs_bodies_give_the_pinned_bytes(monkeypatch, name, min_laws):
    """Each case runs one body by its law count; the other must give the same bytes."""
    monkeypatch.setattr(dynamics, "_ARRAY_FIELD_MIN_LAWS", min_laws)
    _assert_pinned(name)


def moved(stored: dict | None, fresh: dict) -> list[str]:
    """One line per array hash, shape or statistic that differs."""
    if stored is None:
        return ["new case"]
    lines = [f"{name}: {stored[name][:12]} -> {fresh[name][:12]}" for name in ARRAYS if stored[name] != fresh[name]]
    for group in ("shapes", "meta"):
        want, got = stored[group], fresh[group]
        for key in sorted(want.keys() | got.keys()):
            if want.get(key, "absent") != got.get(key, "absent"):
                lines.append(f"{group}.{key}: {want.get(key, 'absent')!r} -> {got.get(key, 'absent')!r}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_trajectories.py --write")
    stored = json.loads(GOLDEN.read_text())
    data = {}
    for name, case in cases().items():
        data[name] = capture(*case)
        lines = moved(stored.get(name), data[name])
        print(f"{name}: {len(lines)} moved")
        for line in lines:
            print(f"  {line}")
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
