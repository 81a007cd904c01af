"""Seeded scenario generator and the benchmark's workload definitions.

Every scenario is a plain dict that is written out as YAML by hand, so the
bytes depend only on the seed (and on nothing in ``src/``).  The YAML meets
the documented input contract: ``mu(0) = 0``, strictly increasing laws, and
tables that pass through ``[0, 0]``.

A workload is a pool of scenarios plus the command run on each of them.  The
pools are stratified (species counts and break-even levels are spread evenly
and only jittered by the seed), so that two seeds give pools of the same
difficulty and the medians of different runs stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Why each workload exists, and which layers it stresses.
WHY = {
    "sweep-small": (
        "many small verify runs (n = 2-5, Monod/Hill/Table mix): stepper "
        "bookkeeping, dense output and run scans dominate, certificates are cheap"
    ),
    "wide-monod": (
        "verify on 100 Monod species: per-species RHS, induction decay fits, "
        "certificate grids and break-even bisections dominate"
    ),
    "export-mixed": (
        "simulate with CSV output on 12-30 mixed-law species: table kinks reject "
        "steps and the CSV writer outweighs integration"
    ),
}

# The repository's two example scenarios, embedded so that the benchmark's
# inputs cannot change when the examples do.
CANONICAL = {
    "d": 1.0,
    "s_in": 10.0,
    "species": [
        ("sp1", {"kind": "monod", "mu_max": 3.0, "k": 1.0}),
        ("sp2", {"kind": "monod", "mu_max": 4.0, "k": 2.0}),
        ("sp3", {"kind": "monod", "mu_max": 5.0, "k": 3.0}),
    ],
    "s0": 10.0,
    "x": [0.01, 0.01, 0.01],
    "horizon": 80.0,
    "tolerances": {"rel_tol": 1e-8, "abs_tol": 1e-10},
}
WITH_WASHOUT = {
    **CANONICAL,
    "species": CANONICAL["species"] + [("slow", {"kind": "monod", "mu_max": 1.0, "k": 1.0})],
    "x": [0.01, 0.01, 0.01, 0.01],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "simulate"
    output: str  # output file name passed to -o
    pool: tuple[dict, ...]


def _f(v: float) -> str:
    return repr(float(v))


def to_yaml(sc: dict) -> str:
    """Serialise one scenario dict; the same dict always gives the same bytes."""
    lines = ["params:", f"  dilution: {_f(sc['d'])}", f"  s_in: {_f(sc['s_in'])}", "species:"]
    for sid, law in sc["species"]:
        lines.append(f"  - id: {sid}")
        if law["kind"] == "table":
            pts = ", ".join(f"[{_f(a)}, {_f(b)}]" for a, b in law["points"])
            lines.append(f"    growth: {{kind: table, points: [{pts}]}}")
        elif law["kind"] == "hill":
            lines.append(
                f"    growth: {{kind: hill, mu_max: {_f(law['mu_max'])}, "
                f"k: {_f(law['k'])}, p: {_f(law['p'])}}}"
            )
        else:
            lines.append(
                f"    growth: {{kind: monod, mu_max: {_f(law['mu_max'])}, k: {_f(law['k'])}}}"
            )
    lines += ["initial:", f"  s: {_f(sc['s0'])}", "  x: [" + ", ".join(_f(v) for v in sc["x"]) + "]"]
    if "horizon" in sc:
        lines.append(f"horizon: {_f(sc['horizon'])}")
    if "tolerances" in sc:
        lines.append("tolerances:")
        lines += [f"  {k}: {_f(v)}" for k, v in sc["tolerances"].items()]
    return "\n".join(lines) + "\n"


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _shuffle(rng: random.Random, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n distinct levels, one per equal-width stratum of [lo, hi], jittered."""
    w = (hi - lo) / n
    return [lo + w * (i + _uniform(rng, 0.15, 0.85)) for i in range(n)]


def _law(rng: random.Random, kind: str, lam: float, d: float) -> dict:
    """A growth law of the given kind whose break-even level is near ``lam``.

    Monod and Hill hit ``lam`` exactly (up to rounding); a table puts ``lam``
    strictly inside a segment, so its level is a linear solve on that segment.
    """
    mu_max = d * _uniform(rng, 1.5, 5.0)
    if kind == "monod":
        return {"kind": "monod", "mu_max": mu_max, "k": lam * (mu_max - d) / d}
    if kind == "hill":
        p = _uniform(rng, 1.0, 3.0)
        return {"kind": "hill", "mu_max": mu_max, "k": lam / (d / (mu_max - d)) ** (1.0 / p), "p": p}
    q = _uniform(rng, 0.6, 1.4)
    fracs = [_uniform(rng, 0.2, 0.45), _uniform(rng, 0.55, 0.9), _uniform(rng, 1.1, 1.6), _uniform(rng, 1.8, 3.0)]
    return {
        "kind": "table",
        "points": [(0.0, 0.0)] + [(lam * u, d * u**q) for u in fracs],
    }


def _unreachable(rng: random.Random, d: float) -> dict:
    """A saturating law that never reaches the removal rate (infinite level)."""
    mu_max = d * _uniform(rng, 0.3, 0.9)
    if rng.random() < 0.5:
        return {"kind": "monod", "mu_max": mu_max, "k": _uniform(rng, 0.5, 3.0)}
    return {"kind": "hill", "mu_max": mu_max, "k": _uniform(rng, 0.5, 3.0), "p": _uniform(rng, 1.0, 3.0)}


_KINDS = ("monod", "hill", "table")


def mixed_scenario(rng: random.Random, n: int, *, winner: str, unreachable: bool, absent: bool) -> dict:
    """n species with a Monod/Hill/Table mix and default horizon.

    The species with the lowest target level has law kind ``winner``; its
    shape near equilibrium sets most of the integration cost, so pools fix
    it by position rather than leaving it to the seed.  ``unreachable``
    makes the last species never reach the removal rate; ``absent`` starts
    one reachable species (not necessarily the winner) at 0.
    """
    d = _uniform(rng, 0.6, 1.5)
    s_in = _uniform(rng, 5.0, 20.0)
    n_reach = n - 1 if unreachable else n
    lams = _stratified(rng, n_reach, 0.05 * s_in, 0.7 * s_in)
    kinds = [winner] + _shuffle(rng, [_KINDS[i % 3] for i in range(1, n_reach)])
    laws = _shuffle(rng, [_law(rng, kind, lam, d) for kind, lam in zip(kinds, lams)])
    if unreachable:
        laws.append(_unreachable(rng, d))
    x = [_uniform(rng, 0.005, 0.05) for _ in range(n)]
    if absent:
        x[int(rng.random() * n_reach)] = 0.0
    return {
        "d": d,
        "s_in": s_in,
        "species": [(f"s{i + 1}", law) for i, law in enumerate(laws)],
        "s0": _uniform(rng, 0.5, 1.0) * s_in,
        "x": x,
    }


def wide_monod_scenario(rng: random.Random, n: int) -> dict:
    """n Monod species with distinct levels below s_in, k = lam (mu_max - d) / d."""
    d, s_in = 1.0, 10.0
    lams = _shuffle(rng, _stratified(rng, n, 0.5, 6.5))
    laws = [_law(rng, "monod", lam, d) for lam in lams]
    return {
        "d": d,
        "s_in": s_in,
        "species": [(f"m{i + 1}", law) for i, law in enumerate(laws)],
        "s0": s_in,
        "x": [0.01] * n,
    }


def build(name: str, seed: int) -> Workload:
    """The scenario pool of one workload for one seed.

    Pools hold more scenarios than one 30 s run gets through on a 2-core
    machine, so the median of a run spans many distinct scenarios; features
    that set the cost (species count, the winner's law kind) cycle with the
    pool position, so a run that stops part-way still sees a balanced mix,
    and the seed changes the inputs without changing the difficulty.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-small":
        pool = [CANONICAL, WITH_WASHOUT]
        for i in range(118):
            pool.append(mixed_scenario(
                rng, 2 + i % 4, winner=_KINDS[i % 3], unreachable=i % 5 == 1, absent=i % 7 == 2
            ))
        return Workload(name, "verify", "report.json", tuple(pool))
    if name == "wide-monod":
        pool = [wide_monod_scenario(rng, 100) for _ in range(16)]
        return Workload(name, "verify", "report.json", tuple(pool))
    if name == "export-mixed":
        sizes = list(range(12, 31)) * 5
        pool = [
            mixed_scenario(rng, n, winner=_KINDS[i % 3], unreachable=i % 5 == 1, absent=False)
            for i, n in enumerate(sizes)
        ]
        return Workload(name, "simulate", "traj.csv", tuple(pool))
    raise ValueError(f"unknown workload {name!r}")


# A small fixed scenario for the warm-up call that set-up time includes.
WARMUP = CANONICAL

NAMES = tuple(WHY)
