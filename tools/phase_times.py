"""Per-phase timings of two source trees on one benchmark workload.

Usage::

    python tools/phase_times.py PARENT_SRC CHANGE_SRC --workload sweep-small --seed 1

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories that each hold a
``chemostat_cep`` package, as for ``tools/compare_outputs.py``.  The
workload's scenario pool is generated with ``perfbench/workloads.py``
(imported read-only).  Each tree runs in its own worker subprocess, which
simulates (and, for a verify workload, certifies) every scenario once and
then answers timing requests.  The two workers are driven in lockstep: for
every timed scenario, every phase and every one of ``--rounds`` rounds,
each worker times the phase in turn, the one that goes first alternating
between rounds, so a slow spell of a shared host falls on both trees
alike.  A request times ``CALLS`` calls after an untimed one and answers
with the fastest.

The phases of a verify workload, timed on every scenario with a
non-degenerate certificate:

- ``simulate`` of the scenario with its tolerances
- ``field``: ``vector_field`` of the scenario's parameters and laws, the
  right-hand side ``simulate`` builds once per run (the plain-float body
  compiles its source there), so its cost shows beside ``simulate``
- ``rhs``: one ``f(y0, out)`` call of that right-hand side on the
  scenario's initial state, with ``f``, ``y0`` and ``out`` built outside
  the timing
- ``check_induction_properties`` on the scenario's trajectory and certificate
- ``persistent_entries`` on the certificate's absorbing intervals
- ``build_certificate`` on the species present initially
- ``gamma_bounds`` on the certificate's margins

The phases of a simulate workload (export-mixed), timed on every scenario:

- ``simulate``, ``field`` and ``rhs`` as above
- ``emit``: ``write_trajectory_csv`` of the scenario's trajectory into an
  ``io.StringIO``

The output has one row per timed scenario with its trial steps in each
tree (``meta.steps_accepted + steps_rejected`` of its ``simulate``) and
each phase's min-of-N microseconds for both trees (N = ``--rounds`` x
``CALLS``), then one row per phase with the sums over scenarios, their
ratio and the number of scenarios where the change is slower, a row with
each tree's ``simulate`` microseconds per trial step (the trial count does
not depend on the host, so it tells a faster step from fewer steps), and
last one row per species count, over the scenarios of that count: the
change/parent ratio of ``simulate``, each tree's microseconds per trial
step and each tree's mean microseconds per ``rhs`` call.  Those rows set
size cuts such as ``integrate._FLOAT_TRIAL_MAX_SIZE`` and
``dynamics._ARRAY_FIELD_MIN_LAWS``.

Both trees run this one worker script, which calls the library as it is
now.  A tree from before ``check_induction_properties`` lost its
``eps_p`` argument fails the ``induction`` phase (its worker exits with a
``TypeError``), so such a tree cannot be timed by this version of the tool.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from compare_outputs import import_tree, load_workloads, missing_tree, run_script, worker_argv, worker_env

PHASES = {
    "verify": ("simulate", "field", "rhs", "induction", "entries", "certificate", "gamma"),
    "simulate": ("simulate", "field", "rhs", "emit"),
}
CALLS = 3  # timed calls per request


def _timed(fn) -> float:
    """Microseconds of the fastest of ``CALLS`` calls after an untimed one."""
    fn()  # untimed: fills caches and lazy imports
    best = math.inf
    for _ in range(CALLS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return 1e6 * best


def worker(src: Path, pool_file: Path) -> None:
    """Serve phase timings of the scenarios in ``pool_file`` for the package under ``src``.

    ``pool_file`` holds the workload's command and its scenario paths.
    Prints one JSON line mapping the pool index of every timed scenario to
    its number of species and its trial steps, then answers every
    ``INDEX PHASE`` line on stdin with that phase's microseconds on that
    scenario.
    """
    import_tree(src)
    import numpy as np

    from chemostat_cep import certificate, cli, dynamics, integrate, scenario, verify
    from chemostat_cep.errors import ChemostatError
    from chemostat_cep.growth import order_species, pack_species

    pool = json.loads(pool_file.read_text())
    command = pool["command"]

    def phases(path: str) -> dict | None:
        sc = scenario.parse_scenario(path)
        params, tols = sc.params, sc.tolerances
        growths = [g for _, g in sc.species]

        def simulate():
            return integrate.simulate(
                params, growths, sc.initial, sc.horizon, rel_tol=tols.rel_tol, abs_tol=tols.abs_tol
            )

        def field():
            return dynamics.vector_field(params, growths)

        f = field()
        y0 = np.concatenate(([sc.initial.s], sc.initial.x))
        out = np.empty_like(y0)
        traj = simulate()
        common = {
            "n": len(growths),
            "trials": traj.meta.steps_accepted + traj.meta.steps_rejected,
            "simulate": simulate,
            "field": field,
            "rhs": lambda: f(y0, out),
        }
        if command == "simulate":
            return {**common, "emit": lambda: cli.write_trajectory_csv(traj, io.StringIO())}
        levels = {rec.id: rec.lam for rec in order_species(sc.species, params.d, params.s_in).records}
        active = [(sid, g) for (sid, g), x in zip(sc.species, sc.initial.x) if x > 0.0]
        ordered = pack_species(active, [levels[sid] for sid, _ in active])
        try:
            cert = certificate.build_certificate(ordered, params.d, params.s_in)
        except ChemostatError:  # washout or no certificate: nothing to time
            return None
        if cert.degenerate:
            return None
        columns = {sid: 1 + k for k, (sid, _) in enumerate(sc.species)}
        margins = tuple((b.s_minus, b.s_plus) for b in cert.boundaries)
        return {
            **common,
            "induction": lambda: verify.check_induction_properties(traj, cert, columns),
            "entries": lambda: integrate.persistent_entries(traj, cert.intervals),
            "certificate": lambda: certificate.build_certificate(ordered, params.d, params.s_in),
            "gamma": lambda: certificate.gamma_bounds(ordered, margins, params.d),
        }

    calls = {str(k): phases(path) for k, path in enumerate(pool["paths"])}
    calls = {k: fns for k, fns in calls.items() if fns is not None}
    print(json.dumps({k: [fns["n"], fns["trials"]] for k, fns in calls.items()}), flush=True)
    for line in sys.stdin:
        k, phase = line.split()
        print(_timed(calls[k][phase]), flush=True)


def _ask(proc: subprocess.Popen, request: str) -> str:
    """The worker's reply line to ``request``, or "" when it has exited."""
    try:
        proc.stdin.write(request + "\n")
        proc.stdin.flush()
    except BrokenPipeError:
        return ""
    return proc.stdout.readline()


def _summary(phases: tuple[str, ...], sizes: dict, trials: dict, best: dict) -> list[str]:
    head = [f"{'trials parent/change':>20}"] + [f"{ph + ' parent/change':>27}" for ph in phases]
    lines = [f"{'scenario':8}  n  " + "  ".join(head)]
    for k, n in sizes.items():
        cells = [f"{trials['parent'][k]:9d} / {trials['change'][k]:8d}"]
        cells += [f"{best['parent'][k][ph]:12.1f} / {best['change'][k][ph]:12.1f}" for ph in phases]
        lines.append(f"{k:>8} {n:2d}  " + "  ".join(cells))
    lines.append(f"{'phase':12} {'parent_us':>12} {'change_us':>12} {'ratio':>7}  change slower")
    for ph in phases:
        a = sum(best["parent"][k][ph] for k in sizes)
        b = sum(best["change"][k][ph] for k in sizes)
        slower = sum(best["change"][k][ph] > best["parent"][k][ph] for k in sizes)
        lines.append(f"{ph:12} {a:12.1f} {b:12.1f} {b / a if a else float('nan'):7.3f}  {slower}/{len(sizes)}")
    a, b = (sum(best[side][k]["simulate"] for k in sizes) / sum(trials[side].values()) for side in ("parent", "change"))
    lines.append(f"{'us/trial':12} {a:12.2f} {b:12.2f} {b / a:7.3f}")
    lines.append(
        f"{'species':12} {'scenarios':>9} {'simulate ratio':>14} {'us/trial parent':>16} {'change':>7}"
        f" {'us/rhs parent':>14} {'change':>7}"
    )
    for n in sorted(set(sizes.values())):
        keys = [k for k, m in sizes.items() if m == n]
        us = {side: sum(best[side][k]["simulate"] for k in keys) for side in ("parent", "change")}
        per_trial = [us[side] / sum(trials[side][k] for k in keys) for side in ("parent", "change")]
        per_rhs = [sum(best[side][k]["rhs"] for k in keys) / len(keys) for side in ("parent", "change")]
        ratio = us["change"] / us["parent"]
        lines.append(
            f"{'n=' + str(n):12} {len(keys):9d} {ratio:14.3f} {per_trial[0]:16.2f} {per_trial[1]:7.2f}"
            f" {per_rhs[0]:14.2f} {per_rhs[1]:7.2f}"
        )
    return lines


def main(argv=None, limit: int | None = None) -> int:
    """Run the comparison; ``limit`` keeps the first scenarios of the pool only."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if missing_tree(args.parent_src, args.change_src):
        return 2
    workloads = load_workloads()
    if args.workload not in workloads.NAMES or args.rounds < 1:
        print(f"--workload must be one of {', '.join(workloads.NAMES)} and --rounds at least 1", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    phases = PHASES[wl.command]

    with tempfile.TemporaryDirectory(prefix="phase-times-") as tmp:
        tmp = Path(tmp)
        paths = []
        for i, sc in enumerate(wl.pool[:limit]):
            path = tmp / f"scenario-{i:03d}.yaml"
            path.write_text(workloads.to_yaml(sc), encoding="utf-8")
            paths.append(str(path))
        (tmp / "pool.json").write_text(json.dumps({"command": wl.command, "paths": paths}))
        procs = {
            side: subprocess.Popen(
                worker_argv(__file__, src, tmp / "pool.json"),
                env=worker_env(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for side, src in (("parent", args.parent_src), ("change", args.change_src))
        }
        try:
            replies = {side: proc.stdout.readline() for side, proc in procs.items()}
            if not all(replies.values()):
                print(f"a worker exited before timing: {sorted(s for s, r in replies.items() if not r)}", file=sys.stderr)
                return 1
            served = {side: json.loads(reply) for side, reply in replies.items()}
            sizes = {k: n for k, (n, _) in served["parent"].items() if k in served["change"]}
            trials = {side: {k: served[side][k][1] for k in sizes} for side in procs}
            best: dict = {side: {k: {} for k in sizes} for side in procs}
            for k in sizes:
                for ph in phases:
                    for r in range(args.rounds):
                        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                            reply = _ask(procs[side], f"{k} {ph}")
                            if not reply:
                                print(f"{side} worker exited while timing {ph} on scenario {k}", file=sys.stderr)
                                return 1
                            best[side][k][ph] = min(float(reply), best[side][k].get(ph, math.inf))
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()
    timed = "certified scenarios" if wl.command == "verify" else "scenarios"
    print(f"{args.workload} seed {args.seed}: {len(sizes)} {timed}, min of {args.rounds} rounds x {CALLS} calls")
    print("\n".join(_summary(phases, sizes, trials, best)))
    return 0


if __name__ == "__main__":
    sys.exit(run_script(worker, main))
