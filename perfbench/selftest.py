"""Self-test of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the generator is deterministic and meets the input contract,
that every tracing wrapper is removed again and the traced counts repeat
exactly, and that outputs perturbed on purpose are counted as failed.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads
import yaml

FAILURES: list[str] = []


def check(cond: bool, label: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {label}")
    if not cond:
        FAILURES.append(label)


def law_meets_contract(law: dict) -> bool:
    if law["kind"] == "table":
        pts = law["points"]
        return (
            tuple(pts[0]) == (0.0, 0.0)
            and all(b[0] > a[0] and b[1] > a[1] for a, b in zip(pts, pts[1:]))
        )
    ok = law["mu_max"] > 0.0 and law["k"] > 0.0
    return ok and (law["kind"] == "monod" or law["p"] >= 1.0)


def test_generator() -> None:
    for name in workloads.NAMES:
        a = [workloads.to_yaml(sc) for sc in workloads.build(name, 3).pool]
        b = [workloads.to_yaml(sc) for sc in workloads.build(name, 3).pool]
        c = [workloads.to_yaml(sc) for sc in workloads.build(name, 4).pool]
        check(a == b, f"{name}: same seed gives byte-identical YAML")
        check(a != c, f"{name}: another seed gives other YAML")
        pool = workloads.build(name, 3).pool
        check(all(law_meets_contract(law) for sc in pool for _, law in sc["species"]),
              f"{name}: laws have mu(0) = 0, increase strictly, tables start at [0, 0]")
        loaded = [yaml.safe_load(text) for text in a]
        check(all(len(doc["species"]) == len(sc["species"]) == len(doc["initial"]["x"])
                  for doc, sc in zip(loaded, pool)), f"{name}: YAML round-trips")
    check(set(workloads.WHY) == set(workloads.NAMES), "every workload records why it exists")


def test_tracer(cep, workdir: Path) -> None:
    modules = {m: sys.modules[f"chemostat_cep.{m}"] for m in ("cli", "growth", "certificate", "dynamics", "integrate", "verify")}
    originals = []
    for owner, attr in tracing.Tracer(modules).targets():
        originals.append((owner, attr, owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)))

    counts, rhs_match, nested, exits, missing = [], [], [], [], []
    for name in ("wide-monod", "export-mixed"):
        wl = workloads.build(name, 3)
        runner = run.Runner(cep.cli, wl, workdir / name)
        runner.write_inputs()
        for _ in range(2):
            tracer = tracing.Tracer(modules)
            out = workdir / name / wl.output
            _, _, code, _ = runner.run(runner.paths[0], out, call=lambda main: tracer.run(0, main))
            exits.append(code)
            missing += tracer.missing
            rhs_match.append((tracer.calls("dynamics.rhs"), tracer.facts["rhs_evals"]))
            counts.append({k: v for k, (v, unit) in tracer.per_layer(1).items() if unit == "count"})
            nested.append(all(parent == -1 or tracer.spans[parent][4] <= start
                              for _, parent, _, _, start, _ in tracer.spans))
        runner.close()
    check(all(code in (0, 1) for code in exits), f"traced commands exit 0 or 1 {exits}")
    check(not missing, f"every tracing target exists {missing}")
    check(all(nested), "spans start inside their parents")
    check(counts[0] == counts[1] and counts[2] == counts[3], "traced counts repeat exactly")
    check(counts[0]["verify.decay_fits"] > 0 and counts[0]["certificate.margin_calls"] > 0,
          "wide-monod traces decay fits and certificate grids")
    check(all(a == b for a, b in rhs_match),
          f"dynamics.rhs_calls equals Trajectory.meta.rhs_evals (counted, reported: {rhs_match})")

    restored = all(
        (owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)) is orig
        for owner, attr, orig in originals
    )
    check(restored, "every wrapper is restored after tracing")


def test_perturbed_outputs_fail(cep, workdir: Path) -> None:
    import oracles  # imports numpy, so only after run.import_program

    sc = workloads.CANONICAL
    wl = workloads.Workload("perturb", "verify", "report.json", (sc,))
    runner = run.Runner(cep.cli, wl, workdir / "perturb")
    runner.write_inputs()
    out = workdir / "perturb" / "report.json"
    _, _, code, _ = runner.run(runner.paths[0], out)
    rep = json.loads(out.read_bytes())
    problems, err = oracles.check_report(sc, out.read_bytes(), code)
    check(not problems and err < oracles.LAMBDA_REL_TOL, f"canonical report passes the oracles {problems}")

    rep["certificate"]["packs"][0]["lambda"] *= 1.0 + 1e-6
    bad = workdir / "perturb" / "bad.json"
    bad.write_text(json.dumps(rep))
    checker = run.Checker(wl, workdir / "perturb")
    checker.record(0, code, bad, "")
    attempted, failed, _ = checker.verdict()
    check((attempted, failed) == (1, 1), "a break-even level off by 1e-6 relative counts as failed")

    checker = run.Checker(wl, workdir / "perturb")
    checker.record(0, code, out, "")
    checker.record(0, code, bad, "")
    check(checker.verdict()[:2] == (2, 1), "a repeat whose output differs from the first counts as failed")
    runner.close()

    sc = workloads.build("export-mixed", 3).pool[0]
    wl = workloads.Workload("perturb-csv", "simulate", "traj.csv", (sc,))
    runner = run.Runner(cep.cli, wl, workdir / "csv")
    runner.write_inputs()
    out = workdir / "csv" / "traj.csv"
    _, _, code, _ = runner.run(runner.paths[0], out)
    problems, err = oracles.check_trajectory_csv(sc, out.read_bytes(), code)
    check(not problems and math.isfinite(err), f"trajectory CSV passes the mass law {problems}")
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1000].split(",")
    m_col = header.index("m")
    row[m_col] = repr(float(row[m_col]) * (1.0 + 1e-6))
    lines[1000] = ",".join(row)
    problems, _ = oracles.check_trajectory_csv(sc, ("\n".join(lines) + "\n").encode(), code)
    check(bool(problems), "a mass value off by 1e-6 relative fails the mass law")
    runner.close()


def main() -> int:
    cep = run.import_program()
    test_generator()
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        test_tracer(cep, Path(tmp))
        test_perturbed_outputs_fail(cep, Path(tmp))
    with contextlib.suppress(OSError):
        work.rmdir()  # only when no benchmark run is using it
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
