"""Benchmark of the chemostat-cep command line, one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

Each scenario is one in-process ``chemostat_cep.cli.main([...])`` call on a
generated YAML file, timed from argv to the closed output file.  The loop is
closed with one client and no threads: it cycles through the workload's
scenario pool until ``--seconds`` is used up.  Every output is checked
(see ``oracles.py``); outputs of later passes must be byte-identical to the
first pass's checked ones.

``--trace 0`` prints the end-to-end metrics; their times are scaled to a
reference host speed measured between scenarios (see ``reference_work``).
``--trace 1`` runs part of
the pool untraced and then traced (see ``tracing.py``) and prints the
per-layer metrics, the tracing overhead and the share of the scenario time
the spans cover.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # extra fresh processes that each measure set-up once
# Time of ``reference_work`` on a quiet host, where the normalised metrics
# read as plain seconds (Python 3.11, numpy 2.4, 2-core x86-64 VM).
REFERENCE_NOMINAL_S = 0.012
REFERENCE_EVERY_S = 0.5  # least loop time between two reference samples
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import chemostat_cep from this checkout's ``src/`` and nowhere else.

    Environment overrides of the tolerances would silently change the
    workload, and polyfit -> lstsq must stay on one BLAS thread, so both are
    settled here, before numpy is first imported.
    """
    if "numpy" in sys.modules:
        _fail("numpy was imported before the thread limits were set")
    for name in [k for k in os.environ if k.startswith("CHEMOSTAT_CEP_")]:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "chemostat_cep" / "__init__.py").is_file():
        _fail(f"no chemostat_cep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chemostat_cep
    import chemostat_cep.cli

    if Path(chemostat_cep.__file__).resolve().parent != SRC / "chemostat_cep":
        _fail(f"imported chemostat_cep from {chemostat_cep.__file__}, not from {SRC}")
    return chemostat_cep


class Runner:
    """Writes a workload's inputs and runs single scenarios through cli.main."""

    def __init__(self, cli, wl: workloads.Workload, workdir: Path):
        self.cli = cli
        self.wl = wl
        self.workdir = workdir
        self.paths = []
        workdir.mkdir(parents=True, exist_ok=True)
        self._sink = open(os.devnull, "w")

    def write_inputs(self) -> None:
        for i, sc in enumerate(self.wl.pool):
            p = self.workdir / f"scenario-{i:03d}.yaml"
            p.write_text(workloads.to_yaml(sc), encoding="utf-8")
            self.paths.append(p)

    def run(self, path: Path, out: Path, call=None) -> tuple[float, float, int | None, str]:
        """Run one scenario writing ``out``; returns (wall s, CPU s, exit code, stderr)."""
        out.unlink(missing_ok=True)
        argv = [self.wl.command, str(path), "-o", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(err):
            start, cpu = time.perf_counter(), time.process_time()
            try:
                main = lambda: self.cli.main(argv)  # noqa: E731
                code = call(main) if call else main()
            except (Exception, SystemExit) as exc:  # any escape is a failed operation
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        return elapsed, cpu, code, err.getvalue()

    def warm_up(self) -> None:
        p = self.workdir / "warmup.yaml"
        p.write_text(workloads.to_yaml(workloads.WARMUP), encoding="utf-8")
        self.run(p, self.workdir / f"warmup-{self.wl.output}")

    def close(self) -> None:
        self._sink.close()


def reference_work() -> float:
    """Fixed interpreter and small-array numpy work that uses no program code.

    The host this benchmark was tuned on changed speed by up to 2x over tens
    of seconds; this work slows down with it, so the program's times divided
    by its time are steady across runs.
    """
    import numpy as np

    total = 0
    for i in range(60000):
        total += i * i % 7
    a, k, y = np.array([0.1, 0.2, 0.3]), np.ones((3, 4)), np.zeros(4)
    for i in range(300):
        y = y + 0.01 * (a @ k)
        total += float(np.sqrt(np.mean(y * y))) + (i * 0.5) ** 0.5
        total += len(json.dumps({f"k{j}": j * 1.5 for j in range(20)})) + len(f"{total:.17g}")
    return total


def time_reference(repeats: int = 3) -> float:
    """Mean time of ``reference_work`` over a few back-to-back calls."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - start) / repeats


def setup(cli_loader, name: str, seed: int, workdir: Path) -> tuple[Runner, tuple[float, float]]:
    """Import, input generation and one warm-up scenario, timed together.

    Returns the runner and (set-up seconds, reference seconds right after).
    """
    start = time.perf_counter()
    cep = cli_loader()
    runner = Runner(cep.cli, workloads.build(name, seed), workdir)
    runner.write_inputs()
    runner.warm_up()
    elapsed = time.perf_counter() - start
    return runner, (elapsed, time_reference())


def probe_setup(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time and reference time measured once in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe", str(workdir)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        _fail(f"set-up probe failed: {res.stderr.strip()}")
    probe = json.loads(res.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["reference_s"])


class Checker:
    """Checks each pool scenario's first output; later ones must match it.

    First outputs stay on disk until the oracles read them after the loop,
    so they do not count towards the process's peak memory.
    """

    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.first: dict[int, tuple] = {}  # index -> (code, path, digest)
        self.mismatches: dict[int, int] = {}
        self.runs: dict[int, int] = {}
        self.errors: list[str] = []

    def output_for(self, i: int) -> Path:
        if i in self.first:
            return self.workdir / f"repeat-{self.wl.output}"
        return self.workdir / f"first-{i:03d}-{self.wl.output}"

    def record(self, i: int, code, out: Path, err: str) -> None:
        self.runs[i] = self.runs.get(i, 0) + 1
        data = out.read_bytes() if out.exists() else None
        if code not in (0, 1) or data is None:
            self.mismatches[i] = self.mismatches.get(i, 0) + 1
            self.errors.append(f"scenario {i}: exit {code}, output {'present' if data else 'missing'}: {err.strip()[:300]}")
            return
        digest = hashlib.sha256(data).digest()
        if i not in self.first:
            self.first[i] = (code, out, digest)
        elif (code, digest) != (self.first[i][0], self.first[i][2]):
            self.mismatches[i] = self.mismatches.get(i, 0) + 1
            self.errors.append(f"scenario {i}: output differs from the first run")

    def verdict(self) -> tuple[int, int, dict]:
        """(attempted, failed, accuracy) after running the oracles."""
        import oracles

        failed = sum(self.mismatches.values())
        worst_lam, worst_mass = 0.0, 0.0
        for i, (code, out, _) in sorted(self.first.items()):
            sc = self.wl.pool[i]
            data = out.read_bytes()
            if self.wl.command == "verify":
                problems, err = oracles.check_report(sc, data, code)
                worst_lam = max(worst_lam, err)
            else:
                problems, err = oracles.check_trajectory_csv(sc, data, code)
                worst_mass = max(worst_mass, err)
            if problems:
                failed += self.runs[i] - self.mismatches.get(i, 0)
                self.errors.append(f"scenario {i}: " + "; ".join(problems))
        accuracy = {"accuracy.lambda_relerr_max": (worst_lam, "ratio"), "accuracy.mass_err_max": (worst_mass, "abs")}
        return sum(self.runs.values()), failed, accuracy


def measure(runner: Runner, checker: Checker, seconds: float) -> dict:
    """Cycle through the whole pool until ``seconds`` have passed.

    Between scenarios, at most every ``REFERENCE_EVERY_S``, the host speed is
    sampled with ``reference_work``; each scenario is paired with the samples
    just before and just after it.
    """
    samples, cpu, ref_index = [], [], []
    reference = [time_reference()]
    wall0 = last_ref = time.perf_counter()
    i = 0
    while time.perf_counter() - wall0 < seconds:
        k = i % len(runner.paths)
        out = checker.output_for(k)
        ref_index.append(len(reference) - 1)
        elapsed, cpu_s, code, err = runner.run(runner.paths[k], out)
        checker.record(k, code, out, err)
        samples.append(elapsed)
        cpu.append(cpu_s)
        i += 1
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            reference.append(time_reference())
            last_ref = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference.append(time_reference())
    return {
        "samples": samples,
        "cpu": cpu,
        "local_reference": [0.5 * (reference[j] + reference[j + 1]) for j in ref_index],
        "reference": reference,
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(runner: Runner, checker: Checker, seconds: float, tracer) -> dict:
    """Run the first quarter of the pool untraced and then traced, in whole passes.

    Only whole passes count, so that per-scenario counts repeat exactly; the
    run stops at the pass boundary nearest to ``seconds``.
    """
    paths = runner.paths[: (len(runner.paths) + 3) // 4]
    samples, traced, traced_bytes = [], [], []
    wall0 = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, path in enumerate(paths):
            out = checker.output_for(i)
            elapsed, _, code, err = runner.run(path, out)
            checker.record(i, code, out, err)
            samples.append(elapsed)
            out = checker.output_for(i)
            elapsed, _, code, err = runner.run(path, out, call=lambda main, i=i: tracer.run(i, main))
            checker.record(i, code, out, err)
            traced.append(elapsed)
            traced_bytes.append(out.stat().st_size if out.exists() else 0)
        now = time.perf_counter()
        if now - wall0 + 0.5 * (now - pass_start) >= seconds:
            return {"samples": samples, "traced": traced, "traced_bytes": traced_bytes}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        runner, (setup_s, reference_s) = setup(import_program, args.workload, args.seed, Path(args.setup_probe))
        runner.close()
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, setup_s = setup(import_program, args.workload, args.seed, workdir / "main")
        try:
            return report(args, runner, setup_s, workdir)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def report(args, runner: Runner, setup_s: tuple[float, float], workdir: Path) -> int:
    import numpy

    import chemostat_cep
    import tracing

    env = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "scenarios_in_pool": len(runner.paths),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "chemostat_cep": chemostat_cep.__version__,
        "commit": git_commit(),
    }
    print("env: " + json.dumps(env))

    checker = Checker(runner.wl, runner.workdir)
    if args.trace:
        modules = {m: sys.modules[f"chemostat_cep.{m}"] for m in ("cli", "growth", "certificate", "dynamics", "integrate", "verify")}
        tracer = tracing.Tracer(modules)
        run = measure_traced(runner, checker, args.seconds, tracer)
        attempted, failed, accuracy = checker.verdict()
        metrics = tracer.per_layer(len(run["traced"]))
        metrics["cli.bytes_out"] = (sum(run["traced_bytes"]) / len(run["traced_bytes"]), "bytes")
        metrics["trace.overhead_s"] = (statistics.median(run["traced"]) - statistics.median(run["samples"]), "s")
        metrics.update(accuracy)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({"env": env, "spans": tracer.span_records()}))
        print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        if tracer.missing:
            print("untraced (not found): " + ", ".join(tracer.missing), file=sys.stderr)
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
        norm_setup = [t * REFERENCE_NOMINAL_S / r for t, r in setups]
        run = measure(runner, checker, args.seconds)
        attempted, failed, _ = checker.verdict()
        scale = [REFERENCE_NOMINAL_S / r for r in run["local_reference"]]
        metrics = {
            "norm.scenario_s.p50": (statistics.median(t * f for t, f in zip(run["samples"], scale)), "s"),
            "norm.cpu_s.p50": (statistics.median(c * f for c, f in zip(run["cpu"], scale)), "s"),
            "setup_s": (statistics.median(norm_setup), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        print(f"samples: {len(run['samples'])} scenarios; set-up samples: {len(setups)}")
        print(f"raw scenario_s.p50 {statistics.median(run['samples']):.6g} s; raw cpu_s.p50 {statistics.median(run['cpu']):.6g} s; raw setup_s {statistics.median(t for t, _ in setups):.6g} s")
        print(f"reference: median {statistics.median(run['reference']):.6g} s of {len(run['reference'])} (nominal {REFERENCE_NOMINAL_S} s)")

    for err in checker.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
