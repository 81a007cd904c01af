"""Byte-compare the command-line outputs of two source trees.

Usage::

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC --seeds 1 2 3

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories that each hold a
``chemostat_cep`` package, for example this checkout's ``src`` and the
``src`` of a ``git archive`` of the parent commit.  The scenario pools of
the three benchmark workloads are generated for every seed with
``perfbench/workloads.py`` (imported read-only), and every scenario is run
through ``chemostat_cep.cli.main`` with the workload's command, once per
tree, each tree in its own subprocess.  Every scenario of a ``verify`` pool
also runs ``certificate --json``, which certifies all its species, while
``verify`` certifies only those present initially.  Every scenario of a
``simulate`` pool also runs ``curves``, so both CSV writers are compared.
The output file, stdout, stderr and exit code of every run are compared
byte for byte.

Exit status: 0 when the trees agree everywhere, 1 with one line per
difference, 2 on a usage error.  A differing JSON file or stdout is walked
key by key (a stdout line's keys are its ``key=value`` items and its first
word, which holds the text before them), and its line names the keys whose
numbers moved, with their largest absolute and relative change, and the
keys removed, added or otherwise changed; a trailing ``_<number>`` is
written ``_*``.  After the differences, one line per moved key gives the
number of files it moved in and its largest changes over all of them.

A last line compares the verdicts of every ``verify`` run, whatever its
bytes: the number of runs whose exit code, ``overall_pass`` and every
claim's ``applicable`` and ``pass`` agree between the two trees, naming
the runs where any of them moved.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_workloads():
    """``perfbench/workloads.py``, imported read-only."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def missing_tree(*srcs: Path) -> bool:
    """Report every ``src`` without a ``chemostat_cep`` package; True if any."""
    missing = [src for src in srcs if not (src / "chemostat_cep" / "__init__.py").is_file()]
    for src in missing:
        print(f"no chemostat_cep package under {src}", file=sys.stderr)
    return bool(missing)


def worker_env() -> dict[str, str]:
    """The environment of a worker: no package settings, no PYTHONPATH, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHEMOSTAT_CEP_")}
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def worker_argv(script: str, src: Path, *paths: Path) -> list[str]:
    """The command line that runs ``script``'s worker on the tree ``src``."""
    return [sys.executable, script, "--worker", str(src.resolve()), *map(str, paths)]


def import_tree(src: Path) -> None:
    """Put ``src`` first on the path and refuse any other ``chemostat_cep``."""
    sys.path.insert(0, str(src))
    import chemostat_cep

    if Path(chemostat_cep.__file__).resolve().parent != src / "chemostat_cep":
        sys.exit(f"imported {chemostat_cep.__file__}, not the package under {src}")


def run_script(worker, main) -> int:
    """Run ``worker(SRC, *PATHS)`` for ``--worker SRC PATHS...``, else ``main()``."""
    if sys.argv[1:2] == ["--worker"]:
        worker(*(Path(arg) for arg in sys.argv[2:]))
        return 0
    return main()


def write_inputs(inputs: Path, seeds) -> list[dict]:
    """Write every pool's YAML files; returns the run manifest."""
    workloads = load_workloads()
    manifest = []
    for name in workloads.NAMES:
        for seed in seeds:
            wl = workloads.build(name, seed)
            for i, sc in enumerate(wl.pool):
                stem = f"{name}-{seed}/scenario-{i:03d}"
                path = inputs / f"{stem}.yaml"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(workloads.to_yaml(sc), encoding="utf-8")
                run = {"argv": [wl.command, str(path)], "stem": stem, "output": wl.output}
                manifest.append(run)
                if wl.command == "verify":
                    manifest.append(
                        {
                            "argv": ["certificate", str(path), "--json"],
                            "stem": f"{name}-{seed}/certificate-{i:03d}",
                            "output": "certificate.json",
                        }
                    )
                elif wl.command == "simulate":
                    manifest.append(
                        {"argv": ["curves", str(path)], "stem": f"{name}-{seed}/curves-{i:03d}", "output": "curves.csv"}
                    )
    return manifest


def worker(src: Path, manifest_path: Path, out: Path) -> None:
    """Run every manifest entry with the ``chemostat_cep`` found in ``src``."""
    import contextlib
    import io

    import_tree(src)
    from chemostat_cep import cli

    for run in json.loads(manifest_path.read_text()):
        dest = out / run["stem"]
        dest.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = str(cli.main(run["argv"] + ["-o", str(dest / run["output"])]))
            except Exception as exc:  # a traceback is an output to compare, not a crash
                code = f"{type(exc).__name__}: {exc}"
        (dest / "stdout").write_text(stdout.getvalue())
        (dest / "stderr").write_text(stderr.getvalue())
        (dest / "exit_code").write_text(code)


def _files(top: Path) -> dict[str, Path]:
    return {str(p.relative_to(top)): p for p in sorted(top.rglob("*")) if p.is_file()}


def _numbered(key: str) -> str:
    """``key`` with a trailing ``_<number>`` written ``_*``."""
    return re.sub(r"_\d+$", "_*", key)


def _number(v) -> float | None:
    """A JSON number, or a string that prints one, as a float; None otherwise."""
    if type(v) in (int, float):
        return float(v)
    try:
        return float(v) if isinstance(v, str) else None
    except ValueError:
        return None


class KeyDiff:
    """Where two outputs differ, by key, a trailing ``_<number>`` written ``_*``.

    ``moved`` maps each key whose numbers differ to the largest absolute
    change and the largest change relative to the parent's value.
    ``changed`` holds the keys whose other values differ (a string, a flag,
    a list of another length), ``removed`` and ``added`` the keys that only
    the parent or only the change has.
    """

    def __init__(self):
        self.moved: dict[str, tuple[float, float]] = {}
        self.changed, self.removed, self.added = set(), set(), set()

    def walk(self, u, v, key: str) -> None:
        """Record every difference of ``v`` from ``u``, the value both hold under ``key``."""
        if isinstance(u, dict) and isinstance(v, dict):
            self.removed.update(map(_numbered, u.keys() - v.keys()))
            self.added.update(map(_numbered, v.keys() - u.keys()))
            for k in u.keys() & v.keys():
                self.walk(u[k], v[k], k)
        elif isinstance(u, list) and isinstance(v, list) and len(u) == len(v):
            for p, q in zip(u, v):
                self.walk(p, q, key)
        elif (x := _number(u)) is not None and (y := _number(v)) is not None:
            if x != y and not (math.isnan(x) and math.isnan(y)):
                change = abs(y - x) if not math.isnan(x - y) else math.inf
                rel = change / abs(x) if math.isfinite(x) and x else math.inf
                old = self.moved.get(_numbered(key), (0.0, 0.0))
                self.moved[_numbered(key)] = (max(old[0], change), max(old[1], rel))
        elif u != v:
            self.changed.add(_numbered(key))

    def __str__(self) -> str:
        parts = []
        if self.moved:
            moved = (f"{k} (max abs {a:.3g}, rel {r:.3g})" for k, (a, r) in sorted(self.moved.items()))
            parts.append("moved " + ", ".join(moved))
        for label, keys in (("removed", self.removed), ("added", self.added), ("changed", self.changed)):
            if keys:
                parts.append(f"{label} {', '.join(sorted(keys))}")
        return "; ".join(parts) or "values equal, only formatting"


_ITEM = re.compile(r"[A-Za-z_]\w*=\S+")


def _items(line: str) -> dict[str, str]:
    """A text line by key: each ``key=value`` item of its ``, ``-separated
    tail under its key, and the text before them under the line's first word."""
    head, *rest = line.split(", ")
    match = re.search(r"[A-Za-z_]\w*=", head)
    chunks = [head[match.start() :]] + rest if match else rest
    if match is None or not all(_ITEM.fullmatch(chunk) for chunk in chunks):
        head, chunks = line, []  # free text: the whole line is its head
    else:
        head = head[: match.start()]
    word, _, text = head.strip().partition(" ")
    return ({word.rstrip(":"): text.strip()} if word else {}) | dict(chunk.split("=", 1) for chunk in chunks)


def key_diff(name: str, a: bytes, b: bytes) -> KeyDiff | None:
    """The key-level difference of two JSON files or two stdouts; None for other files."""
    try:
        if name == "stdout":
            x, y = ([_items(line) for line in data.decode().split("\n")] for data in (a, b))
        elif name.endswith(".json"):
            x, y = json.loads(a), json.loads(b)
        else:
            return None
    except ValueError:
        return None
    diff = KeyDiff()
    diff.walk(x, y, name)
    return diff


def compare(parent: Path, change: Path) -> tuple[list[str], dict[str, tuple[int, float, float]]]:
    """One line per file that is missing on one side or differs in its bytes.

    A differing JSON file or stdout is followed by its ``KeyDiff``.  Also
    returns, per moved key, the number of files it moved in and its largest
    absolute and relative change over all of them.
    """
    a, b = _files(parent), _files(change)
    diffs = [f"only in parent: {k}" for k in sorted(a.keys() - b.keys())]
    diffs += [f"only in change: {k}" for k in sorted(b.keys() - a.keys())]
    moved: dict[str, tuple[int, float, float]] = {}
    for k in sorted(a.keys() & b.keys()):
        old, new = a[k].read_bytes(), b[k].read_bytes()
        if old == new:
            continue
        diff = key_diff(Path(k).name, old, new)
        diffs.append(f"differs: {k}" + ("" if diff is None else f" ({diff})"))
        for key, (change_abs, change_rel) in (diff.moved.items() if diff else ()):
            files, worst_abs, worst_rel = moved.get(key, (0, 0.0, 0.0))
            moved[key] = (files + 1, max(worst_abs, change_abs), max(worst_rel, change_rel))
    return diffs, moved


def verdict(run: Path, output: str) -> tuple:
    """A verify run's exit code, ``overall_pass`` and every claim's (id, applicable, pass).

    A run that wrote no report has ``overall_pass`` None and no claims.
    """
    code = (run / "exit_code").read_text()
    if not (run / output).is_file():
        return code, None, ()
    report = json.loads((run / output).read_text())
    claims = tuple((c["id"], c["applicable"], c["pass"]) for c in report["claims"])
    return code, report["overall_pass"], claims


def verdict_summary(parent: Path, change: Path, runs: list[dict]) -> str:
    """One line: in how many of the verify ``runs`` the two trees' verdicts agree."""
    moved = [
        run["stem"]
        for run in runs
        if verdict(parent / run["stem"], run["output"]) != verdict(change / run["stem"], run["output"])
    ]
    line = (
        f"verdicts: {len(runs) - len(moved)} of {len(runs)} verify runs agree in exit code, "
        "overall_pass and every claim's applicable and pass"
    )
    return line + (f"; moved in {', '.join(moved)}" if moved else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    if missing_tree(args.parent_src, args.change_src):
        return 2

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        manifest = write_inputs(tmp / "inputs", args.seeds)
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        outs = {side: tmp / side for side in ("parent", "change")}
        procs = [
            subprocess.Popen(worker_argv(__file__, src, tmp / "manifest.json", outs[side]), env=worker_env())
            for side, src in (("parent", args.parent_src), ("change", args.change_src))
        ]
        codes = [p.wait() for p in procs]
        if any(codes):
            print(f"worker exit codes (parent, change): {codes}", file=sys.stderr)
            return 1
        diffs, moved = compare(outs["parent"], outs["change"])
        n_files = len(_files(outs["parent"]))
        verify_runs = [run for run in manifest if run["argv"][0] == "verify"]
        verdicts = verdict_summary(outs["parent"], outs["change"], verify_runs)
    for line in diffs:
        print(line)
    print(f"{len(manifest)} runs, {n_files} parent files, {len(diffs)} differences")
    for key, (files, change_abs, change_rel) in sorted(moved.items()):
        print(f"moved {key}: in {files} files, max abs {change_abs:.3g}, rel {change_rel:.3g}")
    print(verdicts)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(run_script(worker, main))
