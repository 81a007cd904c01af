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
difference, 2 on a usage error.  A JSON report that differs only in its
stage excesses (``excess_pack_*`` and ``excess_max`` values) is marked as
such with its largest difference, and a last line gives the count of such
reports and the largest difference over all of them.  A JSON report
that differs only in its ``entry_time`` values is marked likewise, with its
largest difference over the scenario's horizon, and so is a verify stdout
whose lines differ only in their printed ``entry_time=`` values.  A JSON
report whose values are all equal is marked as differing only in
formatting.  A JSON report that equals the parent's with some keys deleted
is marked with the deleted key names, and a verify stdout whose differing
lines only lose ``key=value`` items is marked with those items.  A JSON
report that equals the parent's with some keys renamed in place (the
values at a renamed key are not compared) is marked with the renames, and
a verify stdout whose differing lines only trade some ``key=value`` items
for items under other keys is marked with the two key lists.  All of them
still count as differences.

A last line compares the verdicts of every ``verify`` run, whatever its
bytes: the number of runs whose exit code, ``overall_pass`` and every
claim's ``applicable`` and ``pass`` agree between the two trees, naming
the runs where any of them moved.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
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
                    # the horizon as the scenario parser defaults it
                    run["horizon"] = sc.get("horizon", 100.0 / sc["d"])
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


def _only_difference(a: bytes, b: bytes, movable, measure) -> float | None:
    """Largest ``measure(u, v)`` if two JSON files differ only at ``movable`` keys.

    Returns None when the files are not JSON or differ anywhere else, and
    0.0 when their values are all equal.  At a key where ``movable(key)``
    holds, two numbers may differ.
    """
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return None
    worst = 0.0

    def same(u, v, key: str) -> bool:
        nonlocal worst
        if movable(key) and all(type(w) in (int, float) for w in (u, v)):
            if u != v:
                worst = max(worst, measure(u, v))
            return True
        if type(u) is not type(v):
            return False
        if isinstance(u, dict):
            return u.keys() == v.keys() and all(same(u[k], v[k], k) for k in u)
        if isinstance(u, list):
            return len(u) == len(v) and all(same(p, q, key) for p, q in zip(u, v))
        return u == v

    return worst if same(x, y, "") else None


def excess_only_difference(a: bytes, b: bytes) -> float | None:
    """Largest absolute difference if two reports differ only in stage excesses.

    Returns None when the files are not JSON or differ anywhere else.  The
    excesses (``excess_pack_*`` and ``excess_max``) are differences of log
    ratios, so a trajectory that moves in its last bits moves them and
    nothing else.
    """
    return _only_difference(
        a,
        b,
        lambda key: key.startswith("excess_pack_") or key == "excess_max",
        lambda u, v: abs(u - v),
    )


def entry_only_difference(a: bytes, b: bytes) -> float | None:
    """Largest absolute difference if two reports differ only in entry times.

    Returns None when the files are not JSON or differ anywhere else.  A
    change to how the stage entries are refined moves the ``entry_time``
    values within the entry tolerance and nothing else.
    """
    return _only_difference(a, b, lambda key: key == "entry_time", lambda u, v: abs(u - v))


_PRINTED_ENTRY = re.compile(rb"entry_time=[^,\s]+")


def entry_only_text(a: bytes, b: bytes) -> bool:
    """Whether two verify texts differ only in their printed ``entry_time=`` values."""
    return _PRINTED_ENTRY.sub(b"entry_time=", a) == _PRINTED_ENTRY.sub(b"entry_time=", b)


def removed_keys(a: bytes, b: bytes) -> list[str] | None:
    """Sorted names of the keys deleted from ``a``, if that is all that makes ``b``.

    Returns None when the files are not JSON or when ``b`` adds a key or
    changes a value anywhere; a name deleted from several objects is listed
    once.
    """
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return None
    removed = set()

    def kept(u, v) -> bool:
        if type(u) is not type(v):
            return False
        if isinstance(u, dict):
            removed.update(u.keys() - v.keys())
            return v.keys() <= u.keys() and all(kept(u[k], v[k]) for k in v)
        if isinstance(u, list):
            return len(u) == len(v) and all(kept(p, q) for p, q in zip(u, v))
        return u == v

    return sorted(removed) if kept(x, y) else None


def _numbered(key: str) -> str:
    """``key`` with a trailing ``_<number>`` written ``_*``."""
    return re.sub(r"_\d+$", "_*", key)


def renamed_keys(a: bytes, b: bytes) -> list[str] | None:
    """The ``old -> new`` key renames that make ``b`` from ``a``, if that is all.

    Keys are paired by position within each object.  A pair of different
    keys is a rename when the new key is not in the old object and the old
    key not in the new one; the values of a rename are not compared, as
    long as both are numbers, strings or null.  Returns the renames sorted,
    each once, with a trailing ``_<number>`` shown as ``_*``, or None when
    the files are not JSON or differ anywhere else.
    """
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return None
    renames = set()
    scalar = (int, float, str, type(None))

    def same(u, v) -> bool:
        if type(u) is not type(v):
            return False
        if isinstance(u, dict):
            if len(u) != len(v):
                return False
            for (k, p), (j, q) in zip(u.items(), v.items()):
                if k == j:
                    if not same(p, q):
                        return False
                elif j in u or k in v or not isinstance(p, scalar) or not isinstance(q, scalar):
                    return False
                else:
                    renames.add(f"{_numbered(k)} -> {_numbered(j)}")
            return True
        if isinstance(u, list):
            return len(u) == len(v) and all(same(p, q) for p, q in zip(u, v))
        return u == v

    return sorted(renames) if same(x, y) else None


_ITEM = re.compile(rb"[A-Za-z_]\w*=\S+")


def removed_items_text(a: bytes, b: bytes) -> list[str] | None:
    """The ``key=value`` items ``b``'s lines lost, if that is how they differ from ``a``'s.

    Lines are paired in order, and every differing line of ``b`` must be its
    line of ``a`` with some of its ``, ``-separated ``key=value`` items taken
    out.  Returns those items in order, each once; None otherwise.
    """
    old, new = a.split(b"\n"), b.split(b"\n")
    if len(old) != len(new):
        return None
    removed: list[str] = []
    for u, v in zip(old, new):
        rest = v.split(b", ")
        for item in u.split(b", "):
            if rest and item == rest[0]:
                rest.pop(0)
            elif _ITEM.fullmatch(item):
                removed.append(item.decode())
            else:
                return None
        if rest:
            return None
    return list(dict.fromkeys(removed))


def _items(line: bytes) -> tuple[bytes, dict[str, bytes]] | None:
    """A line's text before its first item, and its ``key=value`` items."""
    head, *rest = line.split(b", ")
    match = re.search(rb"[A-Za-z_]\w*=", head)
    if match is None:
        return (head, {}) if not rest else None
    chunks = [head[match.start() :]] + rest
    if not all(_ITEM.fullmatch(chunk) for chunk in chunks):
        return None
    items = dict(chunk.split(b"=", 1) for chunk in chunks)
    return head[: match.start()], {k.decode(): v for k, v in items.items()}


def renamed_items_text(a: bytes, b: bytes) -> tuple[list[str], list[str]] | None:
    """The item keys ``b``'s lines dropped and gained, if that is how they differ.

    Lines are paired in order.  A differing pair must agree in its text
    before the items and in the value of every key both lines hold, and
    drop as many keys as it gains; the values under the dropped and gained
    keys are not compared.  Returns (dropped, gained), each sorted and
    listed once, with a trailing ``_<number>`` shown as ``_*``; None
    otherwise.
    """
    old, new = a.split(b"\n"), b.split(b"\n")
    if len(old) != len(new):
        return None
    dropped, gained = set(), set()
    for u, v in zip(old, new):
        if u == v:
            continue
        pu, pv = _items(u), _items(v)
        if pu is None or pv is None or pu[0] != pv[0]:
            return None
        iu, iv = pu[1], pv[1]
        gone, added = iu.keys() - iv.keys(), iv.keys() - iu.keys()
        if len(gone) != len(added) or any(iu[k] != iv[k] for k in iu.keys() & iv.keys()):
            return None
        dropped.update(map(_numbered, gone))
        gained.update(map(_numbered, added))
    return sorted(dropped), sorted(gained)


def compare(
    parent: Path, change: Path, horizons: dict[str, float]
) -> tuple[list[str], list[float], list[float]]:
    """One line per file that is missing on one side or differs in its bytes.

    Also returns the excess differences of the reports that differ only in
    their stage excesses, and the entry-time differences over the
    horizon of those that differ only in their entry times; ``horizons``
    maps a run's directory (relative to ``parent``) to its scenario's
    horizon.  A report whose JSON values are all equal is marked as
    differing only in formatting and is counted in neither list.
    """
    a, b = _files(parent), _files(change)
    diffs = [f"only in parent: {k}" for k in sorted(a.keys() - b.keys())]
    diffs += [f"only in change: {k}" for k in sorted(b.keys() - a.keys())]
    excesses, entries = [], []
    for k in sorted(a.keys() & b.keys()):
        old, new = a[k].read_bytes(), b[k].read_bytes()
        if old == new:
            continue
        stem = str(Path(k).parent)
        json_file = k.endswith(".json")
        excess = excess_only_difference(old, new) if json_file else None
        entry = entry_only_difference(old, new) if json_file and excess is None and stem in horizons else None
        removed = removed_keys(old, new) if json_file and excess is None and entry is None else None
        renamed = renamed_keys(old, new) if json_file and excess is None and entry is None and removed is None else None
        if excess == 0.0:
            diffs.append(f"differs: {k} (only in formatting, the JSON values are equal)")
        elif excess is not None:
            excesses.append(excess)
            diffs.append(f"differs: {k} (only stage excesses, max difference {excess:.3g})")
        elif entry is not None:
            entries.append(entry / horizons[stem])
            diffs.append(f"differs: {k} (only entry times, max difference {entries[-1]:.3g} x horizon)")
        elif removed:
            diffs.append(f"differs: {k} (only removed keys {', '.join(removed)})")
        elif renamed:
            diffs.append(f"differs: {k} (only renamed keys {', '.join(renamed)})")
        elif Path(k).name == "stdout" and entry_only_text(old, new):
            diffs.append(f"differs: {k} (only printed entry times)")
        elif Path(k).name == "stdout" and (items := removed_items_text(old, new)):
            diffs.append(f"differs: {k} (only removed items {', '.join(items)})")
        elif Path(k).name == "stdout" and (swap := renamed_items_text(old, new)) and swap[0]:
            diffs.append(f"differs: {k} (only renamed items {', '.join(swap[0])} -> {', '.join(swap[1])})")
        else:
            diffs.append(f"differs: {k}")
    return diffs, excesses, entries


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
        horizons = {run["stem"]: run["horizon"] for run in manifest if "horizon" in run}
        diffs, excesses, entries = compare(outs["parent"], outs["change"], horizons)
        n_files = len(_files(outs["parent"]))
        verify_runs = [run for run in manifest if run["argv"][0] == "verify"]
        verdicts = verdict_summary(outs["parent"], outs["change"], verify_runs)
    for line in diffs:
        print(line)
    print(f"{len(manifest)} runs, {n_files} parent files, {len(diffs)} differences")
    if excesses:
        print(
            f"{len(excesses)} of the differences are reports that differ only in stage excesses, "
            f"max difference {max(excesses):.3g}"
        )
    if entries:
        print(
            f"{len(entries)} of the differences are reports that differ only in entry times, "
            f"max difference {max(entries):.3g} x horizon"
        )
    print(verdicts)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(run_script(worker, main))
