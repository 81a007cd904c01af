"""The key-level diff and the verdict summary of ``tools/compare_outputs.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _report():
    stage = {"id": "exclusion_stage_1", "measured": {"entry_time": 3.0, "excess_pack_2": 0.5}, "detail": ""}
    return json.dumps({"claims": [stage], "overall_pass": True}).encode()


def _json(value) -> bytes:
    return json.dumps(value).encode()


_TEXT = (
    "claim               status  detail\n"
    "substrate_frame     PASS    frame_time=1.5, violations=0\n"
    "exclusion_stage_1   PASS    entry_time=2.83048, excess_max=0, excess_pack_2=0\n"
    "overall: PASS\n"
)
_STAGES = [{"measured": {"slope_pack_2": -1.0, "violations": 0}, "pass": True, "detail": ""}] * 2

# name: (file name, parent bytes, change bytes, the diff's text; None for no key-level diff)
KEY_DIFFS = {
    "moved number": ("r.json", _json({"nu": 0.1}), _json({"nu": 0.2}), "moved nu (max abs 0.1, rel 1)"),
    "numbered keys": (
        "r.json",
        _json([{"excess_pack_2": 0.5, "excess_pack_3": 2.0}]),
        _json([{"excess_pack_2": 0.75, "excess_pack_3": 1.0}]),
        "moved excess_pack_* (max abs 1, rel 0.5)",
    ),
    "from zero": ("r.json", b'{"a": 0}', b'{"a": 1e-16}', "moved a (max abs 1e-16, rel inf)"),
    "from nan": ("r.json", b'{"b": NaN}', b'{"b": 1}', "moved b (max abs inf, rel inf)"),
    "nan to nan": ("r.json", b'{"c": NaN}', b'{"c":  NaN}', "values equal, only formatting"),
    "printed number": ("r.json", _json({"lambda": "inf"}), _json({"lambda": 5.0}), "moved lambda (max abs inf, rel inf)"),
    "removed and added": (
        "r.json",
        _json(_STAGES),
        _json([{"measured": {"excess_pack_2": 0.0}, "pass": True, "detail": ""}] * 2),
        "removed slope_pack_*, violations; added excess_pack_*",
    ),
    "changed text and flag": (
        "r.json",
        _json(_STAGES),
        _json([dict(_STAGES[0], detail="pack 2 excess", **{"pass": False})] * 2),
        "changed detail, pass",
    ),
    "changed null": ("r.json", _json({"nu": None}), _json({"nu": 0.1}), "changed nu"),
    "list of another length": ("r.json", b'{"intervals": [1, 2]}', b'{"intervals": [1]}', "changed intervals"),
    "formatting": ("r.json", _json({"a": [1.0, {"b": "x"}]}), json.dumps({"a": [1.0, {"b": "x"}]}, indent=2).encode(),
                   "values equal, only formatting"),
    "not json": ("r.json", b"{}", b"not json", None),
    "csv": ("trajectory.csv", b"t\n1\n", b"t\n2\n", None),
    "stderr": ("stderr", b"a", b"b", None),
    "printed item moved": (
        "stdout", _TEXT.encode(), _TEXT.replace("2.83048", "2.83049").encode(), "moved entry_time (max abs 1e-05, rel 3.53e-06)"
    ),
    "printed item removed": (
        "stdout", _TEXT.encode(), _TEXT.replace("1.5, violations=0", "1.5").encode(), "removed violations"
    ),
    "printed items renamed": (
        "stdout",
        _TEXT.encode(),
        _TEXT.replace("excess_max=0, excess_pack_2=0", "slope_max=-0.2, slope_pack_2=-0.2").encode(),
        "removed excess_max, excess_pack_*; added slope_max, slope_pack_*",
    ),
    "printed verdicts": (
        "stdout",
        _TEXT.encode(),
        _TEXT.replace("PASS    entry", "FAIL    entry").replace("overall: PASS", "overall: FAIL").encode(),
        "changed exclusion_stage_*, overall",
    ),
    "printed free text": (
        "stdout",
        b"exclusion_stage_1   FAIL    pack 2 excess 0.5 at t=3\n",
        b"exclusion_stage_1   FAIL    pack 2 excess 0.4 at t=3\n",
        "changed exclusion_stage_*",
    ),
    "printed line added": ("stdout", _TEXT.encode(), (_TEXT + "extra\n").encode(), "changed stdout"),
}


class TestKeyDiff:
    @pytest.mark.parametrize("case", KEY_DIFFS)
    def test_case(self, case):
        name, old, new, text = KEY_DIFFS[case]
        diff = compare_outputs.key_diff(name, old, new)
        assert (None if diff is None else str(diff)) == text

    def test_largest_changes_per_key_over_the_file(self):
        diff = compare_outputs.key_diff("r.json", _json([{"a_1": 1.0}, {"a_2": 4.0}]), _json([{"a_1": 3.0}, {"a_2": 5.0}]))
        assert diff.moved == {"a_*": (2.0, 2.0)}


class TestTextKeys:
    def test_a_line_is_its_items_and_its_first_word(self):
        assert compare_outputs._items("exclusion_stage_1   PASS    entry_time=2.83, excursions=0") == {
            "exclusion_stage_1": "PASS",
            "entry_time": "2.83",
            "excursions": "0",
        }
        assert compare_outputs._items("overall: PASS") == {"overall": "PASS"}
        assert compare_outputs._items("") == {}

    def test_free_text_is_the_first_word_s_value(self):
        line = "exclusion_stage_1   FAIL    pack 2 excess 0.5 at t=3, pack 3"
        assert compare_outputs._items(line) == {"exclusion_stage_1": "FAIL    pack 2 excess 0.5 at t=3, pack 3"}


class TestCompare:
    def test_labels_and_moved_totals(self, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        report = json.dumps({"nu": 0.5, "boundaries": [{"gap_min": 0.5}, {"gap_min": 1.0}]}).encode()
        files = {
            "same.json": (report, report),
            "a/report.json": (report, report.replace(b"0.5", b"1.0")),
            "b/report.json": (report, report.replace(b"1.0}", b"1.5}")),
            "c/stdout": (_TEXT.encode(), _TEXT.replace("1.5", "1.25").encode()),
            "c/trajectory.csv": (b"t\n1\n", b"t\n2\n"),
            "only-parent": (b"x", None),
        }
        for name, sides in files.items():
            for top, data in zip((parent, change), sides):
                if data is not None:
                    (top / name).parent.mkdir(parents=True, exist_ok=True)
                    (top / name).write_bytes(data)
        diffs, moved = compare_outputs.compare(parent, change)
        assert diffs == [
            "only in parent: only-parent",
            "differs: a/report.json (moved gap_min (max abs 0.5, rel 1), nu (max abs 0.5, rel 1))",
            "differs: b/report.json (moved gap_min (max abs 0.5, rel 0.5))",
            "differs: c/stdout (moved frame_time (max abs 0.25, rel 0.167))",
            "differs: c/trajectory.csv",
        ]
        assert moved == {"gap_min": (2, 0.5, 1.0), "nu": (1, 0.5, 1.0), "frame_time": (1, 0.25, 1 / 6)}


class TestManifest:
    def test_verify_pools_also_run_certificate_json(self, tmp_path):
        manifest = compare_outputs.write_inputs(tmp_path, [1])
        verify = [run["argv"][1] for run in manifest if run["argv"][0] == "verify"]
        certificate = [run for run in manifest if run["argv"][0] == "certificate"]
        assert verify and [run["argv"][1] for run in certificate] == verify
        assert all(run["argv"][2:] == ["--json"] for run in certificate)
        assert len({run["stem"] for run in manifest}) == len(manifest)

    def test_simulate_pools_also_run_curves(self, tmp_path):
        manifest = compare_outputs.write_inputs(tmp_path, [1])
        simulate = [run["argv"][1] for run in manifest if run["argv"][0] == "simulate"]
        curves = [run for run in manifest if run["argv"][0] == "curves"]
        assert simulate and [run["argv"][1:] for run in curves] == [[path] for path in simulate]
        assert all(run["output"] == "curves.csv" for run in curves)


def _verify_run(top: Path, stem: str, code: str, report: dict | None) -> None:
    run = top / stem
    run.mkdir(parents=True)
    (run / "exit_code").write_text(code)
    if report is not None:
        (run / "report.json").write_text(json.dumps(report))


class TestVerdictSummary:
    def test_counts_runs_whose_flags_agree_whatever_the_bytes(self, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        base = json.loads(_report())
        base["claims"][0].update(applicable=True, **{"pass": True})
        moved = json.loads(json.dumps(base))
        moved["claims"][0]["measured"]["excess_pack_2"] = 0.6
        flipped = json.loads(json.dumps(base))
        flipped["claims"][0]["pass"] = False
        not_applicable = json.loads(json.dumps(base))
        not_applicable["claims"][0]["applicable"] = False
        overall = dict(base, overall_pass=False)
        sides = {
            "same": (("0", base), ("0", base)),
            "bytes": (("0", base), ("0", moved)),
            "pass": (("0", base), ("0", flipped)),
            "applicable": (("0", base), ("0", not_applicable)),
            "overall": (("0", base), ("0", overall)),
            "exit": (("0", base), ("1", base)),
            "crash": (("0", base), ("ValueError: boom", None)),
        }
        for stem, ((code_a, rep_a), (code_b, rep_b)) in sides.items():
            _verify_run(parent, stem, code_a, rep_a)
            _verify_run(change, stem, code_b, rep_b)
        runs = [{"stem": stem, "output": "report.json"} for stem in sides]
        assert compare_outputs.verdict_summary(parent, change, runs) == (
            "verdicts: 2 of 7 verify runs agree in exit code, overall_pass and every claim's applicable "
            "and pass; moved in pass, applicable, overall, exit, crash"
        )
        agreeing = compare_outputs.verdict_summary(parent, change, runs[:2])
        assert agreeing.startswith("verdicts: 2 of 2 verify runs agree") and agreeing.endswith("applicable and pass")
