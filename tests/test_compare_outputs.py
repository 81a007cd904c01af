"""The report classifier of ``tools/compare_outputs.py``."""

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


def _report(excess2=0.5, excess_max=0.25, pack=3, entry=3.0, detail=""):
    return json.dumps(
        {
            "claims": [
                {
                    "id": "exclusion_stage_1",
                    "measured": {
                        "entry_time": entry,
                        "excess_pack_2": excess2,
                        "excess_max": excess_max,
                        "excess_max_pack": pack,
                    },
                    "detail": detail,
                }
            ],
            "overall_pass": True,
        }
    ).encode()


class TestExcessOnlyDifference:
    def test_excesses_only_give_the_largest_difference(self):
        diff = compare_outputs.excess_only_difference(_report(), _report(excess2=0.5 + 2e-15, excess_max=0.25 - 4e-15))
        assert diff == pytest.approx(4e-15, rel=1e-2)

    def test_excess_max_alone_is_an_excess_difference(self):
        diff = compare_outputs.excess_only_difference(_report(), _report(excess_max=0.25 + 8e-15))
        assert diff == pytest.approx(8e-15, rel=1e-2)

    def test_identical_reports_differ_by_zero(self):
        assert compare_outputs.excess_only_difference(_report(), _report()) == 0.0

    @pytest.mark.parametrize(
        "other",
        [
            _report(entry=3.0000001),
            _report(detail="pack 2 ratio not positive and finite at the entry"),
            _report(excess2=None),
            _report(excess_max=None),
            _report(pack=2),
            b"not json",
        ],
    )
    def test_any_other_difference_is_not_excess_only(self, other):
        assert compare_outputs.excess_only_difference(_report(), other) is None


class TestEntryOnlyDifference:
    def test_entry_times_only_give_the_largest_difference(self):
        assert compare_outputs.entry_only_difference(_report(), _report(entry=3.0 + 5e-8)) == pytest.approx(5e-8)

    def test_identical_reports_differ_by_zero(self):
        assert compare_outputs.entry_only_difference(_report(), _report()) == 0.0

    @pytest.mark.parametrize(
        "other",
        [
            _report(entry=3.1, excess2=0.4),
            _report(entry=None),
            _report(detail="no persistent entry into the absorbing interval"),
            b"not json",
        ],
    )
    def test_any_other_difference_is_not_entry_only(self, other):
        assert compare_outputs.entry_only_difference(_report(), other) is None

    def test_printed_entry_times(self):
        text = b"exclusion_stage_1  PASS    entry_time=2.83048, excursions=0\noverall: PASS\n"
        assert compare_outputs.entry_only_text(text, text.replace(b"2.83048", b"2.83049"))
        assert compare_outputs.entry_only_text(text, text.replace(b"2.83048", b"none"))
        assert not compare_outputs.entry_only_text(text, text.replace(b"excursions=0", b"excursions=1"))
        assert not compare_outputs.entry_only_text(text, text.replace(b"PASS", b"FAIL"))


def _frame_report(**extra):
    measured = {"frame_time": 1.5, **extra}
    return json.dumps({"claims": [{"id": "substrate_frame", "measured": measured, "thresholds": {"d_minus": 0.9}}]}).encode()


class TestRemovedKeys:
    def test_deleted_keys_are_named_once(self):
        old = json.dumps(
            {"claims": [{"measured": {"a": 1, "violations": 0}}, {"measured": {"violations": 0, "slack": 1e-5}}]}
        ).encode()
        new = json.dumps({"claims": [{"measured": {"a": 1}}, {"measured": {}}]}).encode()
        assert compare_outputs.removed_keys(old, new) == ["slack", "violations"]

    def test_identical_reports_remove_nothing(self):
        assert compare_outputs.removed_keys(_frame_report(), _frame_report()) == []

    @pytest.mark.parametrize(
        "new",
        [
            _frame_report(violations=0, extra=1),  # a key added
            json.dumps({"claims": [{"id": "substrate_frame", "measured": {"frame_time": 1.6}}]}).encode(),
            json.dumps({"claims": []}).encode(),
            b"not json",
        ],
    )
    def test_any_other_difference_is_not_a_removal(self, new):
        assert compare_outputs.removed_keys(_frame_report(violations=0), new) is None

    def test_removed_items_in_text(self):
        old = b"substrate_frame  PASS    frame_time=1.5, violations=0, worst_violation=0\noverall: PASS\n"
        new = b"substrate_frame  PASS    frame_time=1.5\noverall: PASS\n"
        assert compare_outputs.removed_items_text(old, new) == ["violations=0", "worst_violation=0"]
        assert compare_outputs.removed_items_text(old, old) == []
        assert compare_outputs.removed_items_text(old, new.replace(b"1.5", b"1.6")) is None
        assert compare_outputs.removed_items_text(old, new.replace(b"PASS", b"FAIL", 1)) is None
        assert compare_outputs.removed_items_text(new, old) is None  # items added
        assert compare_outputs.removed_items_text(old, new.replace(b"\noverall: PASS", b"")) is None
        # an item that is not key=value is not removable
        assert compare_outputs.removed_items_text(b"x  FAIL    pack 2, pack 3\n", b"x  FAIL    pack 2\n") is None


def _slope_report(slope2=-0.5, pack=3, entry=3.0):
    """A stage report with the decay-slope keys that the excesses replaced."""
    claim = json.loads(_report(entry=entry))["claims"][0]
    claim["measured"] = {"entry_time": entry, "slope_pack_2": slope2, "slope_max": None, "slope_max_pack": pack}
    return json.dumps({"claims": [claim], "overall_pass": True}).encode()


_SLOPE_TEXT = (
    b"exclusion_stage_1  PASS    entry_time=2.83048, excursions=0, p_final_max=6.52779e-07, "
    b"slope_max=-0.20026, slope_max_pack=2, slope_pack_2=-0.20026\noverall: PASS\n"
)
_EXCESS_TEXT = (
    b"exclusion_stage_1  PASS    entry_time=2.83048, excess_max=0, excess_max_pack=2, excess_pack_2=0, "
    b"excursions=0, p_final_max=6.52779e-07\noverall: PASS\n"
)


class TestRenamedKeys:
    def test_renames_in_place_are_named_once_whatever_their_values(self):
        old = json.dumps({"claims": [json.loads(_slope_report())["claims"][0]] * 2, "overall_pass": True}).encode()
        assert compare_outputs.renamed_keys(old, _report()) is None  # one claim against two
        assert compare_outputs.renamed_keys(_slope_report(), _report()) == [
            "slope_max -> excess_max",
            "slope_max_pack -> excess_max_pack",
            "slope_pack_* -> excess_pack_*",  # every numbered key once
        ]
        assert compare_outputs.renamed_keys(_report(), _report()) == []
        stages = [{"measured": {f"slope_pack_{k}": -1.0, "x": k}} for k in (2, 3, 12)]
        excess = [{"measured": {f"excess_pack_{k}": 0.0, "x": k}} for k in (2, 3, 12)]
        assert compare_outputs.renamed_keys(json.dumps(stages).encode(), json.dumps(excess).encode()) == [
            "slope_pack_* -> excess_pack_*"
        ]

    @pytest.mark.parametrize(
        "new",
        [
            _report(entry=3.1),  # a value under a kept key
            _report(detail="pack 2 excess 0.5 at t=3"),
            json.dumps({"claims": [{"measured": {"slope_max": 1}}], "overall_pass": True}).encode(),
            b"not json",
        ],
    )
    def test_any_other_difference_is_not_a_rename(self, new):
        assert compare_outputs.renamed_keys(_slope_report(), new) is None

    def test_swapped_keys_are_not_renames(self):
        assert compare_outputs.renamed_keys(b'{"a": 1, "b": 2}', b'{"b": 2, "a": 1}') is None
        assert compare_outputs.renamed_keys(b'{"a": {"x": 1}}', b'{"b": {"x": 1}}') is None

    def test_renamed_items_in_text(self):
        dropped = ["slope_max", "slope_max_pack", "slope_pack_*"]
        gained = ["excess_max", "excess_max_pack", "excess_pack_*"]
        assert compare_outputs.renamed_items_text(_SLOPE_TEXT, _EXCESS_TEXT) == (dropped, gained)
        assert compare_outputs.renamed_items_text(_SLOPE_TEXT, _SLOPE_TEXT) == ([], [])
        assert compare_outputs.renamed_items_text(_SLOPE_TEXT, _EXCESS_TEXT.replace(b"PASS ", b"FAIL ", 1)) is None
        assert compare_outputs.renamed_items_text(_SLOPE_TEXT, _EXCESS_TEXT.replace(b"2.83048", b"2.8")) is None
        assert compare_outputs.renamed_items_text(_SLOPE_TEXT, _EXCESS_TEXT.replace(b"excess_pack_2=0, ", b"")) is None


class TestCompare:
    def test_labels(self, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        text = b"exclusion_stage_1  PASS    entry_time=2.83048, excursions=0\n"
        files = {
            "same.json": (_report(), _report()),
            "formatting.json": (_report(), json.dumps(json.loads(_report()), indent=2).encode()),
            "excesses.json": (_report(), _report(excess2=0.5 + 2e-15)),
            "run/entries.json": (_report(), _report(entry=3.0 + 4e-8)),
            "run/stdout": (text, text.replace(b"2.83048", b"2.83049")),
            "other.json": (_report(), _report(entry=4.0, excess2=0.4)),
            "renamed.json": (_slope_report(), _report()),
            "renamed/stdout": (_SLOPE_TEXT, _EXCESS_TEXT),
            "stdout": (b"a", b"b"),
            "frame/report.json": (_frame_report(violations=0, worst_violation=0.0), _frame_report()),
            "frame/stdout": (
                b"substrate_frame  PASS    frame_time=1.5, violations=0, worst_violation=0\n",
                b"substrate_frame  PASS    frame_time=1.5\n",
            ),
        }
        for name, (old, new) in files.items():
            for top, data in ((parent, old), (change, new)):
                (top / name).parent.mkdir(parents=True, exist_ok=True)
                (top / name).write_bytes(data)
        diffs, excesses, entries = compare_outputs.compare(parent, change, {"run": 40.0})
        assert diffs == [
            "differs: excesses.json (only stage excesses, max difference 2e-15)",
            "differs: formatting.json (only in formatting, the JSON values are equal)",
            "differs: frame/report.json (only removed keys violations, worst_violation)",
            "differs: frame/stdout (only removed items violations=0, worst_violation=0)",
            "differs: other.json",
            "differs: renamed.json (only renamed keys slope_max -> excess_max, slope_max_pack -> excess_max_pack, "
            "slope_pack_* -> excess_pack_*)",
            "differs: renamed/stdout (only renamed items slope_max, slope_max_pack, slope_pack_* -> excess_max, "
            "excess_max_pack, excess_pack_*)",
            "differs: run/entries.json (only entry times, max difference 1e-09 x horizon)",
            "differs: run/stdout (only printed entry times)",
            "differs: stdout",
        ]
        assert excesses == [pytest.approx(2e-15, rel=1e-2)]
        assert entries == [pytest.approx(1e-9, rel=1e-6)]

    def test_entry_times_without_a_horizon_are_not_labelled(self, tmp_path):
        for top, entry in ((tmp_path / "parent", 3.0), (tmp_path / "change", 3.0 + 4e-8)):
            top.mkdir()
            (top / "report.json").write_bytes(_report(entry=entry))
        assert compare_outputs.compare(tmp_path / "parent", tmp_path / "change", {}) == (
            ["differs: report.json"],
            [],
            [],
        )


class TestManifest:
    def test_verify_pools_also_run_certificate_json(self, tmp_path):
        manifest = compare_outputs.write_inputs(tmp_path, [1])
        verify = [run["argv"][1] for run in manifest if run["argv"][0] == "verify"]
        certificate = [run for run in manifest if run["argv"][0] == "certificate"]
        assert verify and [run["argv"][1] for run in certificate] == verify
        assert all(run["argv"][2:] == ["--json"] for run in certificate)
        assert len({run["stem"] for run in manifest}) == len(manifest)

    def test_verify_runs_carry_their_horizon(self, tmp_path):
        manifest = compare_outputs.write_inputs(tmp_path, [1])
        horizons = [run["horizon"] for run in manifest if run["argv"][0] == "verify"]
        assert horizons and all(h > 0.0 for h in horizons)
        assert horizons[0] == 80.0  # the canonical scenario sets its horizon
        assert all("horizon" not in run for run in manifest if run["argv"][0] != "verify")

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
