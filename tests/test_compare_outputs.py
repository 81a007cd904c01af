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


def _report(slope2=-0.5, slope_max=-0.25, pack=3, entry=3.0, detail=""):
    return json.dumps(
        {
            "claims": [
                {
                    "id": "exclusion_stage_1",
                    "measured": {
                        "entry_time": entry,
                        "slope_pack_2": slope2,
                        "slope_max": slope_max,
                        "slope_max_pack": pack,
                    },
                    "detail": detail,
                }
            ],
            "overall_pass": True,
        }
    ).encode()


class TestSlopeOnlyDifference:
    def test_slopes_only_give_the_largest_relative_difference(self):
        rel = compare_outputs.slope_only_difference(
            _report(), _report(slope2=-0.5 * (1 + 2e-15), slope_max=-0.25 * (1 - 4e-15))
        )
        assert rel == pytest.approx(4e-15, rel=1e-3)

    def test_slope_max_alone_is_a_slope_difference(self):
        rel = compare_outputs.slope_only_difference(_report(), _report(slope_max=-0.25 * (1 + 8e-15)))
        assert rel == pytest.approx(8e-15, rel=1e-3)

    def test_identical_reports_differ_by_zero(self):
        assert compare_outputs.slope_only_difference(_report(), _report()) == 0.0

    @pytest.mark.parametrize(
        "other",
        [
            _report(entry=3.0000001),
            _report(detail="pack 2 ratio unfittable"),
            _report(slope2=None),
            _report(slope_max=None),
            _report(pack=2),
            b"not json",
        ],
    )
    def test_any_other_difference_is_not_slope_only(self, other):
        assert compare_outputs.slope_only_difference(_report(), other) is None


class TestCompare:
    def test_labels(self, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        files = {
            "same.json": (_report(), _report()),
            "formatting.json": (_report(), json.dumps(json.loads(_report()), indent=2).encode()),
            "slopes.json": (_report(), _report(slope2=-0.5 * (1 + 2e-15))),
            "other.json": (_report(), _report(entry=4.0)),
            "stdout": (b"a", b"b"),
        }
        for name, (old, new) in files.items():
            for top, data in ((parent, old), (change, new)):
                top.mkdir(exist_ok=True)
                (top / name).write_bytes(data)
        diffs, slopes = compare_outputs.compare(parent, change)
        assert diffs == [
            "differs: formatting.json (only in formatting, the JSON values are equal)",
            "differs: other.json",
            "differs: slopes.json (only decay slopes, max relative difference 2e-15)",
            "differs: stdout",
        ]
        assert slopes == [pytest.approx(2e-15, rel=1e-3)]


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
