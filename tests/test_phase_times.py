"""Smoke test of ``tools/phase_times.py`` on a few scenarios of one pool."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # the tool imports its helpers from compare_outputs
_spec = importlib.util.spec_from_file_location("phase_times", ROOT / "tools" / "phase_times.py")
phase_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_times)


def test_one_round_times_every_phase_of_both_trees(capsys):
    src = str(ROOT / "src")
    assert phase_times.main([src, src, "--workload", "sweep-small", "--seed", "1", "--rounds", "1"], limit=3) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"sweep-small seed 1: 3 certified scenarios, min of 1 rounds x {phase_times.CALLS} calls"
    scenarios, phases, per_trial = lines[2:5], lines[6:-1], lines[-1].split()
    assert [row.split()[0] for row in scenarios] == ["0", "1", "2"]
    for row in scenarios:  # pool index, n, trials parent / change, then parent / change per phase
        cells = row.split()[2:]
        assert len(cells) == 3 * (1 + len(phase_times.PHASES["verify"]))
        assert all(float(c) > 0.0 for c in cells[::3] + cells[2::3])
        assert cells[0] == cells[2] and cells[0].isdigit()  # one tree twice: the same trial steps
    rows = {line.split()[0]: line.split() for line in phases}
    assert sorted(rows) == sorted(phase_times.PHASES["verify"])
    for cells in rows.values():
        assert float(cells[1]) > 0.0 and float(cells[2]) > 0.0 and cells[4].endswith("/3")
    # simulate's microseconds over the scenarios' trial steps
    trials = sum(int(row.split()[2]) for row in scenarios)
    assert per_trial[0] == "us/trial"
    assert float(per_trial[1]) == pytest.approx(float(rows["simulate"][1]) / trials, abs=0.01)


def test_simulate_workloads_time_emission_and_missing_trees_are_refused(tmp_path, capsys):
    src = str(ROOT / "src")
    assert phase_times.main([src, src, "--workload", "export-mixed", "--seed", "1", "--rounds", "1"], limit=2) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"export-mixed seed 1: 2 scenarios, min of 1 rounds x {phase_times.CALLS} calls"
    rows = {line.split()[0]: line.split() for line in lines[5:]}  # after 2 scenario rows and a header
    assert sorted(rows) == ["emit", "simulate", "us/trial"]
    assert all(float(cells[1]) > 0.0 and float(cells[2]) > 0.0 for cells in rows.values())
    assert phase_times.main([str(tmp_path), src, "--workload", "sweep-small", "--seed", "1"]) == 2
    assert f"no chemostat_cep package under {tmp_path}" in capsys.readouterr().err
