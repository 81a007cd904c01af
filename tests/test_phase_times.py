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
    end = next(i for i, line in enumerate(lines) if line.startswith("us/trial"))
    scenarios, phases, per_trial, per_size = lines[2:5], lines[6:end], lines[end].split(), lines[end + 2 :]
    assert [row.split()[0] for row in scenarios] == ["0", "1", "2"]
    for row in scenarios:  # pool index, n, trials parent / change, then parent / change per phase
        cells = row.split()[2:]
        assert len(cells) == 3 * (1 + len(phase_times.PHASES["verify"]))
        assert all(float(c) > 0.0 for c in cells[::3] + cells[2::3])
        assert cells[0] == cells[2] and cells[0].isdigit()  # one tree twice: the same trial steps
        _assert_rhs_is_one_call(cells)
    rows = {line.split()[0]: line.split() for line in phases}
    assert sorted(rows) == sorted(phase_times.PHASES["verify"])
    for cells in rows.values():
        assert float(cells[1]) > 0.0 and float(cells[2]) > 0.0 and cells[4].endswith("/3")
    # simulate's microseconds over the scenarios' trial steps
    trials = sum(int(row.split()[2]) for row in scenarios)
    assert per_trial[0] == "us/trial"
    assert float(per_trial[1]) == pytest.approx(float(rows["simulate"][1]) / trials, abs=0.01)
    _assert_per_size_rows(lines[end + 1], per_size, [row.split() for row in scenarios])


def _assert_rhs_is_one_call(cells):
    """The ``rhs`` phase (the third) times one call, far less than a whole ``simulate`` run."""
    simulate, rhs = cells[3:6:2], cells[9:12:2]  # parent / change of each
    assert all(0.0 < float(r) < 0.5 * float(sim) for r, sim in zip(rhs, simulate))


def _assert_per_size_rows(header, rows, scenarios):
    """One row per species count: scenarios, simulate ratio, us/trial and us/rhs of each tree."""
    assert header.split()[:3] == ["species", "scenarios", "simulate"]
    assert header.split()[-3:] == ["us/rhs", "parent", "change"]
    # a scenario row is index, n, trials parent / change, then parent / change per phase (simulate first)
    by_n = {}
    for cells in scenarios:
        by_n.setdefault(int(cells[1]), []).append(cells)
    assert [row.split()[0] for row in rows] == [f"n={n}" for n in sorted(by_n)]
    for row in rows:
        cells = row.split()
        group = by_n[int(cells[0][2:])]
        assert int(cells[1]) == len(group)
        parent, change = (sum(float(c[k]) for c in group) for k in (5, 7))
        assert float(cells[2]) == pytest.approx(change / parent, abs=1e-3)
        for side, (us_col, trial_col) in enumerate(((5, 2), (7, 4))):
            us = sum(float(c[us_col]) for c in group) / sum(int(c[trial_col]) for c in group)
            assert float(cells[3 + side]) == pytest.approx(us, abs=0.01)
        # the mean of each tree's rhs microseconds over the group (third phase),
        # against scenario rows rounded to 0.1
        for side, rhs_col in enumerate((11, 13)):
            us = sum(float(c[rhs_col]) for c in group) / len(group)
            assert float(cells[5 + side]) == pytest.approx(us, abs=0.06)


def test_simulate_workloads_time_emission_and_missing_trees_are_refused(tmp_path, capsys):
    src = str(ROOT / "src")
    assert phase_times.main([src, src, "--workload", "export-mixed", "--seed", "1", "--rounds", "1"], limit=2) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"export-mixed seed 1: 2 scenarios, min of 1 rounds x {phase_times.CALLS} calls"
    end = next(i for i, line in enumerate(lines) if line.startswith("us/trial"))
    rows = {line.split()[0]: line.split() for line in lines[5 : end + 1]}  # after 2 scenario rows and a header
    assert sorted(rows) == ["emit", "field", "rhs", "simulate", "us/trial"]
    for row in lines[2:4]:
        _assert_rhs_is_one_call(row.split()[2:])
    _assert_per_size_rows(lines[end + 1], lines[end + 2 :], [row.split() for row in lines[2:4]])
    assert all(float(cells[1]) > 0.0 and float(cells[2]) > 0.0 for cells in rows.values())
    # building the right-hand side is a part of every simulate run
    assert float(rows["field"][1]) < float(rows["simulate"][1])
    assert phase_times.main([str(tmp_path), src, "--workload", "sweep-small", "--seed", "1"]) == 2
    assert f"no chemostat_cep package under {tmp_path}" in capsys.readouterr().err
