"""Scenario parsing, command dispatch, exit codes, and CSV emission."""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from chemostat_cep import InputError, Monod, State, simulate
from chemostat_cep import cli
from chemostat_cep.cli import (
    Scenario,
    main,
    parse_scenario,
    write_trajectory_csv,
)

from conftest import make_scenario

CANONICAL_YAML = """\
params:
  dilution: 1.0
  s_in: 10.0
species:
  - id: sp1
    growth: {kind: monod, mu_max: 3.0, k: 1.0}
  - id: sp2
    growth: {kind: monod, mu_max: 4.0, k: 2.0}
  - id: sp3
    growth: {kind: monod, mu_max: 5.0, k: 3.0}
initial:
  s: 10.0
  x: [0.01, 0.01, 0.01]
horizon: 80.0
tolerances:
  rel_tol: 1.0e-8
  abs_tol: 1.0e-10
"""


@pytest.fixture()
def canonical_file(tmp_path):
    path = tmp_path / "canonical.yaml"
    path.write_text(CANONICAL_YAML)
    return str(path)


class TestParseScenario:
    def test_canonical_file(self, canonical_file):
        sc = parse_scenario(canonical_file)
        assert len(sc.species) == 3
        assert sc.params.d == 1.0 and sc.params.s_in == 10.0
        assert sc.horizon == 80.0
        assert sc.tolerances.rel_tol == 1e-8
        assert sc.ids == ("sp1", "sp2", "sp3")
        np.testing.assert_array_equal(sc.initial.x, [0.01, 0.01, 0.01])

    def test_repo_fixture_parses(self):
        sc = parse_scenario("scenarios/canonical.yaml")
        assert sc.horizon == 80.0

    def test_default_horizon(self, tmp_path):
        text = CANONICAL_YAML.replace("horizon: 80.0\n", "")
        text = text.replace("dilution: 1.0", "dilution: 2.0")
        path = tmp_path / "s.yaml"
        path.write_text(text)
        sc = parse_scenario(str(path))
        assert sc.horizon == 50.0  # 100 / dilution

    def test_scientific_notation_without_dot(self, tmp_path):
        # plain YAML would read 1e-8 as a string; the parser must not
        path = tmp_path / "s.yaml"
        path.write_text(CANONICAL_YAML.replace("1.0e-8", "1e-8"))
        assert parse_scenario(str(path)).tolerances.rel_tol == 1e-8

    @pytest.mark.parametrize(
        "mangle, needle",
        [
            (lambda t: t.replace("params:\n  dilution: 1.0\n", "params:\n"), "params.dilution"),
            (lambda t: t.replace("id: sp2", "id: sp1"), "species[1].id"),
            (lambda t: t.replace("[0.01, 0.01, 0.01]", "[0.01, 0.01]"), "initial.x"),
            (lambda t: t.replace("dilution: 1.0", "dilution: -1.0"), "params.dilution"),
            (lambda t: t.replace("s_in: 10.0", "s_in: 0.0"), "params.s_in"),
            (lambda t: t.replace("horizon: 80.0", "horizon: -3.0"), "horizon"),
            (lambda t: t.replace("kind: monod", "kind: logistic"), "growth"),
            (lambda t: t + "unknown_key: 1\n", "unknown_key"),
            (lambda t: t.replace("mu_max: 3.0", "mu_max: fast"), "mu_max"),
        ],
    )
    def test_defects_name_key_and_line(self, tmp_path, mangle, needle):
        path = tmp_path / "bad.yaml"
        path.write_text(mangle(CANONICAL_YAML))
        with pytest.raises(InputError) as exc:
            parse_scenario(str(path))
        assert needle in str(exc.value)
        assert "line" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_scenario(str(tmp_path / "nope.yaml"))

    def test_env_overrides_defaults_but_not_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEMOSTAT_CEP_REL_TOL", "1e-6")
        # file sets rel_tol explicitly: the file wins
        path = tmp_path / "a.yaml"
        path.write_text(CANONICAL_YAML)
        assert parse_scenario(str(path)).tolerances.rel_tol == 1e-8
        # file omits tolerances: the environment default applies
        bare = CANONICAL_YAML.split("tolerances:")[0]
        path2 = tmp_path / "b.yaml"
        path2.write_text(bare)
        assert parse_scenario(str(path2)).tolerances.rel_tol == 1e-6

    def test_digest_is_stable_and_sensitive(self, canonical_file):
        a = parse_scenario(canonical_file)
        b = parse_scenario(canonical_file)
        assert a.digest() == b.digest()
        c = make_scenario(horizon=81.0)
        assert c.digest() != a.digest()


def _wide_yaml(n=100):
    """A generated scenario file with n Monod species, in flow and block style."""
    rng = np.random.default_rng(n)
    lines = ["params:", "  dilution: 1.0", "  s_in: 10.0", "species:"]
    for i in range(n):
        mu_max, k = float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.2, 9.0))
        lines += [f"  - id: m{i:03d}", f"    growth: {{kind: monod, mu_max: {mu_max!r}, k: {k!r}}}"]
    x = ", ".join(repr(float(v)) for v in rng.uniform(0.005, 0.02, n))
    lines += ["initial:", "  s: 10.0", f"  x: [{x}]", "horizon: 800.0", ""]
    return "\n".join(lines)


def _node_tree(node):
    """(tag, value, line) of a composed node and, recursively, its children."""
    if isinstance(node, yaml.ScalarNode):
        return (node.tag, node.value, node.start_mark.line)
    if isinstance(node, yaml.SequenceNode):
        return (node.tag, [_node_tree(v) for v in node.value], node.start_mark.line)
    return (node.tag, [(_node_tree(k), _node_tree(v)) for k, v in node.value], node.start_mark.line)


class TestYamlLoader:
    def test_libyaml_chosen_when_available(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert cli._YAML_LOADER is expected

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", ["canonical.yaml", "with_washout.yaml", "wide"])
    def test_both_loaders_compose_the_same_tree(self, name, tmp_path):
        if name == "wide":
            path = tmp_path / "wide.yaml"
            path.write_text(_wide_yaml())
        else:
            path = Path(__file__).resolve().parent.parent / "scenarios" / name
        trees = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            with open(path, encoding="utf-8") as fh:
                trees.append(_node_tree(yaml.compose(fh, Loader=loader)))
        assert trees[0] == trees[1]

    def test_wide_file_parses(self, tmp_path):
        path = tmp_path / "wide.yaml"
        path.write_text(_wide_yaml())
        assert len(parse_scenario(str(path)).species) == 100

    @pytest.mark.parametrize(
        "text,line",
        [
            ("params:\n  dilution: 1.0\n  s_in: [1, 2\nspecies: x\n", 4),
            ("params: {dilution: 1.0\n", 2),
            ("params:\n  dilution: 1.0\n s_in: 2\n", 3),
        ],
    )
    def test_malformed_yaml_exits_2_and_names_a_line(self, text, line, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid YAML" in err
        assert f"line {line}" in err, err
        assert re.search(r"line \d+, column \d+", err)


class TestTrajectoryCsv:
    def test_header_and_roundtrip(self, canonical_trajectory):
        buf = io.StringIO()
        write_trajectory_csv(canonical_trajectory, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == [
            "t", "s", "x1", "x2", "x3", "b", "p1", "p2", "p3", "m", "r2", "r3",
        ]
        assert len(rows) - 1 == 2001
        # 17 significant digits make the text round-trip exact
        k = 700
        row = rows[1 + k]
        assert float(row[0]) == canonical_trajectory.times[k]
        assert float(row[1]) == canonical_trajectory.states[k, 0]
        assert float(row[5]) == canonical_trajectory.channels.b[k]
        assert float(row[10]) == canonical_trajectory.channels.r[k, 0]

    def test_every_cell_roundtrips(self):
        # shorter run, but every numeric cell must reproduce its float
        traj = simulate(
            make_scenario().params,
            [Monod(3, 1), Monod(4, 2)],
            State(s=10.0, x=np.array([0.02, 0.01])),
            5.0,
            dense_dt=0.05,
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        ch = traj.channels
        for k, row in enumerate(rows[1:]):
            expected = [
                traj.times[k], traj.states[k, 0], traj.states[k, 1],
                traj.states[k, 2], ch.b[k], ch.p[k, 0], ch.p[k, 1],
                ch.m[k], ch.r[k, 0],
            ]
            for cell, value in zip(row, expected):
                assert float(cell) == value

    def test_single_species_columns(self):
        traj = simulate(
            make_scenario().params, [Monod(3, 1)], State(s=1.0, x=np.array([0.1])), 5.0
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "t,s,x1,b,p1,m"

    def test_undefined_channels_left_empty(self):
        # no biomass at all: proportions are undefined throughout
        sc = make_scenario()
        traj = simulate(sc.params, [Monod(3, 1), Monod(4, 2)], State(s=3.0, x=np.zeros(2)), 5.0)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        p1 = rows[0].index("p1")
        r2 = rows[0].index("r2")
        assert all(row[p1] == "" for row in rows[1:])
        assert all(row[r2] == "" for row in rows[1:])


class TestCommands:
    def test_simulate_writes_csv(self, canonical_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", canonical_file, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("t,s,x1")
        assert len(text.splitlines()) == 2002

    def test_verify_passes_and_writes_report(self, canonical_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", canonical_file, "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "overall: PASS" in captured.out
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        assert report["certificate"]["status"] == "ok"
        assert any(c["id"] == "exclusion_stage_2" for c in report["claims"])

    def test_verify_fails_on_short_horizon(self, tmp_path, capsys):
        path = tmp_path / "short.yaml"
        path.write_text(CANONICAL_YAML.replace("horizon: 80.0", "horizon: 8.0"))
        assert main(["verify", str(path)]) == 1

    def test_certificate_text_and_json(self, canonical_file, tmp_path, capsys):
        assert main(["certificate", canonical_file]) == 0
        out = capsys.readouterr().out
        assert "nu:" in out and "status: ok" in out
        jpath = tmp_path / "cert.json"
        assert main(["certificate", canonical_file, "--json", "-o", str(jpath)]) == 0
        cert = json.loads(jpath.read_text())
        assert cert["nu"] > 0.0

    def test_certificate_washout_refusal(self, tmp_path, capsys):
        path = tmp_path / "washout.yaml"
        path.write_text(CANONICAL_YAML.replace("s_in: 10.0", "s_in: 0.4"))
        assert main(["certificate", str(path)]) == 1
        assert "refused" in capsys.readouterr().out

    def test_curves(self, canonical_file, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curves", canonical_file, "-o", str(out), "--points", "16"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# dilution = 1")
        lam_line = [line for line in lines if line.startswith("# lambda_sp1 = ")][0]
        assert float(lam_line.split("=")[1]) == pytest.approx(0.5, abs=1e-10)
        header = [line for line in lines if line.startswith("s,")][0]
        assert header == "s,mu_sp1,mu_sp2,mu_sp3"
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 17

    def test_exit_code_2_on_input_errors(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "missing.yaml")]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("species: [\n")
        assert main(["simulate", str(bad)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_exit_codes_are_exhaustive(self, canonical_file, tmp_path):
        # each command path returns one of {0, 1, 2}
        codes = set()
        codes.add(main(["verify", canonical_file]))
        codes.add(main(["verify", str(tmp_path / "absent.yaml")]))
        path = tmp_path / "washout.yaml"
        path.write_text(CANONICAL_YAML.replace("s_in: 10.0", "s_in: 0.4"))
        codes.add(main(["certificate", str(path)]))
        assert codes <= {0, 1, 2}


def _with_table(points: str) -> str:
    """The canonical scenario with sp2 (line 8) replaced by a table law."""
    return CANONICAL_YAML.replace(
        "growth: {kind: monod, mu_max: 4.0, k: 2.0}", f"growth: {{kind: table, points: {points}}}"
    )


class TestTableHypotheses:
    """mu(0) = 0 and strictly increasing node rates are enforced at parse time."""

    @pytest.mark.parametrize(
        "points, key, message",
        [
            # mu(0) = 0.5: verified PASS with exit 0 when it was not checked
            ("[[1.0, 0.5], [10.0, 3.0]]", "species[1].growth.points[0]", "first node must be [0, 0]"),
            ("[[0.5, 0.0], [10.0, 3.0]]", "species[1].growth.points[0]", "first node must be [0, 0]"),
            # failed in break_even with exit 1 and no key or line
            ("[[0, 0], [1, 0.5], [2, 0.4], [10, 3]]", "species[1].growth.points[2]", "node rates must increase strictly"),
            ("[[0, 0], [1, 0.5], [2, 0.5]]", "species[1].growth.points[2]", "node rates must increase strictly"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "certificate", "simulate", "curves"])
    def test_rejected_with_exit_2_key_and_line(self, points, key, message, command, tmp_path, capsys):
        path = tmp_path / "table.yaml"
        path.write_text(_with_table(points))
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"input error: {key}: {message}" in err
        assert "(line 8)" in err

    def test_valid_table_parses(self, tmp_path):
        path = tmp_path / "table.yaml"
        path.write_text(_with_table("[[0.0, 0.0], [1.0, 0.5], [10.0, 3.0]]"))
        assert parse_scenario(str(path)).species[1][1].points[0] == (0.0, 0.0)
