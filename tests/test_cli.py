"""Scenario parsing, command dispatch, exit codes, and CSV emission."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostat_cep import Hill, InputError, Monod, Scenario, State, Table, order_species, parse_scenario, simulate
from chemostat_cep import cli, integrate
from chemostat_cep import scenario as scenario_mod
from chemostat_cep.cli import main, write_trajectory_csv
from chemostat_cep.errors import ParameterError
from chemostat_cep.scenario import Tolerances
from chemostat_cep.verify import scenario_digest

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
        assert [sid for sid, _ in sc.species] == ["sp1", "sp2", "sp3"]
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
            (lambda t: t.replace("[0.01, 0.01, 0.01]", "[0.01, -0.01, 0.01]"), "initial.x[1]: must be >= 0 (line 13)"),
            (lambda t: t.replace("  s: 10.0\n", "  s: -1.0\n"), "initial.s: must be >= 0 (line 12)"),
            (lambda t: t.replace("dilution: 1.0", "dilution: -1.0"), "params.dilution"),
            (lambda t: t.replace("s_in: 10.0", "s_in: 0.0"), "params.s_in"),
            (lambda t: t.replace("horizon: 80.0", "horizon: -3.0"), "horizon"),
            (
                lambda t: t.replace("horizon: 80.0", "horizon: 1e-321"),
                "horizon: must leave 2000 dense intervals a positive width, got 1e-321 (line 14)",
            ),
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

    def test_readme_schema_block_parses(self, tmp_path):
        # The documented schema is a valid scenario, so docs and parser agree.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario file format", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "schema.yaml"
        path.write_text(block)
        sc = parse_scenario(str(path))
        assert [g.kind for g in sc.growths] == ["monod", "hill", "table"]
        assert (sc.tolerances.rel_tol, sc.tolerances.abs_tol) == (1e-8, 1e-10)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_scenario(str(tmp_path / "nope.yaml"))

    def test_digest_is_stable_and_sensitive(self, canonical_file):
        a = parse_scenario(canonical_file)
        b = parse_scenario(canonical_file)
        assert scenario_digest(a) == scenario_digest(b)
        c = make_scenario(horizon=81.0)
        assert scenario_digest(c) != scenario_digest(a)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("canonical", "c086b25ccccc3dca17c25334658a4cc2653339099bba5acb18b36dde503b7fe6"),
            ("with_washout", "4c2a37c5efd812e05cd6f5b76e27ecd66096220b02d8b9f834b163ab4175f637"),
        ],
    )
    def test_digest_of_stored_scenarios_is_pinned(self, name, digest):
        # Reports carry the digest, so a payload change alters every report.
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.yaml"
        assert scenario_digest(parse_scenario(str(path))) == digest


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
        assert scenario_mod._YAML_LOADER is expected

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
        assert float(row[10]) == canonical_trajectory.states[k, 2] / canonical_trajectory.states[k, 1]

    def test_every_cell_roundtrips(self, monkeypatch):
        # shorter run, but every numeric cell must reproduce its float
        monkeypatch.setattr(integrate, "DENSE_INTERVALS", 100)
        traj = simulate(
            make_scenario().params,
            [Monod(3, 1), Monod(4, 2)],
            State(s=10.0, x=np.array([0.02, 0.01])),
            5.0,
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert len(rows) - 1 == 101
        ch = traj.channels
        for k, row in enumerate(rows[1:]):
            expected = [
                traj.times[k], traj.states[k, 0], traj.states[k, 1],
                traj.states[k, 2], ch.b[k], traj.states[k, 1] / ch.b[k], traj.states[k, 2] / ch.b[k],
                ch.m[k], traj.states[k, 2] / traj.states[k, 1],
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

    def test_ratios_empty_without_lead_species(self):
        # species 1 starts absent: no ratio is written, although x2 grows
        traj = simulate(
            make_scenario().params, [Monod(3, 1), Monod(4, 2)], State(s=10.0, x=np.array([0.0, 0.01])), 5.0
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        r2 = rows[0].index("r2")
        assert traj.states[-1, 2] > 0.01 and all(row[r2] == "" for row in rows[1:])


# --------------------------------------------------------------------------
# The per-cell writers that the block writers replaced, kept as oracles.


def _cell(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.17g}"


def _reference_trajectory_csv(traj) -> str:
    out = io.StringIO()
    n = traj.n_species
    header = ["t", "s"] + [f"x{i}" for i in range(1, n + 1)] + ["b"]
    header += [f"p{i}" for i in range(1, n + 1)] + ["m"]
    if n >= 2:
        header += [f"r{i}" for i in range(2, n + 1)]
    out.write(",".join(header) + "\n")
    ch = traj.channels
    lead_present = traj.states[0, 1] > 0.0
    for k in range(traj.times.size):
        row = [_cell(traj.times[k]), _cell(traj.states[k, 0])]
        row += [_cell(v) for v in traj.states[k, 1:]]
        row.append(_cell(ch.b[k]))
        row += [_cell(v / ch.b[k]) if ch.b[k] >= 1e-12 else "" for v in traj.states[k, 1:]]
        row.append(_cell(ch.m[k]))
        lead = traj.states[k, 1]
        with np.errstate(over="ignore"):  # x_i / x_1 overflows where x_1 underflows
            row += [_cell(v / lead) if lead_present and lead > 0.0 else "" for v in traj.states[k, 2:]]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _reference_growth_curves_csv(scenario, s_max=None, points=512) -> str:
    out = io.StringIO()
    ordered = order_species(scenario.species, scenario.params.d, scenario.params.s_in)
    lam_by_id = {rec.id: rec.lam for rec in ordered.records}
    if s_max is None:
        finite = [lam for lam in lam_by_id.values() if math.isfinite(lam)]
        s_max = max([scenario.params.s_in] + [1.5 * v for v in finite])
    out.write(f"# dilution = {_cell(scenario.params.d)}\n")
    for sid, _ in scenario.species:
        lam = lam_by_id[sid]
        out.write(f"# lambda_{sid} = {'inf' if math.isinf(lam) else _cell(lam)}\n")
    out.write(",".join(["s"] + [f"mu_{sid}" for sid, _ in scenario.species]) + "\n")
    grid = np.linspace(0.0, s_max, points + 1)
    curves = [g(grid) for _, g in scenario.species]
    for j, s in enumerate(grid):
        out.write(",".join([_cell(s)] + [_cell(c[j]) for c in curves]) + "\n")
    return out.getvalue()


MIXED_LAWS = [Monod(3.0, 1.0), Hill(4.0, 2.0, 2.5), Table(((0.0, 0.0), (1.0, 0.5), (10.0, 3.0)))]
_UNIT = make_scenario().params  # d = 1, s_in = 10

TRAJECTORY_CASES = {
    "no biomass": ([Monod(3, 1), Monod(4, 2)], (0.0, 0.0), 3.0, 5.0),
    "lead absent": ([Monod(3, 1), Monod(4, 2)], (0.0, 0.01), 10.0, 20.0),
    "one species": ([Monod(3, 1)], (0.1,), 1.0, 5.0),
    "one species washing out": ([Monod(0.5, 1)], (0.1,), 10.0, 1500.0),
    # x1 decays to subnormal levels, so x2 / x1 overflows to inf
    "lead washout": ([Monod(0.5, 1.0), Monod(3.0, 1.0)], (0.01, 0.01), 10.0, 1500.0),
    "hill/table mix": (MIXED_LAWS, (0.01, 0.01, 0.01), 10.0, 40.0),
}


def _trajectory_case(name):
    laws, x0, s0, horizon = TRAJECTORY_CASES[name]
    return simulate(_UNIT, laws, State(s=s0, x=np.array(x0)), horizon)


class TestCsvByteIdentity:
    """Both block writers reproduce the per-cell writers byte for byte."""

    @staticmethod
    def _written(traj) -> str:
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_CASES))
    def test_trajectory_cases(self, name):
        traj = _trajectory_case(name)
        assert self._written(traj) == _reference_trajectory_csv(traj)

    def test_cases_reach_the_special_cells(self):
        assert _trajectory_case("lead absent").states[0, 1] == 0.0
        # proportions are empty below the biomass floor 1e-12
        assert np.all(_trajectory_case("no biomass").states[:, 1:].sum(axis=1) < 1e-12)
        assert _trajectory_case("one species washing out").states[-1, 1] < 1e-12
        x = _trajectory_case("lead washout").states[:, 1:]
        with np.errstate(over="ignore"):
            r = x[:, 1:] / x[:, :1]
        assert np.isinf(r).sum() > 100 and np.all(x[:, 0] > 0.0)

    @pytest.mark.parametrize("block_rows", [1, 7, 256, 2001, 4096])
    def test_block_boundaries(self, canonical_trajectory, block_rows, monkeypatch):
        # 2001 rows: exact blocks for 1 and 2001, a remainder for 7 and 256, one short block for 4096
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        assert self._written(canonical_trajectory) == _reference_trajectory_csv(canonical_trajectory)

    @pytest.mark.parametrize("rows", [cli._BLOCK_ROWS + k for k in (-1, 0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1)])
    def test_row_counts_around_the_block_size(self, rows, monkeypatch):
        monkeypatch.setattr(integrate, "DENSE_INTERVALS", rows - 1)
        traj = _trajectory_case("hill/table mix")
        assert traj.times.size == rows
        assert self._written(traj) == _reference_trajectory_csv(traj)

    @pytest.mark.parametrize("points", [None, 16])
    def test_growth_curves(self, points, tmp_path):
        path = tmp_path / "mixed.yaml"
        path.write_text(
            CANONICAL_YAML.replace(
                "growth: {kind: monod, mu_max: 4.0, k: 2.0}", "growth: {kind: hill, mu_max: 4.0, k: 2.0, p: 2.5}"
            )
            .replace("growth: {kind: monod, mu_max: 5.0, k: 3.0}", "growth: {kind: table, points: [[0, 0], [1, 0.5], [10, 3]]}")
            .replace("  - id: sp1\n", "  - id: slow\n    growth: {kind: monod, mu_max: 0.5, k: 1.0}\n  - id: sp1\n")
            .replace("x: [0.01, 0.01, 0.01]", "x: [0.01, 0.01, 0.01, 0.01]")
        )
        out = tmp_path / "curves.csv"
        argv = ["curves", str(path), "-o", str(out)] + ([] if points is None else ["--points", str(points)])
        assert main(argv) == 0
        expected = _reference_growth_curves_csv(parse_scenario(str(path)), points=points or 512)
        assert "# lambda_slow = inf\n" in expected
        assert out.read_text() == expected


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
        text = out.read_text()
        report = json.loads(text)
        assert report["overall_pass"] is True
        assert report["certificate"]["status"] == "ok"
        assert any(c["id"] == "exclusion_stage_2" for c in report["claims"])
        assert text == json.dumps(report) + "\n"  # compact: one line, no indentation

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

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(CANONICAL_YAML.replace("sp1", "sp\xe9").encode("latin-1"))
        assert main(["verify", str(bad)]) == 2
        assert "input error: cannot read scenario file" in capsys.readouterr().err

    def test_exit_codes_are_exhaustive(self, canonical_file, tmp_path):
        # each command path returns one of {0, 1, 2}
        codes = set()
        codes.add(main(["verify", canonical_file]))
        codes.add(main(["verify", str(tmp_path / "absent.yaml")]))
        path = tmp_path / "washout.yaml"
        path.write_text(CANONICAL_YAML.replace("s_in: 10.0", "s_in: 0.4"))
        codes.add(main(["certificate", str(path)]))
        assert codes <= {0, 1, 2}


class TestParserReuse:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_successive_calls_parse_independently(self, canonical_file, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["curves", canonical_file, "-o", str(first), "--points", "16", "--s-max", "2"]) == 0
        assert main(["curves", canonical_file, "-o", str(second)]) == 0
        rows = [line for line in second.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 513 and rows[-1].split(",")[0] != "2"
        assert len(first.read_text().splitlines()) == 4 + 1 + 17
        cert = tmp_path / "cert.txt"
        assert main(["certificate", canonical_file, "--json", "-o", str(tmp_path / "cert.json")]) == 0
        assert main(["certificate", canonical_file, "-o", str(cert)]) == 0
        assert cert.read_text().startswith("status: ok")
        assert main(["verify", canonical_file]) == 0
        assert "overall: PASS" in capsys.readouterr().out


HILL_OVERFLOW_YAML = """\
params:
  dilution: 1.0
  s_in: 20.0
species:
  - id: fast
    growth: {kind: monod, mu_max: 3.0, k: 1.0}
  - id: steep_k
    growth: {kind: hill, mu_max: 2.0, k: 10.0, p: 600.0}
  - id: steep_s
    growth: {kind: hill, mu_max: 2.0, k: 2.8, p: 600.0}
initial:
  s: 20.0
  x: [0.01, 0.01, 0.01]
horizon: 60.0
"""


class TestHillOverflowScenario:
    """k**600 and s**600 overflow here; the laws saturate at mu_max instead."""

    @pytest.mark.parametrize(
        "command, head",
        [("verify", "{"), ("certificate", "status: ok\n"), ("simulate", "t,s,x1,"), ("curves", "# dilution")],
    )
    def test_runs_cleanly(self, command, head, tmp_path, capsys):
        path = tmp_path / "steep.yaml"
        path.write_text(HILL_OVERFLOW_YAML)
        out = tmp_path / "out"
        assert main([command, str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        assert text.startswith(head) and "nan" not in text
        if command == "verify":
            report = json.loads(text)
            assert report["certificate"]["status"] == "ok" and report["overall_pass"]
            assert all(claim["pass"] for claim in report["claims"])


BLOCK_HILL_YAML = """\
params:
  dilution: 1.0
  s_in: 10.0
species:
  - id: sp1
    growth:
      kind: hill
      mu_max: 3.0
      k: 1.0
      p: 2.0
initial:
  s: 10.0
  x: [0.01]
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("mu_max: 3.0", "mu_max: 0.0", "species[0].growth.mu_max: must be finite and > 0, got 0.0 (line 8)"),
        ("k: 1.0", "k: -1.0", "species[0].growth.k: must be finite and > 0, got -1.0 (line 9)"),
        ("p: 2.0", "p: 0.5", "species[0].growth.p: must be finite and >= 1, got 0.5 (line 10)"),
    ],
)
def test_law_parameter_refusal_names_its_key_and_line(old, new, message, tmp_path, capsys):
    # The law refuses the value; the parser names its key and its own line,
    # not the law's first line.
    path = tmp_path / "block.yaml"
    path.write_text(BLOCK_HILL_YAML.replace(old, new))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -1e-8, math.nan])
def test_tolerances_refused_at_construction(key, value):
    with pytest.raises(ParameterError) as exc:
        Tolerances(**{key: value})
    assert exc.value.field == key and exc.value.reason.startswith("must lie in (0, 1)")


@pytest.mark.parametrize("horizon", [-1.0, 0.0, math.inf, math.nan, 1e-321])
def test_scenario_horizon_refused_at_construction(horizon):
    with pytest.raises(ParameterError) as exc:
        make_scenario(horizon=horizon)
    assert exc.value.field == "horizon"


def _with_table(points: str) -> str:
    """The canonical scenario with sp2 (line 8) replaced by a table law."""
    return CANONICAL_YAML.replace(
        "growth: {kind: monod, mu_max: 4.0, k: 2.0}", f"growth: {{kind: table, points: {points}}}"
    )


class TestTableHypotheses:
    """mu(0) = 0 and strictly increasing node substrate values and rates are
    enforced at parse time."""

    @pytest.mark.parametrize(
        "points, key, message",
        [
            # mu(0) = 0.5: verified PASS with exit 0 when it was not checked
            ("[[1.0, 0.5], [10.0, 3.0]]", "species[1].growth.points[0]", "first node must be [0, 0]"),
            ("[[0.5, 0.0], [10.0, 3.0]]", "species[1].growth.points[0]", "first node must be [0, 0]"),
            # failed in break_even with exit 1 and no key or line
            ("[[0, 0], [1, 0.5], [2, 0.4], [10, 3]]", "species[1].growth.points[2]", "node rates must increase strictly"),
            ("[[0, 0], [1, 0.5], [2, 0.5]]", "species[1].growth.points[2]", "node rates must increase strictly"),
            # named the law but not the node before the parser checked it
            (
                "[[0, 0], [2, 1], [1, 2], [3, 3]]",
                "species[1].growth.points[2]",
                "node substrate values must increase strictly",
            ),
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


# --------------------------------------------------------------------------
# Malformed input: exit 2 with the key (or flag) and line, never a traceback.


@pytest.mark.parametrize(
    "old, new, key, line",
    [
        ("x: [0.01, 0.01, 0.01]", "x: [nan, 0.01, 0.01]", "initial.x[0]", 13),
        ("x: [0.01, 0.01, 0.01]", "x: [0.01, 0.01, inf]", "initial.x[2]", 13),
        ("  s: 10.0\n", "  s: inf\n", "initial.s", 12),
        ("dilution: 1.0", "dilution: inf", "params.dilution", 2),
        ("s_in: 10.0", "s_in: -inf", "params.s_in", 3),
        ("horizon: 80.0", "horizon: nan", "horizon", 14),
        ("mu_max: 3.0", "mu_max: inf", "species[0].growth.mu_max", 6),
        ("k: 2.0", "k: -inf", "species[1].growth.k", 8),
        ("rel_tol: 1.0e-8", "rel_tol: inf", "tolerances.rel_tol", 16),
        ("abs_tol: 1.0e-10", "abs_tol: nan", "tolerances.abs_tol", 17),
    ],
)
def test_non_finite_numbers_exit_2(old, new, key, line, tmp_path, capsys):
    path = tmp_path / "nonfinite.yaml"
    path.write_text(CANONICAL_YAML.replace(old, new))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {key}: expected a finite number" in err, err
    assert f"(line {line})" in err


@pytest.mark.parametrize(
    "key, value",
    [("eq_tol", "1.0e-9"), ("root_tol", "1.0e-12"), ("probe_factor", "1.0e6"), ("persistence_grace", "0.0"),
     ("grid_n", "2048"), ("dense_dt", "0.04"), ("eps_mass", "1.0e-6"), ("eps_washout", "1.0e-4"),
     ("eps_floor", "1.0e-3")],
)
def test_removed_option_keys_exit_2(key, value, tmp_path, capsys):
    # The options block went with its last key, so the block itself is the
    # unknown key.
    path = tmp_path / "removed.yaml"
    path.write_text(CANONICAL_YAML + f"options:\n  {key}: {value}\n")
    assert main(["verify", str(path)]) == 2
    assert "input error: options: unknown key (line 19)" in capsys.readouterr().err


def test_duplicate_top_level_key_exit_2(tmp_path, capsys):
    # a top-level key is named bare, as in every other top-level refusal,
    # at the line of its second occurrence
    path = tmp_path / "duplicate.yaml"
    path.write_text(CANONICAL_YAML + "params:\n  dilution: 2.0\n  s_in: 10.0\n")
    assert main(["verify", str(path)]) == 2
    assert "input error: params: duplicate key (line 18)" in capsys.readouterr().err


def test_non_mapping_root_exit_2(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    assert main(["verify", str(path)]) == 2
    assert "input error: scenario: expected a mapping (line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("eps_p", "1.0e-4"), ("eps_final", "1.0e-3")])
def test_removed_tolerance_keys_exit_2(key, value, tmp_path, capsys):
    # CANONICAL_YAML ends inside its tolerances block.
    path = tmp_path / "removed.yaml"
    path.write_text(CANONICAL_YAML + f"  {key}: {value}\n")
    assert main(["verify", str(path)]) == 2
    assert f"input error: tolerances.{key}: unknown key (line 18)" in capsys.readouterr().err


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a command ran on a scenario the parser should refuse")


@pytest.mark.parametrize("command", ["simulate", "verify", "certificate", "curves"])
def test_subnormal_horizon_exit_2(command, monkeypatch, tmp_path, capsys):
    # horizon / DENSE_INTERVALS underflows to 0: refused at parse time, so
    # no command runs and every one names the key and its line
    for name in ("cmd_simulate", "cmd_certificate", "cmd_verify", "cmd_curves"):
        monkeypatch.setattr(cli, name, _refuse_to_run)
    path = tmp_path / "tiny.yaml"
    path.write_text(CANONICAL_YAML.replace("horizon: 80.0", "horizon: 1e-321"))
    assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "input error: horizon: must leave 2000 dense intervals a positive width" in err, err
    assert "(line 14)" in err


def test_default_horizon_must_be_finite(tmp_path, capsys):
    path = tmp_path / "slow.yaml"
    path.write_text(CANONICAL_YAML.replace("dilution: 1.0", "dilution: 1e-310").replace("horizon: 80.0\n", ""))
    assert main(["simulate", str(path), "-o", str(tmp_path / "out.csv")]) == 2
    assert "input error: params.dilution: too small for the default horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "certificate", "curves"])
def test_probe_bound_must_be_finite(command, tmp_path, capsys):
    # PROBE_FACTOR * s_in would overflow to inf, which break_even refuses
    path = tmp_path / "huge.yaml"
    path.write_text(CANONICAL_YAML.replace("s_in: 10.0", "s_in: 1e303"))
    assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "input error: params.s_in: too large for the break-even probe bound" in err, err
    assert "(line 3)" in err


TWO_MONOD_YAML = """\
params: {dilution: 1.0, s_in: 10.0}
species:
  - id: sp1
    growth: {kind: monod, mu_max: 3.0, k: 1.0}
  - id: ID
    growth: {kind: monod, mu_max: 4.0, k: 2.0}
initial: {s: 10.0, x: [0.01, 0.01]}
"""


@pytest.mark.parametrize("sid", ['"a,b"', "'say \"hi\"'", '"tab\\tin"', '"new\\nline"', '"bell\\a"'])
def test_species_ids_that_break_csv_exit_2(sid, tmp_path, capsys):
    path = tmp_path / "ids.yaml"
    path.write_text(TWO_MONOD_YAML.replace("id: ID", f"id: {sid}"))
    assert main(["curves", str(path), "-o", str(tmp_path / "curves.csv")]) == 2
    err = capsys.readouterr().err
    assert "input error: species[1].id: " in err and "(line 5)" in err, err
    assert not (tmp_path / "curves.csv").exists()


def test_species_id_with_spaces_is_kept(tmp_path):
    path = tmp_path / "ids.yaml"
    path.write_text(TWO_MONOD_YAML.replace("id: ID", "id: slow grower"))
    assert [sid for sid, _ in parse_scenario(str(path)).species] == ["sp1", "slow grower"]


@pytest.mark.parametrize(
    "flag, value",
    [("--points", "-2"), ("--points", "0"), ("--points", "1.5"), ("--points", "16777217"),
     ("--points", "100000000000000000000"), ("--s-max", "-1"), ("--s-max", "0"), ("--s-max", "nan"),
     ("--s-max", "inf"), ("--s-max", "big")],
)
def test_curves_arguments_exit_2(flag, value, canonical_file, tmp_path, capsys, monkeypatch):
    # Only parsed: no grid is built, whatever the parser does.
    monkeypatch.setattr(cli, "cmd_curves", _refuse_to_run)
    with pytest.raises(SystemExit) as exc:
        main(["curves", canonical_file, "-o", str(tmp_path / "curves.csv"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected" in err and "Traceback" not in err, err
    assert len(err) < 1000  # the grid is not dumped into the message


def test_curves_points_upper_end_is_accepted(canonical_file):
    assert cli._build_parser().parse_args(["curves", canonical_file, "--points", "16777216"]).points == 2**24


# Any one leaf of this document is replaced, or dropped from its mapping or list.
VALID_DOC = {
    "params": {"dilution": 1.0, "s_in": 10.0},
    "species": [
        {"id": "m", "growth": {"kind": "monod", "mu_max": 3.0, "k": 1.0}},
        {"id": "h", "growth": {"kind": "hill", "mu_max": 4.0, "k": 2.0, "p": 2.0}},
        {"id": "t", "growth": {"kind": "table", "points": [[0.0, 0.0], [1.0, 0.5], [10.0, 3.0]]}},
    ],
    "initial": {"s": 10.0, "x": [0.01, 0.01, 0.01]},
    "horizon": 80.0,
    "tolerances": {"rel_tol": 1e-8, "abs_tol": 1e-10},
}


def _leaf_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = list(_leaf_paths(VALID_DOC))
_MISSING = object()
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "5e-324"]),
)
_REPLACEMENTS = st.one_of(
    _NUMBERS,
    st.text(max_size=8),
    st.lists(st.one_of(_NUMBERS, st.text(max_size=4)), max_size=3),
    st.just(_MISSING),
)


@given(leaf=st.sampled_from(LEAVES), value=_REPLACEMENTS)
@settings(max_examples=200, deadline=None)
def test_parser_returns_a_scenario_or_raises_input_error(leaf, value, tmp_path_factory):
    doc = json.loads(json.dumps(VALID_DOC))
    parent = doc
    for key in leaf[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[leaf[-1]]
    else:
        parent[leaf[-1]] = value
    text = yaml.safe_dump(doc)
    path = tmp_path_factory.mktemp("doc") / "scenario.yaml"
    path.write_text(text)
    try:
        parsed = parse_scenario(str(path))
    except InputError as exc:
        if _names_its_own_key(leaf):
            # safe_dump gives each value its own line; a dropped key is
            # named at the line of the mapping that lost it.
            node_path = leaf[:-1] if value is _MISSING else leaf
            line = _node_line(text, node_path)
            assert exc.field == _key_path(leaf), str(exc)
            assert str(exc).endswith(f" (line {line})"), str(exc)
        return
    assert isinstance(parsed, Scenario)


def _names_its_own_key(leaf) -> bool:
    """Whether a refusal of this leaf names the leaf itself.

    A table node's refusal may name a neighbouring node, and an id's a
    later duplicate; a changed kind asks for other parameters, and a
    dropped density changes the count.
    """
    if leaf[0] == "species":
        return leaf[2:3] == ("growth",) and leaf[3] in ("mu_max", "k", "p")
    return leaf[0] in ("params", "horizon", "tolerances") or leaf == ("initial", "s")


def _key_path(leaf) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else (f".{k}" if i else k) for i, k in enumerate(leaf))


def _node_line(text: str, path) -> int:
    node = yaml.compose(text)
    for key in path:
        node = node.value[key] if isinstance(key, int) else next(v for k, v in node.value if k.value == key)
    return node.start_mark.line + 1
