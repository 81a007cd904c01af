"""Scenario ingestion, command dispatch, and file emission.

Scenario files are YAML mappings with a fixed schema (documented in the
README).  Parsing walks the YAML node tree directly so every validation
error can name the offending key and line.  Exit codes: 0 on success or an
all-pass report, 1 on failed claims, certificate refusal, or runtime errors,
2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np
import yaml

from . import certificate as certificate_mod
from .dynamics import ChemostatParams, State
from .errors import (
    CertificateError,
    ChemostatError,
    InputError,
    WashoutError,
)
from .growth import GrowthFunction, Hill, Monod, Table, order_species
from .integrate import Trajectory, simulate
from .verify import run_report

_ENV_PREFIX = "CHEMOSTAT_CEP_"
# libyaml's composer when PyYAML was built with it; its nodes carry the same
# tags, values and line marks as the pure-Python one's.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances a scenario may override.

    Defaults can also be overridden through environment variables
    (CHEMOSTAT_CEP_REL_TOL and friends); explicit file values always win.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    eps_p: float = 1e-4
    eps_final: float = 1e-3


@dataclass(frozen=True)
class Options:
    """Secondary knobs: grid sizes, sampling, equality and probe settings."""

    grid_n: int = 2048
    dense_dt: float | None = None
    eq_tol: float = 1e-9
    root_tol: float = 1e-12
    probe_factor: float = 1e6
    persistence_grace: float = 0.0
    eps_mass: float = 1e-6
    eps_washout: float = 1e-4
    eps_floor: float = 1e-3


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description."""

    params: ChemostatParams
    species: tuple[tuple[str, GrowthFunction], ...]
    initial: State
    horizon: float
    tolerances: Tolerances = field(default_factory=Tolerances)
    options: Options = field(default_factory=Options)
    source: str = "<memory>"

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sid for sid, _ in self.species)

    @property
    def growths(self) -> tuple[GrowthFunction, ...]:
        return tuple(g for _, g in self.species)

    def digest(self) -> str:
        """Stable content hash of everything that affects the run."""
        payload = {
            "d": self.params.d,
            "s_in": self.params.s_in,
            "species": [
                [sid, g.kind, sorted((k, v) for k, v in vars(g).items() if not k.startswith("_"))]
                for sid, g in self.species
            ],
            "initial": [self.initial.s, list(map(float, self.initial.x))],
            "horizon": self.horizon,
            "tolerances": vars(self.tolerances),
            "options": vars(self.options),
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# Scenario parsing: walk the YAML node tree so errors carry key and line.


def _line(node) -> int:
    return node.start_mark.line + 1


def _fail(key: str, node, message: str) -> InputError:
    return InputError(f"{key}: {message} (line {_line(node)})")


def _mapping(node, key: str) -> dict:
    if not isinstance(node, yaml.MappingNode):
        raise _fail(key, node, "expected a mapping")
    out = {}
    for k_node, v_node in node.value:
        k = str(k_node.value)
        if k in out:
            raise _fail(f"{key}.{k}", k_node, "duplicate key")
        out[k] = v_node
    return out


def _sequence(node, key: str) -> list:
    if not isinstance(node, yaml.SequenceNode):
        raise _fail(key, node, "expected a list")
    return list(node.value)


def _float(node, key: str) -> float:
    if not isinstance(node, yaml.ScalarNode):
        raise _fail(key, node, "expected a number")
    try:
        return float(node.value)
    except ValueError:
        raise _fail(key, node, f"expected a number, got {node.value!r}") from None


def _int(node, key: str) -> int:
    v = _float(node, key)
    if v != int(v):
        raise _fail(key, node, f"expected an integer, got {node.value!r}")
    return int(v)


def _str(node, key: str) -> str:
    if not isinstance(node, yaml.ScalarNode):
        raise _fail(key, node, "expected a string")
    return str(node.value)


def _require(mapping: dict, key: str, parent: str, parent_node):
    if key not in mapping:
        raise _fail(f"{parent}.{key}" if parent else key, parent_node, "missing required key")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: Iterable[str], parent: str, parent_node):
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise _fail(f"{parent}.{key}" if parent else key, mapping[key], "unknown key")


def _growth_from_node(node, key: str) -> GrowthFunction:
    m = _mapping(node, key)
    kind = _str(_require(m, "kind", key, node), f"{key}.kind")
    try:
        if kind == "monod":
            _reject_unknown(m, ("kind", "mu_max", "k"), key, node)
            return Monod(
                mu_max=_float(_require(m, "mu_max", key, node), f"{key}.mu_max"),
                k=_float(_require(m, "k", key, node), f"{key}.k"),
            )
        if kind == "hill":
            _reject_unknown(m, ("kind", "mu_max", "k", "p"), key, node)
            return Hill(
                mu_max=_float(_require(m, "mu_max", key, node), f"{key}.mu_max"),
                k=_float(_require(m, "k", key, node), f"{key}.k"),
                p=_float(_require(m, "p", key, node), f"{key}.p"),
            )
        if kind == "table":
            _reject_unknown(m, ("kind", "points"), key, node)
            pts_node = _require(m, "points", key, node)
            p_nodes = _sequence(pts_node, f"{key}.points")
            pts = []
            for i, p_node in enumerate(p_nodes):
                pair = _sequence(p_node, f"{key}.points[{i}]")
                if len(pair) != 2:
                    raise _fail(f"{key}.points[{i}]", p_node, "expected a [s, mu] pair")
                pts.append(
                    (
                        _float(pair[0], f"{key}.points[{i}][0]"),
                        _float(pair[1], f"{key}.points[{i}][1]"),
                    )
                )
            table = Table(points=tuple(pts))
            # The paper's hypotheses, which Table itself leaves to callers.
            if pts[0] != (0.0, 0.0):
                raise _fail(f"{key}.points[0]", p_nodes[0], "first node must be [0, 0], so that mu(0) = 0")
            for i in range(1, len(pts)):
                if not pts[i][1] > pts[i - 1][1]:
                    raise _fail(f"{key}.points[{i}]", p_nodes[i], "node rates must increase strictly")
            return table
    except ChemostatError as exc:
        if isinstance(exc, InputError):
            raise
        raise _fail(key, node, str(exc)) from exc
    raise _fail(f"{key}.kind", node, f"unknown growth kind {kind!r}")


def _env_default(name: str, fallback: float) -> float:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"environment variable {_ENV_PREFIX + name}: expected a number, got {raw!r}") from None


def _env_tolerances() -> Tolerances:
    base = Tolerances()
    return Tolerances(
        rel_tol=_env_default("REL_TOL", base.rel_tol),
        abs_tol=_env_default("ABS_TOL", base.abs_tol),
        eps_p=_env_default("EPS_P", base.eps_p),
        eps_final=_env_default("EPS_FINAL", base.eps_final),
    )


def parse_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file.

    Raises :class:`InputError` naming the offending key and line for every
    syntactic or semantic defect.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            root = yaml.compose(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise InputError(f"cannot read scenario file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InputError(f"invalid YAML in {path!r}: {exc}") from exc
    if root is None:
        raise InputError(f"scenario file {path!r} is empty")

    top = _mapping(root, "scenario")
    _reject_unknown(
        top,
        ("params", "species", "initial", "horizon", "tolerances", "options"),
        "",
        root,
    )

    params_node = _require(top, "params", "", root)
    pm = _mapping(params_node, "params")
    _reject_unknown(pm, ("dilution", "s_in"), "params", params_node)
    d = _float(_require(pm, "dilution", "params", params_node), "params.dilution")
    s_in = _float(_require(pm, "s_in", "params", params_node), "params.s_in")
    if d <= 0.0 or not math.isfinite(d):
        raise _fail("params.dilution", pm["dilution"], "must be finite and > 0")
    if s_in <= 0.0 or not math.isfinite(s_in):
        raise _fail("params.s_in", pm["s_in"], "must be finite and > 0")
    params = ChemostatParams(d=d, s_in=s_in)

    species_node = _require(top, "species", "", root)
    species: list[tuple[str, GrowthFunction]] = []
    seen = set()
    entries = _sequence(species_node, "species")
    if not entries:
        raise _fail("species", species_node, "need at least one species")
    for i, s_node in enumerate(entries):
        sm = _mapping(s_node, f"species[{i}]")
        _reject_unknown(sm, ("id", "growth"), f"species[{i}]", s_node)
        sid = _str(_require(sm, "id", f"species[{i}]", s_node), f"species[{i}].id")
        if sid in seen:
            raise _fail(f"species[{i}].id", sm["id"], f"duplicate id {sid!r}")
        seen.add(sid)
        growth = _growth_from_node(
            _require(sm, "growth", f"species[{i}]", s_node), f"species[{i}].growth"
        )
        species.append((sid, growth))

    initial_node = _require(top, "initial", "", root)
    im = _mapping(initial_node, "initial")
    _reject_unknown(im, ("s", "x"), "initial", initial_node)
    s0 = _float(_require(im, "s", "initial", initial_node), "initial.s")
    x_nodes = _sequence(_require(im, "x", "initial", initial_node), "initial.x")
    if len(x_nodes) != len(species):
        raise _fail(
            "initial.x",
            im["x"],
            f"expected {len(species)} densities for {len(species)} species, got {len(x_nodes)}",
        )
    x0 = [_float(n, f"initial.x[{j}]") for j, n in enumerate(x_nodes)]
    if s0 < 0.0 or any(v < 0.0 for v in x0):
        raise _fail("initial", initial_node, "initial state must be non-negative")
    initial = State(s=s0, x=np.array(x0))

    if "horizon" in top:
        horizon = _float(top["horizon"], "horizon")
        if horizon <= 0.0 or not math.isfinite(horizon):
            raise _fail("horizon", top["horizon"], "must be finite and > 0")
    else:
        horizon = 100.0 / d

    tols = _env_tolerances()
    if "tolerances" in top:
        tm = _mapping(top["tolerances"], "tolerances")
        allowed = ("rel_tol", "abs_tol", "eps_p", "eps_final")
        _reject_unknown(tm, allowed, "tolerances", top["tolerances"])
        values = {k: _float(tm[k], f"tolerances.{k}") for k in allowed if k in tm}
        for k in ("rel_tol", "abs_tol"):
            if k in values and not 0.0 < values[k] < 1.0:
                raise _fail(f"tolerances.{k}", tm[k], "must lie in (0, 1)")
        for k in ("eps_p", "eps_final"):
            if k in values and values[k] <= 0.0:
                raise _fail(f"tolerances.{k}", tm[k], "must be > 0")
        tols = Tolerances(**{**vars(tols), **values})

    opts = Options()
    if "options" in top:
        om = _mapping(top["options"], "options")
        allowed = (
            "grid_n",
            "dense_dt",
            "eq_tol",
            "root_tol",
            "probe_factor",
            "persistence_grace",
            "eps_mass",
            "eps_washout",
            "eps_floor",
        )
        _reject_unknown(om, allowed, "options", top["options"])
        values: dict = {}
        if "grid_n" in om:
            values["grid_n"] = _int(om["grid_n"], "options.grid_n")
            if values["grid_n"] < 8:
                raise _fail("options.grid_n", om["grid_n"], "must be >= 8")
        for k in allowed[1:]:
            if k in om:
                values[k] = _float(om[k], f"options.{k}")
                if k != "persistence_grace" and values[k] <= 0.0:
                    raise _fail(f"options.{k}", om[k], "must be > 0")
                if k == "persistence_grace" and values[k] < 0.0:
                    raise _fail(f"options.{k}", om[k], "must be >= 0")
        opts = Options(**{**vars(opts), **values})

    return Scenario(
        params=params,
        species=tuple(species),
        initial=initial,
        horizon=horizon,
        tolerances=tols,
        options=opts,
        source=str(path),
    )


# --------------------------------------------------------------------------
# Emission helpers.


# Rows per formatted block: one block's text is alive at a time, so memory
# does not grow with the number of rows.
_BLOCK_ROWS = 256


def _write_rows(out: IO[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-D (one column) or 2-D arrays side by side as CSV rows.

    ``%.17g`` gives the bytes of ``f"{v:.17g}"``, ``inf`` included, so a
    re-read reproduces every float.  ``nan`` is the only token with those
    letters, so one replace per block leaves the NaN cells empty.
    """
    cols = [c if c.ndim == 2 else c[:, None] for c in columns]
    row = ",".join(["%.17g"] * sum(c.shape[1] for c in cols)) + "\n"
    for i in range(0, cols[0].shape[0], _BLOCK_ROWS):
        block = np.hstack([c[i : i + _BLOCK_ROWS] for c in cols])
        text = (row * block.shape[0]) % tuple(block.ravel().tolist())
        out.write(text.replace("nan", ""))


def write_trajectory_csv(traj: Trajectory, out: IO[str]) -> None:
    """Write the dense trajectory with derived channels as CSV.

    Column layout: t, s, x1..xn, b, p1..pn, m, and r2..rn when n >= 2.
    Values use 17 significant digits so a re-read reproduces the floats
    exactly; undefined channel entries are left empty.
    """
    n = traj.n_species
    header = ["t", "s"] + [f"x{i}" for i in range(1, n + 1)] + ["b"]
    header += [f"p{i}" for i in range(1, n + 1)] + ["m"]
    if n >= 2:
        header += [f"r{i}" for i in range(2, n + 1)]
    out.write(",".join(header) + "\n")

    ch = traj.channels
    r = ch.r if ch.r is not None else np.full((traj.times.size, n - 1), np.nan)
    _write_rows(out, [traj.times, traj.states, ch.b, ch.p, ch.m, r])


def write_growth_curves_csv(scenario: Scenario, out: IO[str], *, s_max: float | None = None, points: int = 512) -> None:
    """Tabulate every growth law (and break-even levels) on a substrate grid."""
    opt = scenario.options
    ordered = order_species(
        scenario.species,
        scenario.params.d,
        eq_tol=opt.eq_tol,
        root_tol=opt.root_tol,
        s_probe_max=opt.probe_factor * scenario.params.s_in,
    )
    lam_by_id = {rec.id: rec.lam for rec in ordered.records}
    if s_max is None:
        finite = [lam for lam in lam_by_id.values() if math.isfinite(lam)]
        s_max = max([scenario.params.s_in] + [1.5 * v for v in finite])
    out.write("# dilution = %.17g\n" % scenario.params.d)
    for sid, _ in scenario.species:
        out.write("# lambda_%s = %.17g\n" % (sid, lam_by_id[sid]))
    out.write(",".join(["s"] + [f"mu_{sid}" for sid, _ in scenario.species]) + "\n")
    grid = np.linspace(0.0, s_max, points + 1)
    _write_rows(out, [grid] + [g(grid) for _, g in scenario.species])


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(path: str | None, writer) -> None:
    out, close = _open_out(path)
    try:
        writer(out)
    finally:
        if close:
            out.close()


# --------------------------------------------------------------------------
# Commands.


def cmd_simulate(scenario: Scenario, out_csv: str | None) -> int:
    traj = simulate(
        scenario.params,
        scenario.growths,
        scenario.initial,
        scenario.horizon,
        rel_tol=scenario.tolerances.rel_tol,
        abs_tol=scenario.tolerances.abs_tol,
        dense_dt=scenario.options.dense_dt,
    )
    _emit(out_csv, lambda fh: write_trajectory_csv(traj, fh))
    return 0


def cmd_certificate(scenario: Scenario, out: str | None, as_json: bool = False) -> int:
    ordered = order_species(
        scenario.species,
        scenario.params.d,
        eq_tol=scenario.options.eq_tol,
        root_tol=scenario.options.root_tol,
        s_probe_max=scenario.options.probe_factor * scenario.params.s_in,
    )
    try:
        cert = certificate_mod.build_certificate(
            ordered,
            scenario.params.d,
            scenario.params.s_in,
            grid_n=scenario.options.grid_n,
        )
    except WashoutError as exc:
        _emit(out, lambda fh: fh.write(f"status: refused\nreason: {exc}\n"))
        return 1
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        _emit(out, lambda fh: fh.write(json.dumps(cert.to_dict(), indent=2) + "\n"))
    else:
        _emit(out, lambda fh: fh.write(cert.to_text()))
    return 0


def cmd_verify(scenario: Scenario, out: str | None) -> int:
    report = run_report(scenario)
    sys.stdout.write(report.to_text())
    if out is not None:
        _emit(out, lambda fh: fh.write(json.dumps(report.to_dict(), indent=2) + "\n"))
    return 0 if report.overall_pass else 1


def cmd_curves(scenario: Scenario, out: str | None, s_max: float | None, points: int) -> int:
    _emit(out, lambda fh: write_growth_curves_csv(scenario, fh, s_max=s_max, points=points))
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemostat-cep",
        description=(
            "Simulate n-species chemostat competition and verify the "
            "competitive-exclusion outcome against a computed certificate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario and emit a trajectory CSV")
    p_sim.add_argument("scenario")
    p_sim.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")

    p_cert = sub.add_parser("certificate", help="compute the exclusion certificate")
    p_cert.add_argument("scenario")
    p_cert.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_cert.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_ver = sub.add_parser("verify", help="simulate and check every claim")
    p_ver.add_argument("scenario")
    p_ver.add_argument("-o", "--output", default=None, help="write the JSON report here")

    p_cur = sub.add_parser("curves", help="tabulate growth curves for plotting")
    p_cur.add_argument("scenario")
    p_cur.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
    p_cur.add_argument("--s-max", type=float, default=None, help="grid upper end")
    p_cur.add_argument("--points", type=int, default=512, help="grid intervals (default 512)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return cmd_simulate(scenario, args.output)
        if args.command == "certificate":
            return cmd_certificate(scenario, args.output, as_json=args.json)
        if args.command == "verify":
            return cmd_verify(scenario, args.output)
        if args.command == "curves":
            return cmd_curves(scenario, args.output, args.s_max, args.points)
    except ChemostatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
