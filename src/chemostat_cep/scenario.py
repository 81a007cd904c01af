"""Scenario types and the scenario-file parser.

Scenario files are YAML mappings with a fixed schema (documented in the
README).  Parsing walks the YAML node tree directly so every validation
error can name the offending key and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import yaml

from .dynamics import ChemostatParams, State
from .errors import ChemostatError, InputError
from .growth import PROBE_FACTOR, GrowthFunction, Hill, Monod, Table

# libyaml's composer when PyYAML was built with it; its nodes carry the same
# tags, values and line marks as the pure-Python one's.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Tolerances:
    """The integrator tolerances, the only numerical settings a scenario sets."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description."""

    params: ChemostatParams
    species: tuple[tuple[str, GrowthFunction], ...]
    initial: State
    horizon: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def growths(self) -> tuple[GrowthFunction, ...]:
        return tuple(g for _, g in self.species)


# --------------------------------------------------------------------------
# Node helpers: walk the YAML node tree so errors carry key and line.


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
    """A finite number: no schema key takes nan or an infinity."""
    if not isinstance(node, yaml.ScalarNode):
        raise _fail(key, node, "expected a number")
    try:
        v = float(node.value)
    except ValueError:
        raise _fail(key, node, f"expected a number, got {node.value!r}") from None
    if not math.isfinite(v):
        raise _fail(key, node, f"expected a finite number, got {node.value!r}")
    return v


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
            # Table refuses these too; checked here first to name the node.
            if pts and pts[0] != (0.0, 0.0):
                raise _fail(f"{key}.points[0]", p_nodes[0], "first node must be [0, 0], so that mu(0) = 0")
            for i in range(1, len(pts)):
                if not pts[i][0] > pts[i - 1][0]:
                    raise _fail(f"{key}.points[{i}]", p_nodes[i], "node substrate values must increase strictly")
                if not pts[i][1] > pts[i - 1][1]:
                    raise _fail(f"{key}.points[{i}]", p_nodes[i], "node rates must increase strictly")
            return Table(points=tuple(pts))
    except ChemostatError as exc:
        if isinstance(exc, InputError):
            raise
        raise _fail(key, node, str(exc)) from exc
    raise _fail(f"{key}.kind", node, f"unknown growth kind {kind!r}")


def parse_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file.

    Raises :class:`InputError` naming the offending key and line for every
    syntactic or semantic defect.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            root = yaml.compose(fh, Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read scenario file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InputError(f"invalid YAML in {path!r}: {exc}") from exc
    if root is None:
        raise InputError(f"scenario file {path!r} is empty")

    top = _mapping(root, "scenario")
    _reject_unknown(
        top,
        ("params", "species", "initial", "horizon", "tolerances"),
        "",
        root,
    )

    params_node = _require(top, "params", "", root)
    pm = _mapping(params_node, "params")
    _reject_unknown(pm, ("dilution", "s_in"), "params", params_node)
    d = _float(_require(pm, "dilution", "params", params_node), "params.dilution")
    s_in = _float(_require(pm, "s_in", "params", params_node), "params.s_in")
    if d <= 0.0:
        raise _fail("params.dilution", pm["dilution"], "must be > 0")
    if s_in <= 0.0:
        raise _fail("params.s_in", pm["s_in"], "must be > 0")
    if not math.isfinite(PROBE_FACTOR * s_in):
        raise _fail("params.s_in", pm["s_in"], f"too large for the break-even probe bound {PROBE_FACTOR:g} * s_in")
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
        # Ids are written unquoted into CSV headers and comma-joined lists.
        if not sid.isprintable() or "," in sid or '"' in sid:
            raise _fail(f"species[{i}].id", sm["id"], f"id {sid!r} must be printable, without ',' or '\"'")
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
        if horizon <= 0.0:
            raise _fail("horizon", top["horizon"], "must be > 0")
    else:
        horizon = 100.0 / d
        if not math.isfinite(horizon):
            raise _fail("params.dilution", pm["dilution"], "too small for the default horizon 100 / dilution")

    tols = Tolerances()
    if "tolerances" in top:
        tm = _mapping(top["tolerances"], "tolerances")
        allowed = ("rel_tol", "abs_tol")
        _reject_unknown(tm, allowed, "tolerances", top["tolerances"])
        values = {k: _float(tm[k], f"tolerances.{k}") for k in allowed if k in tm}
        for k, v in values.items():
            if not 0.0 < v < 1.0:
                raise _fail(f"tolerances.{k}", tm[k], "must lie in (0, 1)")
        tols = Tolerances(**values)

    return Scenario(
        params=params,
        species=tuple(species),
        initial=initial,
        horizon=horizon,
        tolerances=tols,
    )
