"""Scenario types and the scenario-file parser.

Scenario files are YAML mappings with a fixed schema (documented in the
README).  Parsing walks the YAML node tree directly against the schema,
and each type it builds checks its own hypotheses and ranges, so every
refusal names the offending key and the line of its node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import yaml

from .dynamics import DENSE_INTERVALS, ChemostatParams, State
from .errors import DomainError, InputError, ParameterError, require_positive
from .growth import PROBE_FACTOR, GrowthFunction, Hill, Monod, Table

# libyaml's composer when PyYAML was built with it; its nodes carry the same
# tags, values and line marks as the pure-Python one's.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Tolerances:
    """The integrator tolerances, the only numerical settings a scenario sets."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"must lie in (0, 1), got {v!r}", field=name)


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description."""

    params: ChemostatParams
    species: tuple[tuple[str, GrowthFunction], ...]
    initial: State
    horizon: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        require_positive(self, "horizon")
        # a subnormal horizon, such as 1e-321, divides into intervals of width 0
        if not self.horizon / DENSE_INTERVALS > 0.0:
            raise ParameterError(
                f"must leave {DENSE_INTERVALS} dense intervals a positive width, got {self.horizon!r}", field="horizon"
            )

    @property
    def growths(self) -> tuple[GrowthFunction, ...]:
        return tuple(g for _, g in self.species)


# --------------------------------------------------------------------------
# Node helpers: walk the YAML node tree so errors carry key and line.


def _line(node) -> int:
    return node.start_mark.line + 1


def _fail(key: str, node, message: str) -> InputError:
    return InputError(f"{message} (line {_line(node)})", field=key)


def _mapping(node, key: str) -> dict:
    """The keys of a mapping node; ``key`` is "" for the root, which a refusal names ``scenario``."""
    if not isinstance(node, yaml.MappingNode):
        raise _fail(key or "scenario", node, "expected a mapping")
    out = {}
    for k_node, v_node in node.value:
        k = str(k_node.value)
        if k in out:
            raise _fail(f"{key}.{k}" if key else k, k_node, "duplicate key")
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


def _points(node, key: str) -> tuple[tuple[float, float], ...]:
    """A table law's nodes: a list of [s, mu] pairs."""
    pts = []
    for i, p_node in enumerate(_sequence(node, key)):
        pair = _sequence(p_node, f"{key}[{i}]")
        if len(pair) != 2:
            raise _fail(f"{key}[{i}]", p_node, "expected a [s, mu] pair")
        pts.append((_float(pair[0], f"{key}[{i}][0]"), _float(pair[1], f"{key}[{i}][1]")))
    return tuple(pts)


def _require(mapping: dict, key: str, parent: str, parent_node):
    if key not in mapping:
        raise _fail(f"{parent}.{key}" if parent else key, parent_node, "missing required key")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: Iterable[str], parent: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise _fail(f"{parent}.{key}" if parent else key, mapping[key], "unknown key")


# The growth laws by their ``kind``; each law's fields are its YAML keys.
_LAWS = {law.kind: law for law in (Monod, Hill, Table)}

# The fields whose YAML key is another name.
_YAML_KEYS = {"d": "dilution"}


def _build(cls, key: str, nodes: dict, /, **values):
    """``cls(**values)``, the type checking its own hypotheses and ranges.

    ``nodes`` maps the YAML keys under ``key`` to their nodes.  A field the
    type refuses, such as ``d`` or ``points[2]``, becomes an
    :class:`InputError` that names its key path and the line of its node.
    """
    try:
        return cls(**values)
    except (ParameterError, DomainError) as exc:
        name, bracket, index = exc.field.partition("[")
        name = _YAML_KEYS.get(name, name)
        node = nodes[name]
        if bracket:
            node = node.value[int(index.rstrip("]"))]
        path = f"{key}.{name}" if key else name
        raise _fail(path + bracket + index, node, exc.reason) from exc


def _growth_from_node(node, key: str) -> GrowthFunction:
    m = _mapping(node, key)
    kind_node = _require(m, "kind", key, node)
    law = _LAWS.get(_str(kind_node, f"{key}.kind"))
    if law is None:
        raise _fail(f"{key}.kind", kind_node, f"unknown growth kind {kind_node.value!r}")
    names = [f.name for f in fields(law)]
    _reject_unknown(m, ("kind", *names), key)
    read = _points if law is Table else _float
    return _build(law, key, m, **{n: read(_require(m, n, key, node), f"{key}.{n}") for n in names})


def parse_scenario(path: str) -> Scenario:
    """Read a scenario file, walking its YAML nodes against the schema.

    The walk checks shapes, keys, number syntax, ids and the density count;
    each type it builds checks its own hypotheses and ranges.  Raises
    :class:`InputError` naming the offending key and line for every defect.
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

    top = _mapping(root, "")
    _reject_unknown(top, ("params", "species", "initial", "horizon", "tolerances"), "")

    params_node = _require(top, "params", "", root)
    pm = _mapping(params_node, "params")
    _reject_unknown(pm, ("dilution", "s_in"), "params")
    d = _float(_require(pm, "dilution", "params", params_node), "params.dilution")
    s_in = _float(_require(pm, "s_in", "params", params_node), "params.s_in")
    params = _build(ChemostatParams, "params", pm, d=d, s_in=s_in)
    if not math.isfinite(PROBE_FACTOR * s_in):
        raise _fail("params.s_in", pm["s_in"], f"too large for the break-even probe bound {PROBE_FACTOR:g} * s_in")

    entries = _sequence(_require(top, "species", "", root), "species")
    if not entries:
        raise _fail("species", top["species"], "need at least one species")
    species: dict[str, GrowthFunction] = {}
    for i, s_node in enumerate(entries):
        key = f"species[{i}]"
        sm = _mapping(s_node, key)
        _reject_unknown(sm, ("id", "growth"), key)
        sid = _str(_require(sm, "id", key, s_node), f"{key}.id")
        # Ids are written unquoted into CSV headers and comma-joined lists.
        if not sid.isprintable() or "," in sid or '"' in sid:
            raise _fail(f"{key}.id", sm["id"], f"id {sid!r} must be printable, without ',' or '\"'")
        if sid in species:
            raise _fail(f"{key}.id", sm["id"], f"duplicate id {sid!r}")
        species[sid] = _growth_from_node(_require(sm, "growth", key, s_node), f"{key}.growth")

    initial_node = _require(top, "initial", "", root)
    im = _mapping(initial_node, "initial")
    _reject_unknown(im, ("s", "x"), "initial")
    s0 = _float(_require(im, "s", "initial", initial_node), "initial.s")
    x_nodes = _sequence(_require(im, "x", "initial", initial_node), "initial.x")
    if len(x_nodes) != len(species):
        n = len(species)
        raise _fail("initial.x", im["x"], f"expected {n} densities for {n} species, got {len(x_nodes)}")
    x0 = [_float(x_node, f"initial.x[{j}]") for j, x_node in enumerate(x_nodes)]
    initial = _build(State, "initial", im, s=s0, x=x0)

    if "horizon" in top:
        horizon = _float(top["horizon"], "horizon")
    else:
        horizon = 100.0 / d
        if not math.isfinite(horizon):
            raise _fail("params.dilution", pm["dilution"], "too small for the default horizon 100 / dilution")

    tm = _mapping(top["tolerances"], "tolerances") if "tolerances" in top else {}
    _reject_unknown(tm, ("rel_tol", "abs_tol"), "tolerances")
    tols = _build(Tolerances, "tolerances", tm, **{k: _float(v, f"tolerances.{k}") for k, v in tm.items()})

    values = dict(params=params, species=tuple(species.items()), initial=initial, horizon=horizon, tolerances=tols)
    return _build(Scenario, "", top, **values)
