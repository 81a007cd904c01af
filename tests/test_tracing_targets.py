"""The benchmark's traced mode finds, in the program, every name it wraps.

``perfbench/tracing.py`` replaces functions in the module where their
caller looks them up (``cli.parse_scenario``, ``verify.order_species``, ...).
A name moved or deleted under ``src/`` would silently drop a layer from the
traced metrics, so these tests tie the two together.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import chemostat_cep.cli  # noqa: F401  (loads every module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = ("cli", "growth", "certificate", "dynamics", "integrate", "verify")


def _tracer():
    # Executed from its source rather than imported, so nothing is written
    # next to the benchmark (no bytecode cache).
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    return tracing.Tracer({m: sys.modules[f"chemostat_cep.{m}"] for m in MODULES})


def _lookup(owner, attr):
    # as the tracer looks a name up: a class's own attribute, or a module's
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_tracing_target_resolves():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in _tracer().targets() if _lookup(owner, attr) is None]
    assert missing == []


def test_traced_verify_reaches_the_command_layers(capsys):
    tracer = _tracer()
    originals = [(owner, attr, _lookup(owner, attr)) for owner, attr in tracer.targets()]
    code = tracer.run(0, lambda: chemostat_cep.cli.main(["verify", str(ROOT / "scenarios" / "canonical.yaml")]))
    assert code == 0 and "overall: PASS" in capsys.readouterr().out
    assert tracer.missing == []
    for key in ("cli.parse_scenario", "cli.run_report", "verify.order_species", "verify.build_certificate"):
        assert tracer.calls(key) == 1, key
    assert tracer.calls("growth.break_even") == 3 and tracer.calls("dynamics.rhs") > 0
    assert all(_lookup(owner, attr) is orig for owner, attr, orig in originals)
