"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``chemostat_cep`` in the module
where their caller looks them up (``chemostat_cep.verify.simulate``,
``chemostat_cep.integrate.vector_field``, ...) with wrappers that time and
count the calls, and puts the originals back on ``restore``.  Nothing under
``src/`` is edited.

Coarse calls become spans (name, start, end, parent span, scenario); hot
calls (RHS evaluations, decay fits, interval entries) are only timed and
counted.  Every timed call charges its duration to the enclosing one, so a
layer's self time is its total minus the time of the calls nested in it.
Spans are kept in memory and written once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

# (module, attribute, key).  The key names the call site, so the same
# function reached through two modules is told apart.
SPANS = (
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "run_report", "cli.run_report"),
    ("cli", "simulate", "cli.simulate"),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("cli", "order_species", "cli.order_species"),
    ("verify", "simulate", "verify.simulate"),
    ("verify", "order_species", "verify.order_species"),
    ("verify", "build_certificate", "verify.build_certificate"),
    ("certificate", "recheck_certificate", "certificate.recheck_certificate"),
    ("verify", "check_mass_convergence", "verify.mass"),
    ("verify", "check_washout_species", "verify.washout"),
    ("verify", "check_biomass_floor", "verify.floor"),
    ("verify", "check_substrate_frame", "verify.frame"),
    ("verify", "check_induction_properties", "verify.induction"),
    ("verify", "check_final_convergence", "verify.final"),
    ("verify.VerificationReport", "to_dict", "cli.render_json"),
    ("verify.VerificationReport", "to_text", "cli.render_text"),
)
TIMERS = (
    ("verify", "fit_log_decay", "verify.fit"),
    ("verify", "first_persistent_entry", "integrate.entry"),
)
COUNTERS = (
    ("growth", "break_even", "growth.break_even"),
    ("certificate", "_pack_gap", "certificate.pack_gap"),
    ("integrate.Trajectory", "sample", "integrate.sample"),
    ("growth.GrowthFunction", "__call__", "growth.law"),
    ("growth.GrowthFunction", "rate_unchecked", "growth.law"),
)
# The RHS closure is timed by wrapping the factory that makes it.
RHS_FACTORY = ("integrate", "vector_field")

ROOT = "scenario"


def _resolve(modules: dict, path: str):
    head, _, cls = path.partition(".")
    owner = modules[head]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects per-call statistics and spans while installed.

    ``stats[key]`` is ``[calls, total_s, self_s]``; ``facts`` holds values
    read off results (integrator steps, step-array bytes, shrink
    iterations, verdicts).
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.facts = defaultdict(float)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child_time, span_id] of open timed calls
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._scenario = -1

    # -- timing core -------------------------------------------------------

    def _timed(self, key: str, fn, record: bool):
        stats = self.stats[key]
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans) if record else -1
            parent = stack[-1][1] if stack else -1
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            start = perf_counter()
            stack.append([0.0, span_id])
            try:
                return fn(*args, **kwargs)
            finally:
                child = stack.pop()[0]
                end = perf_counter()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans[span_id] = (span_id, parent, self._scenario, key, start, end)

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, key: str, fn):
        stats = self.stats[key]

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- result hooks --------------------------------------------------------

    def _after(self, key: str, out) -> None:
        f = self.facts
        if key.endswith(".simulate"):
            meta = out.meta
            f["steps_accepted"] += meta.steps_accepted
            f["steps_rejected"] += meta.steps_rejected
            f["rhs_evals"] += meta.rhs_evals
            f["step_bytes"] += out.step_coeffs.nbytes + out.step_states.nbytes
        elif key == "verify.build_certificate":
            for b in out.boundaries:
                start = 0.5 * (b.lam_upper_eff - b.lam_lower)
                f["shrink_iters"] += round(math.log2(start / b.delta))
        elif key == "cli.run_report":
            f["verdict_fail"] += 0 if out.overall_pass else 1

    def _hooked(self, key: str, fn):
        timed = self._timed(key, fn, record=True)
        if not key.endswith((".simulate", ".build_certificate", ".run_report")):
            return timed

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self._after(key, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- install / restore ---------------------------------------------------

    def _patch(self, path: str, attr: str, make) -> None:
        owner = _resolve(self.modules, path)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{path}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for path, attr, key in SPANS:
            self._patch(path, attr, lambda fn, key=key: self._hooked(key, fn))
        for path, attr, key in TIMERS:
            self._patch(path, attr, lambda fn, key=key: self._timed(key, fn, record=False))
        for path, attr, key in COUNTERS:
            self._patch(path, attr, lambda fn, key=key: self._counted(key, fn))

        def rhs_factory(factory):
            def wrapper(*args, **kwargs):
                return self._timed("dynamics.rhs", factory(*args, **kwargs), record=False)

            return functools.update_wrapper(wrapper, factory)

        self._patch(*RHS_FACTORY, rhs_factory)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def targets(self) -> list[tuple]:
        """Every (owner, attribute) the tracer replaces, whether installed or not."""
        paths = [(path, attr) for path, attr, _ in SPANS + TIMERS + COUNTERS] + [RHS_FACTORY]
        return [(_resolve(self.modules, path), attr) for path, attr in paths]

    def run(self, scenario: int, fn):
        """Call ``fn()`` under the root span of one scenario, tracer installed."""
        self._scenario = scenario
        self.install()
        try:
            return self._timed(ROOT, fn, record=True)()
        finally:
            self.restore()

    # -- reporting -------------------------------------------------------------

    def total(self, *keys: str) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def self_time(self, *keys: str) -> float:
        return sum(self.stats[k][2] for k in keys if k in self.stats)

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def per_layer(self, n: int) -> dict:
        """Per-layer metrics, each a mean per traced scenario (n of them)."""
        scen = self.total(ROOT)
        parse = self.total("cli.parse_scenario")
        command = self.total("cli.run_report", "cli.simulate")
        emit = self.total("cli.write_trajectory_csv", "cli.render_json", "cli.render_text")
        simulate = self.total("cli.simulate", "verify.simulate")
        rhs = self.total("dynamics.rhs")
        checks = {
            name: self.total(f"verify.{name}")
            for name in ("mass", "washout", "floor", "frame", "induction", "final")
        }
        f = self.facts
        out = {
            "cli.parse_s": (parse / n, "s"),
            "cli.emit_s": ((scen - parse - command) / n, "s"),
            "growth.order_s": (self.total("cli.order_species", "verify.order_species") / n, "s"),
            "growth.break_even_calls": (self.calls("growth.break_even") / n, "count"),
            "growth.law_evals": (self.calls("growth.law") / n, "count"),
            "certificate.build_s": (self.total("verify.build_certificate") / n, "s"),
            "certificate.recheck_s": (self.total("certificate.recheck_certificate") / n, "s"),
            "certificate.margin_calls": (self.calls("certificate.pack_gap") / n, "count"),
            "certificate.shrink_iters": (f["shrink_iters"] / n, "count"),
            "dynamics.rhs_calls": (self.calls("dynamics.rhs") / n, "count"),
            "dynamics.rhs_s": (rhs / n, "s"),
            "integrate.simulate_s": (simulate / n, "s"),
            "integrate.self_s": ((simulate - rhs) / n, "s"),
            "integrate.steps_accepted": (f["steps_accepted"] / n, "count"),
            "integrate.steps_rejected": (f["steps_rejected"] / n, "count"),
            "integrate.entry_s": (self.total("integrate.entry") / n, "s"),
            "integrate.sample_calls": (self.calls("integrate.sample") / n, "count"),
            "integrate.step_bytes": (f["step_bytes"] / n, "bytes"),
            "verify.report_s": (self.total("cli.run_report") / n, "s"),
            "verify.self_s": (self.self_time("cli.run_report") / n, "s"),
            "verify.decay_fits": (self.calls("verify.fit") / n, "count"),
            "verify.fit_s": (self.total("verify.fit") / n, "s"),
            "verify.verdict_fail": (f["verdict_fail"] / n, "count"),
            "trace.coverage": ((parse + command + emit) / scen if scen else 0.0, "ratio"),
        }
        for name, t in checks.items():
            out[f"verify.{name}_s"] = (t / n, "s")
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "scenario": sc, "name": k, "start": s, "end": e}
            for i, p, sc, k, s, e in self.spans
        ]
