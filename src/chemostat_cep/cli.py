"""Command dispatch and file emission.

Exit codes: 0 on success or an all-pass report, 1 on failed claims,
certificate refusal, or runtime errors, 2 on input errors (a malformed
scenario file or command-line argument).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import IO, Sequence

import numpy as np

from . import certificate as certificate_mod
from .errors import CertificateError, ChemostatError, InputError, WashoutError
from .growth import order_species, rate_matrix
from .integrate import Trajectory, per_biomass, simulate
from .scenario import Scenario, parse_scenario
from .verify import run_report

# Cap on `curves --points`: larger grids end in numpy's "Maximum allowed size
# exceeded" error or exhaust memory.
_MAX_GRID_N = 2**24


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
    The proportions x_i / b (empty below the biomass floor) and the ratios
    x_i / x_1 (empty throughout when species 1 starts absent) are formed
    here from the states.
    Values use 17 significant digits so a re-read reproduces the floats
    exactly; undefined channel entries are left empty.
    """
    n = traj.n_species
    header = ["t", "s"] + [f"x{i}" for i in range(1, n + 1)] + ["b"]
    header += [f"p{i}" for i in range(1, n + 1)] + ["m"]
    if n >= 2:
        header += [f"r{i}" for i in range(2, n + 1)]
    out.write(",".join(header) + "\n")

    x = traj.states[:, 1:]
    if n >= 2 and x[0, 0] > 0.0:
        # the ratio overflows to inf where the lead density underflows
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(x[:, :1] > 0.0, x[:, 1:] / x[:, :1], np.nan)
    else:
        r = np.full((traj.times.size, n - 1), np.nan)
    ch = traj.channels
    _write_rows(out, [traj.times, traj.states, ch.b, per_biomass(x, ch.b[:, None]), ch.m, r])


def write_growth_curves_csv(scenario: Scenario, out: IO[str], *, s_max: float | None = None, points: int = 512) -> None:
    """Tabulate every growth law (and break-even levels) on a substrate grid."""
    ordered = order_species(scenario.species, scenario.params.d, scenario.params.s_in)
    lam_by_id = {rec.id: rec.lam for rec in ordered.records}
    if s_max is None:
        finite = [lam for lam in lam_by_id.values() if math.isfinite(lam)]
        s_max = max([scenario.params.s_in] + [1.5 * v for v in finite])
    out.write("# dilution = %.17g\n" % scenario.params.d)
    for sid, _ in scenario.species:
        out.write("# lambda_%s = %.17g\n" % (sid, lam_by_id[sid]))
    out.write(",".join(["s"] + [f"mu_{sid}" for sid, _ in scenario.species]) + "\n")
    grid = np.linspace(0.0, s_max, points + 1)
    _write_rows(out, [grid, rate_matrix(scenario.growths, grid).T])


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
    )
    _emit(out_csv, lambda fh: write_trajectory_csv(traj, fh))
    return 0


def cmd_certificate(scenario: Scenario, out: str | None, as_json: bool = False) -> int:
    ordered = order_species(scenario.species, scenario.params.d, scenario.params.s_in)
    try:
        cert = certificate_mod.build_certificate(ordered, scenario.params.d, scenario.params.s_in)
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
        # Without ``indent`` json.dumps runs CPython's C encoder.
        _emit(out, lambda fh: fh.write(json.dumps(report.to_dict()) + "\n"))
    return 0 if report.overall_pass else 1


def cmd_curves(scenario: Scenario, out: str | None, s_max: float | None, points: int) -> int:
    _emit(out, lambda fh: write_growth_curves_csv(scenario, fh, s_max=s_max, points=points))
    return 0


def _points(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _MAX_GRID_N:
        raise argparse.ArgumentTypeError(f"expected an integer in [1, {_MAX_GRID_N}], got {text!r}")
    return value


def _s_max(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


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
    p_cur.add_argument("--s-max", type=_s_max, default=None, help="grid upper end")
    p_cur.add_argument("--points", type=_points, default=512, help="grid intervals (default 512)")

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
