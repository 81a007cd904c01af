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
from typing import IO, NamedTuple, Sequence

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


# Rows per formatted block: one block's cells and text are alive at a time,
# so memory does not grow with the number of rows.
_BLOCK_ROWS = 64

# Decimal scales 10^p that the 17 digits of a finite nonzero float64 can need.
_P_MIN, _P_MAX = -300, 345
# Digit-string fractions this close to 1/2 are left to ``%``: the
# double-double product is within about 2^-100 relative of the exact one,
# that is within 2e-13 on digit strings below 2e17.
_HALF_BOUND = 2.0**-30

# Bytes of a cell's source row: the 17 digits from byte 3 on, so that
# digits 2-17 fill the 32-bit words 1-4, the exponent's sign and three
# digits in word 5, then constant bytes.  A ``%`` fallback string takes the
# first bytes of its row instead.
_DIGIT0, _ESIGN, _EDIGITS = 3, 20, 21
_QUAD_OFFSETS = np.array([[1], [5], [9], [13]])  # the digits ahead of each quad
_MINUS, _POINT, _ZERO, _E, _SEP, _NUL = range(24, 30)
_CONSTANTS = b"-.0e,\0\0\0"
_WIDTH = 32
_CELL = 25  # the longest cell, "-1.2345678901234567e-308", and its separator
# Layouts: fixed notation for the decimal exponents X = -4..16, then
# scientific notation with a 2-digit and with a 3-digit exponent.
_EXP2, _EXP3 = 21, 22
_RAW = (_EXP3 + 1) * 2 * 17  # key _RAW + L copies an L-byte fallback string


class _Tables(NamedTuple):
    """Tables of the block formatter, built on the first CSV write.

    ``scale[p - _P_MIN]`` holds hi, its Veltkamp halves (26 bits each), lo
    and k with hi + lo = 10^p / 2^k to about 2^-106 relative and hi in
    [1, 2), all formed from Python ints.  ``pow10[j]`` is the double
    nearest 10^(j - 330).  ``quads[q]`` is the 32-bit word of q's four
    digits and ``last[q]`` the position (1-4) of q's last nonzero digit,
    -99 for q = 0.  ``exponents[X + 400]`` is the word of X's sign and
    three digits.  ``templates[key]`` lists the source-row bytes that spell
    a cell and its separator, padded with NULs; a formatted cell's key is
    (layout * 2 + sign) * 17 + significant digits - 1.
    """

    scale: np.ndarray
    pow10: np.ndarray
    quads: np.ndarray
    last: np.ndarray
    exponents: np.ndarray
    templates: np.ndarray


@functools.cache
def _format_tables() -> _Tables:
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        # top: the 128 leading bits of 10^p / 2^k, so 2^127 <= top < 2^128
        if p >= 0:
            k = (10**p).bit_length() - 1
            top = 10**p << (127 - k) if k <= 127 else 10**p >> (k - 127)
        else:
            k = -(10**-p).bit_length()
            top = (1 << (127 - k)) // 10**-p
        hi = float(top)  # int to float rounds correctly
        rows.append((hi, float(top - int(hi)), k))
    hi, lo, k = np.array(rows).T
    hi, lo = hi * 2.0**-127, lo * 2.0**-127
    c = 134217729.0 * hi
    hh = c - (c - hi)
    pow10 = np.array([float(f"1e{j}") for j in range(-330, 310)])
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T  # row q: q's four digits
    quads = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    last = np.where(digits.any(axis=1), 4 - np.argmax(digits[:, ::-1] > 0, axis=1), -99)
    exponents = np.frombuffer("".join(f"{x:+04d}" for x in range(-400, 400)).encode(), dtype=np.uint32)

    def spell(layout: int, sign: int, nd: int) -> list[int]:
        digits = [*range(_DIGIT0, _DIGIT0 + nd)]
        cols = [_MINUS] if sign else []
        x = layout - 4
        if layout >= _EXP2:
            cols += digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
            cols += [_E, _ESIGN, *range(_EDIGITS + (layout == _EXP2), _EDIGITS + 3)]
        elif x >= 0:
            whole = [*range(_DIGIT0, _DIGIT0 + x + 1)]
            cols += whole + ([_POINT] + digits[x + 1 :] if nd > x + 1 else [])
        else:
            cols += [_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits
        return cols

    spelled = [spell(layout, sign, nd) for layout in range(23) for sign in (0, 1) for nd in range(1, 18)]
    spelled += [[*range(n)] for n in range(_CELL)]
    templates = np.array([cols + [_SEP] + [_NUL] * (_CELL - 1 - len(cols)) for cols in spelled], dtype=np.intp)
    return _Tables(np.column_stack([hi, hh, hi - hh, lo, k]), pow10, quads, last, exponents, templates)


def _digit_strings(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit strings D and decimal exponents X of finite positive floats a.

    X is floor((e - 1) log10 2) for a = m 2^e (``np.frexp``, m in [1/2, 1)),
    by integer arithmetic that is exact over the float64 range, plus one
    where a reaches the double nearest 10^(X + 1).  D = a 10^(16 - X)
    comes from an exact Dekker product of m with hi + lo = 10^(16 - X) / 2^k,
    rounded half to even, and is 10^16 <= D < 10^17 after a carry into X.
    The third array flags the cells whose D is not certified: a fraction
    within ``_HALF_BOUND`` of 1/2 (exact ties included), or D outside
    [10^16, 10^17) before rounding, as at a power of ten whose nearest
    double lies below it.
    """
    tables = _format_tables()
    m, e = np.frexp(a)
    x = ((e - 1) * 78913) >> 18
    x += a >= tables.pow10[x + 331]
    hi, hh, hl, lo, k = np.take(tables.scale, 16 - _P_MIN - x, axis=0).T
    mh = np.floor(m * 2.0**26) * 2.0**-26
    ml = m - mh
    ph = m * hi
    t = (((mh * hh - ph) + mh * hl + ml * hh) + ml * hl) + m * lo
    sh = ph + t
    shift = e + k.astype(np.intp)
    low = np.ldexp(t - (sh - ph), shift)
    whole = np.floor(low)
    frac = low - whole
    d = np.ldexp(sh, shift).astype(np.int64) + whole.astype(np.int64)
    uncertain = (d < 10**16) | (d >= 10**17) | (np.abs(frac - 0.5) <= _HALF_BOUND)
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    return d, x + carry, uncertain


def _cell_sources(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source rows and template keys of the cells of a 2-D float block.

    Digits come from ``_digit_strings``.  A cell whose digits are not
    certified, and +-inf, take the bytes of ``'%.17g' %`` itself, which
    defines them; NaN cells take an empty template.
    """
    v = block.ravel()
    a = np.abs(v)
    nan = np.isnan(a)
    zero = a == 0.0
    inf = np.isinf(a)
    regular = ~(nan | inf | zero)
    a[~regular] = 1.0
    d, x, uncertain = _digit_strings(a)
    d[zero] = 0
    fallback = np.flatnonzero((regular & uncertain) | inf)

    tables = _format_tables()
    # D's 17 digits: the lead digit, then four quads of four digits
    quads = np.empty((4, v.size), dtype=np.int64)
    for j in range(3, -1, -1):
        lead = d // 10**4
        quads[j] = d - lead * 10**4
        d = lead
    nd = np.max(tables.last[quads] + _QUAD_OFFSETS, axis=0, initial=1)
    src = np.empty((v.size, _WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, 1:5] = tables.quads[quads].T
    words[:, 5] = tables.exponents[x + 400]
    words[:, 6:] = np.frombuffer(_CONSTANTS, dtype=np.uint32)
    src[:, _DIGIT0] = lead + ord("0")
    src.reshape(block.shape + (_WIDTH,))[:, -1, _SEP] = ord("\n")

    layout = x + 4
    sci = (x < -4) | (x > 16)
    layout[sci] = np.where(np.abs(x[sci]) >= 100, _EXP3, _EXP2)
    key = (layout * 2 + np.signbit(v)) * 17 + nd - 1
    key[nan] = _RAW
    for i, value in zip(fallback.tolist(), v[fallback].tolist()):
        text = ("%.17g" % value).encode()
        src[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        key[i] = _RAW + len(text)
    return src, key


def _csv_text(block: np.ndarray) -> str:
    """The rows of a 2-D float block as CSV text, each cell ``'%.17g' % v``.

    One gather through a template per sign, layout and significant-digit
    count lays out the bytes of ``_cell_sources``.  The arithmetic is IEEE
    basic operations, ``frexp``, ``ldexp``, ``floor`` and integer division,
    so the bytes do not depend on SIMD loops or BLAS.
    """
    src, key = _cell_sources(block)
    index = np.take(_format_tables().templates, key, axis=0)
    index += np.arange(0, src.size, _WIDTH)[:, None]
    cells = np.take(src.ravel(), index.ravel())
    del index  # 200 bytes a cell, the largest array of a block
    return cells.compress(cells != 0).tobytes().decode("ascii")


def _write_rows(out: IO[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-D (one column) or 2-D arrays side by side as CSV rows.

    The rows go out ``_BLOCK_ROWS`` at a time.  Every cell has the bytes of
    ``'%.17g' % v`` (see ``_csv_text``), ``inf`` included, so a re-read
    reproduces every float; NaN cells are empty.
    """
    cols = [c if c.ndim == 2 else c[:, None] for c in columns]
    for i in range(0, cols[0].shape[0], _BLOCK_ROWS):
        out.write(_csv_text(np.hstack([c[i : i + _BLOCK_ROWS] for c in cols])))


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
