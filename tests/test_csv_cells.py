"""CSV cells against ``'%.17g' % v`` itself, byte for byte.

The block formatter computes the digits of most cells in numpy and leaves
the rest to ``%``; these tests hold every cell to ``%`` (NaN cells are
empty), bound how many cells take the fallback, bound the writer's memory,
and rerun the byte-identity tests under other SIMD and BLAS kernels.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostat_cep import Hill, Monod, State, Table, cli, simulate

from conftest import make_scenario

ROOT = Path(__file__).resolve().parent.parent


def _expected(values) -> str:
    return "".join(("" if math.isnan(v) else "%.17g" % v) + "\n" for v in values)


def _assert_cells_match(values) -> None:
    """One value per row, then all values in one row, against ``%``."""
    values = np.asarray(values, dtype=float)
    assert cli._csv_text(values.reshape(-1, 1)) == _expected(values.tolist())
    row = cli._csv_text(values.reshape(1, -1))
    assert row == ",".join(_expected(values.tolist()).splitlines()) + "\n"


def _edge_values() -> list[float]:
    values = [
        0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        # exact ties at 17 digits, rounded half to even
        2251799813685247.75,
        19696607274984.5625,
    ]
    for k in range(-323, 309):
        p = 10.0**k
        values += [p, float(np.nextafter(p, math.inf)), float(np.nextafter(p, -math.inf))]
    # %g switches to scientific notation below 1e-4 and from 1e17 on
    for switch in (1e-4, 1e17):
        below = float(np.nextafter(switch, 0.0))
        values += [switch, below, float(np.nextafter(below, 0.0)), float(np.nextafter(switch, math.inf))]
    return values + [-v for v in values]


def test_edge_table():
    _assert_cells_match(_edge_values())


def test_non_finite_cells():
    _assert_cells_match([math.inf, -math.inf, math.nan, -math.nan, 1.5, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns(bits):
    _assert_cells_match(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=64))
def test_arbitrary_floats(values):
    _assert_cells_match(values)


def test_few_cells_take_the_fallback(canonical_trajectory):
    """A formatter that left every cell to ``%`` would fail here."""
    buf = io.StringIO()
    cli.write_trajectory_csv(canonical_trajectory, buf)
    cells = np.array([float(c) for line in buf.getvalue().splitlines()[1:] for c in line.split(",") if c])
    regular = np.abs(cells[np.isfinite(cells) & (cells != 0.0)])
    assert regular.size > 20000
    assert np.count_nonzero(cli._digit_strings(regular)[2]) < 0.01 * regular.size


def test_decimal_exponent_estimate_is_floor_log10():
    # the writer's floor((e - 1) log10 2) by integer arithmetic, against exact integers
    for e in range(-1100, 1100):
        exact = len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e))
        assert (e * 78913) >> 18 == exact


class _Sink:
    size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def test_writer_memory_is_bounded_by_the_block():
    laws = [
        [
            Monod(1 + 0.1 * k, 0.5 + 0.05 * k),
            Hill(1 + 0.1 * k, 0.5 + 0.05 * k, 1 + k % 3),
            Table(((0.0, 0.0), (1.0, 0.5 + 0.01 * k), (4.0, 2.0 + 0.01 * k), (9.0, 3.0 + 0.01 * k))),
        ][k % 3]
        for k in range(30)
    ]
    traj = simulate(make_scenario().params, laws, State(s=10.0, x=np.full(30, 0.01)), 20.0)
    assert traj.states.shape == (2001, 31)
    cli.write_trajectory_csv(traj, _Sink())  # builds the formatter's tables
    sink = _Sink()
    tracemalloc.start()
    try:
        cli.write_trajectory_csv(traj, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 3_000_000
    # no more than the per-float writer with 256-row blocks, which peaked at
    # 3.08 MB on this trajectory (numpy 2.4, Python 3.11)
    assert peak <= 3.08e6


@pytest.mark.parametrize(
    "env", [{"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, {"OPENBLAS_CORETYPE": "Haswell"}], ids=["no-x86-v4", "haswell"]
)
def test_byte_identity_under_other_kernels(env):
    """The byte-identity tests pass in a process whose numpy or OpenBLAS picks other kernels."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py::TestCsvByteIdentity"],
        cwd=ROOT,
        env={**os.environ, **env, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
