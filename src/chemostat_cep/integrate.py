"""Adaptive embedded Runge-Kutta integration with dense output.

The stepper is the classic Dormand-Prince 4(5) pair with a
proportional-integral step controller and the standard quartic continuous
extension.  Its whole step loop is generated Python source
(``_loop_source``), compiled once per state size and cached, in which the
controller is written once and one of two trial steps plugs in, chosen by
the state size:

- A state of at most ``_FLOAT_TRIAL_MAX_SIZE`` entries has the trial
  inlined in the loop compiled for its size, over local floats.  Each
  combination y + h (a . k) is summed per component, left to right, as
  y + (h a_0) k0 + (h a_1) k1 + ..., with every weight h a_j formed first
  and zero weights left out; the error norm's squares are summed left to
  right too.  It uses neither SIMD nor BLAS: its trajectories have the
  same bits under OpenBLAS's SkylakeX, Haswell and Prescott kernels and
  without numpy's AVX-512 loops.
- A larger state takes the ``np.dot`` trial, in one loop compiled for
  every such size: each combination is one ``np.dot`` (1, h a) . (y,
  k0..k6) of a row of the folded table against the stage matrix ``KY``,
  whose summation order the BLAS kernel sets.

Identical inputs give bit-identical trajectories on one platform, and on
the ``np.dot`` trial on one BLAS kernel.

Both trials store an accepted step the same way: its raw rows (y_new, K0,
K6, D K) are appended to one ``array('d')`` buffer, which becomes
``Trajectory.step_coeffs`` after the loop, without a copy.

The positive orthant is invariant for the model, so a step that would end
with any component below zero is rejected, however small the undershoot.
An accepted state is never altered (clipping it would add mass): every step
starts exactly where the previous one ended, so the mass follows the linear
law m' = d (s_in - m) through the pair's own stability polynomial alone.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import DENSE_INTERVALS, ChemostatParams, State, vector_field
from .errors import DivergenceError, DomainError, ParameterError, StiffnessError
from .growth import GrowthFunction

# Dormand-Prince 4(5) tableau.  The model is autonomous, so the stage
# nodes c_i are not needed.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Rows: five inner stages, end state, error; columns: weights of y (1 or 0), k0..k6.
_TABLE = np.array([[1.0, *row, *(0.0,) * (7 - len(row))] for row in (*_A, _B)] + [[0.0, *_E]])

# Weights of the quartic interpolant's top coefficient (stage combinations).
_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])

# PI controller constants (standard choices for this pair).
_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_SHRINK_MAX = 5.0   # new step no smaller than h / 5
_FAC_GROW_MAX = 0.1     # new step no larger than 10 h
_MAX_STEPS = 5_000_000  # safety net against livelock on hostile inputs

# State sizes (1 + the number of laws) up to which ``simulate`` runs the loop
# compiled for the size, whose inlined trial calls the right-hand side with
# tuples: the plain-float body takes them, and every such state gets it,
# since it has fewer than ``dynamics._ARRAY_FIELD_MIN_LAWS`` laws.  Read at
# call time.  Provisional: with
# every plain-float size compiled, the change/parent ratio of ``simulate``
# per species count on the export-mixed pool of seed 1
# (``tools/phase_times.py``, 2-core x86-64 VM) was 0.90-0.91 at 12-14
# species, 0.95-0.98 at 15-17, 0.96-1.03 at 18-22 and 1.08-1.20 at 23-30,
# so speed alone would set the cut near 18 states.  It stays below every
# export-mixed system (12 species or more) because a cut at 19 read a higher
# export-mixed ``peak_rss_mb`` (48.5-48.7 against 47.8-48.0 MB), a reading
# that follows the harness's heap layout more than the program's memory;
# measure it again once ``peak_rss_mb`` tracks the program.
_FLOAT_TRIAL_MAX_SIZE = 12

_B_ZERO = 1e-12  # biomass floor below which proportions are undefined


@dataclass(frozen=True)
class IntegratorStats:
    """Step counts and controls actually used by one integration.

    Every trial step, accepted or rejected, makes six RHS evaluations, so
    ``rhs_evals`` is 1 + (0 or 1 for the first-step guess) + 6 per trial.
    """

    steps_accepted: int
    steps_rejected: int
    rhs_evals: int
    rel_tol: float
    abs_tol: float
    dense_dt: float
    first_step: float


@dataclass(frozen=True)
class Channels:
    """Total biomass ``b`` and total mass ``m`` on the dense grid.

    Proportions are formed from the states by their readers (``per_biomass``).
    """

    b: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Densely sampled solution plus the per-step interpolation data.

    ``states[k]`` is the full vector [s, x_1..x_n] at ``times[k]``; the grid
    starts at 0 and ends exactly at the horizon.  ``step_states[k]`` is the
    state at the step node ``step_times[k]``, and ``step_coeffs[k]`` the
    four coefficients of step k's quartic past its start state
    ``step_states[k]`` (``_finish_coeffs``).  ``sample`` evaluates the
    integrator's own continuous extension between steps.
    """

    times: np.ndarray
    states: np.ndarray
    channels: Channels
    meta: IntegratorStats
    step_times: np.ndarray
    step_states: np.ndarray
    step_coeffs: np.ndarray  # (steps, 4, dim)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_species(self) -> int:
        return self.states.shape[1] - 1

    def sample(self, t: float) -> State:
        """Continuous-extension sample at any time in [0, horizon]."""
        horizon = float(self.step_times[-1])
        slack = 1e-12 * max(1.0, horizon)
        if not (-slack <= t <= horizon + slack):
            raise DomainError(f"sample time {t!r} outside [0, {horizon!r}]", field="t")
        t = min(max(t, 0.0), horizon)
        y = _dense_states(np.array([t]), self.step_times, self.step_states, self.step_coeffs)[0]
        return State(s=float(y[0]), x=y[1:])


def _initial_step(f, y0, f0, horizon, rel_tol, abs_tol) -> tuple[float, int]:
    """Automatic first-step guess from the local derivative scale.

    Returns the step and the number of RHS evaluations it made (0 or 1).
    Extreme derivative scales (overflowing norms) fall back to a tiny
    positive step; the main loop's rejection control then either recovers
    or reports step-size underflow.
    """
    scale = abs_tol + rel_tol * np.abs(y0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
        if not math.isfinite(d0) or not math.isfinite(d1):
            return min(1e-6, horizon), 0
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, horizon)
        y1 = y0 + h0 * f0
        f1 = f(y1, np.empty_like(y1))
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
        if not math.isfinite(d2):
            return min(1e-6, horizon), 1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, horizon), 1


def _loop_source(size: int | None) -> str:
    """Python source of the adaptive step loop for states of ``size`` entries.

    It defines ``run(f, y, k, rel_tol, abs_tol, h, horizon, min_step,
    max_steps)``, which steps from the state ``y`` (an array) with
    derivative ``k`` = f(y) and first step ``h`` until t reaches the
    horizon, and returns (status, t, n_accepted, n_rejected, times, sizes,
    buf).  status is None when t reached the horizon, ``"underflow"`` when
    the controller's proposal fell below ``min_step`` or no longer moves t,
    and ``"budget"`` when ``max_steps`` trial steps were made; t is the end
    of the last accepted step; times are the step ends from 0 and sizes the
    step sizes; the ``array('d')`` buffer ``buf`` holds the raw rows
    (y_new, k0, k6, D K) of every accepted step, one after the other.

    The controller is written here once: the PI step control, the
    acceptance, the rejection of a step that is not finite or ends below
    zero, the step budget and the underflow checks.  So is the storage:
    each accepted step appends its four rows to ``buf``.  The trial step
    plugs into it:

    - ``size`` None: the ``np.dot`` trial of ``_dot_trial``, whose
      ``accept()`` gives the step's rows as bytes.  One source serves every
      state size.
    - ``size`` an int: the trial inlined as straight-line source over
      local floats, which keep the state, k0 and the error scale across
      steps.  Each combination is written out per component as
      y + (h a_0) k0 + (h a_1) k1 + ..., summed left to right with every
      weight h a_j formed first; zero weights are left out.  The error
      norm divides by the larger of the two scales and sums its squares
      left to right.  Each stage derivative is a call of ``f`` with a
      tuple.  An accepted step appends its rows as one list of floats.
    """
    if size is None:
        head = ["trial, accept = dot_trial(f, y, k, rel_tol, abs_tol)"]
        step = ["err, low = trial(h)"]
        take = ["buf.frombytes(accept())"]
    else:
        comps = range(size)

        def names(prefix: str) -> str:
            return "".join(f"{prefix}{c}, " for c in comps)

        def weights(w: str, row) -> list[str]:
            return [f"{w}{j} = h * {a!r}" for j, a in enumerate(row) if a != 0.0]

        def sums(w: str, row, start: str = "") -> list[str]:
            """Per component: ``start`` + w_j k_j over the nonzero weights, left to right."""
            terms = [(j, a) for j, a in enumerate(row) if a != 0.0]
            return [
                " + ".join([start.format(c)] * bool(start) + [f"{w}{j} * k{j}_{c}" for j, a in terms])
                for c in comps
            ]

        def tuple_of(items: list[str]) -> str:
            return "(" + "".join(f"{item}, " for item in items) + ")"

        head = [
            "k0 = tuple(k.tolist())",
            f"{names('y')}= y.tolist()",
            f"{names('k0_')}= k0",
            f"{names('sc')}= [abs_tol + rel_tol * abs(v) for v in y.tolist()]",
            *(f"d{j} = {a!r}" for j, a in enumerate(_D.tolist()) if a != 0.0),
        ]
        step = []
        for i, row in enumerate(_A, 1):
            stage = tuple_of(sums(f"a{i}_", row, "y{}"))
            step += [*weights(f"a{i}_", row), f"{names(f'k{i}_')}= f({stage})"]
        step += [*weights("b", _B), f"yn = {tuple_of(sums('b', _B, 'y{}'))}", f"{names('n')}= yn"]
        step += ["k6 = f(yn)", f"{names('k6_')}= k6", *weights("e", _E)]
        for c, error in zip(comps, sums("e", _E)):
            step += [f"sn{c} = abs_tol + rel_tol * abs(n{c})", f"q{c} = ({error}) / (sc{c} if sc{c} > sn{c} else sn{c})"]
        squares = " + ".join(f"q{c} * q{c}" for c in comps)
        step += [f"err = sqrt(({squares}) / {size})", "low = min(yn)"]
        tops = ", ".join(" + ".join(f"d{j} * k{j}_{c}" for j, a in enumerate(_D.tolist()) if a != 0.0) for c in comps)
        take = [
            f"buf.fromlist([*yn, *k0, *k6, {tops}])",
            f"{names('y')}= yn",
            "k0 = k6",
            f"{names('k0_')}= k6",
            f"{names('sc')}= {names('sn')}",
        ]

    def block(indent: int, lines: list[str]) -> list[str]:
        return [" " * indent + line for line in lines]

    grow, shrink = _FAC_GROW_MAX, _FAC_SHRINK_MAX

    return "\n".join([
        "def run(f, y, k, rel_tol, abs_tol, h, horizon, min_step, max_steps):",
        *block(4, head),
        "    buf = array('d')",
        "    t = 0.0",
        "    times = [t]",
        "    sizes = []",
        "    n_acc = n_rej = 0",
        "    fac_old = 1e-4",
        "    status = None",
        "    while t < horizon:",
        # Judge underflow on the controller's proposal, not on the final
        # sliver left before the horizon, which may be one ulp wide.
        "        rest = horizon - t",
        "        if h < min_step or t + (rest if rest < h else h) <= t:",
        "            status = 'underflow'",
        "            break",
        "        if rest < h:",
        "            h = rest",
        "        if n_acc + n_rej >= max_steps:",
        "            status = 'budget'",
        "            break",
        *block(8, step),
        # Both RHS bodies give a non-finite derivative component j when
        # component j of the state is non-finite, and E[6] K[6] carries it
        # into the error vector's component j; so a non-finite y_new makes
        # err non-finite (inf or NaN), and no scan of y_new is needed.  A
        # step is taken when err is at most 1 and the end state's minimum
        # is finite and >= 0 (a chained comparison is false for NaN).
        "        if err <= 1.0 and 0.0 <= low < inf:",
        "            sizes.append(h)",
        "            t = t + h",
        "            times.append(t)",
        "            n_acc += 1",
        *block(12, take),
        f"            fac = err ** {_EXPO!r} / fac_old ** {_BETA!r} / {_SAFETY!r}",
        f"            h = h / ({grow!r} if fac < {grow!r} else fac if fac < {shrink!r} else {shrink!r})",
        "            fac_old = err if err > 1e-4 else 1e-4",
        # Too large an error on a finite step: shrink it by the controller.
        "        elif 1.0 < err < inf and -inf < low < inf:",
        "            n_rej += 1",
        f"            fac = err ** {_EXPO!r} / {_SAFETY!r}",
        f"            h = h / (fac if fac < {shrink!r} else {shrink!r})",
        # Overflow inside the step, or an end state below zero: reject as
        # hard as possible.
        "        else:",
        "            n_rej += 1",
        f"            h = h / {shrink!r}",
        "    return status, t, n_acc, n_rej, times, sizes, buf",
    ])


@functools.cache
def _compiled_loop(size: int | None) -> Callable:
    """``run`` of ``_loop_source(size)``, compiled once per size (once for None)."""
    namespace: dict[str, object] = {"sqrt": math.sqrt, "inf": math.inf, "array": array, "dot_trial": _dot_trial}
    exec(compile(_loop_source(size), f"<step loop {size}>", "exec"), namespace)
    return namespace["run"]


def _dot_trial(f, y0: np.ndarray, k0: np.ndarray, rel_tol: float, abs_tol: float):
    """The trial step by BLAS products, for an ``f(y, out)`` body.

    Returns ``trial(h)``, which runs one trial step from the current
    state, writes y_new into row 0 of a private (4, size) block ``raw`` and
    gives (err, min of y_new), and ``accept()``, which writes the step's
    other raw rows (k0, k6, D K) into ``raw[1:]``, makes y_new the current
    state and returns the block's bytes.  KY = (y, k0..k6), with k0 = f(y)
    carried over (first same as last); the folded table hT is _TABLE with
    columns 1-7 scaled by h.  Every combination is one ``np.dot`` of a row
    of hT against KY, through views sliced once.
    """
    KY = np.vstack((y0, k0, np.empty((6, y0.size))))
    K = KY[1:]
    hT = _TABLE.copy()
    h_cols, table_cols = hT[:, 1:], _TABLE[:, 1:]
    stages = [(hT[i, : i + 2], KY[: i + 2], KY[i + 2]) for i in range(5)]
    hB, KY_b, hE = hT[5, :7], KY[:7], hT[6, 1:]
    stage, err_vec, q, scale_new = np.empty((4, y0.size))
    scale = abs_tol + rel_tol * np.abs(y0)  # of the current state, kept across rejected steps
    raw = np.empty((4, y0.size))
    y_new, raw_bytes = raw[0], raw.data.cast("B")

    def trial(h: float) -> tuple[float, float]:
        # stage = (1, h a_row) . (y, k0..k_i), in place
        np.multiply(table_cols, h, out=h_cols)
        for hT_i, KY_i, K_i in stages:
            np.dot(hT_i, KY_i, out=stage)
            f(stage, K_i)
        np.dot(hB, KY_b, out=y_new)
        f(y_new, K[6])
        np.dot(hE, K, out=err_vec)
        # err = RMS of err_vec / max(scale, abs_tol + rel_tol |y_new|),
        # which is err_vec / (abs_tol + rel_tol max(|y|, |y_new|))
        np.abs(y_new, out=scale_new)
        np.multiply(scale_new, rel_tol, out=scale_new)
        np.add(scale_new, abs_tol, out=scale_new)
        np.maximum(scale, scale_new, out=q)
        np.divide(err_vec, q, out=q)
        return math.sqrt(np.dot(q, q) / q.size), float(np.minimum.reduce(y_new))

    def accept() -> memoryview:
        nonlocal scale, scale_new
        # y_new and k6 (rows 0, 2) start the next step
        raw[1:3] = KY[1::6]
        np.dot(_D, K, out=raw[3])
        KY[:2] = raw[0:3:2]
        scale, scale_new = scale_new, scale
        return raw_bytes

    return trial, accept


def simulate(
    params: ChemostatParams,
    growths: Sequence[GrowthFunction],
    x0: State,
    horizon: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> Trajectory:
    """Integrate the chemostat from ``x0`` over [0, horizon].

    Dense output is emitted on a uniform grid with spacing at most
    horizon / ``DENSE_INTERVALS``, including both endpoints.  Raises
    :class:`StiffnessError` on step-size underflow and
    :class:`DivergenceError` if the state leaves the finite range.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ParameterError(f"must be finite and > 0, got {horizon!r}", field="horizon")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < tol < 1.0:
            raise ParameterError(f"must lie in (0, 1), got {tol!r}", field=name)
    if len(growths) != x0.n:
        raise ParameterError(f"must hold one law per species, got {len(growths)} for {x0.n}", field="growths")
    dense_dt = horizon / DENSE_INTERVALS
    if not dense_dt > 0.0:
        raise ParameterError(
            f"must leave {DENSE_INTERVALS} dense intervals a positive width, got {horizon!r}", field="horizon"
        )

    f = vector_field(params, growths)
    y0 = np.concatenate(([x0.s], x0.x)).astype(float)
    k0 = f(y0, np.empty_like(y0))
    # Below this step size the explicit pair cannot make useful progress on
    # the requested horizon; treat it as stiffness (or divergence when the
    # state has already left any physical scale).
    min_step = 1e-14 * horizon
    h, used = _initial_step(f, y0, k0, horizon, rel_tol, abs_tol)
    # The guess falls below that limit for a state near zero with a large
    # derivative (s0 = 1e-12, no biomass); the controller corrects it.
    h = max(h, min_step)
    first_step = h
    max_steps = _MAX_STEPS
    run = _compiled_loop(y0.size if y0.size <= _FLOAT_TRIAL_MAX_SIZE else None)
    with np.errstate(over="ignore", invalid="ignore"):
        status, t, n_accepted, n_rejected, step_times, step_sizes, buf = run(
            f, y0, k0, rel_tol, abs_tol, h, horizon, min_step, max_steps
        )
        # the raw rows of every accepted step, without a copy
        coeffs = np.frombuffer(buf).reshape(n_accepted, 4, y0.size)
        y = coeffs[-1, 0] if n_accepted else y0
        if status == "budget":
            raise StiffnessError(t, y, f"step budget of {max_steps} exhausted")
        if status == "underflow":
            if float(np.max(np.abs(y))) > 1e100:
                raise DivergenceError(t, y, "state grew beyond any physical scale")
            raise StiffnessError(t, y)

    step_times_arr = np.array(step_times)
    # each step starts at the previous one's end row, which _finish_coeffs
    # overwrites, so the states are taken first
    step_states_arr = np.concatenate((y0[None], coeffs[:, 0]))
    _finish_coeffs(coeffs, step_states_arr[:-1], np.array(step_sizes)[:, None])

    # not the bare constant: the rounding of horizon / dense_dt gives 2001
    # intervals for some horizons, and the dense grid keeps them
    n_dense = max(1, math.ceil(horizon / dense_dt))
    times = np.linspace(0.0, horizon, n_dense + 1)
    states = _dense_states(times, step_times_arr, step_states_arr, coeffs)

    meta = IntegratorStats(
        steps_accepted=n_accepted,
        steps_rejected=n_rejected,
        rhs_evals=1 + used + 6 * (n_accepted + n_rejected),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        dense_dt=horizon / n_dense,
        first_step=first_step,
    )
    channels = _derive_channel_arrays(states)
    for arr in (times, states, step_times_arr, step_states_arr, coeffs):
        arr.setflags(write=False)
    return Trajectory(
        times=times,
        states=states,
        channels=channels,
        meta=meta,
        step_times=step_times_arr,
        step_states=step_states_arr,
        step_coeffs=coeffs,
    )


def _finish_coeffs(coeffs: np.ndarray, y0: np.ndarray, h: np.ndarray) -> None:
    """Turn the raw rows of every step into its interpolant coefficients, in place.

    ``coeffs[k]`` holds [y_new, K0, K6, D K] of step k, ``y0[k]`` its start
    state (the y_new of step k - 1, or the initial state) and ``h[k]`` its
    size.  The rows become
    [ydiff, h K0 - ydiff, ydiff - h K6 - (h K0 - ydiff), h D K] with
    ydiff = y_new - y0, by the elementwise operations of a per-step build in
    the same order, so every coefficient has the same bits.  The start
    state, the interpolant's constant term, is ``y0[k]`` itself.
    """
    c0, c1, c2, c3 = (coeffs[:, r] for r in range(4))
    c0 -= y0  # ydiff
    c1 *= h
    c1 -= c0  # bspl = h K0 - ydiff
    c2 *= h
    np.subtract(c0, c2, out=c2)
    c2 -= c1  # ydiff - h K6 - bspl
    c3 *= h


def _dense_states(times, step_times, step_states, step_coeffs) -> np.ndarray:
    """Continuous extension at every time of ``times`` (in [0, horizon]).

    Times on a step node give that node's state and times at or past the
    last node give the final state; elsewhere the quartic
    y + theta (c1 + (1 - theta) (c2 + theta (c3 + (1 - theta) c4))) of the
    enclosing step, with y its start state and c1..c4 its
    ``step_coeffs``, is evaluated one slice at a time.  Negative
    undershoots are clipped to zero.
    """
    k = np.searchsorted(step_times, times, side="right") - 1
    # np.maximum/np.minimum rather than np.clip, whose Python wrapper adds
    # about 3 us per call, of about 40 us for one ``Trajectory.sample``
    np.minimum(np.maximum(k, 0, out=k), len(step_times) - 2, out=k)
    t0 = step_times[k]
    theta = ((times - t0) / (step_times[k + 1] - t0))[:, None]
    rest = 1.0 - theta
    out = rest * step_coeffs[k, 3]
    out += step_coeffs[k, 2]
    out *= theta
    out += step_coeffs[k, 1]
    out *= rest
    out += step_coeffs[k, 0]
    out *= theta
    out += step_states[k]
    at_step = times == t0
    out[at_step] = step_states[k[at_step]]
    out[~at_step & (times >= step_times[-1])] = step_states[-1]
    np.maximum(out, 0.0, out=out)
    return out


def _derive_channel_arrays(states: np.ndarray) -> Channels:
    b = states[:, 1:].sum(axis=1)
    m = states[:, 0] + b
    for arr in (b, m):
        arr.setflags(write=False)
    return Channels(b=b, m=m)


def per_biomass(values, b):
    """``values / b`` where the biomass ``b`` is at least ``_B_ZERO``, NaN elsewhere.

    ``b`` broadcasts against ``values``: the proportions of the rows of
    ``x`` are ``per_biomass(x, b[:, None])``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b >= _B_ZERO, values / b, np.nan)


@dataclass(frozen=True)
class EntryRecord:
    """Persistent-entry report for one interval.

    ``index`` is the index of the first dense sample of the persistent tail
    (the samples from which the tracked value stays in the interval up to
    the horizon) and ``entry_time`` that sample's time; both are None when
    the last sample is outside.  ``excursions`` counts exits after the
    first entry on the dense samples.
    """

    interval: tuple[float, float]
    entry_time: float | None
    excursions: int
    index: int | None


def scan_persistent_entry(inside: np.ndarray) -> tuple:
    """Locate the persistent entry on sampled membership values.

    Returns (index of the first sample of the persistent tail, number of
    exits after the first entry).  The tail runs from the sample after the
    last outside one (0 if none is outside) to the end; the index is None
    when the last sample is outside.  For 2-D ``inside`` every row is one
    series (series x samples, so each row's reductions run over contiguous
    memory), all scanned at once, and the result is (list of indices or
    None, list of exit counts).
    """
    one = inside.ndim == 1
    if one:
        inside = inside[None, :]
    outside = ~inside
    exits = (inside[:, :-1] & outside[:, 1:]).sum(axis=1).tolist()
    # the last outside sample, counted from the end (0 when none is outside)
    from_end = outside[:, ::-1].argmax(axis=1).tolist()
    n = inside.shape[1]
    idx = [
        None if out_last else (n - k if k else 0)
        for out_last, k in zip(outside[:, -1].tolist(), from_end)
    ]
    return (idx[0], exits[0]) if one else (idx, exits)


def persistent_entries(
    trajectory: Trajectory, intervals: Sequence[tuple[float, float]]
) -> list[EntryRecord]:
    """Persistent entries of the substrate channel into closed intervals.

    Each entry is the first dense sample of its persistent tail (the rule of
    ``scan_persistent_entry``), every interval's membership from one
    (intervals x samples) comparison.  An excursion between two samples is
    not seen, and persistence is always relative to the finite horizon.
    """
    s = trajectory.states[:, 0]
    t = trajectory.times
    bounds = np.array(intervals, dtype=float).reshape(len(intervals), 2)
    bad = np.flatnonzero(~(bounds[:, 0] < bounds[:, 1]))
    if bad.size:
        k = int(bad[0])
        raise ParameterError(f"interval {k} must satisfy lo < hi, got {intervals[k]!r}", field="intervals")
    idx, exits = scan_persistent_entry((s >= bounds[:, :1]) & (s <= bounds[:, 1:]))
    return [
        EntryRecord((lo, hi), None if k is None else float(t[k]), excursions, k)
        for (lo, hi), k, excursions in zip(bounds.tolist(), idx, exits)
    ]


def first_persistent_entry(trajectory: Trajectory, interval: tuple[float, float]) -> EntryRecord:
    """Persistent entry into one closed interval (see ``persistent_entries``)."""
    return persistent_entries(trajectory, [interval])[0]
