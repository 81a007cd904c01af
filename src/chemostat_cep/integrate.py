"""Adaptive embedded Runge-Kutta integration with dense output.

The stepper is the classic Dormand-Prince 4(5) pair with a
proportional-integral step controller and the standard quartic continuous
extension.  Each combination of a trial step, y + h (a . k), is one
``np.dot`` (1, h a) . (y, k0..k6) of a row of the folded table against the
stage matrix ``KY``.  Identical inputs give bit-identical trajectories on
one platform and one BLAS kernel, which sets the order of those sums.

The positive orthant is invariant for the model, so a step that would end
with any component below zero is rejected, however small the undershoot.
An accepted state is never altered (clipping it would add mass): every step
starts exactly where the previous one ended, so the mass follows the linear
law m' = d (s_in - m) through the pair's own stability polynomial alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import ChemostatParams, State, vector_field
from .errors import DivergenceError, DomainError, ParameterError, StiffnessError
from .growth import GrowthFunction

# Dormand-Prince 4(5) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
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

_B_ZERO = 1e-12  # biomass floor below which proportions are undefined

DENSE_INTERVALS = 2000  # dense output intervals over the horizon


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
    starts at 0 and ends exactly at the horizon.  ``sample`` evaluates the
    integrator's own continuous extension between steps.
    """

    times: np.ndarray
    states: np.ndarray
    channels: Channels
    meta: IntegratorStats
    step_times: np.ndarray
    step_states: np.ndarray
    step_coeffs: np.ndarray  # (steps, 5, dim) interpolant coefficients

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
            raise DomainError(f"sample time {t!r} outside [0, {horizon!r}]")
        t = min(max(t, 0.0), horizon)
        y = _dense_states(np.array([t]), self.step_times, self.step_states, self.step_coeffs)[0]
        return State(s=float(y[0]), x=y[1:])


def _initial_step(f, t0, y0, f0, horizon, rel_tol, abs_tol) -> tuple[float, int]:
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
        f1 = f(t0 + h0, y1)
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
        if not math.isfinite(d2):
            return min(1e-6, horizon), 1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, horizon), 1


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
        raise ParameterError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (0.0 < rel_tol < 1.0) or not (0.0 < abs_tol < 1.0):
        raise ParameterError("tolerances must lie in (0, 1)")
    if len(growths) != x0.n:
        raise ParameterError("growth law count must match species count")
    dense_dt = horizon / DENSE_INTERVALS
    if not dense_dt > 0.0:
        raise ParameterError(f"horizon {horizon!r} too small for {DENSE_INTERVALS} dense intervals")

    f = vector_field(params, growths)
    y0 = np.concatenate(([x0.s], x0.x)).astype(float)
    t = 0.0
    # KY = (y, k0..k6), k0 = f(y) carried over (first same as last); the
    # folded table hT is _TABLE with columns 1-7 scaled by h.  Every
    # combination reads its rows of hT and KY through views sliced once.
    KY = np.vstack((y0, np.empty((7, y0.size))))
    y, K = KY[0], KY[1:]
    f(t, y, out=K[0])
    hT = _TABLE.copy()
    h_cols, table_cols = hT[:, 1:], _TABLE[:, 1:]
    stages = [(hT[i, : i + 2], KY[: i + 2], KY[i + 2], _C[i + 1]) for i in range(5)]
    hB, KY_b, hE = hT[5, :7], KY[:7], hT[6, 1:]
    stage, err_vec, q, scale_new = np.empty((4, y0.size))
    scale = abs_tol + rel_tol * np.abs(y0)  # of the current state, kept across rejected steps

    # Below this step size the explicit pair cannot make useful progress on
    # the requested horizon; treat it as stiffness (or divergence when the
    # state has already left any physical scale).
    min_step = 1e-14 * horizon
    h, used = _initial_step(f, t, y0, K[0], horizon, rel_tol, abs_tol)
    # The guess falls below that limit for a state near zero with a large
    # derivative (s0 = 1e-12, no biomass); the controller corrects it.
    h = max(h, min_step)
    first_step = h

    step_times = [0.0]
    step_sizes = []
    # Raw rows of the interpolant, one (5, dim) block per accepted step:
    # row 1 the end state (every trial writes its own), rows 2 and 3 the end
    # derivatives, row 4 _D @ K, finished in place after the loop.  The
    # buffer doubles when full and is cut to the step count at the end.
    conts = np.empty((64, 5, y0.size))
    y_new = conts[0, 1]

    n_accepted = 0
    n_rejected = 0
    fac_old = 1e-4

    with np.errstate(over="ignore", invalid="ignore"):
        while t < horizon:
            # Judge underflow on the controller's proposal, not on the final
            # sliver left before the horizon, which may be one ulp wide.
            if h < min_step or t + min(h, horizon - t) <= t:
                if float(np.max(np.abs(y))) > 1e100:
                    raise DivergenceError(t, y, "state grew beyond any physical scale")
                raise StiffnessError(t, y)
            h = min(h, horizon - t)
            if n_accepted + n_rejected >= _MAX_STEPS:
                raise StiffnessError(t, y, f"step budget of {_MAX_STEPS} exhausted")

            # stage = (1, h a_row) . (y, k0..k_i), in place
            np.multiply(table_cols, h, out=h_cols)
            for hT_i, KY_i, K_i, c_i in stages:
                np.dot(hT_i, KY_i, out=stage)
                f(t + c_i * h, stage, out=K_i)
            np.dot(hB, KY_b, out=y_new)
            f(t + h, y_new, out=K[6])
            np.dot(hE, K, out=err_vec)
            # err = RMS of err_vec / max(scale, abs_tol + rel_tol |y_new|),
            # which is err_vec / (abs_tol + rel_tol max(|y|, |y_new|))
            np.abs(y_new, out=scale_new)
            scale_new *= rel_tol
            scale_new += abs_tol
            np.maximum(scale, scale_new, out=q)
            np.divide(err_vec, q, out=q)
            err = math.sqrt(np.dot(q, q) / q.size)

            low = float(np.minimum.reduce(y_new))
            # Both RHS bodies give a non-finite derivative component j when
            # component j of the state is non-finite, and E[6] K[6] carries
            # it into err_vec[j]; so a non-finite y_new makes err non-finite
            # (inf or NaN), and no reduction over y_new is needed.
            if not math.isfinite(err) or not math.isfinite(low) or (err <= 1.0 and low < 0.0):
                # Overflow inside the trial step, or an end state outside the
                # positive orthant: reject as hard as possible.
                n_rejected += 1
                h = h / _FAC_SHRINK_MAX
                continue

            if err <= 1.0:
                # Accept: keep the raw rows; y_new and k6 (rows 1, 3) start the next step.
                c = conts[n_accepted]
                c[2:4] = KY[1::6]
                np.dot(_D, K, out=c[4])
                KY[:2] = c[1:4:2]
                step_sizes.append(h)

                t = t + h
                scale, scale_new = scale_new, scale
                step_times.append(t)
                n_accepted += 1
                if n_accepted == conts.shape[0]:
                    # only the stale views ``c`` and ``y_new`` point into it, so it may move
                    conts.resize((2 * n_accepted,) + conts.shape[1:], refcheck=False)
                y_new = conts[n_accepted, 1]

                fac = (err**_EXPO) / (fac_old**_BETA)
                fac = max(_FAC_GROW_MAX, min(_FAC_SHRINK_MAX, fac / _SAFETY))
                h = h / fac
                fac_old = max(err, 1e-4)
            else:
                n_rejected += 1
                h = h / min(_FAC_SHRINK_MAX, (err**_EXPO) / _SAFETY)

    conts.resize((n_accepted,) + conts.shape[1:], refcheck=False)
    step_times_arr = np.array(step_times)
    # each step starts at the previous one's end row, which _finish_coeffs
    # overwrites, so the states are taken first
    step_states_arr = np.concatenate((y0[None], conts[:, 1]))
    _finish_coeffs(conts, step_states_arr[:-1], np.array(step_sizes)[:, None])

    # not the bare constant: the rounding of horizon / dense_dt gives 2001
    # intervals for some horizons, and the dense grid keeps them
    n_dense = max(1, math.ceil(horizon / dense_dt))
    times = np.linspace(0.0, horizon, n_dense + 1)
    states = _dense_states(times, step_times_arr, step_states_arr, conts)

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
    for arr in (times, states, step_times_arr, step_states_arr, conts):
        arr.setflags(write=False)
    return Trajectory(
        times=times,
        states=states,
        channels=channels,
        meta=meta,
        step_times=step_times_arr,
        step_states=step_states_arr,
        step_coeffs=conts,
    )


def _finish_coeffs(conts: np.ndarray, y0: np.ndarray, h: np.ndarray) -> None:
    """Turn the raw rows of every step into its interpolant coefficients.

    ``conts[k]`` holds [-, y_new, K0, K6, D K] of step k, ``y0[k]`` its
    start state (the y_new of step k - 1, or the initial state) and ``h[k]``
    its size.  The rows become
    [y0, ydiff, h K0 - ydiff, ydiff - h K6 - (h K0 - ydiff), h D K] with
    ydiff = y_new - y0, by the elementwise operations of a per-step build in
    the same order, so every coefficient has the same bits.
    """
    c1, c2, c3, c4 = (conts[:, r] for r in range(1, 5))
    c1 -= y0  # ydiff
    c2 *= h
    c2 -= c1  # bspl = h K0 - ydiff
    c3 *= h
    np.subtract(c1, c3, out=c3)
    c3 -= c2  # ydiff - h K6 - bspl
    c4 *= h
    conts[:, 0] = y0


def _dense_states(times, step_times, step_states, step_conts) -> np.ndarray:
    """Continuous extension at every time of ``times`` (in [0, horizon]).

    Times on a step node give that node's state and times at or past the
    last node give the final state; elsewhere the quartic
    c1 + theta (c2 + (1 - theta) (c3 + theta (c4 + (1 - theta) c5))) of the
    enclosing step is evaluated, one coefficient slice at a time.  Negative
    undershoots are clipped to zero.
    """
    k = np.searchsorted(step_times, times, side="right") - 1
    # np.maximum/np.minimum rather than np.clip, whose Python wrapper adds
    # about 3 us per call, of about 40 us for one ``Trajectory.sample``
    np.minimum(np.maximum(k, 0, out=k), len(step_times) - 2, out=k)
    t0 = step_times[k]
    theta = ((times - t0) / (step_times[k + 1] - t0))[:, None]
    rest = 1.0 - theta
    out = rest * step_conts[k, 4]
    out += step_conts[k, 3]
    out *= theta
    out += step_conts[k, 2]
    out *= rest
    out += step_conts[k, 1]
    out *= theta
    out += step_conts[k, 0]
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
        raise ParameterError(f"interval must satisfy lo < hi, got {intervals[int(bad[0])]!r}")
    idx, exits = scan_persistent_entry((s >= bounds[:, :1]) & (s <= bounds[:, 1:]))
    return [
        EntryRecord((lo, hi), None if k is None else float(t[k]), excursions, k)
        for (lo, hi), k, excursions in zip(bounds.tolist(), idx, exits)
    ]


def first_persistent_entry(trajectory: Trajectory, interval: tuple[float, float]) -> EntryRecord:
    """Persistent entry into one closed interval (see ``persistent_entries``)."""
    return persistent_entries(trajectory, [interval])[0]
