"""Adaptive embedded Runge-Kutta integration with dense output.

The stepper is the classic Dormand-Prince 4(5) pair with a
proportional-integral step controller and the standard quartic continuous
extension.  The integration is fully deterministic: identical inputs produce
bit-identical trajectories on a fixed platform.

Negative undershoots of accepted states are clipped to zero, since the
positive orthant is invariant for the model; the worst pre-clip component is
recorded in the integrator statistics.
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
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

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


@dataclass(frozen=True)
class IntegratorStats:
    """Step counts and controls actually used by one integration."""

    steps_accepted: int
    steps_rejected: int
    rhs_evals: int
    rel_tol: float
    abs_tol: float
    dense_dt: float
    first_step: float
    min_component_preclip: float


@dataclass(frozen=True)
class Channels:
    """Derived channels sampled on the dense grid.

    Proportions are NaN wherever the biomass is below the definedness floor.
    The ratio block covers species 2..n and is None for single-species runs
    or when the first species starts absent.
    """

    b: np.ndarray
    p: np.ndarray
    m: np.ndarray
    r: np.ndarray | None


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


def _error_norm(
    err: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    q: np.ndarray,
    q1: np.ndarray,
) -> float:
    """RMS of err / (abs_tol + rel_tol * max(|y0|, |y1|)) in the buffers q, q1.

    ``np.add.reduce(q) / q.size`` is the sum and division of ``np.mean``.
    """
    np.abs(y0, out=q)
    np.abs(y1, out=q1)
    np.maximum(q, q1, out=q)
    q *= rel_tol
    q += abs_tol
    np.divide(err, q, out=q)
    q *= q
    return math.sqrt(np.add.reduce(q) / q.size)


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
    dense_dt: float | None = None,
) -> Trajectory:
    """Integrate the chemostat from ``x0`` over [0, horizon].

    Dense output is emitted on a uniform grid with spacing at most
    ``dense_dt`` (default horizon/2000), including both endpoints.  Raises
    :class:`StiffnessError` on step-size underflow and
    :class:`DivergenceError` if the state leaves the finite range.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ParameterError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (0.0 < rel_tol < 1.0) or not (0.0 < abs_tol < 1.0):
        raise ParameterError("tolerances must lie in (0, 1)")
    if len(growths) != x0.n:
        raise ParameterError("growth law count must match species count")
    if dense_dt is None:
        dense_dt = horizon / 2000.0
    if not (math.isfinite(dense_dt) and dense_dt > 0.0):
        raise ParameterError(f"dense_dt must be finite and > 0, got {dense_dt!r}")

    f = vector_field(params, growths)
    y = np.concatenate(([x0.s], x0.x)).astype(float)
    t = 0.0
    # K[0] holds the derivative at the current state (first-same-as-last).
    # Every stage writes its derivative into its own row of K through
    # ``out``, and the views of K that the stages read are sliced once.
    K = np.empty((7, y.size))
    f(t, y, out=K[0])
    n_evals = 1
    stages = [(a_row, K[: i + 1], K[i + 1], _C[i + 1]) for i, a_row in enumerate(_A)]
    K_b = K[:6]
    K_ends = K[::6]  # rows 0 and 6, the derivatives at both ends of a step
    stage, err_vec, q, q1 = np.empty((4, y.size))

    # Below this step size the explicit pair cannot make useful progress on
    # the requested horizon; treat it as stiffness (or divergence when the
    # state has already left any physical scale).
    min_step = 1e-14 * horizon
    h, used = _initial_step(f, t, y, K[0], horizon, rel_tol, abs_tol)
    n_evals += used
    # The guess falls below that limit for a state near zero with a large
    # derivative (s0 = 1e-12, no biomass); the controller corrects it.
    h = max(h, min_step)
    first_step = h

    step_times = [0.0]
    step_states = [y]
    step_sizes = []
    # Raw rows of the interpolant, one (5, dim) block per accepted step:
    # row 1 the pre-clip end state, rows 2 and 3 the end derivatives, row 4
    # _D @ K.  The coefficients are finished in place after the loop.  The
    # buffer doubles when full and is cut to the step count at the end.
    conts = np.empty((64, 5, y.size))

    n_accepted = 0
    n_rejected = 0
    fac_old = 1e-4
    min_preclip = float(np.min(y))

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

            # stage = y + h * (a_row @ K[:i+1]), in place and in that order
            for a_row, K_a, K_i, c_i in stages:
                np.dot(a_row, K_a, out=stage)
                stage *= h
                stage += y
                f(t + c_i * h, stage, out=K_i)
            y_new = np.dot(_B, K_b)
            y_new *= h
            y_new += y
            f(t + h, y_new, out=K[6])
            n_evals += 6
            np.dot(_E, K, out=err_vec)
            err_vec *= h
            err = _error_norm(err_vec, y, y_new, rel_tol, abs_tol, q, q1)

            if not np.isfinite(y_new).all() or not math.isfinite(err):
                # overflow inside the trial step: reject as hard as possible
                n_rejected += 1
                h = h / _FAC_SHRINK_MAX
                continue

            if err <= 1.0:
                # Accept: keep the interpolant's raw rows, then clip.
                if n_accepted == conts.shape[0]:
                    # only the previous step's view ``c`` refers to the
                    # buffer, and it is never read again, so it may move
                    conts.resize((2 * n_accepted,) + conts.shape[1:], refcheck=False)
                c = conts[n_accepted]
                c[1] = y_new
                c[2:4] = K_ends
                np.dot(_D, K, out=c[4])
                step_sizes.append(h)

                t = t + h
                low = float(np.minimum.reduce(y_new))
                if low < min_preclip:
                    min_preclip = low
                if low < 0.0:
                    y = np.maximum(y_new, 0.0)
                    f(t, y, out=K[0])
                    n_evals += 1
                else:
                    y = y_new
                    K[0] = K[6]
                step_times.append(t)
                step_states.append(y)
                n_accepted += 1

                fac = (err**_EXPO) / (fac_old**_BETA)
                fac = max(_FAC_GROW_MAX, min(_FAC_SHRINK_MAX, fac / _SAFETY))
                h = h / fac
                fac_old = max(err, 1e-4)
            else:
                n_rejected += 1
                h = h / min(_FAC_SHRINK_MAX, (err**_EXPO) / _SAFETY)

    conts.resize((n_accepted,) + conts.shape[1:], refcheck=False)
    step_times_arr = np.array(step_times)
    step_states_arr = np.array(step_states)
    _finish_coeffs(conts, step_states_arr[:-1], np.array(step_sizes)[:, None])

    n_dense = max(1, math.ceil(horizon / dense_dt))
    times = np.linspace(0.0, horizon, n_dense + 1)
    states = _dense_states(times, step_times_arr, step_states_arr, conts)

    meta = IntegratorStats(
        steps_accepted=n_accepted,
        steps_rejected=n_rejected,
        rhs_evals=n_evals,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        dense_dt=horizon / n_dense,
        first_step=first_step,
        min_component_preclip=min_preclip,
    )
    channels = _derive_channel_arrays(states, x0)
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

    ``conts[k]`` holds [-, y_new, K0, K6, D K] of step k (y_new before
    clipping), ``y0[k]`` its start state and ``h[k]`` its size.  The rows
    become [y0, ydiff, h K0 - ydiff, ydiff - h K6 - (h K0 - ydiff), h D K]
    with ydiff = y_new - y0, by the elementwise operations of a per-step
    build in the same order, so every coefficient has the same bits.
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
    np.clip(k, 0, len(step_times) - 2, out=k)
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


def _derive_channel_arrays(states: np.ndarray, x0: State) -> Channels:
    x = states[:, 1:]
    b = x.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(b[:, None] >= _B_ZERO, x / b[:, None], np.nan)
    m = states[:, 0] + b
    r = None
    if x.shape[1] >= 2 and x0.x[0] > 0.0:
        # the ratio may overflow to inf when the lead density underflows;
        # downstream consumers mask non-finite samples
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(x[:, :1] > 0.0, x[:, 1:] / x[:, :1], np.nan)
        r.setflags(write=False)
    for arr in (b, p, m):
        arr.setflags(write=False)
    return Channels(b=b, p=p, m=m, r=r)


@dataclass(frozen=True)
class EntryRecord:
    """Persistent-entry report for one interval.

    ``entry_time`` is the infimum of times from which the tracked value stays
    in the interval up to the horizon; None when no such time exists.
    ``excursions`` counts exits after the first entry.
    """

    interval: tuple[float, float]
    entry_time: float | None
    excursions: int


def scan_persistent_entry(inside: np.ndarray) -> tuple[int | None, int]:
    """Locate the persistent entry on sampled membership values.

    Returns (index of the first sample of the persistent tail, number of
    exits after the first entry).  The tail runs from the sample after the
    last outside one (0 if none is outside) to the end; the index is None
    when the last sample is outside.
    """
    exits = int(np.count_nonzero(inside[:-1] & ~inside[1:]))
    if not inside[-1]:
        return None, exits
    outside = np.flatnonzero(~inside)
    return (int(outside[-1]) + 1 if outside.size else 0), exits


def persistent_entries(
    trajectory: Trajectory, intervals: Sequence[tuple[float, float]]
) -> list[EntryRecord]:
    """Persistent entries of the substrate channel into closed intervals.

    Each entry is located on the dense samples and then refined by bisecting
    the continuous extension across the bracketing spacing.  The brackets of
    all intervals are bisected in lockstep, one evaluation of the substrate
    interpolant per round at every unfinished midpoint.  Persistence is
    always relative to the finite horizon.
    """
    s = trajectory.states[:, 0]
    t = trajectory.times
    scans = []  # (lo, hi, entry index, excursions)
    for interval in intervals:
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ParameterError(f"interval must satisfy lo < hi, got {interval!r}")
        scans.append((lo, hi, *scan_persistent_entry((s >= lo) & (s <= hi))))

    # Bracket [t_out, t_in] of every entry past the first sample.
    refine = [k for k, (_, _, idx, _) in enumerate(scans) if idx]
    lows = np.array([scans[k][0] for k in refine])
    highs = np.array([scans[k][1] for k in refine])
    t_in_idx = [scans[k][2] for k in refine]
    t_out = t[[idx - 1 for idx in t_in_idx]]
    t_in = t[t_in_idx]
    tol = max(1e-12, 1e-9 * trajectory.horizon)
    active = np.flatnonzero(t_in - t_out > tol)
    while active.size:
        mid = 0.5 * (t_out[active] + t_in[active])
        sm = _dense_states(
            mid, trajectory.step_times, trajectory.step_states[:, :1], trajectory.step_coeffs[:, :, :1]
        )[:, 0]
        inside = (lows[active] <= sm) & (sm <= highs[active])
        t_in[active[inside]] = mid[inside]
        t_out[active[~inside]] = mid[~inside]
        active = active[t_in[active] - t_out[active] > tol]

    entry_times: list[float | None] = [None if idx is None else 0.0 for _, _, idx, _ in scans]
    for pos, k in enumerate(refine):
        entry_times[k] = float(t_in[pos])
    return [
        EntryRecord((lo, hi), entry_time, excursions)
        for (lo, hi, _, excursions), entry_time in zip(scans, entry_times)
    ]


def first_persistent_entry(trajectory: Trajectory, interval: tuple[float, float]) -> EntryRecord:
    """Persistent entry into one closed interval (see ``persistent_entries``)."""
    return persistent_entries(trajectory, [interval])[0]
