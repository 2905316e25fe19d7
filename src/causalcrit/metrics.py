"""Driving-task criticality metrics over sampled trajectories.

Brake and steer threat numbers relate the acceleration a driving task
requires to the acceleration the road surface makes available. Required
accelerations come from central second differences of the sampled paths,
decomposed into the path frame (unit tangent and its normal); available
accelerations come from a rectangular lattice field queried by nearest cell.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateTrajectory,
    FieldCoverageGap,
    NonMonotoneEdges,
    ValidationError,
    ZeroAvailableAcceleration,
)

__all__ = [
    "Trajectory",
    "DrivingTask",
    "AccelField",
    "along_req_dt",
    "alat_req_dt",
    "along_min",
    "alat_min",
    "btn_dt",
    "stn_dt",
    "aggregate",
    "discretize_metric",
]

_SPEED_EPS = 1e-12
_TIME_TOL = 1e-9

AGGREGATION_MODES = ("max", "mean", "euclidean")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled planar path (t, x, y); needs interior points for
    central second differences."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t, x, y = (np.asarray(a, dtype=float) for a in (self.t, self.x, self.y))
        if not (t.shape == x.shape == y.shape) or t.ndim != 1:
            raise ValidationError("t, x, y must be equal-length 1-d arrays")
        if t.size < 5:
            raise ValidationError("need at least 5 samples for interior differences")
        if not np.all(np.isfinite((t, x, y))):
            raise ValidationError("t, x, y samples must be finite")
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise ValidationError("time stamps must be strictly increasing")
        dt = steps[0]
        if np.any(np.abs(steps - dt) > _TIME_TOL * max(1.0, abs(dt))):
            raise ValidationError("time step must be uniform")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def covers(self, t_start: float, t_end: float) -> bool:
        return self.t[0] <= t_start + _TIME_TOL and self.t[-1] >= t_end - _TIME_TOL


def trajectory_from_rows(rows: Iterable[Sequence[float]]) -> Trajectory:
    arr = np.asarray(list(rows), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("trajectory rows must be (t, x, y) triples")
    return Trajectory(t=arr[:, 0], x=arr[:, 1], y=arr[:, 2])


@dataclass(frozen=True)
class DrivingTask:
    """Pre-filtered candidate trajectories with situation time and horizon.

    Goal filtering (mobility, comfort, ...) happens upstream; every
    trajectory here already counts as an acceptable way to complete the task.
    """

    trajectories: tuple[Trajectory, ...]
    t_start: float
    horizon: float

    def __post_init__(self):
        if not self.trajectories:
            raise ValidationError("a driving task needs at least one trajectory")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        end = self.t_start + self.horizon
        for k, traj in enumerate(self.trajectories):
            if not traj.covers(self.t_start, end):
                raise ValidationError(
                    f"trajectory {k} does not cover [{self.t_start}, {end}]"
                )

    @property
    def t_end(self) -> float:
        return self.t_start + self.horizon


@dataclass(frozen=True, eq=False)
class AccelField:
    """Available acceleration per lattice cell: longitudinal <= 0, lateral >= 0."""

    x0: float
    y0: float
    dx: float
    dy: float
    long_avail: np.ndarray  # shape (ny, nx)
    lat_avail: np.ndarray  # shape (ny, nx)

    def __post_init__(self):
        la = np.asarray(self.long_avail, dtype=float)
        lt = np.asarray(self.lat_avail, dtype=float)
        if la.ndim != 2 or la.shape != lt.shape:
            raise ValidationError("field grids must be equal-shape 2-d arrays")
        if not (np.isfinite([self.x0, self.y0, self.dx, self.dy]).all() and self.dx > 0 and self.dy > 0):
            raise ValidationError("the field origin must be finite and its cell sizes finite and positive")
        if not (np.all(np.isfinite(la)) and np.all(np.isfinite(lt))):
            raise ValidationError("field values must be finite")
        if np.any(la > 0):
            raise ValidationError("longitudinal availability must be <= 0")
        if np.any(lt < 0):
            raise ValidationError("lateral availability must be >= 0")
        object.__setattr__(self, "long_avail", la)
        object.__setattr__(self, "lat_avail", lt)

    def lookup(self, x: float, y: float) -> tuple[float, float]:
        """Nearest-cell values; points outside the lattice are a coverage gap."""
        ny, nx = self.long_avail.shape
        ix = int(round((x - self.x0) / self.dx))
        iy = int(round((y - self.y0) / self.dy))
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise FieldCoverageGap(f"point ({x}, {y}) lies outside the field lattice")
        return float(self.long_avail[iy, ix]), float(self.lat_avail[iy, ix])


def _window_slice(traj: Trajectory, dt_task: DrivingTask) -> slice:
    lo = int(np.searchsorted(traj.t, dt_task.t_start - _TIME_TOL, side="left"))
    hi = int(np.searchsorted(traj.t, dt_task.t_end + _TIME_TOL, side="right"))
    return slice(lo, hi)


def _frame_accelerations(traj: Trajectory, window: slice) -> tuple[np.ndarray, np.ndarray]:
    """Longitudinal and lateral second differences at interior window samples."""
    t, x, y = traj.t[window], traj.x[window], traj.y[window]
    if t.size < 3:
        raise ValidationError("evaluation window holds fewer than 3 samples")
    h = traj.dt
    vx = (x[2:] - x[:-2]) / (2 * h)
    vy = (y[2:] - y[:-2]) / (2 * h)
    ax = (x[2:] - 2 * x[1:-1] + x[:-2]) / (h * h)
    ay = (y[2:] - 2 * y[1:-1] + y[:-2]) / (h * h)
    speed = np.hypot(vx, vy)
    if np.any(speed < _SPEED_EPS):
        raise DegenerateTrajectory(
            "zero-length path segment; the tangent direction is undefined"
        )
    tx, ty = vx / speed, vy / speed
    a_long = ax * tx + ay * ty
    a_lat = -ax * ty + ay * tx
    # Differencing float coordinates cannot resolve accelerations below
    # eps * |coord| / h^2; snap that noise to zero so straight uniform motion
    # reports exactly none.
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), 1.0)
    noise_floor = 64 * np.finfo(float).eps * scale / (h * h)
    a_long[np.abs(a_long) < noise_floor] = 0.0
    a_lat[np.abs(a_lat) < noise_floor] = 0.0
    return a_long, a_lat


def along_req_dt(task: DrivingTask) -> float:
    """Weakest braking demand over the task: the trajectory needing the least
    longitudinal deceleration decides, clamped at zero when no braking is
    needed."""
    per_traj = []
    for traj in task.trajectories:
        a_long, _ = _frame_accelerations(traj, _window_slice(traj, task))
        per_traj.append(float(a_long.min()))
    return min(0.0, max(per_traj))


def alat_req_dt(task: DrivingTask) -> float:
    """Least lateral-acceleration budget some trajectory can stay within."""
    per_traj = []
    for traj in task.trajectories:
        _, a_lat = _frame_accelerations(traj, _window_slice(traj, task))
        per_traj.append(float(np.abs(a_lat).max()))
    return max(0.0, min(per_traj))


def along_min(task: DrivingTask, field: AccelField) -> float:
    """Worst longitudinal availability met along any task trajectory."""
    worst = -np.inf
    for traj in task.trajectories:
        w = _window_slice(traj, task)
        for x, y in zip(traj.x[w], traj.y[w]):
            worst = max(worst, field.lookup(x, y)[0])
    return float(worst)


def alat_min(task: DrivingTask, field: AccelField) -> float:
    """Worst (smallest magnitude) lateral availability along the task."""
    worst = np.inf
    for traj in task.trajectories:
        w = _window_slice(traj, task)
        for x, y in zip(traj.x[w], traj.y[w]):
            worst = min(worst, abs(field.lookup(x, y)[1]))
    return float(worst)


def btn_dt(task: DrivingTask, field: AccelField) -> float:
    """Brake threat number: required over available longitudinal acceleration."""
    req = along_req_dt(task)
    avail = along_min(task, field)
    if avail == 0.0:
        raise ZeroAvailableAcceleration("no longitudinal acceleration available")
    return req / avail


def stn_dt(task: DrivingTask, field: AccelField) -> float:
    """Steer threat number: required over available lateral acceleration."""
    req = alat_req_dt(task)
    avail = alat_min(task, field)
    if avail == 0.0:
        raise ZeroAvailableAcceleration("no lateral acceleration available")
    return req / avail


def aggregate(btn: float, stn: float, mode: str = "max") -> float:
    """Combine both threat numbers into the single metric value.

    The combination is deliberately configurable; ``max`` mirrors the
    worst-of-both reading and is the default.
    """
    if btn < 0 or stn < 0:
        raise ValidationError("threat numbers are nonnegative")
    if mode == "max":
        return max(btn, stn)
    if mode == "mean":
        return (btn + stn) / 2.0
    if mode == "euclidean":
        return float(np.hypot(btn, stn))
    raise ValidationError(f"unknown aggregation mode {mode!r}")


def discretize_metric(
    value: float,
    bin_edges: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Half-open binning [e_i, e_{i+1}); values on an edge go to the upper bin.

    With k edges there are k + 1 bins; ``labels`` overrides the generated
    ``bin0..bink`` names.
    """
    edges = list(bin_edges)
    if not edges:
        raise NonMonotoneEdges("need at least one bin edge")
    if not np.all(np.isfinite(edges)):
        raise NonMonotoneEdges("bin edges must be finite")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise NonMonotoneEdges("bin edges must be strictly ascending")
    if labels is not None and len(labels) != len(edges) + 1:
        raise ValidationError(f"need {len(edges) + 1} labels for {len(edges)} edges")
    bin_idx = bisect_right(edges, value)
    return labels[bin_idx] if labels is not None else f"bin{bin_idx}"
