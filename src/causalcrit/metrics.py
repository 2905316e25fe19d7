"""Driving-task criticality metrics over sampled trajectories.

Brake and steer threat numbers relate the acceleration a driving task
requires to the acceleration the road surface makes available. Required
accelerations come from central second differences of the sampled paths,
decomposed into the path frame (unit tangent and its normal); available
accelerations come from a rectangular lattice field queried by nearest cell.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional, Sequence

import numpy as np

from ._record import record
from .choices import AGGREGATION_MODES
from .errors import (
    DegenerateTrajectory,
    FieldCoverageGap,
    NonMonotoneEdges,
    ValidationError,
    ZeroAvailableAcceleration,
)

__all__ = [
    "AGGREGATION_MODES",
    "Trajectory",
    "DrivingTask",
    "AccelField",
    "along_req_dt",
    "alat_req_dt",
    "along_min",
    "alat_min",
    "btn_dt",
    "stn_dt",
    "threat_numbers",
    "aggregate",
    "check_bins",
    "discretize_metric",
]

_SPEED_EPS = 1e-12
_TIME_TOL = 1e-9


@record(eq=False)
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


@record
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
        if not np.isfinite((self.t_start, self.horizon)).all():
            raise ValidationError(f"a task window needs a finite t_start and a finite, positive horizon, "
                                  f"not {self.t_start} and {self.horizon}")
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


@record(eq=False)
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

    def lookup(self, x: float | np.ndarray, y: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-cell (long, lat) values at a point or at arrays of points;
        the first point outside the lattice is a coverage gap."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        ny, nx = self.long_avail.shape
        # rint rounds half to even, as round does; an index past the float
        # range is inf and so lies outside.
        with np.errstate(over="ignore"):
            fx = np.rint((x - self.x0) / self.dx)
            fy = np.rint((y - self.y0) / self.dy)
        outside = ~((0 <= fx) & (fx < nx) & (0 <= fy) & (fy < ny))
        if outside.any():
            k = np.argmax(outside)
            raise FieldCoverageGap(f"point ({x.flat[k]}, {y.flat[k]}) lies outside the field lattice")
        ix, iy = fx.astype(np.intp), fy.astype(np.intp)
        return self.long_avail[iy, ix], self.lat_avail[iy, ix]


def _windows(task: DrivingTask) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Each task trajectory's time step and its x and y samples in the task window."""
    for traj in task.trajectories:
        lo = int(np.searchsorted(traj.t, task.t_start - _TIME_TOL, side="left"))
        hi = int(np.searchsorted(traj.t, task.t_end + _TIME_TOL, side="right"))
        yield traj.dt, traj.x[lo:hi], traj.y[lo:hi]


def _frame_accelerations(h: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longitudinal and lateral second differences at interior window samples
    taken ``h`` apart."""
    if x.size < 3:
        raise ValidationError("evaluation window holds fewer than 3 samples")
    with np.errstate(all="ignore"):
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
    if not np.isfinite((a_long, a_lat)).all():
        raise ValidationError("the finite differences leave the float range: accelerations are not finite")
    return a_long, a_lat


def _required(task: DrivingTask, names: Optional[Sequence[str]] = None) -> tuple[float, float]:
    """(along_req_dt, alat_req_dt) from one acceleration pass per task window;
    an error names the trajectory by ``names[k]``, else by its index k."""
    accelerations = []
    for k, window in enumerate(_windows(task)):
        try:
            accelerations.append(_frame_accelerations(*window))
        except (ValidationError, DegenerateTrajectory) as exc:
            where = names[k] if names is not None else f"trajectory {k}"
            raise type(exc)(f"{where}: {exc}") from None
    return (
        min(0.0, max(float(a_long.min()) for a_long, _ in accelerations)),
        max(0.0, min(float(np.abs(a_lat).max()) for _, a_lat in accelerations)),
    )


def _available(task: DrivingTask, field: AccelField) -> tuple[float, float]:
    """(along_min, alat_min) from one field lookup per task window."""
    cells = [field.lookup(x, y) for _, x, y in _windows(task)]
    return (
        max(float(np.max(long, initial=-np.inf)) for long, _ in cells),
        min(float(np.min(np.abs(lat), initial=np.inf)) for _, lat in cells),
    )


def along_req_dt(task: DrivingTask) -> float:
    """Weakest braking demand over the task: the trajectory needing the least
    longitudinal deceleration decides, clamped at zero when no braking is
    needed."""
    return _required(task)[0]


def alat_req_dt(task: DrivingTask) -> float:
    """Least lateral-acceleration budget some trajectory can stay within."""
    return _required(task)[1]


def along_min(task: DrivingTask, field: AccelField) -> float:
    """Worst longitudinal availability met along any task trajectory."""
    return _available(task, field)[0]


def alat_min(task: DrivingTask, field: AccelField) -> float:
    """Worst (smallest magnitude) lateral availability along the task."""
    return _available(task, field)[1]


def _threat(req: float, avail: float, axis: str) -> float:
    if avail == 0.0:
        raise ZeroAvailableAcceleration(f"no {axis} acceleration available")
    threat = req / avail
    if not np.isfinite(threat):
        raise ValidationError(f"the {axis} threat number {req} / {avail} is not finite")
    return threat


def btn_dt(task: DrivingTask, field: AccelField) -> float:
    """Brake threat number: required over available longitudinal acceleration."""
    return _threat(along_req_dt(task), along_min(task, field), "longitudinal")


def stn_dt(task: DrivingTask, field: AccelField) -> float:
    """Steer threat number: required over available lateral acceleration."""
    return _threat(alat_req_dt(task), alat_min(task, field), "lateral")


def threat_numbers(
    task: DrivingTask, field: AccelField, names: Optional[Sequence[str]] = None
) -> dict[str, float]:
    """The four accelerations and both threat numbers above, keyed by name, from
    one acceleration pass and one field lookup per task window; an acceleration
    error names the trajectory by ``names[k]``, else by its index k."""
    along_req, alat_req = _required(task, names)
    along_avail, alat_avail = _available(task, field)
    return {
        "along_req": along_req,
        "alat_req": alat_req,
        "along_min": along_avail,
        "alat_min": alat_avail,
        "btn_dt": _threat(along_req, along_avail, "longitudinal"),
        "stn_dt": _threat(alat_req, alat_avail, "lateral"),
    }


def aggregate(btn: float, stn: float, mode: str = "max") -> float:
    """Combine both threat numbers into the single metric value.

    The combination is deliberately configurable; ``max`` mirrors the
    worst-of-both reading and is the default. A NaN or an inf raises in every mode.
    """
    if np.isnan(btn) or np.isnan(stn):
        raise ValidationError("threat numbers must not be NaN")
    if np.isinf(btn) or np.isinf(stn):
        raise ValidationError("threat numbers must be finite")
    if btn < 0 or stn < 0:
        raise ValidationError("threat numbers are nonnegative")
    if mode == "max":
        return max(btn, stn)
    if mode == "mean":
        return (btn + stn) / 2.0
    if mode == "euclidean":
        return float(np.hypot(btn, stn))
    raise ValidationError(f"unknown aggregation mode {mode!r}")


def check_bins(bin_edges: Sequence[float], labels: Optional[Sequence[str]] = None) -> list[float]:
    """The edges as a list, once they are finite and strictly ascending and
    ``labels``, if given, name each of their bins."""
    edges = list(bin_edges)
    if not edges:
        raise NonMonotoneEdges("need at least one bin edge")
    if not np.all(np.isfinite(edges)):
        raise NonMonotoneEdges("bin edges must be finite")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise NonMonotoneEdges("bin edges must be strictly ascending")
    if labels is not None and len(labels) != len(edges) + 1:
        raise ValidationError(f"need {len(edges) + 1} labels for {len(edges)} edges")
    return edges


def discretize_metric(
    value: float,
    bin_edges: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Half-open binning [e_i, e_{i+1}); values on an edge go to the upper bin.

    With k edges there are k + 1 bins; ``labels`` overrides the generated
    ``bin0..bink`` names. A NaN value raises :class:`ValidationError`.
    """
    edges = check_bins(bin_edges, labels)
    if np.isnan(value):
        raise ValidationError("cannot bin a NaN metric value")
    bin_idx = bisect_right(edges, value)
    return labels[bin_idx] if labels is not None else f"bin{bin_idx}"
