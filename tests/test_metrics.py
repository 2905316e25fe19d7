import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.errors import (
    DegenerateTrajectory,
    FieldCoverageGap,
    NonMonotoneEdges,
    ValidationError,
    ZeroAvailableAcceleration,
)
from causalcrit.metrics import (
    AccelField,
    DrivingTask,
    Trajectory,
    aggregate,
    alat_min,
    alat_req_dt,
    along_min,
    along_req_dt,
    btn_dt,
    discretize_metric,
    stn_dt,
    threat_numbers,
)

from oracles import nearest_cell


def straight_line(v=10.0, t_end=4.0, dt=0.05):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return Trajectory(t=t, x=v * t, y=np.zeros_like(t))


def braking_line(decel, v0=20.0, t_end=4.0, dt=0.05):
    """x(t) = v0 t - decel/2 t^2; v stays positive over the window."""
    t = np.arange(0.0, t_end + dt / 2, dt)
    return Trajectory(t=t, x=v0 * t - 0.5 * decel * t * t, y=np.zeros_like(t))


def circular_arc(v=10.0, radius=50.0, t_end=4.0, dt=0.05):
    t = np.arange(0.0, t_end + dt / 2, dt)
    omega = v / radius
    return Trajectory(
        t=t, x=radius * np.cos(omega * t), y=radius * np.sin(omega * t)
    )


def uniform_field(long_avail=-8.0, lat_avail=5.0, extent=300.0, cells=40):
    step = 2 * extent / cells
    shape = (cells, cells)
    return AccelField(
        x0=-extent,
        y0=-extent,
        dx=step,
        dy=step,
        long_avail=np.full(shape, long_avail),
        lat_avail=np.full(shape, lat_avail),
    )


def task(*trajectories, t_start=0.0, horizon=4.0):
    return DrivingTask(trajectories=tuple(trajectories), t_start=t_start, horizon=horizon)


class TestDrivingTask:
    @pytest.mark.parametrize(
        "t_start, horizon", [(math.nan, 4.0), (0.0, math.nan), (0.0, math.inf)], ids=["t_start-nan", "nan", "inf"]
    )
    def test_a_non_finite_window_is_refused(self, t_start, horizon):
        message = rf"^a task window needs a finite t_start and a finite, positive horizon, not {t_start} and {horizon}$"
        with pytest.raises(ValidationError, match=message):
            task(straight_line(), t_start=t_start, horizon=horizon)


class TestTrajectoryValidation:
    @pytest.mark.parametrize(
        "t, x",
        [(np.arange(6.0), np.zeros(5)), (np.arange(6.0).reshape(2, 3), np.zeros((2, 3)))],
        ids=["unequal-length", "two-dimensional"],
    )
    def test_sample_arrays_must_be_equal_length_and_flat(self, t, x):
        with pytest.raises(ValidationError, match="^t, x, y must be equal-length 1-d arrays$"):
            Trajectory(t=t, x=x, y=np.zeros_like(t))

    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            Trajectory(t=np.array([0, 1, 2, 3.0]), x=np.zeros(4), y=np.zeros(4))

    def test_strictly_increasing_time(self):
        t = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            Trajectory(t=t, x=np.zeros(5), y=np.zeros(5))

    def test_uniform_step_required(self):
        t = np.array([0.0, 1.0, 2.0, 3.5, 4.0])
        with pytest.raises(ValidationError):
            Trajectory(t=t, x=np.zeros(5), y=np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["t", "x", "y"])
    def test_non_finite_samples_rejected(self, axis, bad):
        t = np.arange(0.0, 0.5, 0.1)
        samples = {"t": t, "x": t.copy(), "y": np.zeros(5)}
        samples[axis][2] = bad
        with pytest.raises(ValidationError, match="finite"):
            Trajectory(**samples)

    def test_task_requires_coverage(self):
        with pytest.raises(ValidationError):
            task(straight_line(t_end=2.0), horizon=4.0)

    @pytest.mark.parametrize(
        "t_step, x_step",
        [(1e-200, 1e-199), (0.1, 1e307)],
        ids=["step-squared-underflows", "coordinates-near-max"],
    )
    def test_overflowing_differences_rejected(self, t_step, x_step):
        k = np.arange(11.0)
        traj = Trajectory(t=k * t_step, x=k * x_step, y=np.zeros(11))
        with pytest.raises(ValidationError, match="accelerations are not finite"):
            along_req_dt(task(traj, horizon=10 * t_step))
        with pytest.raises(ValidationError, match="accelerations are not finite"):
            alat_req_dt(task(traj, horizon=10 * t_step))

    def test_degenerate_standstill(self):
        t = np.arange(0.0, 4.01, 0.05)
        frozen = Trajectory(t=t, x=np.zeros_like(t), y=np.zeros_like(t))
        with pytest.raises(DegenerateTrajectory):
            along_req_dt(task(frozen))

    def test_acceleration_errors_name_the_trajectory(self):
        t = np.arange(0.0, 4.01, 0.05)
        frozen = Trajectory(t=t, x=np.zeros_like(t), y=np.zeros_like(t))
        two = task(straight_line(), frozen)
        with pytest.raises(DegenerateTrajectory, match=r"^trajectory 1: zero-length path segment"):
            alat_req_dt(two)
        with pytest.raises(DegenerateTrajectory, match=r"^b\.txt: zero-length path segment"):
            threat_numbers(two, uniform_field(), names=["a.txt", "b.txt"])
        short = task(straight_line(), straight_line(), t_start=1.0, horizon=0.05)
        with pytest.raises(ValidationError, match=r"^trajectory 0: evaluation window holds fewer than 3"):
            along_req_dt(short)


class TestRequiredAccelerations:
    def test_straight_constant_velocity_zero(self):
        dt_task = task(straight_line())
        assert along_req_dt(dt_task) == 0.0
        assert alat_req_dt(dt_task) == 0.0

    def test_uniform_deceleration_recovered(self):
        dt_task = task(braking_line(3.0))
        assert along_req_dt(dt_task) == pytest.approx(-3.0, abs=0.01)

    def test_least_demanding_trajectory_wins(self):
        dt_task = task(braking_line(3.0), braking_line(1.0))
        assert along_req_dt(dt_task) == pytest.approx(-1.0, abs=0.01)

    def test_circular_arc_centripetal(self):
        v, radius = 10.0, 50.0
        dt_task = task(circular_arc(v=v, radius=radius))
        assert alat_req_dt(dt_task) == pytest.approx(v * v / radius, rel=0.02)

    def test_straight_option_dominates_lateral(self):
        dt_task = task(circular_arc(), straight_line())
        assert alat_req_dt(dt_task) == 0.0

    def test_adding_weaker_trajectory_never_raises_demand(self):
        hard = task(braking_line(4.0))
        mixed = task(braking_line(4.0), braking_line(2.0))
        assert abs(along_req_dt(mixed)) <= abs(along_req_dt(hard))
        curved = task(circular_arc(v=12.0, radius=40.0))
        relaxed = task(circular_arc(v=12.0, radius=40.0), circular_arc(v=6.0, radius=80.0))
        assert alat_req_dt(relaxed) <= alat_req_dt(curved)

    def test_time_rescaling_scales_accelerations(self):
        lam = 2.0
        base = braking_line(3.0, v0=20.0, t_end=4.0, dt=0.05)
        slowed = Trajectory(t=base.t * lam, x=base.x, y=base.y)
        fast_task = task(base)
        slow_task = task(slowed, horizon=4.0 * lam)
        assert along_req_dt(slow_task) == pytest.approx(
            along_req_dt(fast_task) / lam**2, rel=0.01
        )

    def test_step_refinement_stable(self):
        coarse = task(braking_line(3.0, dt=0.05))
        fine = task(braking_line(3.0, dt=0.025))
        a, b = along_req_dt(coarse), along_req_dt(fine)
        assert abs(a - b) <= 0.005 * abs(a)
        v, radius = 10.0, 50.0
        c = alat_req_dt(task(circular_arc(v, radius, dt=0.05)))
        d = alat_req_dt(task(circular_arc(v, radius, dt=0.025)))
        assert abs(c - d) <= 0.005 * c


class TestAvailability:
    def test_uniform_field_values(self):
        dt_task = task(straight_line())
        field = uniform_field(long_avail=-8.0, lat_avail=5.0)
        assert along_min(dt_task, field) == -8.0
        assert alat_min(dt_task, field) == 5.0

    def test_worst_cell_dominates(self):
        dt_task = task(straight_line(v=10.0))
        field = uniform_field(long_avail=-8.0)
        # the straight line runs along y=0; weaken one crossed cell
        iy = int(round((0.0 - field.y0) / field.dy))
        ix = int(round((20.0 - field.x0) / field.dx))
        long_vals = np.array(field.long_avail)
        long_vals[iy, ix] = -2.0
        weak = AccelField(
            x0=field.x0, y0=field.y0, dx=field.dx, dy=field.dy,
            long_avail=long_vals, lat_avail=field.lat_avail,
        )
        assert along_min(dt_task, weak) == -2.0

    def test_coverage_gap(self):
        dt_task = task(straight_line(v=10.0, t_end=4.0))
        small = uniform_field(extent=5.0)
        with pytest.raises(FieldCoverageGap):
            along_min(dt_task, small)

    def test_lookup_takes_a_point_or_arrays(self):
        field = AccelField(
            x0=0.0, y0=0.0, dx=1.0, dy=1.0,
            long_avail=[[-1.0, -2.0, -3.0]], lat_avail=[[1.0, 2.0, 3.0]],
        )
        assert field.lookup(1.2, 0.4) == (-2.0, 2.0)
        long_vals, lat_vals = field.lookup([0.0, 0.5, 1.5, 2.4], 0.0)
        # 0.5 and 1.5 round half to even: cells 0 and 2.
        assert long_vals.tolist() == [-1.0, -1.0, -3.0, -3.0]
        assert lat_vals.tolist() == [1.0, 1.0, 3.0, 3.0]

    def test_lookup_names_the_first_outside_point(self):
        field = uniform_field(extent=5.0)
        with pytest.raises(FieldCoverageGap, match=r"^point \(7\.0, 0\.0\) lies outside"):
            field.lookup([0.0, 7.0, -9.0], [0.0, 0.0, 0.0])

    def test_far_point_on_tiny_cells_is_coverage_gap(self):
        # (100 - 0) / 1e-308 overflows to inf; that index lies outside.
        field = AccelField(
            x0=0.0, y0=0.0, dx=1e-308, dy=1e-308,
            long_avail=[[-8.0]], lat_avail=[[5.0]],
        )
        with pytest.raises(FieldCoverageGap, match=r"point \(100\.0, 0\.0\)"):
            field.lookup(100.0, 0.0)
        straight = Trajectory(t=np.arange(0.0, 1.05, 0.1), x=np.arange(11) * 10.0, y=np.zeros(11))
        with pytest.raises(FieldCoverageGap):
            along_min(task(straight, horizon=1.0), field)

    @settings(deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        origin=st.tuples(*[st.floats(-50, 50)] * 2),
        cell=st.tuples(*[st.sampled_from([1e-308, 0.25, 0.5, 1.0, 3.0, 1e300])] * 2),
        # Offsets from the origin in cells: half-integers sit on the rounding
        # ties and the lattice's edges, 1e308 overflows the index.
        offsets=st.lists(
            st.tuples(*[st.one_of(
                st.integers(-2, 14).map(lambda k: k / 2), st.floats(-2, 7), st.sampled_from([-1e308, 1e308]),
            )] * 2),
            min_size=1, max_size=8,
        ),
    )
    def test_array_lookup_matches_per_point_round(self, shape, origin, cell, offsets):
        ny, nx = shape
        values = np.arange(1.0, ny * nx + 1).reshape(ny, nx)
        field = AccelField(
            x0=origin[0], y0=origin[1], dx=cell[0], dy=cell[1],
            long_avail=-values, lat_avail=values,
        )
        points = [(origin[0] + u * cell[0], origin[1] + v * cell[1]) for u, v in offsets]
        cells = [nearest_cell(field, x, y) for x, y in points]
        inside = [p for p, c in zip(points, cells) if c is not None]
        long_vals, lat_vals = field.lookup(*np.array(inside).reshape(-1, 2).T)
        assert long_vals.tolist() == [-values[c] for c in cells if c is not None]
        assert lat_vals.tolist() == [values[c] for c in cells if c is not None]
        if None in cells:
            x, y = points[cells.index(None)]
            with pytest.raises(FieldCoverageGap, match=re.escape(f"point ({x}, {y}) lies outside")):
                field.lookup(*np.array(points).T)

    @pytest.mark.parametrize(
        "long_avail, lat_avail",
        [(np.full(4, -1.0), np.full(4, 1.0)), (np.full((2, 2), -1.0), np.full((2, 3), 1.0))],
        ids=["one-dimensional", "unequal-shapes"],
    )
    def test_field_grids_must_be_equal_shape_and_2d(self, long_avail, lat_avail):
        # A field file always reshapes to equal grids; only the library reaches this.
        with pytest.raises(ValidationError, match="^field grids must be equal-shape 2-d arrays$"):
            AccelField(x0=0.0, y0=0.0, dx=1.0, dy=1.0, long_avail=long_avail, lat_avail=lat_avail)

    def test_field_sign_validation(self):
        with pytest.raises(ValidationError):
            uniform_field(long_avail=1.0)
        with pytest.raises(ValidationError):
            uniform_field(lat_avail=-1.0)


class TestThreatNumbers:
    def test_straight_line_null_threats(self):
        dt_task = task(straight_line())
        field = uniform_field()
        assert btn_dt(dt_task, field) == 0.0
        assert stn_dt(dt_task, field) == 0.0

    def test_braking_ratio(self):
        dt_task = task(braking_line(3.0))
        field = uniform_field(long_avail=-8.0)
        assert btn_dt(dt_task, field) == pytest.approx(0.375, abs=0.002)

    def test_exhausted_availability_is_one(self):
        dt_task = task(braking_line(3.0))
        req = along_req_dt(dt_task)
        field = uniform_field(long_avail=req)
        assert btn_dt(dt_task, field) == pytest.approx(1.0, abs=1e-9)

    def test_zero_availability_raises(self):
        dt_task = task(braking_line(3.0))
        field = uniform_field(long_avail=0.0)
        with pytest.raises(ZeroAvailableAcceleration):
            btn_dt(dt_task, field)

    @pytest.mark.parametrize("threat", [btn_dt, threat_numbers])
    def test_a_quotient_past_the_float_range_is_refused(self, threat):
        # 3 m/s^2 of braking over a subnormal availability overflows to inf.
        field = uniform_field(long_avail=-1e-320)
        with pytest.raises(ValidationError, match=r"^the longitudinal threat number .* is not finite$"):
            threat(task(braking_line(3.0)), field)

    def test_threat_numbers_nonnegative(self):
        for decel in (0.0, 1.0, 3.0):
            dt_task = task(braking_line(decel) if decel else straight_line())
            field = uniform_field()
            btn = btn_dt(dt_task, field)
            assert btn >= 0.0
            assert (btn == 0.0) == (along_req_dt(dt_task) == 0.0)

    def test_threat_numbers_match_the_single_quantities(self):
        dt_task = task(braking_line(3.0), circular_arc())
        field = uniform_field()
        assert threat_numbers(dt_task, field) == {
            "along_req": along_req_dt(dt_task),
            "alat_req": alat_req_dt(dt_task),
            "along_min": along_min(dt_task, field),
            "alat_min": alat_min(dt_task, field),
            "btn_dt": btn_dt(dt_task, field),
            "stn_dt": stn_dt(dt_task, field),
        }

    def test_time_rescaling_scales_threats(self):
        lam = 2.0
        base = braking_line(3.0)
        slowed = Trajectory(t=base.t * lam, x=base.x, y=base.y)
        field = uniform_field(long_avail=-8.0)
        fast = btn_dt(task(base), field)
        slow = btn_dt(task(slowed, horizon=8.0), field)
        assert slow == pytest.approx(fast / lam**2, rel=0.01)


class TestAggregate:
    def test_max_mode(self):
        assert aggregate(0.375, 0.2) == 0.375

    def test_max_of_equal(self):
        assert aggregate(0.7, 0.7) == 0.7

    def test_zero(self):
        assert aggregate(0.0, 0.0) == 0.0

    def test_other_modes(self):
        assert aggregate(0.3, 0.4, mode="mean") == pytest.approx(0.35)
        assert aggregate(0.3, 0.4, mode="euclidean") == pytest.approx(0.5)

    @pytest.mark.parametrize("btn, stn", [(-0.1, 0.5), (0.5, -0.1)])
    def test_negative_threat_number_rejected(self, btn, stn):
        with pytest.raises(ValidationError, match="^threat numbers are nonnegative$"):
            aggregate(btn, stn)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            aggregate(0.1, 0.1, mode="median")

    @pytest.mark.parametrize("mode", ["max", "mean", "euclidean"])
    @pytest.mark.parametrize("btn, stn", [(math.inf, 1.0), (1.0, math.inf), (-math.inf, 0.5)])
    def test_infinite_threat_number_rejected(self, btn, stn, mode):
        with pytest.raises(ValidationError, match="^threat numbers must be finite$"):
            aggregate(btn, stn, mode=mode)

    @pytest.mark.parametrize("mode", ["max", "mean", "euclidean"])
    @pytest.mark.parametrize("btn, stn", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_threat_number_rejected(self, btn, stn, mode):
        # max(1.0, nan) is 1.0: a NaN must not vanish in either argument order.
        with pytest.raises(ValidationError, match="^threat numbers must not be NaN$"):
            aggregate(btn, stn, mode=mode)


class TestDiscretize:
    def test_below_first_edge(self):
        assert discretize_metric(0.375, [0.5], labels=["low", "high"]) == "low"

    def test_on_edge_goes_up(self):
        assert discretize_metric(0.5, [0.5], labels=["low", "high"]) == "high"

    def test_middle_bin(self):
        assert discretize_metric(0.5, [0.0, 1.0]) == "bin1"

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneEdges):
            discretize_metric(0.5, [1.0, 0.5])
        with pytest.raises(NonMonotoneEdges):
            discretize_metric(0.5, [])

    @pytest.mark.parametrize("edges", [[np.nan], [0.5, np.nan], [np.inf], [-np.inf, 0.5]])
    def test_non_finite_edges_rejected(self, edges):
        with pytest.raises(NonMonotoneEdges, match="finite"):
            discretize_metric(0.5, edges)

    @pytest.mark.parametrize("labels", [None, ["low", "high"]])
    def test_nan_value_rejected(self, labels):
        # bisect puts a NaN in the top bin, since every comparison with it is false.
        with pytest.raises(ValidationError, match="^cannot bin a NaN metric value$"):
            discretize_metric(math.nan, [0.5], labels=labels)

    def test_label_count_checked(self):
        with pytest.raises(ValidationError):
            discretize_metric(0.5, [0.5], labels=["only"])
