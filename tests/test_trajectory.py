import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mavnav.trajectory import (
    QuinticSpline,
    RefPoint,
    _knot_layout,
    eval_spline,
    fit_spline,
    spline_from_path,
)


# The row-by-row system assembly and the triple-loop Horner evaluation the
# spline used before it worked on arrays: the oracles that fit_spline and
# eval_spline must match bit for bit. The knot layout is the module's own,
# unchanged. The triple loop also evaluates jerk and snap, which the
# reference no longer carries, for the tests of the fit's smoothness.

_DERIV_FACTORS = [
    [1, 1, 1, 1, 1, 1],
    [0, 1, 2, 3, 4, 5],
    [0, 0, 2, 6, 12, 20],
    [0, 0, 0, 6, 24, 60],
    [0, 0, 0, 0, 24, 120],
]


def _basis_row(tau: float, order: int) -> np.ndarray:
    row = np.zeros(6)
    for p in range(order, 6):
        row[p] = _DERIV_FACTORS[order][p] * tau ** (p - order)
    return row


def fit_spline_oracle(positions, headings, times) -> QuinticSpline:
    times = np.array([float(t) for t in times])
    knots, wp_idx = _knot_layout(times)
    m = len(knots)
    n_seg = m - 1
    h = np.diff(knots)
    n_unknowns = 6 * n_seg

    rows = []
    targets_meta = []

    def add_row(seg, tau, order, seg2=None):
        row = np.zeros(n_unknowns)
        row[6 * seg : 6 * seg + 6] = _basis_row(tau, order)
        if seg2 is not None:
            row[6 * seg2 : 6 * seg2 + 6] -= _basis_row(0.0, order)
        rows.append(row)

    for k, j in enumerate(wp_idx):
        if j == 0:
            add_row(0, 0.0, 0)
        else:
            add_row(j - 1, h[j - 1], 0)
        targets_meta.append(("wp", k))
    for j in range(1, m - 1):
        for order in range(5):
            add_row(j - 1, h[j - 1], order, seg2=j)
            targets_meta.append(("zero", None))
    for order in range(1, 5):
        add_row(0, 0.0, order)
        targets_meta.append(("zero", None))
    for order in range(1, 5):
        add_row(n_seg - 1, h[-1], order)
        targets_meta.append(("zero", None))
    a_mat = np.vstack(rows)

    unwrapped = np.unwrap([float(x) for x in headings])
    channels = np.column_stack([np.array([np.asarray(p, dtype=float) for p in positions]),
                                unwrapped])
    coeffs = np.empty((n_seg, 4, 6))
    for ch in range(4):
        rhs = np.array([channels[k, ch] if kind == "wp" else 0.0 for kind, k in targets_meta])
        coeffs[:, ch, :] = np.linalg.solve(a_mat, rhs).reshape(n_seg, 6)
    return QuinticSpline(knots, coeffs)


def _oracle_rows(spline: QuinticSpline, t: float):
    """(values, clamped): values (4 channels, 5 orders) at t, position
    through snap, by the triple loop."""
    clamped = False
    tq = t
    if t < spline.t_start:
        tq, clamped = spline.t_start, True
    elif t > spline.t_end:
        tq, clamped = spline.t_end, True
    seg = min(max(bisect_right(spline.knots, tq) - 1, 0), len(spline.knots) - 2)
    tau = float(tq - spline.knots[seg])
    vals = np.empty((4, 5))
    for ch, c in enumerate(spline.coeffs[seg].tolist()):
        for order in range(5):
            acc = 0.0
            for p in range(5, order - 1, -1):
                acc = acc * tau + _DERIV_FACTORS[order][p] * c[p]
            vals[ch, order] = acc
    if clamped:
        vals[:, 1:] = 0.0
    return vals, clamped


def eval_spline_oracle(spline: QuinticSpline, t: float) -> RefPoint:
    vals, clamped = _oracle_rows(spline, t)
    heading = math.remainder(vals[3, 0], math.tau)
    if heading <= -math.pi:
        heading += math.tau
    return RefPoint(vals[:3, 0].copy(), vals[:3, 1].copy(), vals[:3, 2].copy(), heading,
                    float(vals[3, 1]), t, clamped)


def jerk_snap(spline: QuinticSpline, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The position channels' jerk and snap at t, by the triple loop."""
    vals, _ = _oracle_rows(spline, t)
    return vals[:3, 3].copy(), vals[:3, 4].copy()


# The Horner evaluation on numpy arrays that gathered each segment's term
# table on every call, before the spline stored it: the oracle of the
# stored table. terms[k] holds the (order, channel) terms in front of tau^k;
# its zeros past degree 5 start each order's sum at its highest power.
_COEFF_IDX = np.minimum(np.arange(6)[:, None] + np.arange(5), 5)
_SHIFTED = np.array([[math.perm(o + k, o) if o + k < 6 else 0 for o in range(5)]
                     for k in range(6)], dtype=float)[:, :, None]


def eval_spline_gather(spline: QuinticSpline, t: float) -> RefPoint:
    tq, clamped = t, False
    if t < spline.t_start:
        tq, clamped = spline.t_start, True
    elif t > spline.t_end:
        tq, clamped = spline.t_end, True
    seg = min(max(bisect_right(spline.knots, tq) - 1, 0), len(spline.knots) - 2)
    tau = float(tq - spline.knots[seg])
    terms = _SHIFTED * spline.coeffs[seg].T[_COEFF_IDX]
    vals = np.zeros((5, 4))
    for k in range(5, -1, -1):
        vals = vals * tau + terms[k]
    if clamped:
        vals[1:] = 0.0
    heading = math.remainder(vals[0, 3], math.tau)
    if heading <= -math.pi:
        heading += math.tau
    return RefPoint(*vals[:3, :3], heading, float(vals[1, 3]), t, clamped)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


REF_FIELDS = ("position", "velocity", "accel", "heading", "heading_rate", "stamp")


def assert_spline_matches_oracle(positions, headings, times, probes):
    got = fit_spline(positions, headings, times)
    want = fit_spline_oracle(positions, headings, times)
    assert _bits(got.knots) == _bits(want.knots)
    assert _bits(got.coeffs) == _bits(want.coeffs)
    for t in probes:
        r, o = eval_spline(got, float(t)), eval_spline_oracle(want, float(t))
        assert r.clamped == o.clamped
        for name in REF_FIELDS:
            assert _bits(getattr(r, name)) == _bits(getattr(o, name)), (name, t)


def demo_waypoints():
    positions = np.array([[0, 0, 1], [2, 1, 1.5], [4, -1, 2.0], [6, 0, 1.0]])
    return positions, np.array([0.0, 0.4, -0.3, 0.2]), np.array([0.0, 2.0, 3.5, 6.0])


class TestFitSpline:
    def test_rest_to_rest_boundary_derivatives(self):
        s = fit_spline([[0, 0, 0], [3, 2, 1]], [0.0, 0.5], [0.0, 4.0])
        for t in (0.0, 4.0):
            r = eval_spline(s, t)
            np.testing.assert_allclose(r.velocity, 0.0, atol=1e-9)
            np.testing.assert_allclose(r.accel, 0.0, atol=1e-9)
            for d in jerk_snap(s, t):
                np.testing.assert_allclose(d, 0.0, atol=1e-9)

    def test_interpolates_waypoints(self):
        positions, headings, times = demo_waypoints()
        s = fit_spline(positions, headings, times)
        for p, t in zip(positions, times):
            r = eval_spline(s, t)
            np.testing.assert_allclose(r.position, p, atol=1e-9)

    def test_c4_continuity_at_knots(self):
        s = fit_spline(*demo_waypoints())
        for tk in s.knots[1:-1]:
            left = eval_spline(s, tk - 1e-12)
            right = eval_spline(s, tk + 1e-12)
            for attr in ("position", "velocity", "accel"):
                np.testing.assert_allclose(
                    getattr(left, attr), getattr(right, attr), atol=1e-6
                )
            for a, b in zip(jerk_snap(s, tk - 1e-12), jerk_snap(s, tk + 1e-12)):
                np.testing.assert_allclose(a, b, atol=1e-6)

    def test_snap_matches_jerk_finite_difference_across_knots(self):
        s = fit_spline(*demo_waypoints())
        h = 1e-4
        for tk in s.knots[1:-1]:
            fd = (jerk_snap(s, tk + h)[0] - jerk_snap(s, tk - h)[0]) / (2 * h)
            np.testing.assert_allclose(fd, jerk_snap(s, tk)[1], atol=1e-4, rtol=1e-3)

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError):
            fit_spline([[0, 0, 0], [1, 1, 1]], [0, 0], [0.0, 0.0])

    def test_too_few_waypoints(self):
        with pytest.raises(ValueError):
            fit_spline([[0, 0, 0]], [0], [0.0])

    @pytest.mark.parametrize("positions, headings, times, message", [
        ([[0, 0, 0], [1, np.nan, 1]], [0, 0], [0, 1], "finite"),
        ([[0, 0, 0], [1, 1, 1]], [0, 0], [0, np.nan], "finite"),
        ([[0, 0, 0], [1, 1, 1]], [np.nan, 0], [0, 1], "finite"),
        ([[0, 0, 0], [1, 1, 1]], [0, 0], [0, np.inf], "finite"),
        ([[0, 0, 0], [1, 1, 1]], [0, 0, 0], [0, 1], "need positions"),
        ([[0, 0], [1, 1]], [0, 0], [0, 1], "need positions"),
        ([[0, 0, 0], [1, 1, 1]], [0, 0], [[0, 1]], "need positions"),
        ([[0, 0, 0]], [0], [0], "at least 2"),
        ([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [0, 0, 0], [0, 2, 1], "strictly increasing"),
    ], ids=["nan-position", "nan-time", "nan-heading", "inf-time", "heading-count",
            "position-width", "time-rank", "single-waypoint", "time-order"])
    def test_invalid_waypoints_rejected(self, positions, headings, times, message):
        with pytest.raises(ValueError, match=message):
            fit_spline(positions, headings, times)


class TestEvalSpline:
    def test_velocity_matches_finite_difference(self):
        s = fit_spline(*demo_waypoints())
        h = 1e-5
        for t in np.linspace(0.3, 5.7, 23):
            fd = (np.array(eval_spline(s, t + h).position) - eval_spline(s, t - h).position) / (2 * h)
            np.testing.assert_allclose(fd, eval_spline(s, t).velocity, atol=1e-6)

    def test_fifth_derivative_piecewise_constant(self):
        s = fit_spline(*demo_waypoints())
        h = 1e-4
        for seg in range(len(s.knots) - 1):
            t0, t1 = s.knots[seg], s.knots[seg + 1]
            if t1 - t0 < 6 * h:
                continue
            probes = np.linspace(t0 + 2 * h, t1 - 2 * h, 5)
            d5 = [(jerk_snap(s, t + h)[1] - jerk_snap(s, t - h)[1]) / (2 * h) for t in probes]
            for a, b in zip(d5, d5[1:]):
                np.testing.assert_allclose(a, b, atol=1e-3)

    def test_out_of_range_clamped_and_flagged(self):
        s = fit_spline(*demo_waypoints())
        before = eval_spline(s, -1.0)
        assert before.clamped
        np.testing.assert_allclose(before.position, [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(before.velocity, 0.0)
        after = eval_spline(s, 99.0)
        assert after.clamped
        np.testing.assert_allclose(after.position, [6, 0, 1], atol=1e-9)

    def test_nan_time_rejected_infinite_times_clamped(self):
        s = fit_spline(*demo_waypoints())
        with pytest.raises(ValueError, match="NaN"):
            eval_spline(s, math.nan)
        for t, end in [(-math.inf, [0, 0, 1]), (math.inf, [6, 0, 1])]:
            r = eval_spline(s, t)
            assert r.clamped and r.stamp == t
            np.testing.assert_allclose(r.position, end, atol=1e-9)
            np.testing.assert_array_equal(r.velocity, 0.0)

    def test_heading_wraps_without_jump(self):
        s = fit_spline([[0, 0, 0], [1, 0, 0]], [3.0, -3.0], [0.0, 2.0])
        # unwrapped target is 3.2832: the trajectory passes through pi
        rates = [eval_spline(s, t).heading_rate for t in np.linspace(0.1, 1.9, 30)]
        assert max(abs(r) for r in rates) < 2.0  # no 2 pi jump
        for t in np.linspace(0, 2, 30):
            h = eval_spline(s, t).heading
            assert -math.pi < h <= math.pi


class TestOracleParity:
    def test_stored_table_matches_per_call_gather(self):
        """Every segment at its start, inside and just before its end, and
        both clamped ends, infinite times too."""
        rng = np.random.default_rng(25)
        sets = [demo_waypoints()]
        for n in (2, 3, 5, 8):
            times = np.cumsum(rng.uniform(0.2, 3.0, n)) - rng.uniform(0.0, 5.0)
            sets.append((rng.uniform(-5, 5, (n, 3)), rng.uniform(-4, 4, n), times))
        for positions, headings, times in sets:
            s = fit_spline(positions, headings, times)
            k = s.knots
            inner = [a + f * (b - a) for a, b in zip(k, k[1:]) for f in (0.0, 0.37, 0.999)]
            ends = [k[0] - 1.0, -math.inf, k[-1], k[-1] + 1.0, math.inf]
            for t in inner + ends:
                r, o = eval_spline(s, float(t)), eval_spline_gather(s, float(t))
                assert r.clamped == o.clamped
                for name in REF_FIELDS:
                    assert _bits(getattr(r, name)) == _bits(getattr(o, name)), (name, t)

    def test_reference_is_float_tuples(self):
        """Position, velocity and acceleration are 3-tuples of Python floats,
        bit-equal to the triple loop's; clamped ends give +0.0 derivatives."""
        s = fit_spline(*demo_waypoints())
        k = s.knots
        ends = [k[0] - 1.0, -math.inf, k[-1] + 1.0, math.inf]
        for t in [*np.linspace(k[0], k[-1], 61).tolist(), *k.tolist(), *ends]:
            r, o = eval_spline(s, float(t)), eval_spline_oracle(s, float(t))
            assert r.clamped == o.clamped
            for name in ("position", "velocity", "accel"):
                got = getattr(r, name)
                assert type(got) is tuple and [type(c) for c in got] == [float] * 3, (name, t)
                assert _bits(got) == _bits(getattr(o, name)), (name, t)
            assert type(r.heading) is float and type(r.heading_rate) is float
            if r.clamped:
                derivs = (*r.velocity, *r.accel, r.heading_rate)
                assert all(c == 0.0 and math.copysign(1.0, c) == 1.0 for c in derivs), t

    def test_random_waypoint_sets(self):
        rng = np.random.default_rng(18)
        for _ in range(240):
            n = int(rng.integers(2, 9))
            times = np.cumsum(rng.uniform(0.2, 3.0, n)) - rng.uniform(0.0, 5.0)
            positions = rng.uniform(-5, 5, (n, 3))
            headings = rng.uniform(-4, 4, n)
            probes = np.concatenate([np.linspace(times[0] - 0.5, times[-1] + 0.5, 31), times])
            assert_spline_matches_oracle(positions, headings, times, probes)

    def test_flight_gust_routes(self):
        """The splines that flight_gust flies on seeds 101-110, probed at
        every 10 ms tick from 0.5 s before the start to 0.5 s past the end."""
        from mavnav.planning import speed_plan
        from perfbench import workloads

        for seed in range(101, 111):
            path = workloads.setup_flight_gust(seed).path
            timed = speed_plan(path, workloads.V_MAX, workloads.A_LAT, workloads.A_LON)
            d = np.diff(timed.waypoints[:, :2], axis=0)
            yaw = np.arctan2(d[:, 1], d[:, 0])
            headings = np.concatenate([yaw[:1], yaw])
            probes = np.arange(-50, round(timed.times[-1] * 100) + 51) * 0.01
            assert_spline_matches_oracle(timed.waypoints, headings, timed.times, probes)
            s = spline_from_path(timed.waypoints, timed.times)
            want = fit_spline_oracle(timed.waypoints, headings, timed.times)
            assert _bits(s.coeffs) == _bits(want.coeffs)


@given(
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_random_waypoints_interpolate_and_stay_smooth(n, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.8, 3.0, n))
    draws = [(rng.uniform(-5, 5, 3), rng.uniform(-3, 3)) for _ in times]
    positions = np.array([p for p, _ in draws])
    s = fit_spline(positions, [h for _, h in draws], times)
    for p, t in zip(positions, times):
        np.testing.assert_allclose(eval_spline(s, t).position, p, atol=1e-8)
    for tk in s.knots[1:-1]:
        np.testing.assert_allclose(jerk_snap(s, tk - 1e-12)[1], jerk_snap(s, tk + 1e-12)[1],
                                   atol=1e-5)


def test_spline_from_path_headings_follow_travel():
    wps = np.array([[0, 0, 1], [2, 0, 1], [2, 2, 1.0]])
    times = np.array([0.0, 2.0, 4.0])
    s = spline_from_path(wps, times)
    assert eval_spline(s, 0.0).heading == pytest.approx(0.0, abs=1e-9)
    assert eval_spline(s, 4.0).heading == pytest.approx(math.pi / 2, abs=1e-9)
