"""Tests for motion and measurement models.

Process-noise matrices are checked against a Van Loan matrix-exponential
oracle; measurement Jacobians are checked against central finite differences;
the geometry of each sensor kind is checked at hand-placed targets. A stack
of states is measured and linearised as each member is on its own, bit for
bit, and so is a stack of (run, sensor) members against a stacked model of
the sensors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from trackfuse import (
    MeasurementModel,
    MeasurementSingular,
    MotionModel,
    bearing_sensor,
    ncv_matrices,
    nca_matrices,
    range_az_el_sensor,
    wrap_angle,
)

from oracles import fd_jacobian


def _van_loan(a: np.ndarray, g: np.ndarray, q: float, dt: float):
    """Discretize a continuous model by the matrix-exponential construction."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = np.outer(g, g) * q
    block[n:, n:] = a.T
    phi = expm(block * dt)
    f = phi[n:, n:].T
    return f, f @ phi[:n, n:]


def _per_axis_indices(axis: int, dims: int, blocks: int):
    return [axis + k * dims for k in range(blocks)]


def test_ncv_position_noise_block_value():
    _, q_mat = ncv_matrices(dt=2.0, q=0.5, dims=3)
    np.testing.assert_allclose(q_mat[:3, :3], (4.0 / 3.0) * np.eye(3), rtol=1e-12)


def test_nca_acceleration_noise_block_value():
    _, q_mat = nca_matrices(dt=1.0, q=1e-3, dims=2)
    np.testing.assert_allclose(q_mat[4:, 4:], 1e-3 * np.eye(2), rtol=1e-12)


@pytest.mark.parametrize("dt,q", [(0.5, 0.1), (2.0, 0.5), (1.0, 2.5)])
def test_ncv_matches_van_loan_discretization(dt, q):
    f, q_mat = ncv_matrices(dt=dt, q=q, dims=2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    g = np.array([0.0, 1.0])
    f_ref, q_ref = _van_loan(a, g, q, dt)
    for axis in range(2):
        idx = _per_axis_indices(axis, 2, 2)
        np.testing.assert_allclose(f[np.ix_(idx, idx)], f_ref, rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(q_mat[np.ix_(idx, idx)], q_ref, rtol=1e-9,
                                   atol=1e-12)


@pytest.mark.parametrize("dt,q", [(1.0, 1e-3), (2.0, 0.2)])
def test_nca_matches_van_loan_discretization(dt, q):
    f, q_mat = nca_matrices(dt=dt, q=q, dims=2)
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    g = np.array([0.0, 0.0, 1.0])
    f_ref, q_ref = _van_loan(a, g, q, dt)
    for axis in range(2):
        idx = _per_axis_indices(axis, 2, 3)
        np.testing.assert_allclose(f[np.ix_(idx, idx)], f_ref, rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(q_mat[np.ix_(idx, idx)], q_ref, rtol=1e-9,
                                   atol=1e-12)


def test_ncv_transition_moves_position_by_velocity():
    f, _ = ncv_matrices(dt=2.0, q=0.0001, dims=3)
    state = np.array([0.0, 10.0, -5.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(f @ state, [2.0, 14.0, 1.0, 1.0, 2.0, 3.0],
                               rtol=1e-12)


def test_nca_transition_includes_half_acceleration():
    f, _ = nca_matrices(dt=2.0, q=0.1, dims=2)
    state = np.array([0.0, 0.0, 1.0, 0.0, 0.5, -0.5])
    np.testing.assert_allclose(f @ state, [3.0, -1.0, 2.0, -1.0, 0.5, -0.5],
                               rtol=1e-12)


def test_motion_model_wraps_matrices():
    model = MotionModel("ncv", dt=2.0, q=0.5, dims=3)
    assert model.state_dim == 6
    f, q_mat = ncv_matrices(2.0, 0.5, 3)
    np.testing.assert_allclose(model.transition, f, rtol=0, atol=0)
    np.testing.assert_allclose(model.noise, q_mat, rtol=0, atol=0)
    nca = MotionModel("nca", dt=1.0, q=(1e-3, 2e-3), dims=2)
    assert nca.state_dim == 6
    with pytest.raises(ValueError, match="unknown motion model"):
        MotionModel("singer", dt=1.0, q=0.1, dims=2)
    with pytest.raises(ValueError, match="per axis"):
        MotionModel("ncv", dt=1.0, q=(0.1, 0.2, 0.3), dims=2)


@pytest.mark.parametrize(
    "angle,expected",
    [(0.0, 0.0), (np.pi, np.pi), (-np.pi, np.pi), (3.0 * np.pi, np.pi),
     (np.pi + 0.1, -np.pi + 0.1), (-np.pi - 0.1, np.pi - 0.1)],
)
def test_wrap_angle_lands_in_half_open_interval(angle, expected):
    assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_small_difference_across_the_seam():
    # Bearings of 179 and -179 degrees differ by 2 degrees, not 358.
    diff = wrap_angle(np.deg2rad(-179.0) - np.deg2rad(179.0))
    assert diff == pytest.approx(np.deg2rad(2.0), abs=1e-12)


def test_wrap_angle_preserves_array_shape():
    out = wrap_angle(np.array([[0.0, 4.0 * np.pi], [-2.0 * np.pi, 1.0]]))
    np.testing.assert_allclose(out, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert isinstance(wrap_angle(1.0), float)


def test_range_az_el_geometry():
    sensor = range_az_el_sensor([0.0, 0.0, 0.0], sigma_range=1.0,
                                sigma_az=0.01)
    z = sensor.measure(np.array([3.0, 4.0, 0.0, 99.0, 99.0, 99.0]))
    np.testing.assert_allclose(z, [5.0, np.arctan2(4.0, 3.0), 0.0], atol=1e-12)
    up = sensor.measure(np.array([0.0, 3.0, 3.0]))
    assert up[2] == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert sensor.angle_indices == (1, 2)
    assert sensor.meas_dim == 3
    assert sensor.spatial_dims == 3
    np.testing.assert_allclose(sensor.noise_cov, np.diag([1.0, 1e-4, 1e-4]),
                               rtol=1e-12)


def test_range_az_el_default_elevation_sigma():
    sensor = range_az_el_sensor([0.0, 0.0, 0.0], sigma_range=2.0,
                                sigma_az=0.03)
    np.testing.assert_allclose(np.diag(sensor.noise_cov), [4.0, 9e-4, 9e-4],
                               rtol=1e-12)


def test_bearing_geometry_clockwise_from_north():
    sensor = bearing_sensor([0.0, 0.0], sigma_bearing=0.02)
    assert sensor.measure(np.array([0.0, 10.0]))[0] == pytest.approx(0.0)
    assert sensor.measure(np.array([10.0, 0.0]))[0] == pytest.approx(np.pi / 2.0)
    assert sensor.measure(np.array([-5.0, 0.0]))[0] == pytest.approx(-np.pi / 2.0)
    assert sensor.angle_indices == (0,)
    np.testing.assert_allclose(sensor.noise_cov, [[4e-4]], rtol=1e-12)


def test_measure_raises_at_singular_geometry():
    radar = range_az_el_sensor([100.0, 200.0, 0.0], 1.0, 0.01)
    with pytest.raises(MeasurementSingular):
        radar.measure(np.array([100.0, 200.0, 500.0]))
    brg = bearing_sensor([5.0, 5.0], 0.01)
    with pytest.raises(MeasurementSingular):
        brg.measure(np.array([5.0, 5.0]))


def test_jacobian_raises_at_singular_geometry():
    radar = range_az_el_sensor([0.0, 0.0, 0.0], 1.0, 0.01)
    with pytest.raises(MeasurementSingular):
        radar.jacobian(np.array([0.0, 0.0, 10.0]))
    brg = bearing_sensor([0.0, 0.0], 0.01)
    with pytest.raises(MeasurementSingular):
        brg.jacobian(np.array([0.0, 0.0]))


@pytest.mark.parametrize("seed", range(5))
def test_range_az_el_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    sensor = range_az_el_sensor(rng.uniform(-1000.0, 1000.0, 3), 10.0, 0.02)
    state = sensor.position + rng.uniform(500.0, 5000.0, 3) * rng.choice(
        [-1.0, 1.0], 3)
    jac = sensor.jacobian(state)
    ref = fd_jacobian(sensor.measure, state, angle_rows=(1, 2))
    np.testing.assert_allclose(jac, ref, rtol=1e-4, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_bearing_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    sensor = bearing_sensor(rng.uniform(-500.0, 500.0, 2), 0.02)
    state = sensor.position + rng.uniform(200.0, 3000.0, 2) * rng.choice(
        [-1.0, 1.0], 2)
    jac = sensor.jacobian(state)
    ref = fd_jacobian(sensor.measure, state, angle_rows=(0,))
    np.testing.assert_allclose(jac, ref, rtol=1e-4, atol=1e-10)


def test_jacobian_pads_unobserved_state_entries():
    sensor = bearing_sensor([0.0, 0.0], 0.02)
    jac = sensor.jacobian(np.array([100.0, 200.0, 1.0, 2.0]), state_dim=6)
    assert jac.shape == (1, 6)
    np.testing.assert_allclose(jac[0, 2:], np.zeros(4), atol=0)


def test_measurement_model_validation():
    with pytest.raises(ValueError, match="3-d position"):
        MeasurementModel("range_az_el", [0.0, 0.0], np.eye(3))
    with pytest.raises(ValueError, match="2-d position"):
        MeasurementModel("bearing", [0.0, 0.0, 0.0], [[1.0]])
    with pytest.raises(ValueError, match="unknown measurement model"):
        MeasurementModel("doppler", [0.0, 0.0], [[1.0]])


_SENSORS = {"range_az_el": range_az_el_sensor([120.0, -250.0, 40.0], 10.0, 0.02),
            "bearing": bearing_sensor([-500.0, 300.0], 0.02)}


def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of the MeasurementSingular it raises."""
    try:
        return fn(*args)
    except MeasurementSingular as exc:
        return type(exc), str(exc)


@st.composite
def stacked_states(draw):
    """A sensor kind, a stack of states ``[*lead, n]`` with ``lead`` one of
    ``()``, ``(R,)`` and ``(R, S)``, and a Jacobian width (None or at least
    ``n``). Zero offsets from the sensor are drawn often, so some members
    sit on an axis through the sensor or on the sensor itself."""
    kind = draw(st.sampled_from(sorted(_SENSORS)))
    sensor = _SENSORS[kind]
    lead = tuple(draw(st.lists(st.integers(1, 5), max_size=2)))
    n = draw(st.sampled_from([1, 2, 3])) * sensor.spatial_dims
    offsets = draw(arrays(float, lead + (n,), elements=st.one_of(
        st.just(0.0), st.floats(-1e4, 1e4, allow_subnormal=False), st.just(np.nan))))
    states = offsets.copy()
    states[..., :sensor.spatial_dims] += sensor.position
    width = draw(st.one_of(st.none(), st.integers(n, n + 3)))
    return sensor, states, width


@settings(max_examples=300, deadline=None)
@given(stacked_states())
def test_stacked_sensor_calls_equal_the_per_member_calls(case):
    sensor, states, width = case
    lead = states.shape[:-1]
    with np.errstate(all="ignore"):
        for fn, args in ((sensor.measure, ()), (sensor.jacobian, (width,))):
            got = _outcome(fn, states, *args)
            alone = [_outcome(fn, states[idx], *args) for idx in np.ndindex(lead)]
            failed = [a for a in alone if isinstance(a, tuple)]
            if failed:
                assert got == failed[0]
                continue
            assert got.shape == lead + alone[0].shape
            for idx, want in zip(np.ndindex(lead), alone):
                # Bit for bit, signed zeros included; a NaN state still
                # measures to NaN without raising, and a NaN's sign bit is
                # not fixed by IEEE arithmetic.
                nan = np.isnan(want)
                assert (np.isnan(got[idx]) == nan).all()
                assert got[idx][~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SENSORS)), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 24), st.integers(0, 2**32 - 1))
def test_a_stack_with_one_member_on_the_sensor_raises_the_one_state_error(
        kind, runs, sensors, where, seed):
    sensor = _SENSORS[kind]
    rng = np.random.default_rng(seed)
    states = 1e3 * rng.standard_normal((runs, sensors, 2 * sensor.spatial_dims))
    member = np.unravel_index(where % (runs * sensors), (runs, sensors))
    states[member + (slice(0, sensor.spatial_dims),)] = sensor.position
    for fn in (sensor.measure, sensor.jacobian):
        want = _outcome(fn, states[member])
        assert want[0] is MeasurementSingular
        assert _outcome(fn, states) == want
        assert _outcome(fn, states[member[0]]) == want


_DIMS = {"range_az_el": (3, 3), "bearing": (2, 1)}


@st.composite
def stacked_sensor_cases(draw):
    """A sensor kind, ``S`` sensors of it (positions ``[S, s]``, diagonal
    noises ``[S, m, m]``), states ``[R, S, n]`` near them (zero offsets drawn
    often, so some members sit on their sensor) and a Jacobian width."""
    kind = draw(st.sampled_from(sorted(_DIMS)))
    s, m = _DIMS[kind]
    runs, sensors = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    finite = st.floats(-1e4, 1e4, allow_subnormal=False)
    positions = draw(arrays(float, (sensors, s), elements=finite))
    sigmas = draw(arrays(float, (sensors, m), elements=st.floats(1e-4, 1e2)))
    n = draw(st.sampled_from([1, 2, 3])) * s
    states = draw(arrays(float, (runs, sensors, n),
                         elements=st.one_of(st.just(0.0), finite)))
    states[..., :s] += positions
    width = draw(st.one_of(st.none(), st.integers(n, n + 3)))
    return kind, positions, sigmas[..., None] * np.eye(m), states, width


@settings(max_examples=200, deadline=None)
@given(stacked_sensor_cases())
def test_a_stacked_sensor_model_gives_each_member_its_own_sensors_bits(case):
    kind, positions, noises, states, width = case
    stacked = MeasurementModel(kind, positions, noises)
    alone = [MeasurementModel(kind, p, q) for p, q in zip(positions, noises)]
    assert (stacked.spatial_dims, stacked.meas_dim) == (alone[0].spatial_dims,
                                                       alone[0].meas_dim)
    for name, args in (("measure", ()), ("jacobian", (width,))):
        # Tiny offsets may underflow to 0 / 0 in a member and its copy alike.
        with np.errstate(all="ignore"):
            got = _outcome(getattr(stacked, name), states, *args)
            want = {idx: _outcome(getattr(alone[idx[1]], name), states[idx], *args)
                    for idx in np.ndindex(states.shape[:-1])}
        failed = [w for w in want.values() if isinstance(w, tuple)]
        if failed:
            # The first failing member in (run, sensor) order raises.
            assert got == failed[0]
            continue
        for idx, member in want.items():
            # Bit for bit; NaN's sign bit is not fixed by IEEE arithmetic.
            nan = np.isnan(member)
            assert (np.isnan(got[idx]) == nan).all()
            assert got[idx][~nan].tobytes() == member[~nan].tobytes()


@pytest.mark.parametrize("kind,positions,noises", [
    ("bearing", np.zeros((3, 2)), np.ones((2, 1, 1))),
    ("bearing", np.zeros((3, 2)), np.ones((1, 1))),
    ("range_az_el", np.zeros(3), np.broadcast_to(np.eye(3), (2, 3, 3))),
    ("range_az_el", np.zeros((2, 2, 3)), np.broadcast_to(np.eye(3), (2, 3, 3))),
])
def test_stacked_sensors_need_equal_leading_shapes(kind, positions, noises):
    with pytest.raises(ValueError, match="equal leading shapes"):
        MeasurementModel(kind, positions, noises)


@pytest.mark.parametrize("kind", sorted(_DIMS))
def test_a_member_on_its_own_sensor_raises_measurement_singular(kind):
    s, m = _DIMS[kind]
    positions = 1e3 * np.arange(3 * s, dtype=float).reshape(3, s)
    stacked = MeasurementModel(kind, positions, np.broadcast_to(np.eye(m), (3, m, m)))
    states = np.full((2, 3, 2 * s), 5e4)
    states[1, 2, :s] = positions[2]
    for fn in (stacked.measure, stacked.jacobian):
        with pytest.raises(MeasurementSingular):
            fn(states)
    # At another sensor's position, a member is off its own sensor.
    states[1, 2, :s] = positions[1]
    assert np.isfinite(stacked.measure(states)).all()
    assert np.isfinite(stacked.jacobian(states)).all()
