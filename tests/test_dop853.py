"""The DOP853 stepper against scipy's, which serves here only as an oracle.

``models.simulate`` integrates with ``nbodylab._dop853``, a port of the one
path of ``solve_ivp(method="DOP853", t_eval=...)`` it needs.  The port must
give scipy's bits: the same tables, and the same times, states, integrals and
right-hand-side counts as ``solve_ivp`` with the same right-hand side.
The port writes each stage into its row of the stage matrix in place; the
cases shaped like the benchmark's orbits, and the eccentric orbit whose
rejected attempts overwrite the step's last row, hold that path to scipy's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbodylab import _dop853
from nbodylab.errors import StepFailureError
from nbodylab.models import (
    CentralForceChart,
    NBodyChart,
    PairedOrbitsChart,
    RotatedChart,
    circular_orbit_state,
    decouple_matrix,
    polygon_alpha,
    simulate,
)

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")


def test_tables_are_scipys_doubles():
    assert np.array_equal(_dop853.A, coefficients.A)
    assert np.array_equal(_dop853.B, coefficients.B)
    assert np.array_equal(_dop853.C, coefficients.C)
    assert np.array_equal(_dop853.E3, coefficients.E3)
    assert np.array_equal(_dop853.E5, coefficients.E5)
    assert np.array_equal(_dop853.D, coefficients.D)
    assert _dop853.N_STAGES == coefficients.N_STAGES


def _scipy_run(chart, q0, p0, t_end, rtol, samples):
    """What simulate computed when it called solve_ivp, with its right-hand side."""
    seen = [0.0]

    def rhs(t, state):
        seen[0] = t
        q, p = state[:chart.dof], state[chart.dof:]
        return np.concatenate([p / chart.dof_masses, chart.gradient(q)])

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([q0, p0]), method="DOP853",
                    t_eval=np.linspace(0.0, t_end, samples), rtol=rtol, atol=1e-13)
    return sol, seen[0]


def _assert_same_run(rec, sol, chart):
    """simulate's record holds the bits of what solve_ivp returned."""
    states = sol.y.T
    vals = chart.integrals(states[:, :chart.dof], states[:, chart.dof:])
    assert np.array_equal(rec.times, sol.t)
    assert np.array_equal(rec.states, states)
    assert rec.states.flags.f_contiguous == states.flags.f_contiguous
    assert rec.integral_names == list(vals)
    assert np.array_equal(rec.integral_series, np.column_stack(list(vals.values())))
    assert rec.rhs_evaluations == sol.nfev


def _plane_rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def _five_body():
    y0 = np.array([1.0, 0.0, 0.0, 1.3])
    w0 = np.array([0.0, 0.95, -0.7, 0.1])
    mix = decouple_matrix()
    return PairedOrbitsChart(), mix.T @ y0, mix.T @ w0, 9.0


def _central(dof, periods=1.5):
    def make():
        q0, p0, period = circular_orbit_state(2.5, 1.2)
        p0 = 1.1 * p0
        if dof == 3:
            q0, p0 = np.append(q0, 0.1), np.append(p0, 0.3)
        return CentralForceChart(2.5, dof=dof), q0, p0, periods * period
    return make


def _rotated():
    chart, q0, p0, t_end = _five_body()
    rot = np.kron(_plane_rotation(0.4), _plane_rotation(-1.1))
    return RotatedChart(chart, rot), rot.T @ q0, rot.T @ p0, t_end


def _nbody(d):
    def make():
        n = 3
        ang = 0.3 + 2.0 * math.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(ang), np.sin(ang), 0.2 * np.ones(n)])
        if d == 1:
            q0, p0 = np.array([-1.0, 0.1, 1.3]), np.array([-1.6, 0.1, 1.4])
        else:
            q0 = ring[:, :d].reshape(-1)
            p0 = 0.6 * np.column_stack([-ring[:, 1], ring[:, 0], 0.1 * ring[:, 2]])[:, :d]
            p0 = p0.reshape(-1)
        return NBodyChart([1.0, 1.5, 0.8], d), q0, p0, 2.0
    return make


def _eccentric(e):
    """One period of a Kepler orbit of eccentricity e, from its periapsis."""
    def make():
        kappa, r_peri = 2.5, 1.2
        q0, p0, _ = circular_orbit_state(kappa, r_peri)
        semi_major = r_peri / (1.0 - e)
        period = 2.0 * math.pi * math.sqrt(semi_major**3 / kappa)
        return CentralForceChart(kappa, dof=2), q0, math.sqrt(1.0 + e) * p0, period
    return make


def _hexagon():
    # a rigidly rotating regular hexagon of unit masses, as in the orbits workload
    n, radius = 6, 1.1
    omega = math.sqrt(polygon_alpha(n) / radius**3)
    ang = 0.4 + 2.0 * math.pi * np.arange(n) / n
    q = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    p = omega * np.column_stack([-q[:, 1], q[:, 0]])
    return NBodyChart(np.ones(n), 2), q.reshape(-1), p.reshape(-1), 2.0 * math.pi / omega


CASES = {
    "paired-orbits": _five_body,
    "central-dof2": _central(2),
    "central-dof3": _central(3),
    # shorter than the first step the start would choose, so t_end caps it
    "central-dof2-short": _central(2, periods=1e-4),
    "rotated-paired-orbits": _rotated,
    "nbody-d1": _nbody(1),
    "nbody-d2": _nbody(2),
    "nbody-d3": _nbody(3),
    "nbody-hexagon": _hexagon,
    "central-e0.9": _eccentric(0.9),
}


@pytest.mark.parametrize("rtol", [1e-12, 1e-9])
@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_simulate_carries_the_bits_of_solve_ivp(make, rtol):
    chart, q0, p0, t_end = make()
    for samples in (2, 201, 2001):
        rec = simulate(chart, q0, p0, t_end, rtol=rtol, samples=samples)
        sol, _ = _scipy_run(chart, q0, p0, t_end, rtol, samples)
        assert sol.success
        _assert_same_run(rec, sol, chart)


def test_rejected_attempts_keep_the_bits_of_solve_ivp(monkeypatch):
    # a rejected attempt rewrites the stage rows, the last one included; the
    # retry must start again from the derivative of the accepted state
    norms = []
    error_norm = _dop853._error_norm

    def recorded(K, h, scale):
        norms.append(error_norm(K, h, scale))
        return norms[-1]

    monkeypatch.setattr(_dop853, "_error_norm", recorded)
    chart, q0, p0, t_end = _eccentric(0.9)()
    rec = simulate(chart, q0, p0, t_end, samples=201)
    rejected = sum(norm >= 1 for norm in norms)
    assert 1 <= rejected < len(norms)
    sol, _ = _scipy_run(chart, q0, p0, t_end, 1e-12, 201)
    _assert_same_run(rec, sol, chart)


@settings(max_examples=25, deadline=None)
@given(e=st.floats(0.0, 0.95, exclude_max=True), rtol=st.sampled_from([1e-12, 1e-9]),
       samples=st.integers(2, 300))
def test_any_kepler_orbit_keeps_the_bits_of_solve_ivp(e, rtol, samples):
    chart, q0, p0, t_end = _eccentric(e)()
    rec = simulate(chart, q0, p0, t_end, rtol=rtol, samples=samples)
    sol, _ = _scipy_run(chart, q0, p0, t_end, rtol, samples)
    assert sol.success
    _assert_same_run(rec, sol, chart)


def test_step_underflow_stops_where_solve_ivp_stops():
    # plane 1 falls from rest into the centre
    mix = decouple_matrix()
    chart = PairedOrbitsChart()
    q0 = mix.T @ np.array([1.0, 0.0, 0.0, 1.3])
    p0 = mix.T @ np.array([0.0, 0.0, -math.sqrt(2.0 ** -0.5 / 1.3), 0.0])
    with pytest.raises(StepFailureError) as info:
        simulate(chart, q0, p0, 5.0)
    sol, t_last = _scipy_run(chart, q0, p0, 5.0, 1e-12, 2001)
    assert sol.status == -1
    assert str(info.value).startswith(f"integrator stopped at t = {t_last:.6g}, ")
    assert str(info.value).endswith(f": {sol.message}")


def test_an_rtol_below_scipys_floor_is_raised_to_it_as_scipy_does():
    chart, q0, p0, t_end = _central(2)()
    with pytest.warns(UserWarning, match="rtol"):
        rec = simulate(chart, q0, p0, t_end, rtol=1e-16, samples=11)
    with pytest.warns(UserWarning):
        sol, _ = _scipy_run(chart, q0, p0, t_end, 1e-16, 11)
    assert np.array_equal(rec.states, sol.y.T)
    assert rec.rhs_evaluations == sol.nfev


def test_first_step_is_scipys():
    # a slow, rapidly varying field: the first guess h0 is large, so t_end caps
    # it (1.0) or does not (100.0), and the step that follows depends on which
    from scipy.integrate._ivp.common import select_initial_step

    def fun(t, y):
        return 1e-3 * np.sin(1e5 * y)

    def fun_into(t, y, out):  # the port's convention: dy/dt written into out
        out[:] = fun(t, y)

    y0 = np.array([3.0, -0.2, 1.7, 0.05])
    f0 = fun(0.0, y0)
    for t_end in (1e-6, 1.0, 100.0):
        for rtol in (1e-12, 1e-6):
            want = select_initial_step(fun, 0.0, y0, t_end, np.inf, f0, 1.0, 7, rtol, 1e-13)
            assert _dop853._initial_step(fun_into, y0, t_end, f0, rtol, 1e-13) == want


def _kepler(t, y, out):
    # a planar Kepler orbit, kappa 2.5, in the port's convention
    r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
    out[:2] = y[2:]
    out[2:] = -2.5 * y[:2] / r3


def _kepler_start(e=0.6):
    return np.array([1.2, 0.0, 0.0, math.sqrt(2.5 * (1.0 + e) / 1.2)])


def _fill(fun, t, y):
    out = np.empty_like(y)
    fun(t, y, out)
    return out


def _kepler_solve_ivp(t_end, rtol, t_eval=None):
    return solve_ivp(lambda t, y: _fill(_kepler, t, y), (0.0, t_end), _kepler_start(),
                     method="DOP853", t_eval=t_eval, rtol=rtol, atol=1e-13)


def _irregular_samples(t_end, ends):
    """Output times of several shapes, given the accepted step ends (0 excluded)."""
    rng = np.random.default_rng(7)
    return {
        "one sample": np.array([0.37 * t_end]),
        "one sample at the end": np.array([t_end]),
        "all in the first step": np.sort(rng.uniform(0.0, 0.9 * ends[0], 9)),
        "on accepted step ends": ends[::3],
        "on step ends and between": np.sort(np.concatenate([
            ends[1::4], (0.5 * (ends[:-1] + ends[1:]))[2::5]])),
        "most steps hold none": np.array([0.0, 0.011 * t_end, 0.5 * t_end, t_end]),
        "clustered": np.sort(np.concatenate([
            rng.uniform(0.2, 0.2001, 40) * t_end, rng.uniform(0.0, 1.0, 5) * t_end])),
    }


@pytest.mark.parametrize("rtol", [1e-12, 1e-7])
def test_irregular_samples_keep_the_bits_of_solve_ivp(rtol):
    # the samples of all steps are interpolated in one pass after the last
    # step; the result must still be solve_ivp's, its memory layout included
    t_end = 9.0
    ends = _kepler_solve_ivp(t_end, rtol).t[1:]
    assert len(ends) > 10
    for name, t_eval in _irregular_samples(t_end, ends).items():
        nev = [0]

        def fun(t, y, out):
            nev[0] += 1
            _kepler(t, y, out)

        states = _dop853.integrate(fun, _kepler_start(), t_end, t_eval, rtol, 1e-13)
        sol = _kepler_solve_ivp(t_end, rtol, t_eval)
        assert sol.success, name
        assert np.array_equal(states, sol.y.T), name
        assert states.flags.f_contiguous == sol.y.T.flags.f_contiguous, name
        assert nev[0] == sol.nfev, name
