"""Closed-form model identities, invariant subspaces, and the simulator."""

import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from nbodylab.errors import CollisionError, SamplingStalledError, StepFailureError
from nbodylab.models import (
    FIVE_BODY_KAPPA,
    FIVE_BODY_MASSES,
    CentralForceChart,
    InvariantSubspace,
    NBodyChart,
    PairedOrbitsChart,
    RotatedChart,
    absolute_equilibrium_check,
    central_mass_cancellation_check,
    check_invariant_subspace,
    circular_orbit_state,
    colinear_subspace,
    conic_residual,
    decouple_5body,
    decouple_matrix,
    five_body_midpoints,
    five_body_subspace,
    kepler_period,
    n3_configuration,
    n3_effective_potential,
    n3_masses,
    n3_subspace,
    polygon_alpha,
    polygon_configuration,
    restricted_potential_5body,
    simulate,
)
from nbodylab.potential import (
    COLLISION_FLOOR,
    Configuration,
    MassVector,
    eval_potential,
    gradient,
)


def five_body_config(z):
    """Full planar 5-body configuration for a parallelogram chart point."""
    q21, q22, q31, q32 = z
    return Configuration(np.array([
        [0.0, 0.0],
        [q21, q22],
        [q31, q32],
        [-q21, -q22],
        [-q31, -q32],
    ]))


def random_chart_points(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = rng.uniform(-2.0, 2.0, size=4)
        y1, y2 = decouple_5body(z)
        if min(np.linalg.norm(y1), np.linalg.norm(y2)) > 0.2:
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# 5-body model identities


def test_full_potential_is_twice_the_chart_potential():
    for z in random_chart_points(25, seed=7):
        full = eval_potential(FIVE_BODY_MASSES, five_body_config(z))
        npt.assert_allclose(full, 2.0 * restricted_potential_5body(z), rtol=5e-15)


def test_chart_potential_splits_into_two_kepler_terms():
    for z in random_chart_points(25, seed=8):
        y1, y2 = decouple_5body(z)
        split = (FIVE_BODY_KAPPA / np.linalg.norm(y1)
                 + FIVE_BODY_KAPPA / np.linalg.norm(y2))
        npt.assert_allclose(restricted_potential_5body(z), split, rtol=5e-15)


def test_decouple_matrix_is_orthogonal_and_splits_the_example():
    m = decouple_matrix()
    npt.assert_allclose(m @ m.T, np.eye(4), atol=1e-15)
    y1, y2 = decouple_5body([1.0, 0.0, 0.0, 1.0])
    s = 2.0 ** -0.5
    npt.assert_allclose(y1, [s, -s], atol=1e-15)
    npt.assert_allclose(y2, [s, s], atol=1e-15)
    npt.assert_allclose(restricted_potential_5body([1.0, 0.0, 0.0, 1.0]),
                        math.sqrt(2.0), rtol=1e-15)


def test_chart_gradient_matches_finite_differences():
    chart = PairedOrbitsChart()
    h = 1e-6
    for z in random_chart_points(10, seed=9):
        grad = chart.gradient(z)
        fd = np.empty(4)
        for i in range(4):
            zp, zm = np.array(z), np.array(z)
            zp[i] += h
            zm[i] -= h
            fd[i] = (chart.potential(zp) - chart.potential(zm)) / (2.0 * h)
        npt.assert_allclose(grad, fd, rtol=2e-8, atol=2e-8)


def test_chart_flow_equals_restricted_full_dynamics():
    # accelerations of bodies 2 and 3 in the full problem equal the chart's
    from nbodylab.potential import acceleration

    chart = PairedOrbitsChart()
    for z in random_chart_points(10, seed=10):
        acc = acceleration(FIVE_BODY_MASSES, five_body_config(z))
        npt.assert_allclose(chart.gradient(z), acc[1:3].reshape(-1), atol=5e-15)


def test_chart_collision_raises():
    with pytest.raises(CollisionError):
        restricted_potential_5body([1.0, 0.5, 1.0, 0.5])


@pytest.mark.parametrize("r", [0.3, 1.0, 7.5])
def test_central_mass_cancellation_is_identically_zero(r):
    assert central_mass_cancellation_check(r) == 0.0


def test_central_mass_cancellation_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        central_mass_cancellation_check(0.0)


def test_center_and_antipode_forces_cancel_on_a_body():
    # net force on a unit mass from the -1/4 center and the antipodal body
    x = np.array([0.7, -0.4])
    cfg = Configuration(np.array([[0.0, 0.0], x, -x]))
    g = gradient(MassVector([-0.25, 1.0, 1.0]), cfg)
    assert np.max(np.abs(g[1])) <= 1e-15


# ---------------------------------------------------------------------------
# polygon equilibria and the n+3 model


def test_polygon_alpha_closed_forms():
    npt.assert_allclose(polygon_alpha(2), 0.25, rtol=1e-15)
    npt.assert_allclose(polygon_alpha(3), 1.0 / math.sqrt(3.0), rtol=1e-15)
    npt.assert_allclose(polygon_alpha(4), (1.0 + 2.0 * math.sqrt(2.0)) / 4.0,
                        rtol=1e-15)


def test_polygon_alpha_rejects_degenerate_polygon():
    with pytest.raises(ValueError):
        polygon_alpha(1)


@pytest.mark.parametrize("n", range(2, 10))
def test_polygon_with_balancing_center_is_an_absolute_equilibrium(n):
    masses, cfg = polygon_configuration(n)
    assert absolute_equilibrium_check(masses, cfg) <= 1e-10


@pytest.mark.parametrize("n", [3, 6])
def test_doubled_center_mass_breaks_the_equilibrium(n):
    masses, cfg = polygon_configuration(n)
    wrong = MassVector(np.concatenate([masses.values[:-1],
                                       [2.0 * masses.values[-1]]]))
    assert absolute_equilibrium_check(wrong, cfg) > 0.1


@pytest.mark.parametrize("n", range(2, 9))
def test_balanced_polygon_cluster_has_zero_total_potential(n):
    # the center mass cancels the polygon's internal energy exactly
    masses, cfg = polygon_configuration(n)
    assert abs(eval_potential(masses, cfg)) <= 1e-12


def test_vertical_cluster_cancels_for_any_alpha():
    # masses (-a, 4a, 4a) at heights (0, h, -h): total potential is zero
    for a, h in ((0.7, 1.3), (polygon_alpha(5), 0.4)):
        cfg = Configuration(np.array([[0.0], [h], [-h]]))
        assert abs(eval_potential(MassVector([-a, 4.0 * a, 4.0 * a]), cfg)) <= 1e-15


@pytest.mark.parametrize("n", range(3, 9))
def test_n3_effective_potential_equals_full_restriction(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        beta = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        height = rng.uniform(0.3, 2.0)
        cfg = n3_configuration(n, beta=beta, theta=theta, height=height)
        state3 = np.array([cfg.coords[0, 0], cfg.coords[0, 1], height])
        full = eval_potential(n3_masses(n), cfg)
        npt.assert_allclose(full, n3_effective_potential(n, state3), rtol=1e-13)


def test_n3_effective_potential_collision():
    with pytest.raises(CollisionError):
        n3_effective_potential(4, [0.0, 0.0, 0.0])


def test_n3_masses_layout():
    m = n3_masses(4).values
    a = polygon_alpha(4)
    npt.assert_allclose(m, [1.0, 1.0, 1.0, 1.0, -a, 4.0 * a, 4.0 * a], rtol=1e-15)


# ---------------------------------------------------------------------------
# invariant subspaces


def test_subspace_basis_must_be_orthonormal():
    with pytest.raises(ValueError):
        InvariantSubspace(MassVector([1.0, 1.0]), 1,
                          np.array([[1.0], [1.0]]), "bad")


def test_five_body_subspace_leakage_is_machine_small():
    report = check_invariant_subspace(five_body_subspace())
    assert report["samples"] == 50
    assert report["max_leakage"] <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_n3_subspace_leakage_is_machine_small(n):
    report = check_invariant_subspace(n3_subspace(n))
    assert report["max_leakage"] <= 1e-12


def test_stalled_subspace_sampling_raises_a_typed_error():
    # 80 polygon bodies almost never sit 0.1 apart at a random point of the span
    with pytest.raises(SamplingStalledError, match="101 draws rejected for 0 of 1 samples"):
        check_invariant_subspace(n3_subspace(80), samples=1)


def test_colinear_subspace_leakage_is_exactly_zero():
    rng = np.random.default_rng(3)
    report = check_invariant_subspace(colinear_subspace(rng.uniform(0.2, 3.0, 4)))
    assert report["max_leakage"] <= 1e-15


def test_random_plane_is_not_invariant():
    rng = np.random.default_rng(12)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    sub = InvariantSubspace(MassVector([1.0, 1.0, 1.0]), 2, basis, "control")
    report = check_invariant_subspace(sub, samples=20, min_separation=0.05)
    assert report["max_leakage"] > 0.1


# ---------------------------------------------------------------------------
# simulation


def five_body_circular_start(r1, r2, scale=1.0):
    """Chart state with each decoupled plane on a (scaled) circular orbit."""
    mix = decouple_matrix()
    q1, p1, t1 = circular_orbit_state(FIVE_BODY_KAPPA, r1)
    q2, p2, t2 = circular_orbit_state(FIVE_BODY_KAPPA, r2)
    q0 = mix.T @ np.concatenate([q1, q2])
    p0 = mix.T @ np.concatenate([scale * p1, scale * p2])
    return q0, p0, max(t1, t2)


def test_central_force_circular_orbit_conserves_and_closes():
    kappa = 8.0 * 4.0 * polygon_alpha(4)
    q0, p0, period = circular_orbit_state(kappa, 1.7)
    rec = simulate(CentralForceChart(kappa, dof=2), q0, p0, 5.0 * period,
                   samples=501)
    assert rec.drift["energy"] <= 1e-10
    assert rec.drift["angular_momentum"] <= 1e-10
    assert conic_residual(rec.positions()) <= 1e-9
    # samples place a row at every full period
    for j in range(1, 6):
        assert np.max(np.abs(rec.states[100 * j] - rec.states[0])) <= 1e-7


def test_five_body_circular_orbits_conserve_and_trace_conics():
    q0, p0, period = five_body_circular_start(1.0, 1.3)
    rec = simulate(PairedOrbitsChart(), q0, p0, 3.0 * period, samples=1201)
    for name in ("pair_energy_1", "pair_energy_2",
                 "pair_angular_momentum_1", "pair_angular_momentum_2",
                 "energy"):
        assert rec.drift[name] <= 1e-10
    mid1, mid2 = five_body_midpoints(rec)
    assert conic_residual(mid1) <= 1e-8
    assert conic_residual(mid2) <= 1e-8


def test_five_body_eccentric_orbits_still_conserve():
    q0, p0, period = five_body_circular_start(1.0, 1.3, scale=0.8)
    rec = simulate(PairedOrbitsChart(), q0, p0, 10.0 * period, samples=2001)
    assert max(rec.drift.values()) <= 1e-9
    mid1, mid2 = five_body_midpoints(rec)
    assert conic_residual(mid1) <= 1e-8
    assert conic_residual(mid2) <= 1e-8


def test_five_body_midpoints_are_the_side_centers():
    q0, p0, period = five_body_circular_start(1.0, 1.3)
    rec = simulate(PairedOrbitsChart(), q0, p0, 0.5, samples=5)
    mid1, mid2 = five_body_midpoints(rec)
    q2 = rec.positions()[:, :2]
    q3 = rec.positions()[:, 2:]
    npt.assert_allclose(mid1, 0.5 * (q2 - q3), atol=1e-14)
    npt.assert_allclose(mid2, 0.5 * (q2 + q3), atol=1e-14)


def test_commensurate_radii_give_a_closed_choreography():
    # period ratio 2:1, so after two inner periods the state returns
    q0, p0, _ = five_body_circular_start(1.0, 2.0 ** (2.0 / 3.0))
    t1 = kepler_period(FIVE_BODY_KAPPA, 1.0)
    rec = simulate(PairedOrbitsChart(), q0, p0, 2.0 * t1, samples=401)
    assert np.max(np.abs(rec.states[-1] - rec.states[0])) <= 1e-9


def test_n3_chart_eccentric_orbit_conserves_energy():
    n = 5
    kappa = 8.0 * n * polygon_alpha(n)
    q2, p2, period = circular_orbit_state(kappa, 1.5)
    q0 = np.array([q2[0], q2[1], 0.0])
    p0 = np.array([p2[0], 0.85 * p2[1], 0.0])
    rec = simulate(CentralForceChart(kappa, dof=3), q0, p0, 10.0 * period,
                   samples=801)
    assert rec.drift["energy"] <= 1e-9
    assert conic_residual(rec.positions()[:, :2]) <= 1e-8


def test_rotated_chart_reproduces_the_inner_flow():
    kappa = 2.5
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    inner = CentralForceChart(kappa, dof=2)
    q0, p0, period = circular_orbit_state(kappa, 1.2)
    rec_in = simulate(inner, q0, p0, 2.0 * period, samples=201)
    rec_rot = simulate(RotatedChart(inner, rot), rot.T @ q0, rot.T @ p0,
                       2.0 * period, samples=201)
    npt.assert_allclose(rec_rot.positions(), rec_in.positions() @ rot,
                        atol=1e-8)
    assert abs(rec_rot.drift["energy"] - rec_in.drift["energy"]) <= 1e-10


def test_rotated_chart_validates_its_inputs():
    inner = CentralForceChart(1.0, dof=2)
    with pytest.raises(ValueError):
        RotatedChart(inner, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        RotatedChart(NBodyChart([1.0, 2.0], 1), np.eye(2))


def test_zero_momentum_absolute_equilibrium_stays_fixed():
    masses, cfg = polygon_configuration(3)
    chart = NBodyChart(masses, 2)
    q0 = cfg.coords.reshape(-1)
    rec = simulate(chart, q0, np.zeros_like(q0), 4.0, samples=101)
    assert np.max(np.abs(rec.states - rec.states[0])) <= 1e-12


def test_radial_infall_hits_the_separation_floor():
    with pytest.raises(StepFailureError):
        simulate(CentralForceChart(1.0, dof=2), [1.0, 0.0], [-0.9, 0.0], 5.0)


def _five_body_radial_infall():
    # plane 1 falls straight in; plane 2 stays on its circle
    y0 = np.array([1.0, 0.0, 0.0, 1.3])
    w0 = np.array([-0.6, 0.0, -math.sqrt(FIVE_BODY_KAPPA / 1.3), 0.0])
    mix = decouple_matrix()
    return PairedOrbitsChart(), mix.T @ y0, mix.T @ w0


def _rotated_central_infall():
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                    [math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    return (RotatedChart(CentralForceChart(2.0, dof=3), rot),
            np.array([1.0, 0.5, 0.2]), np.zeros(3))


@pytest.mark.parametrize("case", [
    lambda: (NBodyChart([1.0, 1.0], 2), np.array([-1.0, 0.0, 1.0, 0.0]), np.zeros(4)),
    _five_body_radial_infall,
    _rotated_central_infall,
], ids=["head-on-pair", "five-body-plane-infall", "rotated-central-infall"])
def test_mid_run_collision_is_a_step_failure_from_the_gradient(case):
    chart, q0, p0 = case()
    with pytest.raises(StepFailureError) as info:
        simulate(chart, q0, p0, 5.0)
    # the chart gradient's own collision check stopped the run
    assert isinstance(info.value.__cause__, CollisionError)


def test_stalled_integrator_names_time_and_separation():
    # plane 1 falls from rest; the step size underflows just before the floor
    y0 = np.array([1.0, 0.0, 0.0, 1.3])
    w0 = np.array([0.0, 0.0, -math.sqrt(FIVE_BODY_KAPPA / 1.3), 0.0])
    mix = decouple_matrix()
    with pytest.raises(StepFailureError) as info:
        simulate(PairedOrbitsChart(), mix.T @ y0, mix.T @ w0, 5.0)
    assert info.value.__cause__ is None
    match = re.fullmatch(r"integrator stopped at t = (\S+), smallest separation (\S+): "
                         r"Required step size is less than spacing between numbers\.",
                         str(info.value))
    assert match is not None, str(info.value)
    # radial free fall from rest at r = 1 reaches the centre at pi/2 sqrt(1/(2 kappa))
    npt.assert_allclose(float(match[1]), math.pi / 2 * math.sqrt(0.5 / FIVE_BODY_KAPPA),
                        atol=1e-4)
    assert COLLISION_FLOOR < float(match[2]) < 1e-6


@pytest.mark.parametrize("chart,q0", [
    (CentralForceChart(2.0, dof=2), [1.0, 0.0]),
    (PairedOrbitsChart(), [1.0, 0.2, -0.3, 0.9]),
    (NBodyChart([1.0, 1.0, 1.0], 2), [1.0, 0.0, -0.5, 0.8, -0.4, -0.9]),
], ids=["central-force", "five-body", "three-body"])
def test_simulate_checks_min_separation_once(monkeypatch, chart, q0):
    calls = []
    original = chart.min_separation
    monkeypatch.setattr(chart, "min_separation",
                        lambda q: calls.append(q) or original(q))
    simulate(chart, q0, np.zeros(chart.dof), 0.5, samples=11)
    assert len(calls) == 1


def test_initial_collision_is_rejected():
    with pytest.raises(CollisionError):
        simulate(PairedOrbitsChart(), [1.0, 0.0, 1.0, 0.0],
                 [0.0, 0.0, 0.0, 0.0], 1.0)
    with pytest.raises(CollisionError):
        simulate(NBodyChart([1.0, 1.0], 2), [0.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 0.0], 1.0)


def test_simulate_rejects_malformed_states():
    with pytest.raises(ValueError):
        simulate(CentralForceChart(1.0, dof=2), [1.0, 0.0, 0.0], [0.0, 1.0], 1.0)
    for q0, p0 in (([1.0, math.nan], [0.0, 1.0]), ([1.0, 0.0], [0.0, math.inf])):
        with pytest.raises(ValueError, match="initial state must be finite"):
            simulate(CentralForceChart(1.0, dof=2), q0, p0, 1.0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        simulate(CentralForceChart(1.0, dof=2), [1.0, 0.0], [0.0, 1.0], 1.0, samples=0)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0])
def test_simulate_rejects_a_bad_t_end_before_integrating(monkeypatch, t_end):
    chart = CentralForceChart(1.0, dof=2)
    calls = []
    monkeypatch.setattr(chart, "gradient", lambda q: calls.append(q))
    with pytest.raises(ValueError, match="t_end must be a finite number > 0"):
        simulate(chart, [1.0, 0.0], [0.0, 1.0], t_end)
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nbody_chart_gradient_rejects_a_non_finite_state(d, bad):
    chart = NBodyChart([1.0, 2.0, 0.5], d)
    q = np.arange(3.0 * d)
    q[d] = bad
    with pytest.raises(ValueError, match="coordinates must be finite"):
        chart.gradient(q)


def test_full_chart_integrals_include_momenta_and_angular_momentum():
    chart = NBodyChart([1.0, 2.0, 3.0], 2)
    rng = np.random.default_rng(5)
    q = rng.normal(size=6)
    p = rng.normal(size=6)
    vals = chart.integrals(q, p)
    assert set(vals) == {"energy", "momentum_x", "momentum_y",
                         "angular_momentum"}
    npt.assert_allclose(vals["momentum_x"], p[0] + p[2] + p[4], rtol=1e-15)


def one_state_integrals(chart, q, p):
    """Reference: the integrals of one state in numpy-scalar arithmetic, term by term."""
    if isinstance(chart, RotatedChart):
        return one_state_integrals(chart.inner, chart.rot @ q, chart.rot @ p)
    if isinstance(chart, PairedOrbitsChart):
        y, w = decouple_matrix() @ q, decouple_matrix() @ p
        e1 = 0.5 * (w[0] ** 2 + w[1] ** 2) - FIVE_BODY_KAPPA / np.linalg.norm(y[:2])
        e2 = 0.5 * (w[2] ** 2 + w[3] ** 2) - FIVE_BODY_KAPPA / np.linalg.norm(y[2:])
        return {"pair_energy_1": e1, "pair_energy_2": e2,
                "pair_angular_momentum_1": y[0] * w[1] - y[1] * w[0],
                "pair_angular_momentum_2": y[2] * w[3] - y[3] * w[2],
                "energy": e1 + e2}
    if isinstance(chart, CentralForceChart):
        out = {"energy": 0.5 * (p**2).sum() - chart.kappa / np.linalg.norm(q)}
        if chart.dof == 2:
            out["angular_momentum"] = q[0] * p[1] - q[1] * p[0]
        else:
            out.update(zip(("angular_momentum_x", "angular_momentum_y",
                            "angular_momentum_z"), np.cross(q, p)))
        return out
    d, m = chart.d, chart.masses.values
    c, mom = q.reshape(-1, d), p.reshape(-1, d)
    diff = c[:, None, :] - c[None, :, :]
    iu = np.triu_indices(len(m), k=1)
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[iu]
    out = {"energy": (p**2 / (2.0 * chart.dof_masses)).sum()
           - np.sum(m[iu[0]] * m[iu[1]] / dist)}
    for a in range(d):
        out[f"momentum_{'xyz'[a]}"] = mom[:, a].sum()
    if d == 2:
        out["angular_momentum"] = (c[:, 0] * mom[:, 1] - c[:, 1] * mom[:, 0]).sum()
    elif d == 3:
        out.update(zip(("angular_momentum_x", "angular_momentum_y",
                        "angular_momentum_z"), np.cross(c, mom).sum(axis=0)))
    return out


def _plane_rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


_STACK_CHARTS = {
    **{f"nbody-d{d}-n{n}": (lambda d=d, n=n: NBodyChart(
        np.random.default_rng(10 * n + d).uniform(0.2, 3.0, n), d))
       for d in (1, 2, 3) for n in (2, 3, 5, 8, 9)},
    "nbody-d2-n9-signed": lambda: NBodyChart(
        np.linspace(-2.0, 2.0, 9) + 0.1, 2),
    "five-body": PairedOrbitsChart,
    "central-dof2": lambda: CentralForceChart(2.5, dof=2),
    "central-dof3": lambda: CentralForceChart(2.5, dof=3),
    "rotated-five-body": lambda: RotatedChart(PairedOrbitsChart(), np.kron(
        _plane_rotation(0.4), _plane_rotation(-1.1))),
    "rotated-central": lambda: RotatedChart(CentralForceChart(1.5, dof=2),
                                            _plane_rotation(0.9)),
}


@pytest.mark.parametrize("make_chart", _STACK_CHARTS.values(), ids=_STACK_CHARTS.keys())
def test_integrals_of_a_stack_equal_one_state_calls(make_chart):
    chart = make_chart()
    rng = np.random.default_rng(chart.dof)
    count = 200
    # one sample per column, as solve_ivp returns them: the rows are strided
    states = rng.normal(size=(2 * chart.dof, count)).T * rng.uniform(0.5, 3.0, (count, 1))
    q, p = states[:, :chart.dof], states[:, chart.dof:]
    stack = chart.integrals(q, p)
    singles = [chart.integrals(q[s], p[s]) for s in range(count)]
    for name, column in stack.items():
        assert column.shape == (count,)
        assert all(type(one[name]) is float for one in singles)
        assert np.array_equal(column, [one[name] for one in singles]), name
        reference = [one_state_integrals(chart, q[s], p[s])[name] for s in range(count)]
        assert np.array_equal(column, reference), name
    assert list(stack) == list(singles[0])


def test_five_body_energies_square_momenta_as_one_state_does():
    # one state squares with libm pow; w * w rounds differently in about one
    # momentum row in 2,000, so pick such rows for the stack
    chart, mix = PairedOrbitsChart(), decouple_matrix()
    rng = np.random.default_rng(4)
    p = rng.normal(size=(20000, 4))
    w = np.matmul(mix, p[:, :, None])[:, :, 0]
    pow_kin = np.array([(a**2 + b**2, c**2 + d**2) for a, b, c, d in w.tolist()])
    mul_kin = np.column_stack([w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1],
                               w[:, 2] * w[:, 2] + w[:, 3] * w[:, 3]])
    rows = np.flatnonzero((pow_kin != mul_kin).any(axis=1))
    assert rows.size >= 5
    q = rng.normal(size=(rows.size, 4)) + 2.0
    stack = chart.integrals(q, p[rows])
    for name in ("pair_energy_1", "pair_energy_2"):
        reference = [one_state_integrals(chart, q[s], p[r])[name] for s, r in enumerate(rows)]
        assert np.array_equal(stack[name], reference)


@pytest.mark.parametrize("chart,message", [
    (NBodyChart([1.0, 2.0, 0.5, 1.5], 2), "bodies 1 and 3 are separated by"),
    (CentralForceChart(1.0, dof=3), "central-force chart at the origin"),
], ids=["nbody", "central"])
def test_integrals_of_a_stack_raise_for_the_first_collided_sample(chart, message):
    rng = np.random.default_rng(3)
    q = rng.normal(size=(12, chart.dof)) + 3.0 * np.arange(chart.dof)
    p = rng.normal(size=(12, chart.dof))
    if isinstance(chart, NBodyChart):
        q[5, 6:8] = q[5, 2:4] + 0.5 * COLLISION_FLOOR  # bodies 1 and 3
        q[8, 2:4] = q[8, 0:2]                          # bodies 0 and 1, later
    else:
        q[5] = 0.25 * COLLISION_FLOOR
        q[8] = 0.0
    with pytest.raises(CollisionError) as single:
        chart.integrals(q[5], p[5])
    with pytest.raises(CollisionError) as stack:
        chart.integrals(q, p)
    assert str(stack.value) == str(single.value)
    assert message in str(stack.value)


def test_five_body_integrals_raise_at_a_collision_as_the_gradient_does():
    chart = PairedOrbitsChart()
    q = np.array([1.0, 0.5, 1.0, 0.5])  # bodies 2 and 3 coincide
    with pytest.raises(CollisionError) as grad:
        chart.gradient(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CollisionError) as single:
            chart.integrals(q, np.ones(4))
        rng = np.random.default_rng(4)
        qs = rng.normal(size=(9, 4)) + 2.0
        qs[6] = q
        with pytest.raises(CollisionError) as stack:
            chart.integrals(qs, rng.normal(size=(9, 4)))
    assert str(single.value) == str(stack.value) == str(grad.value)


def test_chart_gradients_keep_the_numpy_arithmetic_bits():
    rng = np.random.default_rng(11)
    five, central = PairedOrbitsChart(), CentralForceChart(2.5, dof=3)
    for z in random_chart_points(200, 12):
        q21, q22, q31, q32 = z
        f1 = -(((q21 - q31) ** 2 + (q22 - q32) ** 2) ** -1.5)
        f2 = -(((q21 + q31) ** 2 + (q22 + q32) ** 2) ** -1.5)
        expect = [f1 * (q21 - q31) + f2 * (q21 + q31), f1 * (q22 - q32) + f2 * (q22 + q32),
                  -f1 * (q21 - q31) + f2 * (q21 + q31), -f1 * (q22 - q32) + f2 * (q22 + q32)]
        assert np.array_equal(five.gradient(z), expect)
        x = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        r = float(np.linalg.norm(x))
        assert np.array_equal(central.gradient(x), -2.5 * x / r**3)
        assert central.min_separation(x) == r
        assert central.potential(x) == 2.5 / r


@pytest.mark.parametrize("cls", [NBodyChart, PairedOrbitsChart, CentralForceChart])
def test_traced_chart_methods_live_in_the_class_body(cls):
    # the benchmark's tracer wraps vars(cls)[name]; an inherited method is not there
    for name in ("gradient", "min_separation", "integrals"):
        assert name in vars(cls)


def test_kepler_period_closed_form():
    npt.assert_allclose(kepler_period(1.0, 1.0), 2.0 * math.pi, rtol=1e-15)
    q, p, period = circular_orbit_state(2.0, 3.0)
    npt.assert_allclose(period, 2.0 * math.pi * math.sqrt(27.0 / 2.0), rtol=1e-15)
    npt.assert_allclose(np.linalg.norm(p), math.sqrt(2.0 / 3.0), rtol=1e-15)


def test_conic_residual_rejects_non_kepler_curves():
    theta = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    r = 1.0 + 0.3 * np.cos(2.0 * theta)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    assert conic_residual(pts) > 0.1
