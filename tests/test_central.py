"""Colinear central configurations: quintic, mass lines, Moulton solver."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbodylab.central import (
    CentralConfiguration,
    cc_residual,
    euler_quintic,
    euler_quintic_coefficients,
    fit_multiplier_center,
    mass_line_4body,
    masses_from_rho,
    moulton_solve,
    normalize_cc,
    positivity_interval,
    solve_masses_4body,
)
from nbodylab.errors import (
    AbsoluteEquilibriumError,
    RankDeficiencyError,
    SingularRhoError,
)
from nbodylab.potential import Configuration, MassVector, hessian_w


def test_equal_masses_quintic_root_is_one():
    roots = euler_quintic(MassVector(np.ones(3)))
    assert len(roots) == 1
    npt.assert_allclose(roots[0], 1.0, rtol=1e-13)


def test_quintic_root_yields_a_central_configuration():
    # independent physics oracle: the root shape admits a multiplier with
    # tiny residual in the defining equations
    rng = np.random.default_rng(21)
    for _ in range(10):
        mv = MassVector(rng.uniform(0.1, 4.0, size=3))
        (rho,) = euler_quintic(mv)
        cfg = Configuration(np.array([-1.0, 0.0, rho]))
        alpha, center = fit_multiplier_center(mv, cfg)
        assert cc_residual(mv, cfg, alpha, center) <= 1e-10


def test_quintic_coefficients_are_ascending_and_signed():
    c = euler_quintic_coefficients(MassVector(np.array([1.0, 2.0, 3.0])))
    assert c.shape == (6,)
    assert c[0] > 0 and c[-1] < 0  # one sign change: unique positive root


def test_masses_from_rho_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(30):
        rho = rng.uniform(1.0, 10.0)
        lo, hi = positivity_interval(rho)
        s = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        mv = masses_from_rho(rho, s)
        assert mv.all_positive()
        (back,) = euler_quintic(mv)
        npt.assert_allclose(back, rho, rtol=1e-10)


def test_positivity_interval_boundary():
    rho = 1.7
    lo, hi = positivity_interval(rho)
    assert lo == 0.0
    inside = masses_from_rho(rho, 0.5 * (lo + hi))
    assert inside.all_positive()
    outside = masses_from_rho(rho, hi * 1.05)
    assert not outside.all_positive()


def test_masses_from_rho_rejects_singular_rho():
    with pytest.raises(SingularRhoError):
        masses_from_rho(0.0, 0.3)


def test_masses_from_rho_parametrizes_same_shape():
    lo, hi = positivity_interval(2.3)
    for s in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
        mv = masses_from_rho(2.3, s)
        (rho,) = euler_quintic(mv)
        npt.assert_allclose(rho, 2.3, rtol=1e-10)


def test_fit_multiplier_center_recovers_known_values():
    rng = np.random.default_rng(23)
    mv = MassVector(np.ones(3))
    base = np.array([-1.0, 0.0, 1.0])
    for _ in range(5):
        shift = rng.normal()
        scale = rng.uniform(0.5, 3.0)
        cfg = Configuration(scale * base + shift)
        alpha, center = fit_multiplier_center(mv, cfg)
        assert alpha < 0
        npt.assert_allclose(center[0], shift, atol=1e-10)
        assert cc_residual(mv, cfg, alpha, center) <= 1e-12


def test_normalize_cc_gauge():
    cc = CentralConfiguration.from_positions(
        MassVector(np.array([2.0, 1.0, 3.0])),
        np.array([-2.0, 0.3, 4.1]))
    # not a central configuration at all -> big residual; use a real one
    mv = MassVector(np.array([2.0, 1.0, 3.0]))
    (rho,) = euler_quintic(mv)
    cc = CentralConfiguration.from_positions(mv, np.array([-1.0, 0.0, rho]))
    norm = normalize_cc(cc)
    assert norm.is_normalized
    npt.assert_allclose(norm.masses.total, 1.0, rtol=1e-14)
    npt.assert_allclose(norm.multiplier, -1.0, atol=1e-12)
    assert norm.residual <= 1e-10


def test_normalize_cc_rejects_absolute_equilibrium():
    # square of unit masses with the balancing central mass: multiplier 0
    ang = 2 * np.pi * np.arange(4) / 4
    coords = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]), [[0.0, 0.0]]])
    alpha = 0.25 * sum(1.0 / np.sin(k * np.pi / 4) for k in range(1, 4))
    mv = MassVector(np.array([1.0, 1.0, 1.0, 1.0, -alpha]))
    cc = CentralConfiguration.from_positions(mv, coords)
    with pytest.raises(AbsoluteEquilibriumError):
        normalize_cc(cc)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_moulton_solve_converges_for_positive_masses(n):
    rng = np.random.default_rng(24 + n)
    for _ in range(8):
        mv = MassVector(rng.uniform(0.2, 3.0, size=n))
        cc = moulton_solve(mv)
        assert cc.residual <= 1e-11
        x = cc.config.coords[:, 0]
        assert np.all(np.diff(x) > 0)  # ordering preserved


def test_moulton_reversed_order_is_the_mirror_shape():
    mv = MassVector(np.array([1.3, 0.4, 2.2, 0.9]))
    fwd = moulton_solve(mv, order=[0, 1, 2, 3]).config.coords[:, 0]
    rev = moulton_solve(mv, order=[3, 2, 1, 0]).config.coords[:, 0]
    npt.assert_allclose(fwd, -rev, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1), shift=st.floats(-10.0, 10.0))
def test_moulton_total_mass_one_reversal_and_translation(n, seed, shift):
    m = np.random.default_rng(seed).uniform(0.2, 3.0, n)
    m /= m.sum()
    cc = moulton_solve(m)
    x = cc.config.coords[:, 0]
    rev = moulton_solve(m, order=np.arange(n)[::-1]).config.coords[:, 0]
    npt.assert_allclose(rev, -x, rtol=0, atol=1e-10)
    # a translated copy is the same cc, centered at the shift
    moved = CentralConfiguration.from_positions(cc.masses, (x + shift)[:, None])
    npt.assert_allclose(moved.multiplier, -1.0, rtol=0, atol=1e-10)
    npt.assert_allclose(moved.center, [shift], rtol=0, atol=1e-10)
    npt.assert_allclose(normalize_cc(moved).config.coords[:, 0], x, rtol=0, atol=1e-10)


def test_moulton_halves_a_step_that_lands_inside_the_floor(monkeypatch):
    # scale the first Newton step so that, taken whole, it leaves a gap of
    # 5e-9: inside the 1e-8 floor, yet above the 1e-9 the guard once used
    masses = np.array([3.0, 1.0, 2.0])
    want = moulton_solve(masses).config.coords
    solve = np.linalg.solve
    full_step_gaps = []

    def first_step_near_collision(a, b):
        step = solve(a, b)
        if not full_step_gaps:
            n = a.shape[0]
            x = np.arange(n) - 1.0  # the start; slots 0 and 1 stay pinned
            rate = np.diff(np.concatenate([[0.0, 0.0], step[:n - 2]]))
            shrink = rate < 0
            step = step * np.min((5e-9 - np.diff(x)[shrink]) / rate[shrink])
            full_step_gaps.append(np.diff(x + np.concatenate([[0.0, 0.0], step[:n - 2]])))
        return step

    monkeypatch.setattr(np.linalg, "solve", first_step_near_collision)
    got = moulton_solve(masses)
    assert 1e-9 < full_step_gaps[0].min() <= 1e-8
    npt.assert_allclose(got.config.coords, want, rtol=0, atol=1e-12)


def test_moulton_equal_masses_symmetric():
    cc = moulton_solve(MassVector(np.ones(3)))
    x = cc.config.coords[:, 0]
    npt.assert_allclose(x[1], 0.0, atol=1e-12)
    npt.assert_allclose(x[0], -x[2], atol=1e-12)


def test_normalized_cc_kernel_relations():
    # W annihilates the all-ones direction and doubles the configuration
    rng = np.random.default_rng(26)
    for n in (3, 4):
        mv = MassVector(rng.uniform(0.3, 2.0, size=n))
        norm = normalize_cc(moulton_solve(mv))
        w = hessian_w(norm.masses, norm.config).matrix
        ones = np.ones(n)
        x = norm.config.coords[:, 0]
        npt.assert_allclose(w @ ones, np.zeros(n), atol=1e-10)
        npt.assert_allclose(w @ x, 2.0 * x, atol=1e-10)


@pytest.mark.parametrize("rho1,rho2", [(3.0, 2.0), (20.0, 1.02), (2.5, 2.5),
                                       (1.05, 1.02)])
def test_mass_line_4body_gauge_and_residual(rho1, rho2):
    line = mass_line_4body(rho1, rho2)
    pos = line.configuration.coords
    x = pos[:, 0]
    gaps = np.abs(x[:, None] - x[None, :]) + np.eye(4)
    for t in (0.05, 0.15, 0.25):
        mv = line.masses(t)
        m = mv.values
        # near rho = 1 the line masses grow large and nearly cancel, so both
        # checks are relative to the size of the individual terms
        npt.assert_allclose(mv.total, 1.0, atol=1e-14 * np.abs(m).sum())
        assert m[2] == pytest.approx(t, abs=1e-15)
        alpha = line.multiplier(t)
        assert alpha < 0
        center = (m @ pos) / mv.total
        terms = np.abs(m[:, None] * m[None, :]) * (1.0 - np.eye(4)) / gaps**2
        res = cc_residual(mv, Configuration(pos), alpha, center)
        assert res <= 1e-12 * max(1.0, terms.sum(axis=1).max())


def _sum1_line_direct(rho1, rho2):
    """Sum-1 line from its own 6x6 system: K m = alpha c + beta, sum m = 1."""
    c = np.array([-rho1, -1.0, 1.0, rho2])
    mat = np.zeros((6, 6))
    for i in range(4):
        for j in range(4):
            if i != j:
                mat[i, j] = (c[j] - c[i]) / abs(c[j] - c[i]) ** 3
    mat[:4, 4] = -c
    mat[:4, 5] = -1.0
    mat[4, :4] = 1.0
    mat[5, 2] = 1.0
    x0 = np.linalg.solve(mat, [0, 0, 0, 0, 1, 0])
    x1 = np.linalg.solve(mat, [0, 0, 0, 0, 1, 1])
    return x0[:4], x1[:4] - x0[:4], x0[4], x1[4] - x0[4]


def test_mass_line_4body_matches_direct_sum1_system():
    rng = np.random.default_rng(27)
    for _ in range(50):
        rho2 = rng.uniform(1.02, 10.0)
        rho1 = rng.uniform(rho2, 20.0)
        line = mass_line_4body(rho1, rho2)
        icpt, slope, a0, a1 = _sum1_line_direct(rho1, rho2)
        scale = np.abs(icpt).max() + np.abs(slope).max()
        npt.assert_allclose(line.intercept, icpt, atol=1e-12 * scale)
        npt.assert_allclose(line.slope, slope, atol=1e-12 * scale)
        npt.assert_allclose(line.multiplier_intercept, a0, rtol=1e-10)
        npt.assert_allclose(line.multiplier_slope, a1, atol=1e-10 * abs(a0))


def test_mass_line_4body_rank_deficient_near_collision():
    # cond of the line system is about 5.7e12 at this shape
    with pytest.raises(RankDeficiencyError):
        mass_line_4body(20.0, 1.001)


def test_mass_line_4body_rejects_unordered_shape():
    with pytest.raises(ValueError):
        mass_line_4body(2.0, 3.0)


def test_solve_masses_4body_matches_line():
    mv = solve_masses_4body(3.0, 2.0, 0.12)
    npt.assert_allclose(mv.total, 1.0, rtol=1e-12)
    line = mass_line_4body(3.0, 2.0)
    npt.assert_allclose(mv.values, line.masses(0.12).values, atol=1e-12)


def test_exact_fraction_masses_survive_float_conversion():
    # parametrized mass formulas accept Fractions end to end elsewhere;
    # here: the quintic residual of float-converted exact masses stays tiny
    mv = masses_from_rho(1.0, Fraction(1, 3))
    npt.assert_allclose(sum(mv.values), 1.0, rtol=0, atol=1e-15)
