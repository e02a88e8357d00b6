"""Derivative stack: potential, gradient, mass-scaled Hessian, third tensor."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbodylab import potential as potential_module
from nbodylab.errors import CollisionError
from nbodylab.models import NBodyChart
from nbodylab.potential import (
    COLLISION_FLOOR,
    Configuration,
    MassVector,
    _pair_index,
    _potential_batch,
    _third_contract_batch,
    acceleration,
    eval_potential,
    gradient,
    hessian_w,
    third_contract,
)


def random_problem(rng, n, d, spread=2.0, min_sep=0.3):
    masses = MassVector(rng.uniform(0.2, 3.0, size=n))
    while True:
        coords = rng.uniform(-spread, spread, size=(n, d))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > min_sep:
            return masses, Configuration(coords)


def fd_gradient(masses, coords, h=1e-6):
    base = coords.coords
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        for a in range(base.shape[1]):
            qp, qm = base.copy(), base.copy()
            qp[i, a] += h
            qm[i, a] -= h
            out[i, a] = (eval_potential(masses, Configuration(qp))
                         - eval_potential(masses, Configuration(qm))) / (2 * h)
    return out


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_gradient_matches_finite_differences(n, d):
    rng = np.random.default_rng(11)
    for _ in range(5):
        masses, cfg = random_problem(rng, n, d)
        g = gradient(masses, cfg)
        fd = fd_gradient(masses, cfg)
        npt.assert_allclose(g, fd, rtol=0, atol=1e-5 * max(1.0, np.abs(g).max()))


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 3)])
def test_hessian_w_matches_finite_differences_of_acceleration(n, d):
    # W rows are mass-scaled: row (i,a) differentiates acceleration_i, not force_i
    rng = np.random.default_rng(12)
    masses, cfg = random_problem(rng, n, d)
    w = hessian_w(masses, cfg).matrix
    h = 1e-6
    base = cfg.coords
    for j in range(n):
        for b in range(d):
            qp, qm = base.copy(), base.copy()
            qp[j, b] += h
            qm[j, b] -= h
            col = (acceleration(masses, Configuration(qp))
                   - acceleration(masses, Configuration(qm))).reshape(-1) / (2 * h)
            npt.assert_allclose(w[:, j * d + b], col, rtol=0,
                                atol=1e-4 * max(1.0, np.abs(w).max()))


def test_third_contract_matches_finite_differences_of_hessian():
    rng = np.random.default_rng(13)
    masses, cfg = random_problem(rng, 3, 2)
    x, y, z = rng.normal(size=(3, 6))
    h = 1e-5

    def hess_contract(coords):
        # plain (unscaled) second derivative contracted with x, y
        m = hessian_w(masses, coords).matrix
        scale = np.repeat(masses.values, 2)
        return float(x @ (scale[:, None] * m) @ y)

    fd = 0.0
    for idx in range(6):
        qp = cfg.coords.copy().reshape(-1)
        qm = qp.copy()
        qp[idx] += h
        qm[idx] -= h
        step = (hess_contract(Configuration(qp.reshape(3, 2)))
                - hess_contract(Configuration(qm.reshape(3, 2)))) / (2 * h)
        fd += step * z[idx]
    val = third_contract(masses, cfg, x, y, z)
    npt.assert_allclose(val, fd, rtol=1e-5, atol=1e-7)


def test_third_contract_symmetric_in_arguments():
    rng = np.random.default_rng(14)
    masses, cfg = random_problem(rng, 4, 2)
    x, y, z = rng.normal(size=(3, 8))
    ref = third_contract(masses, cfg, x, y, z)
    for perm in ((x, z, y), (y, x, z), (z, y, x)):
        npt.assert_allclose(third_contract(masses, cfg, *perm), ref, rtol=1e-12)


# fixed inputs per dimension d: (masses, coords, x, y, z, D^3 V[x, y, z])
_THIRD_CONTRACT_CASES = {
    1: ([0.3, 1.2, 0.7, 2.1], [[-2.5], [-1.0], [1.0], [3.25]], [0.6, -0.2, 0.1, -0.5],
        [0.1, 0.4, -0.3, 0.2], [-0.7, 0.25, 0.5, 0.05], 0.06618449366268228),
    2: ([1.0, 0.5, 2.0], [[0.0, 0.0], [1.5, 0.2], [-0.4, 1.1]],
        [[0.2, -0.1], [0.0, 0.3], [-0.5, 0.4]], [[1.0, 0.0], [0.25, -0.75], [0.1, 0.2]],
        [[-0.3, 0.6], [0.4, 0.4], [0.0, -1.0]], 2.2098811596799353),
    3: ([0.8, 1.1, 0.4, 1.7, 0.9],
        [[0.0, 0.0, 0.0], [1.0, 0.2, -0.3], [-0.6, 1.3, 0.4], [0.5, -0.9, 1.2],
         [-1.1, -0.4, -0.8]],
        [[0.1, 0.2, 0.3], [-0.2, 0.0, 0.5], [0.4, -0.1, 0.0], [0.0, 0.6, -0.3],
         [0.25, 0.25, -0.5]],
        [[0.3, -0.3, 0.1], [0.2, 0.2, 0.2], [-0.4, 0.0, 0.7], [0.5, 0.1, -0.1],
         [0.0, -0.6, 0.3]],
        [[-0.2, 0.4, 0.0], [0.1, -0.5, 0.3], [0.6, 0.2, -0.2], [-0.3, 0.0, 0.4],
         [0.2, 0.1, 0.1]], 0.5507742137552838),
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_third_contract_values_are_frozen(d):
    # the values the per-pair scalar kernel returned before it became a batch
    # of one over _third_contract_batch: every bit must stay
    m, q, x, y, z, expected = _THIRD_CONTRACT_CASES[d]
    assert third_contract(m, q, x, y, z) == expected
    shape = (1, *np.shape(q))
    batch = _third_contract_batch(np.asarray([m]), *(np.reshape(v, shape) for v in (q, x, y, z)))
    assert batch.tolist() == [expected]


def test_third_contract_batch_of_four_bodies_matches_each_row():
    # for n = 4 a longer batch keeps each row's bits; the plane contractions
    # of the 4-body pair pipeline rely on it
    rng = np.random.default_rng(11)
    m = rng.uniform(-1.0, 3.0, (50, 4))
    q = np.sort(rng.uniform(-5.0, 5.0, (50, 4)), axis=1)[..., None]
    x, y, z = (rng.normal(size=(50, 4, 1)) for _ in range(3))
    batch = _third_contract_batch(m, q, x, y, z)
    assert batch.tolist() == [third_contract(*row) for row in zip(m, q, x, y, z)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_third_contract_batch_rows_match_single_calls_at_any_n(d):
    # the pairs come C-contiguous from _pair_rows, so a longer batch sums each
    # row's 21 to 435 pairs in the order of a batch of one
    rng = np.random.default_rng(20 + d)
    for n in (7, 12, 30):
        m = rng.uniform(-1.0, 3.0, (6, n))
        q, x, y, z = (rng.normal(size=(6, n, d)) for _ in range(4))
        batch = _third_contract_batch(m, q, x, y, z)
        assert batch.tolist() == [third_contract(*row) for row in zip(m, q, x, y, z)]


def test_third_contract_batch_names_the_colliding_pair():
    q = np.array([[[0.0], [1.0], [2.0]], [[0.0], [1.0], [1.0 + 5e-9]]])
    x = np.ones((2, 3, 1))
    with pytest.raises(CollisionError, match=r"bodies 1 and 2 .*\(floor 1.0e-08\)"):
        _third_contract_batch(np.ones((2, 3)), q, x, x, x)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.3])
def test_homogeneity_scalings(lam):
    rng = np.random.default_rng(15)
    masses, cfg = random_problem(rng, 4, 2)
    scaled = Configuration(lam * cfg.coords)
    npt.assert_allclose(eval_potential(masses, scaled),
                        eval_potential(masses, cfg) / lam, rtol=1e-10)
    npt.assert_allclose(gradient(masses, scaled),
                        gradient(masses, cfg) / lam**2, rtol=1e-10)
    npt.assert_allclose(hessian_w(masses, scaled).matrix,
                        hessian_w(masses, cfg).matrix / lam**3, rtol=1e-10)
    v = rng.normal(size=8)
    npt.assert_allclose(third_contract(masses, scaled, v, v, v),
                        third_contract(masses, cfg, v, v, v) / lam**4, rtol=1e-9)


def test_gradient_row_sums_vanish_per_axis():
    rng = np.random.default_rng(16)
    for n, d in ((3, 2), (5, 3)):
        masses, cfg = random_problem(rng, n, d)
        g = gradient(masses, cfg)
        npt.assert_allclose(g.sum(axis=0), np.zeros(d), atol=1e-12)


def test_spectrum_real_for_positive_masses_and_matches_eigvals():
    rng = np.random.default_rng(17)
    masses, cfg = random_problem(rng, 4, 2)
    hw = hessian_w(masses, cfg)
    spec = hw.spectrum()
    raw = np.sort(np.linalg.eigvals(hw.matrix).real)
    npt.assert_allclose(spec, raw, atol=1e-9)
    assert spec.shape == (8,)


def test_trace_formula_one_dimensional():
    # tr(W) = sum over pairs of 2 (m_i + m_j) / r_ij^3 in one dimension
    rng = np.random.default_rng(18)
    masses, cfg = random_problem(rng, 4, 1)
    x = cfg.coords[:, 0]
    m = masses.values
    expected = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            expected += 2.0 * (m[i] + m[j]) / abs(x[i] - x[j]) ** 3
    npt.assert_allclose(np.trace(hessian_w(masses, cfg).matrix), expected, rtol=1e-12)


def test_flattening_is_body_major():
    rng = np.random.default_rng(19)
    masses, cfg = random_problem(rng, 3, 2)
    w = hessian_w(masses, cfg).matrix
    h = 1e-6
    # perturbing body 2 along axis 1 must read out column index 2*2+1
    qp, qm = cfg.coords.copy(), cfg.coords.copy()
    qp[2, 1] += h
    qm[2, 1] -= h
    col = (acceleration(masses, Configuration(qp))
           - acceleration(masses, Configuration(qm))).reshape(-1) / (2 * h)
    npt.assert_allclose(w[:, 5], col, atol=1e-4 * max(1.0, np.abs(w).max()))


def test_collisions_raise():
    masses = MassVector(np.ones(3))
    coords = Configuration(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(CollisionError):
        eval_potential(masses, coords)
    with pytest.raises(CollisionError):
        gradient(masses, coords)
    # the one floor is 1e-8: every kernel rejects 5e-9 and accepts 2e-8
    x = np.ones((3, 2))
    kernels = (eval_potential, gradient, hessian_w,
               lambda m, c: third_contract(m, c, x, x, x))
    near = Configuration(np.array([[0.0, 0.0], [5e-9, 0.0], [1.0, 0.0]]))
    for kernel in kernels:
        with pytest.raises(CollisionError, match="floor 1.0e-08"):
            kernel(masses, near)
    apart = Configuration(np.array([[0.0, 0.0], [2e-8, 0.0], [1.0, 0.0]]))
    for kernel in kernels:
        kernel(masses, apart)


def test_pair_index_is_cached_and_read_only():
    i, j = _pair_index(4)
    assert _pair_index(4)[0] is i
    npt.assert_array_equal(i, np.triu_indices(4, k=1)[0])
    npt.assert_array_equal(j, np.triu_indices(4, k=1)[1])
    for a in (i, j):
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_mass_vector_and_configuration_basics():
    mv = MassVector(np.array([1.0, 2.0, -0.5]))
    assert mv.n == 3
    npt.assert_allclose(mv.total, 2.5)
    assert not mv.all_positive()
    assert MassVector(np.ones(2)).all_positive()
    one_d = Configuration(np.array([-1.0, 0.0, 2.0]))
    assert one_d.coords.shape == (3, 1)
    npt.assert_allclose(one_d.flat(), [-1.0, 0.0, 2.0])


def w_product_form(m, q):
    """W from broadcast kernel products: the reference for the in-place build."""
    diff = q[:, None, :] - q[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    n, d = q.shape
    off = ~np.eye(n, dtype=bool)
    inv3 = np.zeros_like(dist)
    inv5 = np.zeros_like(dist)
    inv3[off] = dist[off] ** -3
    inv5[off] = dist[off] ** -5
    kern = 3.0 * inv5[:, :, None, None] * np.einsum("ija,ijb->ijab", diff, diff)
    kern -= inv3[:, :, None, None] * np.eye(d)[None, None, :, :]
    wij = -m[None, :, None, None] * kern
    wij[np.arange(n), np.arange(n)] = -wij.sum(axis=1)
    return wij.transpose(0, 2, 1, 3).reshape(n * d, n * d)


@pytest.mark.parametrize("d", [2, 3])
def test_general_w_is_the_product_form_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    for n in (2, 3, 7, 40):
        m = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
        q = rng.normal(size=(n, d))
        assert np.array_equal(hessian_w(m, q).matrix, w_product_form(m, q))


def line_problem(rng, n, signed):
    """Masses and 1-D positions in random order, gaps 0.05 to 1 apart."""
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    x = rng.permutation(x) - rng.uniform(0.0, 0.5 * n)
    m = rng.uniform(0.2, 3.0, n)
    if signed:
        m *= rng.choice([-1.0, 1.0], n)
    return m, x


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), signed=st.booleans())
def test_line_kernels_match_the_planar_embedding(n, seed, signed):
    # the d = 1 path against the general kernels' x-block at (x, 0)
    m, x = line_problem(np.random.default_rng(seed), n, signed)
    plane = np.column_stack([x, np.zeros(n)])
    checks = [
        (gradient(m, x[:, None])[:, 0], gradient(m, plane)[:, 0]),
        (acceleration(m, x[:, None])[:, 0], acceleration(m, plane)[:, 0]),
        (hessian_w(m, x[:, None]).matrix, hessian_w(m, plane).matrix[::2, ::2]),
    ]
    for line, general in checks:
        assert line.shape == general.shape
        assert np.max(np.abs(line - general)) <= 1e-12 * np.max(np.abs(general))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.0, 0.99))
def test_line_kernels_name_the_colliding_pair_as_the_general_path(n, seed, frac):
    rng = np.random.default_rng(seed)
    m, x = line_problem(rng, n, signed=False)
    i, j = rng.choice(n, 2, replace=False)
    x[j] = x[i] + frac * COLLISION_FLOOR
    plane = np.column_stack([x, np.zeros(n)])
    for kernel in (gradient, acceleration, hessian_w):
        with pytest.raises(CollisionError) as general:
            kernel(m, plane)
        with pytest.raises(CollisionError) as line:
            kernel(m, x[:, None])
        assert str(line.value) == str(general.value)


def masked_pair_sums(m, q):
    """Potential and gradient through the full distance matrix: the reference bits."""
    diff = q[:, None, :] - q[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    n = len(m)
    iu = np.triu_indices(n, k=1)
    off = ~np.eye(n, dtype=bool)
    inv3 = np.zeros_like(dist)
    inv3[off] = dist[off] ** -3
    grad = -np.einsum("ij,ijk->ik", (m[:, None] * m[None, :]) * inv3, diff)
    return float(np.sum(m[iu[0]] * m[iu[1]] / dist[iu])), grad


@pytest.mark.parametrize("d", [1, 2, 3])
def test_potential_and_general_gradient_keep_the_masked_form_bits(d):
    rng = np.random.default_rng(70 + d)
    for n in (2, 3, 5, 9, 17, 40):
        m = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
        q = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        potential, grad = masked_pair_sums(m, q)
        assert eval_potential(m, q) == potential
        if d > 1:
            assert np.array_equal(gradient(m, q), grad)


def test_batched_potential_rows_do_not_depend_on_the_stack(monkeypatch):
    rng = np.random.default_rng(8)
    m = rng.uniform(0.2, 3.0, 11)
    q = rng.normal(size=(40, 11, 2))
    expect = [eval_potential(m, row) for row in q]
    assert np.array_equal(_potential_batch(m, q), expect)
    # a block of a few rows at a time: the same values
    monkeypatch.setattr(potential_module, "_PAIR_BLOCK", 3 * 55 * 2)
    assert np.array_equal(_potential_batch(m, q), expect)
    q[17, 4] = q[17, 9] + 0.5 * COLLISION_FLOOR
    q[30, 0] = q[30, 1]
    with pytest.raises(CollisionError, match="bodies 4 and 9 "):
        _potential_batch(m, q)


def test_acceleration_of_a_zero_mass_body_is_the_field_of_the_others():
    m = np.array([1.0, 0.0, 2.0])
    x = np.array([-1.0, 0.0, 1.5])
    line = acceleration(m, x[:, None])[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plane = acceleration(m, np.column_stack([x, np.zeros(3)]))
        space = acceleration(m, np.column_stack([np.zeros(3), x, np.zeros(3)]))
    npt.assert_allclose(plane[:, 0], line, rtol=1e-15)
    npt.assert_allclose(space[:, 1], line, rtol=1e-15)
    assert not plane[:, 1].any() and not space[:, [0, 2]].any()
    npt.assert_allclose(line, [0.32, 2.0 / 1.5**2 - 1.0, -0.16], rtol=1e-15)


def einsum_pair_kernels(m, q):
    """Gradient and acceleration in the einsum form: the reference bits."""
    diff = q[:, None, :] - q[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    grad = -np.einsum("ij,ijk->ik", (m[:, None] * m[None, :]) * dist ** -3, diff)
    acc = -np.einsum("ij,ijk->ik", m[None, :] * dist ** -3, diff)
    return grad, acc


def same_bits(a, b):
    """Equal shapes and bytes: the values and the signs of their zeros."""
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def pair_kernel_problems(d):
    rng = np.random.default_rng(90 + d)
    for n in range(2, 13):
        q = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        line = q.copy()
        line[:, 1:] = 0.0  # zero separations on every axis but one
        for masses in (np.ones(n), rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n),
                       np.where(np.arange(n) % 3 == 1, 0.0, rng.uniform(0.2, 3.0, n))):
            for coords in (q, line):
                yield masses, coords


@pytest.mark.parametrize("d", [2, 3])
def test_in_place_pair_kernel_keeps_the_einsum_bits(d):
    for m, q in pair_kernel_problems(d):
        grad, acc = einsum_pair_kernels(m, q)
        assert same_bits(gradient(m, q), grad)
        assert same_bits(acceleration(m, q), acc)
        assert same_bits(NBodyChart(m, d).gradient(q.reshape(-1)), grad.reshape(-1))
        assert same_bits(hessian_w(m, q).matrix, w_product_form(m, q))


@pytest.mark.parametrize("d", [2, 3])
def test_in_place_pair_kernel_keeps_errors_and_returns_fresh_arrays(d):
    chart = NBodyChart([1.0, 2.0, 0.5, 1.5], d)
    q = np.random.default_rng(d).normal(size=4 * d)
    first = chart.gradient(q)
    second = chart.gradient(q)
    assert first is not second and not np.shares_memory(first, second)
    assert same_bits(first, second)
    first[:] = 0.0
    assert same_bits(chart.gradient(q), second)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            state = q.copy()
            state[d + 1] = bad
            with pytest.raises(ValueError, match="^coordinates must be finite$"):
                chart.gradient(state)
        state = q.copy()
        state[2 * d:3 * d] = state[d:2 * d] + 0.5 * COLLISION_FLOOR
        with pytest.raises(CollisionError) as info:
            chart.gradient(state)
    r = np.linalg.norm(state[2 * d:3 * d] - state[d:2 * d])
    assert str(info.value) == f"bodies 1 and 2 are separated by {r:.3e} (floor 1.0e-08)"
