"""4-body trace bound, boundary maxima, pair enumeration and elimination."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from nbodylab import fourbody
from nbodylab.central import (
    CentralConfiguration,
    _line_batch,
    _positions,
    mass_line_4body,
    normalize_cc,
)
from nbodylab.errors import EmptyFeasibleSetError, InvalidKError
from nbodylab.fourbody import (
    ORDER2_CONDITION_COUNTS,
    PAIR_EIGENVALUES,
    boundary_maxima,
    classify_pairs,
    condition_count,
    enumerate_pairs,
    feasible_mass_interval,
    order2_exclusion_4body,
    pair_feasibility,
    trace_4body,
    trace_sweep,
)
from nbodylab.potential import Configuration, MassVector, hessian_w, third_contract

NONSYM_EXCLUDED = {
    (9, 9), (9, 14), (14, 14), (14, 20), (14, 27), (14, 35),
    (20, 20), (20, 27), (20, 35), (20, 44), (27, 27), (27, 35),
}
SYM_FEASIBLE = {(5, 9), (5, 14), (9, 27), (14, 44)}
ORDER2_EXCLUDED = {(5, 5), (5, 14), (5, 27), (14, 44)}

# Z0 sign flips per surviving pair on the rho_max=20, 120-cell grid
SIGN_CHANGES_120 = {
    (5, 5): 123, (5, 9): 135, (5, 14): 148, (5, 20): 160, (5, 27): 172,
    (5, 35): 183, (5, 44): 195, (5, 54): 198, (9, 20): 133, (9, 27): 225,
    (9, 35): 233, (9, 44): 238, (9, 54): 227, (14, 44): 209,
}
LOCUS_POINTS_120 = {(5, 5): 123, (5, 14): 148, (5, 27): 172, (14, 44): 209}


@pytest.fixture(scope="module")
def classified_120():
    """classify_pairs on the 120-cell grid, run with RuntimeWarning as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return {c.pair: c for c in classify_pairs(rho_max=20.0, cells=120)}


def test_trace_affine_in_mass_parameter():
    ts = np.array([0.02, 0.12, 0.22])
    vals = np.array([trace_4body(3.0, 2.0, t) for t in ts])
    # three collinear samples: middle equals the average of the endpoints
    npt.assert_allclose(vals[1], 0.5 * (vals[0] + vals[2]), atol=1e-10)


def test_trace_constant_on_symmetric_locus():
    a = trace_4body(2.5, 2.5, 0.05)
    b = trace_4body(2.5, 2.5, 0.20)
    npt.assert_allclose(a, b, atol=1e-10)


def test_trace_spectrum_contains_trivial_eigenvalues():
    line = mass_line_4body(3.0, 2.0)
    mv = line.masses(0.12)
    cc = normalize_cc(CentralConfiguration.from_positions(
        mv, line.configuration.coords))
    spec = hessian_w(cc.masses, cc.config).spectrum()
    assert np.min(np.abs(spec - 0.0)) <= 1e-9
    assert np.min(np.abs(spec - 2.0)) <= 1e-9


def test_feasible_mass_interval_brackets_positivity():
    lo, hi = feasible_mass_interval(3.0, 2.0)
    assert lo < hi
    line = mass_line_4body(3.0, 2.0)
    assert np.all(line.masses(0.5 * (lo + hi)).values > 0)
    eps = 1e-9 * max(1.0, abs(hi))
    assert np.min(line.masses(lo - 1e-6).values) < eps
    assert np.min(line.masses(hi + 1e-6).values) < eps


def test_boundary_maxima_cover_feasible_endpoints():
    ms = boundary_maxima(3.0, 2.0)
    assert len(ms) == 4
    lo, hi = feasible_mass_interval(3.0, 2.0)
    finite = [v for v in ms if np.isfinite(v)]
    for endpoint in (lo, hi):
        tr = trace_4body(3.0, 2.0, endpoint)
        assert min(abs(tr - v) for v in finite) <= 1e-8


def test_boundary_maxima_empty_cell():
    with pytest.raises(EmptyFeasibleSetError):
        boundary_maxima(1.05, 1.02)


def test_j1_root_infeasible_for_large_rho1():
    # the first mass's zero never lies inside the positive-mass segment
    rng = np.random.default_rng(41)
    for _ in range(50):
        r1 = rng.uniform(5.0, 20.0)
        r2 = rng.uniform(1.001, r1)
        line = mass_line_4body(r1, r2)
        m0 = np.asarray(line.intercept, dtype=float)
        dm = np.asarray(line.slope, dtype=float)
        if abs(dm[0]) < 1e-12:
            continue
        t1 = -m0[0] / dm[0]
        others = np.delete(m0 + t1 * dm, 0)
        assert others.min() < -1e-10


def test_small_sweep_summary():
    res = trace_sweep(rho_max=6.0, cells=60, jobs=None, refine=False)
    assert res.violations == []
    assert res.empty_cells == 221
    npt.assert_allclose(res.global_max, 45.903026449432694, rtol=1e-9)
    assert all(row[4] < 70.0 for row in res.rows)
    assert all(1 <= row[2] <= 4 for row in res.rows)


def test_sweep_argmax_is_first_row_with_largest_trace():
    res = trace_sweep(rho_max=6.0, cells=60, jobs=None, refine=False)
    traces = [row[4] for row in res.rows]
    first = res.rows[traces.index(max(traces))]
    assert res.argmax == (first[0], first[1], first[3], first[2])
    assert res.global_max == first[4]


@pytest.mark.parametrize("cells", [25, 60])
def test_sweep_rows_and_empty_cells_cover_the_triangle(cells):
    res = trace_sweep(rho_max=6.0, cells=cells, jobs=None, refine=False)
    assert len(res.rows) + res.empty_cells == cells * (cells + 1) // 2
    assert res.row_count == len(res.rows)


def test_sweep_rows_round_trip_through_trace():
    res = trace_sweep(rho_max=6.0, cells=40, jobs=None, refine=False)
    rng = np.random.default_rng(42)
    for idx in rng.choice(len(res.rows), size=8, replace=False):
        r1, r2, which, m3, tr = res.rows[idx]
        npt.assert_allclose(trace_4body(r1, r2, m3), tr, atol=1e-9)


def test_sweep_rows_match_scalar_boundary_maxima():
    # the sweep runs on the literal multiplier -1 line, the scalar API on the
    # sum-1 line; both must give the same boundary maximum at each cell
    res = trace_sweep(rho_max=6.0, cells=40, jobs=None, refine=False)
    rng = np.random.default_rng(43)
    for idx in rng.choice(len(res.rows), size=6, replace=False):
        r1, r2, which, m3, tr = res.rows[idx]
        lo, hi = feasible_mass_interval(r1, r2)
        ms = boundary_maxima(r1, r2)
        ends = [trace_4body(r1, r2, s) for s in (lo, hi)]
        end_ms = [v for v in ms if np.isfinite(v)
                  and min(abs(v - e) for e in ends) <= 1e-9]
        npt.assert_allclose(max(end_ms), tr, atol=1e-9)
        npt.assert_allclose(ms[which - 1], tr, atol=1e-9)
        npt.assert_allclose(min(abs(m3 - lo), abs(m3 - hi)), 0.0, atol=1e-12)


def test_sweep_without_feasible_cell_raises():
    with pytest.raises(EmptyFeasibleSetError):
        trace_sweep(rho_max=1.001, cells=2)


def test_sweep_parallel_matches_serial():
    # 210 cells a side give 22,155 triangle cells: two kernel chunks
    serial = trace_sweep(rho_max=4.0, cells=210, jobs=None)
    parallel = trace_sweep(rho_max=4.0, cells=210, jobs=2)
    assert len(serial.chunks) == 2
    assert parallel.rows == serial.rows
    assert parallel.argmax == serial.argmax
    assert parallel.global_max == serial.global_max
    assert parallel.violations == serial.violations
    assert parallel.empty_cells == serial.empty_cells


def test_sweep_which_mass_never_one_beyond_rho1_of_five():
    res = trace_sweep(rho_max=12.0, cells=60, jobs=None, refine=False)
    for r1, _r2, which, _m3, _tr in res.rows:
        if r1 >= 5.0:
            assert which != 1


def test_enumerate_pairs_frozen():
    cands = enumerate_pairs()
    assert len(cands) == 26
    assert PAIR_EIGENVALUES == (5, 9, 14, 20, 27, 35, 44, 54)
    for c in cands:
        a, b = c.pair
        assert a <= b and a > 2 and a + b < 68
        assert c.status == "enumerated"


def test_pair_feasibility_excluded_case():
    cand = pair_feasibility((9, 14), symmetric=False, rho_max=20.0, cells=120)
    assert cand.status == "excluded-by-Z0"
    assert cand.evidence["sign_changes"] == 0
    assert cand.evidence["min_abs_z0"] > 1.0


def test_pair_feasibility_feasible_case_confirms_zero():
    cand = pair_feasibility((5, 9), symmetric=False, rho_max=20.0, cells=120)
    assert cand.status == "feasible"
    assert cand.evidence["zeros_confirmed"] >= 1
    r1, r2 = cand.evidence["zero_samples"][0]
    # trace equation is solved in closed form from two affine samples
    target = 2.0 + 5.0 + 9.0
    t0, t1 = trace_4body(r1, r2, 0.0), trace_4body(r1, r2, 1.0)
    m3 = (target - t0) / (t1 - t0)
    npt.assert_allclose(trace_4body(r1, r2, m3), target, atol=1e-9)


@pytest.mark.parametrize("pair,expected", [
    ((5, 5), "excluded-by-Z0"),
    ((5, 9), "feasible"),
    ((14, 44), "feasible"),
])
def test_pair_feasibility_symmetric(pair, expected):
    cand = pair_feasibility(pair, symmetric=True, rho_max=20.0, cells=120)
    assert cand.status == expected


def test_order2_exclusion_on_odd_family_pair():
    cand = order2_exclusion_4body((5, 14), rho_max=20.0, cells=120)
    assert cand.status == "order2-excluded"


def test_order2_exclusion_rejects_non_odd_family():
    with pytest.raises(InvalidKError):
        order2_exclusion_4body((9, 20))


def test_condition_count_table():
    assert condition_count((9, 20)) == 0
    assert condition_count((5, 20)) == 3
    assert condition_count((9, 54)) == 1
    assert ORDER2_CONDITION_COUNTS[(5, 5)] == 4
    with pytest.raises(InvalidKError):
        condition_count((9, 14))


def test_classify_pairs_statuses(classified_120):
    by_status = {}
    for c in classified_120.values():
        by_status.setdefault(c.status, set()).add(c.pair)
    assert by_status["excluded-by-Z0"] == NONSYM_EXCLUDED
    assert by_status["order2-excluded"] == ORDER2_EXCLUDED
    assert len(by_status["feasible"]) == 10
    for c in classified_120.values():
        if c.status == "feasible":
            assert c.evidence["order2_conditions"] == ORDER2_CONDITION_COUNTS[c.pair]


def test_classify_pairs_frozen_bisection_counts(classified_120):
    assert len(classified_120) == 26
    for pair, cand in classified_120.items():
        assert cand.evidence["sign_changes"] == SIGN_CHANGES_120.get(pair, 0)
        assert cand.evidence["zeros_confirmed"] == (8 if pair in SIGN_CHANGES_120 else 0)
        assert cand.evidence.get("nonsym_locus_points") == LOCUS_POINTS_120.get(pair)


def test_pair_pipeline_raises_no_runtime_warning(classified_120):
    # the fixture already ran classify_pairs under the same filter
    assert len(classified_120) == 26
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c in enumerate_pairs():
            pair_feasibility(c.pair, symmetric=True, rho_max=20.0)


def _scalar_bisect(pair, p, q, iters=60):
    """One bracket at a time, on single-point Z0 evaluations."""
    def z0(point):
        return float(fourbody._z0_points(pair, point[0], point[1])[0])

    fp, fq = z0(p), z0(q)
    if not (np.isfinite(fp) and np.isfinite(fq)) or fp * fq > 0:
        return None
    scale = min(abs(fp), abs(fq))
    for _ in range(iters):
        mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
        fm = z0(mid)
        if not np.isfinite(fm):
            return None
        if fp * fm <= 0:
            q, fq = mid, fm
        else:
            p, fp = mid, fm
    mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
    if abs(z0(mid)) < max(1e-6, 1e-3 * scale):
        return mid
    return None


def test_bisect_zeros_matches_scalar_bisection():
    pair = (5, 27)
    axis = fourbody._grid_axes(20.0, 60)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    mask = g1 > g2
    zgrid = np.full(mask.shape, np.nan)
    zgrid[mask] = fourbody._z0_points(pair, g1[mask], g2[mask])
    a, b = fourbody._grid_sign_changes(zgrid)

    # flip order: vertical neighbours row-major, then horizontal ones
    sign = np.sign(zgrid)
    loop = [(i * 60 + j, (i + 1) * 60 + j)
            for i, j in zip(*np.nonzero(sign[:-1, :] * sign[1:, :] < 0))]
    loop += [(i * 60 + j, i * 60 + j + 1)
             for i, j in zip(*np.nonzero(sign[:, :-1] * sign[:, 1:] < 0))]
    assert list(zip(a.tolist(), b.tolist())) == loop
    assert a.size > 50

    shapes = np.column_stack([g1.ravel(), g2.ravel()])
    p, q = shapes[a], shapes[b]
    # one bracket whose ends share a sign, one with a non-finite end
    p = np.vstack([p, [3.2, 2.9], [np.nan, 2.0]])
    q = np.vstack([q, [2.93, 3.01], [3.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fp = fourbody._z0_points(pair, p[:, 0], p[:, 1])
        fq = fourbody._z0_points(pair, q[:, 0], q[:, 1])
        mid, accepted = fourbody._bisect_zeros(pair, p, q, fp, fq)
    assert not accepted[-2:].any()
    for k in range(len(p)):
        ref = _scalar_bisect(pair, tuple(p[k]), tuple(q[k]))
        assert accepted[k] == (ref is not None)
        if ref is not None:
            assert tuple(mid[k]) == ref
    assert accepted[:-2].all()


def _einsum_third_invariant(w):
    """The third invariant with p3 from numpy's three-operand einsum."""
    p1 = np.trace(w, axis1=1, axis2=2)
    p2 = np.einsum("nij,nji->n", w, w)
    p3 = np.einsum("nij,njk,nki->n", w, w, w)
    return (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


@pytest.mark.parametrize("n", [1, 2, 7, 499, 500, 2579, 20_000])
@pytest.mark.parametrize("loop_rows", [0, fourbody._P3_LOOP_ROWS], ids=["loop", "default"])
def test_third_invariant_is_einsum_bit_for_bit(monkeypatch, n, loop_rows):
    monkeypatch.setattr(fourbody, "_P3_LOOP_ROWS", loop_rows)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((n, 4, 4)) * np.exp(rng.uniform(-7.0, 7.0, (n, 4, 4)))
    ref = _einsum_third_invariant(w)
    assert np.array_equal(fourbody._third_invariant(w), ref)
    # strided views keep einsum's summation order; so do small and large entries
    assert np.array_equal(fourbody._third_invariant(w[::-1]), ref[::-1])
    wide = np.zeros((n, 8, 8))
    wide[:, 1::2, ::2] = w
    assert np.array_equal(fourbody._third_invariant(wide[:, 1::2, ::2]), ref)
    for scale in (1e-3, 1e3):
        assert np.array_equal(fourbody._third_invariant(scale * w),
                              _einsum_third_invariant(scale * w))


def test_third_invariant_is_einsum_on_every_pair_grid():
    axis = fourbody._grid_axes(20.0, 120)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    mask = g1 > g2
    line = _line_batch(g1[mask], g2[mask])
    for cand in enumerate_pairs():
        w = fourbody._w_batch(line[1], fourbody._matched_masses(np.array(cand.pair), line))
        assert np.array_equal(fourbody._third_invariant(w), _einsum_third_invariant(w))


def test_grid_z0_at_the_flips_is_a_fresh_evaluation():
    keys = [c.pair for c in enumerate_pairs()]
    shapes, grids = fourbody._z0_grid(keys, 20.0, 120)
    for key, (_, _, a, b, fa, fb) in zip(keys, grids):
        assert a.size == SIGN_CHANGES_120.get(key, 0)
        for idx, f in ((a, fa), (b, fb)):
            fresh = fourbody._z0_points(key, shapes[idx, 0], shapes[idx, 1])
            assert np.array_equal(f, fresh)


def test_bisection_retires_collapsed_brackets(monkeypatch):
    keys = sorted(SIGN_CHANGES_120)
    shapes, grids = fourbody._z0_grid(keys, 20.0, 120)
    a, b, fa, fb = (np.concatenate([grid[i] for grid in grids]) for i in range(2, 6))
    lam = np.repeat(np.array(keys), [grid[2].size for grid in grids], axis=0)
    rows = []

    def counted(r1, r2, *args, **kwargs):
        rows.append(np.size(r1))
        return _line_batch(r1, r2, *args, **kwargs)

    monkeypatch.setattr(fourbody, "_line_batch", counted)
    mid, accepted = fourbody._bisect_zeros(lam, shapes[a], shapes[b], fa, fb)
    k = a.size
    assert k == sum(SIGN_CHANGES_120.values())
    assert accepted.all()
    # 60 steps of every row would be 60 k rows, the final acceptance test k more
    assert sum(rows) < 60 * k
    assert len(rows) <= 61


def _scalar_trace_root(target, rho_max):
    """Bisection of trace(rho) = target on the symmetric locus, one shape a step."""
    def f(rho):
        return float(_line_batch(rho, rho)[4][0]) - target

    lo, hi = 1.0 + 1e-6, rho_max
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("rho_max", [20.0, 5.0])
def test_symmetric_trace_roots_match_scalar_bisection(rho_max):
    targets = sorted({2.0 + a + b for a, b in (c.pair for c in enumerate_pairs())})
    by_target = fourbody._symmetric_trace_roots(rho_max)
    assert sorted(by_target) == targets
    roots = [by_target[t] for t in targets]
    assert roots == [_scalar_trace_root(t, rho_max) for t in targets]
    assert all(rho is None or type(rho) is float for rho in roots)
    # every target has a root below 20; from 38 on they lie beyond 5
    assert (None in roots) == (rho_max == 5.0)


def _scalar_plane_contractions(rho1, rho2, masses):
    """The four plane contractions at one shape through the scalar API."""
    w1 = np.array([2.0, -1.0 - rho1, rho1 - 1.0, 0.0])
    w2 = np.array([0.0, rho2 - 1.0, -1.0 - rho2, 2.0])
    w1, w2 = w1 / np.linalg.norm(w1), w2 / np.linalg.norm(w2)
    mv = MassVector(masses)
    cf = Configuration(_positions(rho1, rho2)[0])
    return [third_contract(mv, cf, x, y, z)
            for x, y, z in ((w1, w1, w1), (w1, w1, w2), (w1, w2, w2), (w2, w2, w2))]


def test_plane_contractions_batch_matches_scalar_third_contract():
    keys = sorted(ORDER2_EXCLUDED)
    loci = [locus for *_, locus in fourbody._z0_loci(keys, 20.0, 120)]
    assert {k: len(locus) for k, locus in zip(keys, loci)} == LOCUS_POINTS_120
    points = np.concatenate(loci)
    lam = np.repeat(np.array(keys), [len(locus) for locus in loci], axis=0)
    masses = fourbody._matched_masses(lam, _line_batch(points[:, 0], points[:, 1]))
    # the symmetric solutions with t > 0, as the order-2 stage takes them
    for lam1, lam2 in keys:
        rho = fourbody._symmetric_trace_roots(20.0)[2.0 + lam1 + lam2]
        _, inv3, m0, dm, _, _ = _line_batch(rho, rho)
        for t in fourbody._z0_cubic_roots(inv3[0], m0[0], dm[0], lam1 * lam2):
            if t > 0:
                points = np.vstack([points, [rho, rho]])
                masses = np.vstack([masses, m0[0] + t * dm[0]])
    assert len(points) > sum(LOCUS_POINTS_120.values())
    batch = fourbody._plane_contractions(points[:, 0], points[:, 1], masses)
    assert batch.tolist() == [_scalar_plane_contractions(r1, r2, m)
                              for (r1, r2), m in zip(points, masses)]


@pytest.mark.parametrize("pair", [*sorted(ORDER2_EXCLUDED), (9, 14), (5, 9)])
def test_classify_pairs_evidence_matches_the_one_key_path(classified_120, pair):
    # the batch over all 26 pairs moves no bit against each pair on its own
    staged = pair_feasibility(pair, rho_max=20.0, cells=120)
    if pair in ORDER2_EXCLUDED:
        excl = order2_exclusion_4body(pair, rho_max=20.0, cells=120)
        status, evidence = excl.status, {**staged.evidence, **excl.evidence}
        assert type(evidence["nonsym_min_max_contraction"]) is float
        assert type(evidence["sym_min_max_contraction"]) in (float, type(None))
    elif staged.status == "feasible":
        status = staged.status
        evidence = {**staged.evidence, "order2_conditions": ORDER2_CONDITION_COUNTS[pair]}
    else:
        status, evidence = staged.status, staged.evidence
    assert classified_120[pair].status == status
    assert classified_120[pair].evidence == evidence


def test_nonsymmetric_pairs_match_each_pair_on_its_own():
    # one grid line and one bisection for all pairs move no bit
    batch = fourbody.nonsymmetric_pairs(rho_max=20.0, cells=40)
    assert [c.pair for c in batch] == [c.pair for c in enumerate_pairs()]
    for cand in batch:
        one = pair_feasibility(cand.pair, rho_max=20.0, cells=40)
        assert (cand.status, cand.evidence) == (one.status, one.evidence)
