"""Trace bound and eigenvalue-pair elimination for the colinear 4-body problem.

The configuration is gauged as (-rho1, -1, 1, rho2) with rho1 >= rho2 > 1.
At each shape the central-configuration equations leave a one-parameter affine
family of (possibly signed) masses, and the trace of the mass-scaled Hessian
is affine along it, so its maximum over the positive-mass segment is attained
where one mass vanishes.  A dense sweep of those boundary values yields the
numerical bound trace < 70, which caps the candidate eigenvalue pairs at 26;
determinant matching (Z0) and third-derivative contractions (Z1..Z4) then
eliminate all but the survivors.

The pair pipeline runs as one batch over pairs, row for row the arithmetic
of the scalar steps: the grid's mass line is solved once and each pair's Z0
is trace matched on it; the Z0 sign flips of all pairs are bisected as one
array (``_bisect_zeros``), starting from the grid's Z0 at the bracket ends;
each surviving pair hands its full Z0 locus to the order-2 stage, whose plane
contractions at every locus point are one call of the batched kernel behind
``potential.third_contract``; and the symmetric
trace roots of all enumerated pairs are bisected as one array, once per
``rho_max``.  The public ``pair_feasibility`` and ``order2_exclusion_4body``
run the same path with one pair.

The mass line itself comes from ``central``: the grid code runs on its
batched multiplier -1 line (``_line_batch``), and ``trace_4body`` on the
sum-1 line ``mass_line_4body``, the closed-form image of the same solve.

Sweeps here are numerical evidence on a finite grid, not certified bounds;
every exported summary carries that caveat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .admissibility import admissible_values, odd_family_predicate
from .central import _line_batch, _positions, mass_line_4body
from .errors import EmptyFeasibleSetError, InvalidKError, RankDeficiencyError
from .potential import Configuration, _third_contract_batch, _w_batch, hessian_w

__all__ = [
    "SWEEP_CAVEAT",
    "PAIR_EIGENVALUES",
    "ORDER2_CONDITION_COUNTS",
    "TraceSweepResult",
    "PairCandidate",
    "trace_4body",
    "boundary_maxima",
    "feasible_mass_interval",
    "trace_sweep",
    "enumerate_pairs",
    "pair_feasibility",
    "nonsymmetric_pairs",
    "order2_exclusion_4body",
    "condition_count",
    "classify_pairs",
]

SWEEP_CAVEAT = (
    "numerical evidence from a finite grid sweep, not a certified bound"
)

# admissible eigenvalues > 2 that can appear in a pair with sum < 68
PAIR_EIGENVALUES = (5, 9, 14, 20, 27, 35, 44, 54)

# vanishing third-derivative conditions imposed at second order on each pair
# that survives the determinant elimination
ORDER2_CONDITION_COUNTS = {
    (5, 5): 4, (5, 14): 4, (5, 27): 4, (14, 44): 4,
    (5, 20): 3, (5, 35): 3, (5, 44): 3, (5, 54): 3,
    (5, 9): 2, (9, 27): 2, (9, 44): 2,
    (9, 35): 1, (9, 54): 1,
    (9, 20): 0,
}

_POSITIVITY_TOL = 1e-12


# from this many rows up, p3's explicit loop is faster than the einsum
_P3_LOOP_ROWS = 500


def _third_invariant(w):
    """Sum of 3x3 principal minors from power traces, for (n, 4, 4) batches.

    The third power trace p3 is bit for bit ``np.einsum("nij,njk,nki->n", w,
    w, w)`` on a C-ordered batch, or a strided view of one, which is all the
    callers pass (einsum's summation order follows the operand layout).  There
    numpy's unoptimised einsum adds the 64 products w_ij * w_jk * w_ki, each
    multiplied left to right, into a zero-started accumulator in lexicographic
    (i, j, k) order.  From ``_P3_LOOP_ROWS`` rows up the loop below does the
    same, one (n,) row per product, about twice as fast; on smaller batches
    einsum's lower per-call cost wins.  A ``matmul`` form would be faster
    still, but it sums in another order and moves last bits of Z0, which the
    frozen pair evidence would show.
    """
    p1 = np.trace(w, axis1=1, axis2=2)
    p2 = np.einsum("nij,nji->n", w, w)
    if w.shape[0] < _P3_LOOP_ROWS:
        p3 = np.einsum("nij,njk,nki->n", w, w, w)
    else:
        wt = np.ascontiguousarray(np.moveaxis(w, 0, -1))  # (4, 4, n)
        p3 = np.zeros(w.shape[0])
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    p3 += wt[i, j] * wt[j, k] * wt[k, i]
    return (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def trace_4body(rho1: float, rho2: float, m3: float) -> float:
    """Trace of the mass-scaled Hessian at the 4-body cc, multiplier -1.

    The masses come from the normalized affine family (total 1) at the shape
    (-rho1, -1, 1, rho2); the configuration is rescaled so the multiplier is
    exactly -1.  Affine in m3 for rho1 > rho2 and constant in m3 on the
    symmetric locus rho1 = rho2.
    """
    line = mass_line_4body(rho1, rho2)
    masses = line.masses(m3)
    alpha = line.multiplier(m3)
    if alpha >= 0:
        raise RankDeficiencyError(f"nonnegative multiplier {alpha} at ({rho1}, {rho2})")
    gamma = (-alpha) ** (1.0 / 3.0)
    pos = _positions(rho1, rho2)[0]
    center = masses.values @ pos / masses.total
    scaled = gamma * (pos - center)
    w = hessian_w(masses, Configuration(scaled))
    return float(np.trace(w.matrix))


def _positive_segment(m0, dm):
    """Bounded t intervals where every mass m0 + t*dm is positive.

    Batched over the rows of (n, 4) arrays.  Returns (feasible, lo, hi,
    lo_idx, hi_idx), where lo_idx and hi_idx name the mass that vanishes at
    each end; a row is feasible when lo < hi and both ends are finite.
    """
    n = m0.shape[0]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    lo_idx = np.full(n, -1)
    hi_idx = np.full(n, -1)
    for i in range(4):
        b = dm[:, i]
        root = np.where(np.abs(b) > _POSITIVITY_TOL, -m0[:, i] / np.where(
            np.abs(b) > _POSITIVITY_TOL, b, 1.0), np.nan)
        up = b > _POSITIVITY_TOL
        take = up & (root > lo)
        lo = np.where(take, root, lo)
        lo_idx = np.where(take, i, lo_idx)
        down = b < -_POSITIVITY_TOL
        take = down & (root < hi)
        hi = np.where(take, root, hi)
        hi_idx = np.where(take, i, hi_idx)
        flat = (~up) & (~down) & (m0[:, i] <= 0.0)
        lo = np.where(flat, np.inf, lo)
    feasible = (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
    return feasible, lo, hi, lo_idx, hi_idx


def feasible_mass_interval(rho1: float, rho2: float):
    """Open m3 interval where all four normalized line masses are positive.

    Same total-mass-1 parametrization as trace_4body and solve_masses_4body,
    so traces at the interval endpoints land on the boundary_maxima values.
    """
    line = mass_line_4body(rho1, rho2)
    feasible, lo, hi, _, _ = _positive_segment(line.intercept[None], line.slope[None])
    if not feasible[0]:
        raise EmptyFeasibleSetError(
            f"no positive-mass m3 at shape ({rho1}, {rho2})"
        )
    return float(lo[0]), float(hi[0])


def boundary_maxima(rho1: float, rho2: float):
    """Trace values M1..M4 at the m3 roots where each line mass vanishes.

    Raises EmptyFeasibleSetError when no m3 makes all masses positive; the
    M_i themselves are defined from the affine family regardless of the sign
    of the remaining masses at each root.
    """
    _, _, m0, dm, tr0, dtr = _line_batch(rho1, rho2)
    if not _positive_segment(m0, dm)[0][0]:
        raise EmptyFeasibleSetError(
            f"no positive-mass m3 at shape ({rho1}, {rho2})"
        )
    m0, dm, tr0, dtr = m0[0], dm[0], tr0[0], dtr[0]
    out = []
    for i in range(4):
        if abs(dm[i]) <= _POSITIVITY_TOL:
            out.append(math.nan)
        else:
            out.append(float(tr0 + (-m0[i] / dm[i]) * dtr))
    return tuple(out)


# ---------------------------------------------------------------------------
# trace sweep


@dataclass
class TraceSweepResult:
    """Grid sweep of the boundary trace maxima.

    ``axis`` holds the grid values shared by both axes.  ``chunks`` holds the
    feasible cells one kernel chunk at a time, as column arrays (i1, i2,
    which_boundary, m3_at_max, trace_max): i1 and i2 index rho1 and rho2 in
    ``axis``, and m3 is reported in the normalized (total-mass-1)
    parametrization so trace_4body reproduces trace_max.  ``rows`` zips the
    columns into (rho1, rho2, which_boundary, m3_at_max, trace_max) tuples on
    each access, for library callers; ``row_count`` counts them without
    building them.  ``caveat`` states that the sweep is numerical evidence
    only.
    """

    rho_max: float
    cells: int
    global_max: float
    argmax: tuple  # (rho1, rho2, m3_normalized, which_boundary)
    axis: np.ndarray
    chunks: list
    violations: list
    empty_cells: int
    refined: bool
    caveat: str = SWEEP_CAVEAT

    @property
    def row_count(self) -> int:
        return sum(cols[0].size for cols in self.chunks)

    @property
    def rows(self) -> list:
        return [row for cols in self.chunks for row in _column_rows(self.axis, cols)]


_CHUNK = 20_000  # grid cells per line solve


def _sweep_chunk(args):
    """(feasible, trace_max, m3_normalized, which_boundary) of each shape."""
    r1, r2 = args
    _, _, m0, dm, tr0, dtr = _line_batch(r1, r2)
    feasible, lo, hi, lo_idx, hi_idx = _positive_segment(m0, dm)
    lo_s = np.where(feasible, lo, 0.0)
    hi_s = np.where(feasible, hi, 0.0)
    tr_lo = np.where(feasible, tr0 + lo_s * dtr, -np.inf)
    tr_hi = np.where(feasible, tr0 + hi_s * dtr, -np.inf)
    pick_hi = tr_hi >= tr_lo
    best = np.where(pick_hi, tr_hi, tr_lo)
    bt = np.where(pick_hi, hi_s, lo_s)
    bwhich = np.where(pick_hi, hi_idx, lo_idx)
    # normalized third mass at the chosen endpoint, for trace_4body round trips
    mass_at = m0 + bt[:, None] * dm
    total = mass_at.sum(axis=1)
    m3_norm = np.where(np.abs(total) > 1e-300, mass_at[:, 2] / total, np.nan)
    return feasible, best, m3_norm, bwhich + 1


def _grid_axes(rho_max, cells):
    step = (rho_max - 1.0) / cells
    return 1.0 + step * np.arange(1, cells + 1)


def _column_rows(axis, cols):
    """Rows (rho1, rho2, which, m3, trace) of feasible-cell columns."""
    i1, i2, which, m3, trace = cols
    return zip(axis[i1].tolist(), axis[i2].tolist(), which.tolist(), m3.tolist(),
               trace.tolist())


def trace_sweep(rho_max: float = 20.0, cells: int = 400, jobs: int | None = None,
                refine: bool = True) -> TraceSweepResult:
    """Sweep boundary trace maxima over the grid (1, rho_max]^2, rho1 >= rho2.

    The argmax is the first row with the largest trace.  Raises
    EmptyFeasibleSetError when no cell has a positive-mass segment.  ``jobs``
    above 1 spreads the kernel chunks over that many worker processes.
    """
    axis = _grid_axes(rho_max, cells)
    i1, i2 = np.nonzero(axis[:, None] >= axis[None, :])
    parts = [slice(s, s + _CHUNK) for s in range(0, i1.size, _CHUNK)]
    pieces = ((axis[i1[part]], axis[i2[part]]) for part in parts)
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this path needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_chunk, pieces))
    else:
        results = map(_sweep_chunk, pieces)  # one chunk's arrays alive at a time

    chunks = []
    empty = 0
    top = None
    for part, (feas, best, m3n, which) in zip(parts, results):
        empty += feas.size - int(np.count_nonzero(feas))
        cols = (i1[part][feas], i2[part][feas], which[feas], m3n[feas], best[feas])
        chunks.append(cols)
        if cols[4].size:
            k = int(np.argmax(cols[4]))  # first maximum, so a later tie loses
            if top is None or cols[4][k] > top[4]:
                top = next(_column_rows(axis, [col[k:k + 1] for col in cols]))
    if top is None:
        raise EmptyFeasibleSetError(
            f"no cell of the {cells} x {cells} grid up to rho_max={rho_max} "
            "has positive masses"
        )
    if refine:
        span = (rho_max - 1.0) / cells
        for _ in range(3):
            a1 = np.clip(np.linspace(top[0] - span, top[0] + span, 25), 1.0 + 1e-9, rho_max)
            a2 = np.clip(np.linspace(top[1] - span, top[1] + span, 25), 1.0 + 1e-9, rho_max)
            l1, l2 = np.meshgrid(a1, a2, indexing="ij")
            keep = l1 >= l2
            l1, l2 = l1[keep], l2[keep]
            _, best, m3n, which = _sweep_chunk((l1, l2))
            k = int(np.argmax(best))  # an infeasible cell's trace is -inf
            if best[k] > top[4]:  # a tie keeps the current top
                top = (l1[k].item(), l2[k].item(), which[k].item(), m3n[k].item(),
                       best[k].item())
            span /= 12.0

    violations = [row for cols in chunks
                  for row in _column_rows(axis, [col[cols[4] >= 70.0] for col in cols])]
    return TraceSweepResult(rho_max, cells, top[4], (top[0], top[1], top[3], top[2]),
                            axis, chunks, violations, empty, refine)


# ---------------------------------------------------------------------------
# eigenvalue pair pipeline


@dataclass
class PairCandidate:
    """One unordered eigenvalue pair with pipeline status and evidence."""

    pair: tuple
    status: str = "enumerated"
    evidence: dict = field(default_factory=dict)


def enumerate_pairs() -> list[PairCandidate]:
    """All unordered admissible pairs > 2 with eigenvalue sum below 68."""
    vals = [v for v in admissible_values(68.0) if 2 < v and v + 5 < 68]
    assert tuple(vals) == PAIR_EIGENVALUES
    out = []
    for i, a in enumerate(vals):
        for b in vals[i:]:
            if a + b < 68:
                out.append(PairCandidate((a, b)))
    return out


def _pair_key(pair) -> tuple:
    a, b = sorted(int(v) for v in pair)
    if (a, b) not in {c.pair for c in enumerate_pairs()}:
        raise InvalidKError(f"{{{a},{b}}} is not an enumerated eigenvalue pair")
    return a, b


def _matched_masses(lam, line):
    """Line masses where the W trace equals 2 + lam1 + lam2, one row per shape.

    ``line`` is a _line_batch result and ``lam`` one eigenvalue pair for all
    rows, shape (2,), or one per row, shape (k, 2); the masses may be signed.
    """
    _, _, m0, dm, tr0, dtr = line
    t = (2.0 + lam[..., 0] + lam[..., 1] - tr0) / dtr
    return m0 + t[:, None] * dm


def _z0_from_line(lam, line):
    """Z0 = e3(W)/2 - lam1 lam2 of each row's pair, trace matched on the line."""
    w = _w_batch(line[1], _matched_masses(lam, line))
    return _third_invariant(w) / 2.0 - lam[..., 0] * lam[..., 1]


def _z0_points(lam, r1, r2):
    """Z0 at the shapes (r1, r2); ``lam`` as in _matched_masses."""
    return _z0_from_line(np.asarray(lam), _line_batch(r1, r2))


def _bisect_zeros(lam, p, q, fp, fq):
    """Refine the Z0 sign changes along the segments p[i] -> q[i], all at once.

    p and q are (k, 2) arrays of bracket ends and fp, fq their Z0 values, as
    _z0_points gives them; ``lam`` holds the eigenvalue pair of every row,
    shape (k, 2), or one pair for all, so the flips of several pairs share
    each step's line solve.  Each row runs the scalar bisection: midpoint
    0.5 * (p + q), keep the half where fp * fm <= 0, and after 60 steps
    accept the midpoint when |Z0| there is below max(1e-6, 1e-3 * min(|fp|,
    |fq|)) of the original ends (a genuine zero shrinks |Z0| below the bracket
    scale; a pole grows it).  A row is dropped when its ends do not change
    sign or when an end or any midpoint is not finite.  A row is retired once
    its midpoint equals p or q in both coordinates: the bracket has collapsed,
    Z0 there is fp or fq again, and by fp * fq <= 0 every later step keeps
    the midpoint where it is.  Dropped and retired rows are not evaluated
    again.  Returns (midpoints, accepted).
    """
    p = np.array(p, dtype=float)
    q = np.array(q, dtype=float)
    fp = np.array(fp, dtype=float)
    k = p.shape[0]
    lam = np.broadcast_to(np.asarray(lam), (k, 2))
    live = np.isfinite(fp) & np.isfinite(fq)
    with np.errstate(over="ignore"):  # overflow to inf keeps the sign, as Python floats do
        live &= ~(fp * fq > 0)
    scale = np.minimum(np.abs(fp), np.abs(fq))
    active = live.copy()
    for _ in range(60):
        rows = np.flatnonzero(active)
        mid = 0.5 * (p[rows] + q[rows])
        done = (mid == p[rows]).all(axis=1) | (mid == q[rows]).all(axis=1)
        active[rows[done]] = False
        rows, mid = rows[~done], mid[~done]
        if rows.size == 0:
            break
        fm = _z0_points(lam[rows], mid[:, 0], mid[:, 1])
        finite = np.isfinite(fm)
        live[rows[~finite]] = False
        active[rows[~finite]] = False
        rows, mid, fm = rows[finite], mid[finite], fm[finite]
        with np.errstate(over="ignore"):
            left = fp[rows] * fm <= 0
        q[rows[left]] = mid[left]
        p[rows[~left]] = mid[~left]
        fp[rows[~left]] = fm[~left]
    mid = 0.5 * (p + q)
    rows = np.flatnonzero(live)
    accepted = np.zeros(k, dtype=bool)
    z = _z0_points(lam[rows], mid[rows, 0], mid[rows, 1])
    accepted[rows] = np.abs(z) < np.maximum(1e-6, 1e-3 * scale[rows])
    return mid, accepted


def _grid_sign_changes(z):
    """Flat indices (a, b) of adjacent grid cells where z changes sign.

    Vertically adjacent pairs come first, then horizontally adjacent ones,
    each in row-major order of the first cell.
    """
    sign = np.sign(z)
    idx = np.arange(z.size).reshape(z.shape)
    down = (sign[:-1, :] * sign[1:, :]) < 0
    right = (sign[:, :-1] * sign[:, 1:]) < 0
    a = np.concatenate([idx[:-1, :][down], idx[:, :-1][right]])
    b = np.concatenate([idx[1:, :][down], idx[:, 1:][right]])
    return a, b


def _z0_grid(keys, rho_max, cells):
    """Z0 of each pair on the strict rho1 > rho2 grid, reduced to its evidence.

    The grid's mass line is solved once (in chunks of ``_CHUNK`` cells) and
    every pair's Z0 is trace matched on it, one pair at a time; each row's
    arithmetic is _z0_points' at that shape.  Returns the (n, 2) grid shapes
    and, per key, (cells with finite Z0, min |Z0| over the cells, sign-flip
    ends a, b as flat indices into the shapes, Z0 at a, Z0 at b), so the
    bisection starts from the grid's Z0 at its bracket ends.
    """
    axis = _grid_axes(rho_max, cells)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    mask = g1 > g2
    r1, r2 = g1[mask], g2[mask]
    lines = [_line_batch(r1[i:i + _CHUNK], r2[i:i + _CHUNK])
             for i in range(0, r1.size, _CHUNK)]
    zgrid = np.full(mask.shape, np.nan)
    out = []
    for key in keys:
        lam = np.asarray(key)
        z0 = np.concatenate([_z0_from_line(lam, line) for line in lines])
        finite = np.isfinite(z0)
        min_abs = float(np.nanmin(np.abs(z0))) if finite.any() else math.nan
        zgrid[mask] = z0
        a, b = _grid_sign_changes(zgrid)
        out.append((int(finite.sum()), min_abs, a, b, zgrid.flat[a], zgrid.flat[b]))
    return np.column_stack([g1.ravel(), g2.ravel()]), out


def _z0_loci(keys, rho_max, cells):
    """Z0 grid evidence and every confirmed Z0 zero of each pair.

    The sign flips of all pairs are bisected as one array.  Returns, per key,
    (cells with finite Z0, min |Z0|, number of flips, the zeros in flip order
    as an (h, 2) array of (rho1, rho2)).
    """
    shapes, grids = _z0_grid(keys, rho_max, cells)
    counts = [grid[2].size for grid in grids]
    a, b, fa, fb = (np.concatenate([grid[i] for grid in grids]) for i in range(2, 6))
    lam = np.repeat(np.array(keys, dtype=int).reshape(-1, 2), counts, axis=0)
    mid, accepted = _bisect_zeros(lam, shapes[a], shapes[b], fa, fb)
    ends = np.cumsum([0, *counts])
    return [(n_cells, min_abs, n, mid[lo:hi][accepted[lo:hi]])
            for (n_cells, min_abs, *_), n, lo, hi in zip(grids, counts, ends[:-1], ends[1:])]


def _nonsym_candidate(key, grid_cells, min_abs_z0, n_flips, zeros):
    """Non-symmetric Z0 evidence of a pair; the first 8 zeros count."""
    hits = zeros[:8]
    cand = PairCandidate(key)
    cand.evidence = {
        "mode": "nonsymmetric",
        "grid_cells": grid_cells,
        "sign_changes": n_flips,
        "zeros_confirmed": len(hits),
        "min_abs_z0": min_abs_z0,
        "zero_samples": [tuple(map(float, h)) for h in hits[:4]],
        "caveat": SWEEP_CAVEAT,
    }
    cand.status = "feasible" if len(hits) else "excluded-by-Z0"
    return cand


def pair_feasibility(pair, symmetric: bool = False, rho_max: float = 20.0,
                     cells: int = 240) -> PairCandidate:
    """Search for shapes whose nontrivial Hessian eigenvalues match the pair.

    Non-symmetric mode scans rho1 > rho2 > 1 without mass positivity (the
    trace equation is solved in closed form from the affine family, then the
    determinant condition Z0 = 0 is located by sign change + bisection; the
    first 8 confirmed zeros are kept).  Symmetric mode scans the rho1 = rho2
    locus, where the trace pins the shape, the third invariant pins m3, and
    all masses must come out positive.
    """
    key = _pair_key(pair)
    if symmetric:
        return _symmetric_feasibility(PairCandidate(key), rho_max)
    return _nonsym_candidate(key, *_z0_loci([key], rho_max, cells)[0])


def nonsymmetric_pairs(rho_max: float = 20.0, cells: int = 240) -> list[PairCandidate]:
    """Non-symmetric pair_feasibility of every enumerated pair, in order.

    All pairs share one grid line and one bisection, as in classify_pairs;
    each candidate equals its one-pair pair_feasibility result.
    """
    keys = [c.pair for c in enumerate_pairs()]
    return [_nonsym_candidate(key, *locus)
            for key, locus in zip(keys, _z0_loci(keys, rho_max, cells))]


@functools.lru_cache(maxsize=4)
def _symmetric_trace_roots(rho_max):
    """Symmetric-locus rho where trace = target, for every enumerated target.

    All targets 2 + lam1 + lam2 are bisected as one array on [1 + 1e-6,
    rho_max], 80 steps, each row the scalar arithmetic: keep the half where
    flo * fm <= 0, return the last midpoint.  Maps each target to that rho,
    or to None when the trace minus the target has one sign at both ends; the
    map is read-only, since every caller with this rho_max shares it.
    """
    targets = np.array(sorted({2.0 + a + b for a, b in (c.pair for c in enumerate_pairs())}))
    lo = np.full(targets.size, 1.0 + 1e-6)
    hi = np.full(targets.size, float(rho_max))

    def f(rho):
        return _line_batch(rho, rho)[4] - targets

    flo, fhi = f(lo), f(hi)
    has_root = ~(flo * fhi > 0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    roots = (0.5 * (lo + hi)).tolist()
    return MappingProxyType({t: rho if ok else None
                             for t, rho, ok in zip(targets.tolist(), roots, has_root.tolist())})


def _z0_cubic_roots(inv3, m0, dm, prod):
    """Real roots in t of Z0(t), an exact cubic along the mass line."""
    ts = np.arange(4.0)
    masses = m0[None, :] + ts[:, None] * dm[None, :]
    w = _w_batch(np.repeat(inv3[None], 4, axis=0), masses)
    z = _third_invariant(w) / 2.0 - prod
    coeffs = np.linalg.solve(np.vander(ts, increasing=True), z)  # ascending
    c = coeffs[::-1]
    scale = np.max(np.abs(c))
    c = c[np.argmax(np.abs(c) > 1e-14 * scale):]
    if c.size <= 1:
        return np.array([])
    roots = np.roots(c)
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real
    # polish with two Newton steps on the exact cubic
    for _ in range(2):
        val = np.polyval(coeffs[::-1], real)
        der = np.polyval(np.polyder(coeffs[::-1]), real)
        real = real - val / np.where(np.abs(der) > 1e-300, der, 1.0)
    return np.sort(real)


def _symmetric_roots(key, rho_max):
    """Symmetric branch: trace root rho (or None), each Z0 root t = m3 and its masses.

    Callers filter the roots: Z0 feasibility needs all four masses positive,
    the order-2 stage only t = m3 > 0.
    """
    lam1, lam2 = key
    rho = _symmetric_trace_roots(rho_max)[2.0 + lam1 + lam2]
    if rho is None:
        return None, []
    _, inv3, m0, dm, _, _ = _line_batch(rho, rho)
    return rho, [(t, m0[0] + t * dm[0])
                 for t in _z0_cubic_roots(inv3[0], m0[0], dm[0], lam1 * lam2)]


def _symmetric_feasibility(cand, rho_max):
    rho, roots = _symmetric_roots(cand.pair, rho_max)
    solutions = [(float(rho), float(t)) for t, masses in roots if np.all(masses > 0)]
    cand.evidence = {
        "mode": "symmetric",
        "trace_root_rho": None if rho is None else float(rho),
        "positive_mass_solutions": solutions,
        "caveat": SWEEP_CAVEAT,
    }
    cand.status = "feasible" if solutions else "excluded-by-Z0"
    return cand


# ---------------------------------------------------------------------------
# second-order exclusion on the invariant plane


def _plane_basis(rho1, rho2):
    """Unit vectors w1, w2 spanning the invariant plane at each shape, (k, 4) each."""
    w1 = np.zeros((rho1.size, 4))
    w2 = np.zeros((rho1.size, 4))
    w1[:, 0] = 2.0
    w1[:, 1] = -1.0 - rho1
    w1[:, 2] = rho1 - 1.0
    w2[:, 1] = rho2 - 1.0
    w2[:, 2] = -1.0 - rho2
    w2[:, 3] = 2.0
    # a stacked matmul dot rounds as np.linalg.norm of one vector does
    return tuple(w / np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0] for w in (w1, w2))


def _plane_contractions(rho1, rho2, masses):
    """D^3 V on (w1,w1,w1), (w1,w1,w2), (w1,w2,w2), (w2,w2,w2) at each shape.

    rho1 and rho2 are (k,) arrays and masses is (k, 4); returns (k, 4), each
    entry bit for bit the scalar third_contract at that shape.
    """
    w1, w2 = _plane_basis(rho1, rho2)
    q = _positions(rho1, rho2)[..., None]
    x, y, z = (np.concatenate(ws)[..., None]
               for ws in ((w1, w1, w1, w2), (w1, w1, w2, w2), (w1, w2, w2, w2)))
    out = _third_contract_batch(np.tile(masses, (4, 1)), np.tile(q, (4, 1, 1)), x, y, z)
    return out.reshape(4, -1).T


_ORDER2_THRESHOLD = 1e-3


def _order2_candidates(keys, loci, rho_max):
    """Order-2 exclusion of several pairs on their full Z0 loci.

    The plane contractions at every locus point and symmetric solution of
    all pairs are evaluated as one batch.
    """
    sym_points, sym_masses = [], []
    for key in keys:
        rho, roots = _symmetric_roots(key, rho_max)
        kept = [(t, masses) for t, masses in roots if t > 0]
        sym_points.append([(float(rho), float(t)) for t, _ in kept])
        sym_masses.append([masses for _, masses in kept])

    # non-symmetric branch: the bisected Z0 = 0 locus, trace matched in m3
    locus = np.concatenate([np.empty((0, 2)), *loci])
    lam = np.repeat(np.array(keys, dtype=int).reshape(-1, 2), [len(pts) for pts in loci],
                    axis=0)
    sym_rho = np.array([rho for pts in sym_points for rho, _ in pts])
    masses = np.vstack([_matched_masses(lam, _line_batch(locus[:, 0], locus[:, 1])),
                        *[m for ms in sym_masses for m in ms]])
    worst = np.abs(_plane_contractions(np.concatenate([locus[:, 0], sym_rho]),
                                       np.concatenate([locus[:, 1], sym_rho]),
                                       masses)).max(axis=1)

    out = []
    ends = np.cumsum([0, *map(len, loci), *map(len, sym_points)])
    for i, key in enumerate(keys):
        nonsym_min = float(worst[ends[i]:ends[i + 1]].min(initial=math.inf))
        j = len(keys) + i
        sym_min = float(worst[ends[j]:ends[j + 1]].min(initial=math.inf))
        cand = PairCandidate(key)
        cand.evidence = {
            "nonsym_locus_points": len(loci[i]),
            "nonsym_min_max_contraction": None if math.isinf(nonsym_min) else nonsym_min,
            "sym_solutions": sym_points[i],
            "sym_min_max_contraction": None if math.isinf(sym_min) else sym_min,
            "threshold": _ORDER2_THRESHOLD,
            "caveat": SWEEP_CAVEAT,
        }
        worst_min = min(nonsym_min, sym_min)
        cand.status = "order2-excluded" if worst_min > _ORDER2_THRESHOLD else "feasible"
        out.append(cand)
    return out


def order2_exclusion_4body(pair, rho_max: float = 20.0, cells: int = 240) -> PairCandidate:
    """Evaluate the four plane contractions along the determinant locus.

    Requires the pair to sit in the eigenvalue family b(2b+3) with the span
    condition, so that vanishing of all contractions on the invariant plane
    is necessary for integrability.  Reports "order2-excluded" when the
    contraction system stays above 1e-3 (the evidence's ``threshold``) on the
    entire sampled locus: every confirmed Z0 zero of the strict rho1 > rho2
    branch, and the symmetric branch.
    """
    key = _pair_key(pair)
    if not odd_family_predicate(key):
        raise InvalidKError(
            f"{{{key[0]},{key[1]}}} is outside the eigenvalue family handled here"
        )
    (*_, locus), = _z0_loci([key], rho_max, cells)
    return _order2_candidates([key], [locus], rho_max)[0]


def condition_count(pair) -> int:
    """Second-order condition count for a pair surviving the Z0 elimination."""
    key = _pair_key(pair)
    if key not in ORDER2_CONDITION_COUNTS:
        raise InvalidKError(
            f"{{{key[0]},{key[1]}}} was already eliminated by the determinant step"
        )
    return ORDER2_CONDITION_COUNTS[key]


def classify_pairs(rho_max: float = 20.0, cells: int = 240) -> list[PairCandidate]:
    """Full pipeline: enumerate, Z0-eliminate, order-2 exclude.

    All pairs share one grid line and one bisection; each surviving pair of
    the odd family takes its full Z0 locus to the order-2 stage, while its
    Z0 evidence keeps the first 8 zeros, as pair_feasibility reports them.
    """
    keys = [c.pair for c in enumerate_pairs()]
    loci = _z0_loci(keys, rho_max, cells)
    out = [_nonsym_candidate(key, *locus) for key, locus in zip(keys, loci)]
    odd = [i for i, c in enumerate(out)
           if c.status == "feasible" and odd_family_predicate(c.pair)]
    excluded = _order2_candidates([keys[i] for i in odd], [loci[i][3] for i in odd], rho_max)
    for i, excl in zip(odd, excluded):
        if excl.status == "order2-excluded":
            excl.evidence = {**out[i].evidence, **excl.evidence}
            out[i] = excl
    for c in out:
        if c.status == "feasible":
            c.evidence["order2_conditions"] = ORDER2_CONDITION_COUNTS.get(c.pair)
    return out
