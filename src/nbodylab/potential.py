"""Pairwise 1/r potential sums and their exact derivative tensors.

The potential of a configuration ``q`` with masses ``m`` is

    V(q) = sum_{i<j} m_i m_j / |q_i - q_j|

which is homogeneous of degree -1 in the coordinates.  Everything here is a
pure function of masses and coordinates; masses may be signed, and the only
hard domain restriction is the pairwise collision floor: every kernel here
raises ``CollisionError`` when two bodies are ``COLLISION_FLOOR`` (1e-8) or
closer.  It is the package's one floor; the model charts use it too.

Every pair distance comes from ``_pair_field`` (one configuration, n x n,
inf on the diagonal) or ``_pair_rows`` (an (S, n, d) stack, upper-triangle
pairs), and every collision error from ``_raise_collision``.

Colinear configurations (d = 1) take their own path through ``gradient``,
``acceleration`` and ``hessian_w``: one n x n pass over the signed
separations d_ij = x_j - x_i, whose field is sum_j m_j sign(d_ij) / d_ij^2
and whose W comes from ``_w_batch``, the package's one 1-D W builder
(W_ij = -2 m_j / |d_ij|^3, diagonal minus the row sum), which the 4-body
mass-line code in ``fourbody`` batches over shapes.  The general kernels
serve d >= 2; on the (x, 0) planar embedding they agree with the 1-D path
to rounding.  There ``gradient`` and ``acceleration`` share one n x n pass
(``_pair_field``) and one in-place pair sum (``_pair_sum``, weights m_i m_j
or m_j), and the field is summed directly, so a zero mass is fine.  On the
plane the squared distances are the two squared axis planes added, and the
pair sum forms its terms in the pair arrays; both keep the bits of the
einsum forms they replace.
``eval_potential`` is ``_potential_batch`` of one configuration; the model
charts take the potential of a whole trajectory's samples from it at once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError, NonRealSpectrumWarning

__all__ = [
    "COLLISION_FLOOR",
    "MassVector",
    "Configuration",
    "HessianW",
    "eval_potential",
    "gradient",
    "acceleration",
    "hessian_w",
    "third_contract",
]

COLLISION_FLOOR = 1e-8

# |sum(m) - 1| below this counts as normalized
_SUM_TOL = 1e-12


@dataclass
class MassVector:
    """Masses of the bodies, in body order.

    ``normalized`` records whether the total mass is 1 to within 1e-12; it is
    computed, not user-supplied.  Signed masses are allowed.
    """

    values: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 2:
            raise ValueError("mass vector needs at least two entries")
        if not np.all(np.isfinite(v)):
            raise ValueError("masses must be finite")
        self.values = v
        self.normalized = bool(abs(v.sum() - 1.0) <= _SUM_TOL)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def all_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))


@dataclass
class Configuration:
    """Positions of ``n`` bodies in dimension ``d``, one row per body."""

    coords: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.coords, dtype=float)
        if q.ndim == 1:
            q = q[:, None]
        if q.ndim != 2 or q.shape[0] < 2:
            raise ValueError("configuration needs an (n, d) array with n >= 2")
        if not np.all(np.isfinite(q)):
            raise ValueError("coordinates must be finite")
        self.coords = q

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def flat(self) -> np.ndarray:
        return self.coords.reshape(-1)


def as_mass_array(masses) -> np.ndarray:
    if isinstance(masses, MassVector):
        return masses.values
    return MassVector(np.asarray(masses, dtype=float)).values


def as_coord_array(coords) -> np.ndarray:
    if isinstance(coords, Configuration):
        return coords.coords
    return Configuration(np.asarray(coords, dtype=float)).coords


# bounded: one entry holds about 8 n^2 bytes
@functools.lru_cache(maxsize=32)
def _pair_index(n: int):
    """Upper-triangle pair indices (i, j), i < j, of n bodies, read-only."""
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def _raise_collision(r: np.ndarray, iu) -> None:
    """CollisionError naming the closest pair; r holds one configuration's pair distances."""
    p = int(np.argmin(r))
    raise CollisionError(
        f"bodies {iu[0][p]} and {iu[1][p]} are separated by {r.min():.3e} "
        f"(floor {COLLISION_FLOOR:.1e})"
    )


# bounded: one entry holds 8 n^2 bytes
@functools.lru_cache(maxsize=32)
def _inf_diagonal(n: int) -> np.ndarray:
    """Read-only n x n matrix, inf on the diagonal and 0 elsewhere."""
    out = np.zeros((n, n))
    np.fill_diagonal(out, np.inf)
    out.flags.writeable = False
    return out


def _pair_distances(q: np.ndarray):
    """n x n separations q_i - q_j and distances of one configuration, no floor check.

    The diagonal distance is inf: 1 / r^k is +0 there and one min finds the closest pair.
    On the plane the squared distance is the sum of the two squared axis
    planes, which is einsum's sum bit for bit; other d keep einsum.
    """
    n, d = q.shape
    diff = q[:, None, :] - q[None, :, :]
    if d == 2:
        sq = diff * diff
        dist = np.add(sq[:, :, 0], sq[:, :, 1])
    else:
        dist = np.einsum("ijk,ijk->ij", diff, diff)
    dist += _inf_diagonal(n)
    return diff, np.sqrt(dist, out=dist)


def _pair_field(q: np.ndarray):
    """``_pair_distances`` of q; a pair at or below the collision floor raises."""
    diff, dist = _pair_distances(q)
    if dist.min() <= COLLISION_FLOOR:
        iu = _pair_index(q.shape[0])
        _raise_collision(dist[iu], iu)
    return diff, dist


def _pair_rows(q: np.ndarray):
    """Upper-triangle separations (S, P, d) and distances (S, P) of an (S, n, d) stack.

    Both are C-contiguous, so each row reduces in the order of a stack of one.
    The first row with a pair at or below the collision floor raises.
    """
    iu = _pair_index(q.shape[1])
    u = np.ascontiguousarray(q[:, iu[0]] - q[:, iu[1]])
    r = np.sqrt(np.einsum("spk,spk->sp", u, u))
    hit = np.flatnonzero(r.min(axis=1) <= COLLISION_FLOOR)
    if hit.size:
        _raise_collision(r[hit[0]], iu)
    return u, r


def _line_separations(x: np.ndarray) -> np.ndarray:
    """d_ij = x_j - x_i of 1-D positions x, infinite on the diagonal.

    Raises at or below the collision floor with the general kernels' error.
    Rounded differences are monotone, so the smallest |d_ij| is a gap of the
    sorted positions, which is checked in O(n log n) before the n x n pass.
    """
    s = np.sort(x)
    if (s[1:] - s[:-1]).min() <= COLLISION_FLOOR:
        _pair_field(x[:, None])  # raises, naming the closest pair
    d = x[None, :] - x[:, None]
    np.fill_diagonal(d, np.inf)
    return d


def _line_field(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Acceleration sum_j m_j copysign(1 / d_ij^2, d_ij) of 1-D positions x.

    Summed by einsum: at raw scale some unit-mass Moulton solves stall within
    a few percent of their absolute tolerance (ROADMAP item 2), and their
    outcome follows the field's last bits; this order keeps ``np.ones(60)``
    stalling, as the ``cc`` benchmark workload expects, where ``matmul``
    makes it converge.
    """
    d = _line_separations(x)
    f = d * d
    np.divide(1.0, f, out=f)
    np.copysign(f, d, out=f)
    return np.einsum("ij,j->i", f, m)


def _w_batch(inv3, masses):
    """1-D mass-scaled Hessians W_ij = -2 m_j inv3_ij, diagonal minus the row sum.

    ``inv3`` is a (b, n, n) batch of inverse cubed pair distances with a zero
    diagonal and ``masses`` the matching (b, n) rows.
    """
    w = -2.0 * masses[:, None, :] * inv3
    idx = np.arange(inv3.shape[-1])
    w[:, idx, idx] = -w.sum(axis=2)
    return w


def _line_w(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n, n) mass-scaled Hessian of 1-D positions x."""
    r = np.abs(_line_separations(x))
    inv3 = r * r
    inv3 *= r
    np.divide(1.0, inv3, out=inv3)
    return _w_batch(inv3[None], m[None])[0]


def eval_potential(masses, coords) -> float:
    """Sum of m_i m_j / r_ij over unordered pairs."""
    m = as_mass_array(masses)
    q = as_coord_array(coords)
    return float(_potential_batch(m, q[None])[0])


# pair-difference entries per block of a batched pair sum (8 MB of float64)
_PAIR_BLOCK = 1 << 20


def _potential_batch(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The potential of each configuration in q, an (S, n, d) stack.

    Each row is summed over ``_pair_rows``' contiguous pairs, so its value
    does not depend on the stack around it, and the first row with a pair at
    or below the collision floor raises.  Stacks are taken in blocks, so the
    temporaries stay near 8 MB at any S.
    """
    iu = _pair_index(q.shape[1])
    mm = m[iu[0]] * m[iu[1]]
    out = np.empty(q.shape[0])
    step = max(1, _PAIR_BLOCK // (mm.size * q.shape[2]))
    for s in range(0, q.shape[0], step):
        _, r = _pair_rows(q[s:s + step])
        out[s:s + step] = (mm / r).sum(axis=1)
    return out


def gradient(masses, coords) -> np.ndarray:
    """Gradient dV/dq as an (n, d) array.

    Row i is sum_{j != i} m_i m_j (q_j - q_i) / r_ij^3, so the acceleration
    field of the attractive dynamics is row i divided by m_i.
    """
    return _gradient(as_mass_array(masses), as_coord_array(coords))


def _gradient(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``gradient`` of a mass array and an (n, d) float array, both taken as checked."""
    if q.shape[1] == 1:
        return (m * _line_field(m, q[:, 0]))[:, None]
    return _pair_sum(np.multiply.outer(m, m), q)


def _pair_sum(weights: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_j w_ij (q_j - q_i) / r_ij^3 of an (n, d) array q, d >= 2.

    ``weights`` holds w_ij, as an (n, n) array or a (1, n) row.  The terms
    w_ij (q_i - q_j) / r_ij^3 are formed in the pair arrays in place, summed
    over j and negated, with the bits of ``-einsum("ij,ijk->ik", w / r^3,
    q_i - q_j)``, signed zeros included: both sums start from +0 and add the
    terms in order of j.
    """
    diff, dist = _pair_field(q)
    np.power(dist, -3, out=dist)
    dist *= weights
    np.multiply(dist[:, :, None], diff, out=diff)
    out = np.add.reduce(diff, axis=1)
    return np.negative(out, out=out)


def acceleration(masses, coords) -> np.ndarray:
    """Acceleration field sum_{j != i} m_j (q_j - q_i) / r_ij^3 as an (n, d) array.

    It is (1/m_i) dV/dq_i, computed without the divide, so a body of zero
    mass still gets the field the others make.
    """
    m = as_mass_array(masses)
    q = as_coord_array(coords)
    if q.shape[1] == 1:
        return _line_field(m, q[:, 0])[:, None]
    return _pair_sum(m[None, :], q)


def _w_matrix(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mass-scaled Hessian W with rows grouped by body: index (i, a) -> i*d + a.

    Serves d >= 2; colinear configurations go through ``_line_w``.
    """
    diff, dist = _pair_field(q)
    n, d = q.shape
    inv3 = dist ** -3
    # per-pair d x d kernel (3 u u^T - r^2 I) / r^5, built in place in one
    # (n, n, d, d) array, with the same roundings as the product form
    wij = np.einsum("ija,ijb->ijab", diff, diff)
    wij *= 3.0 * (dist ** -5)[:, :, None, None]
    for a in range(d):
        wij[:, :, a, a] -= inv3
    wij *= -m[None, :, None, None]
    diag = -wij.sum(axis=1)
    wij[np.arange(n), np.arange(n)] = diag
    return wij.transpose(0, 2, 1, 3).reshape(n * d, n * d)


@dataclass
class HessianW:
    """Mass-scaled Hessian of V at a configuration.

    ``matrix`` is (n*d, n*d) with flat index i*d + a for body i, axis a.  It is
    similar to a symmetric matrix through diag(sqrt(m)) when all masses are
    positive, so the spectrum is then real.
    """

    matrix: np.ndarray
    masses: MassVector
    config: Configuration

    def spectrum(self) -> np.ndarray:
        """Real-sorted eigenvalues; warns if signed masses yield complex ones."""
        if self.masses.all_positive():
            return np.sort(self._symmetric_eigh()[0])
        vals = np.linalg.eigvals(self.matrix)
        if np.max(np.abs(vals.imag)) > 1e-8 * max(1.0, np.max(np.abs(vals))):
            warnings.warn(
                "complex eigenvalues in mass-scaled Hessian spectrum",
                NonRealSpectrumWarning,
            )
        return np.sort(vals.real)

    def _symmetric_eigh(self):
        m = self.masses.values
        d = self.config.d
        s = np.repeat(np.sqrt(m), d)
        sym = self.matrix * (s[:, None] / s[None, :])
        sym = 0.5 * (sym + sym.T)
        vals, vecs = np.linalg.eigh(sym)
        return vals, vecs, s

    def eigenpairs(self):
        """Eigenvalues and right eigenvectors of W, mass-orthonormal.

        Columns x of the returned matrix satisfy W x = lambda x and
        sum_i m_i |x_i|^2 = 1, with the first nonzero component positive.
        Positive masses only.
        """
        if not self.masses.all_positive():
            raise ValueError("eigenpairs requires positive masses")
        vals, vecs, s = self._symmetric_eigh()
        x = vecs / s[:, None]
        for col in range(x.shape[1]):
            lead = np.flatnonzero(np.abs(x[:, col]) > 1e-12 * np.abs(x[:, col]).max())
            if lead.size and x[lead[0], col] < 0:
                x[:, col] = -x[:, col]
        return vals, x


def hessian_w(masses, coords) -> HessianW:
    """Mass-scaled Hessian W_(ia)(jb) = (1/m_i) d^2 V / dq_(ia) dq_(jb)."""
    mv = masses if isinstance(masses, MassVector) else MassVector(masses)
    cf = coords if isinstance(coords, Configuration) else Configuration(coords)
    if cf.d == 1:
        return HessianW(_line_w(mv.values, cf.coords[:, 0]), mv, cf)
    return HessianW(_w_matrix(mv.values, cf.coords), mv, cf)


def _as_directions(n: int, d: int, vec) -> np.ndarray:
    x = np.asarray(vec, dtype=float)
    if x.shape == (n, d):
        return x
    if x.shape == (n * d,):
        return x.reshape(n, d)
    if d == 1 and x.shape == (n,):
        return x[:, None]
    raise ValueError(f"direction vector must have shape ({n},{d}) or ({n * d},)")


def third_contract(masses, coords, x, y, z) -> float:
    """Contraction D^3 V(q)[X, Y, Z] of the unscaled third derivative tensor.

    For each pair the 1/r kernel contributes
      -15 (u.x)(u.y)(u.z)/r^7 + 3[(u.x)(y.z)+(u.y)(x.z)+(u.z)(x.y)]/r^5
    with u the separation and x, y, z the per-pair direction differences.
    """
    m = as_mass_array(masses)
    q = as_coord_array(coords)
    n, d = q.shape
    X, Y, Z = (_as_directions(n, d, v)[None] for v in (x, y, z))
    return float(_third_contract_batch(m[None], q[None], X, Y, Z)[0])


def _third_contract_batch(m, q, x, y, z) -> np.ndarray:
    """third_contract of each row: m is (b, n), q, x, y and z are (b, n, d).

    A batch of one is third_contract's arithmetic, and every row of a longer
    batch is bit for bit its batch of one: the pairs come contiguous from
    ``_pair_rows``.
    """
    iu = _pair_index(q.shape[1])
    u, r = _pair_rows(q)
    dx, dy, dz = (v[:, iu[0]] - v[:, iu[1]] for v in (x, y, z))
    ux, uy, uz, xy, xz, yz = (np.einsum("bpk,bpk->bp", a, b) for a, b in (
        (u, dx), (u, dy), (u, dz), (dx, dy), (dx, dz), (dy, dz)))
    core = -15.0 * ux * uy * uz / r**7 + 3.0 * (ux * yz + uy * xz + uz * xy) / r**5
    return np.sum(m[:, iu[0]] * m[:, iu[1]] * core, axis=1)
