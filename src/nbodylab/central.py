"""Colinear central configurations.

A configuration c is a central configuration for masses m when

    dV/dq_i (c) = alpha * m_i * (c_i - g),   g = center of mass,

for some multiplier alpha (negative for positive masses with the attractive
1/r potential).  Normalization rescales masses to total 1, translates the
center of mass to the origin and dilates so that alpha = -1.

The 3-body family is handled in the shape coordinates (-1, 0, rho).  The
4-body family at (-rho1, -1, 1, rho2) is an affine line of mass vectors, and
this module owns it: the batched multiplier -1 line that the grid code in
``fourbody`` runs on, the sum-1 line of the scalar API, and the closed-form
map between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteEquilibriumError,
    DegenerateMassError,
    NoConvergenceError,
    RankDeficiencyError,
    SingularRhoError,
)
from .potential import (
    COLLISION_FLOOR,
    Configuration,
    MassVector,
    acceleration,
    as_mass_array,
    gradient,
    hessian_w,
)

__all__ = [
    "CentralConfiguration",
    "MassLine4",
    "euler_quintic_coefficients",
    "euler_quintic",
    "masses_from_rho",
    "positivity_interval",
    "cc_residual",
    "fit_multiplier_center",
    "normalize_cc",
    "moulton_solve",
    "mass_line_4body",
    "solve_masses_4body",
]

_RESIDUAL_TARGET = 1e-10
# Moulton Newton solve: absolute residual target of the raw-scale system, step cap
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 200
_MULTIPLIER_FLOOR = 1e-12


@dataclass
class CentralConfiguration:
    """A configuration together with its multiplier, center and residual."""

    config: Configuration
    masses: MassVector
    multiplier: float
    center: np.ndarray
    residual: float

    @property
    def is_normalized(self) -> bool:
        return (
            self.masses.normalized
            and abs(self.multiplier + 1.0) <= 1e-10
            and float(np.max(np.abs(self.center))) <= 1e-10
        )

    @classmethod
    def from_positions(cls, masses, coords) -> "CentralConfiguration":
        mv = masses if isinstance(masses, MassVector) else MassVector(masses)
        cf = coords if isinstance(coords, Configuration) else Configuration(coords)
        alpha, center = fit_multiplier_center(mv, cf)
        res = cc_residual(mv, cf, alpha, center)
        return cls(cf, mv, alpha, center, res)


def cc_residual(masses, coords, alpha: float, center) -> float:
    """Max-norm of dV/dq - alpha * m o (q - g)."""
    m = as_mass_array(masses)
    cf = coords if isinstance(coords, Configuration) else Configuration(coords)
    g = np.atleast_1d(np.asarray(center, dtype=float))
    target = alpha * m[:, None] * (cf.coords - g[None, :])
    return float(np.max(np.abs(gradient(m, cf) - target)))


def fit_multiplier_center(masses, coords):
    """Least-squares multiplier and center for the cc equations.

    Solves a_i = alpha q_i - h (h = alpha g) over all bodies, where a is the
    acceleration field.  The center is the mass center whenever the input is
    an actual central configuration.
    """
    m = as_mass_array(masses)
    cf = coords if isinstance(coords, Configuration) else Configuration(coords)
    q = cf.coords
    a = acceleration(m, q)
    n, d = q.shape
    rows = np.zeros((n * d, 1 + d))
    rows[:, 0] = q.reshape(-1)
    for ax in range(d):
        rows[ax::d, 1 + ax] = -1.0
    sol, *_ = np.linalg.lstsq(rows, a.reshape(-1), rcond=None)
    alpha = float(sol[0])
    if abs(alpha) <= _MULTIPLIER_FLOOR:
        # zero multiplier: the center is unconstrained, report the mass center
        total = m.sum()
        g = (m[:, None] * q).sum(axis=0) / total
        return alpha, g
    return alpha, sol[1:] / alpha


def normalize_cc(cc: CentralConfiguration) -> CentralConfiguration:
    """Rescale to total mass 1, center 0 and multiplier -1.

    Rescaling the masses by s scales the multiplier by s; dilating the
    configuration by gamma scales it by gamma^-3.
    """
    if abs(cc.multiplier) <= _MULTIPLIER_FLOOR:
        raise AbsoluteEquilibriumError(
            "zero multiplier: absolute equilibria cannot be normalized"
        )
    total = cc.masses.total
    if abs(total) <= _MULTIPLIER_FLOOR:
        raise DegenerateMassError("total mass is zero")
    m = cc.masses.values / total
    alpha = cc.multiplier / total
    gamma = np.cbrt(-alpha)
    q = gamma * (cc.config.coords - cc.center[None, :])
    mv = MassVector(m)
    cf = Configuration(q)
    res = cc_residual(mv, cf, -1.0, np.zeros(cf.d))
    return CentralConfiguration(cf, mv, -1.0, np.zeros(cf.d), res)


# ---------------------------------------------------------------------------
# 3-body colinear family at (-1, 0, rho)


def euler_quintic_coefficients(masses) -> np.ndarray:
    """Ascending coefficients of the colinear 3-body shape quintic.

    The positive root rho places the bodies at (-1, 0, rho) in body order.
    """
    m = as_mass_array(masses)
    if m.size != 3:
        raise ValueError("expected three masses")
    m1, m2, m3 = m
    return np.array(
        [
            m2 + m3,
            2.0 * m2 + 3.0 * m3,
            m2 + 3.0 * m3,
            -(3.0 * m1 + m2),
            -(3.0 * m1 + 2.0 * m2),
            -(m1 + m2),
        ]
    )


def euler_quintic(masses) -> list[float]:
    """Positive real roots of the shape quintic (exactly one for m > 0)."""
    m = as_mass_array(masses)
    if m.size != 3:
        raise ValueError("expected three masses")
    if np.any(m <= 0.0):
        raise DegenerateMassError("shape quintic needs strictly positive masses")
    coeffs = euler_quintic_coefficients(m)
    roots = np.roots(coeffs[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real
    out = []
    der = np.polyder(coeffs[::-1])
    for r in real[real > 0.0]:
        for _ in range(4):  # Newton polish
            f = np.polyval(coeffs[::-1], r)
            fp = np.polyval(der, r)
            if fp == 0.0:
                break
            r -= f / fp
        if r > 0.0 and not any(abs(r - s) <= 1e-9 * (1.0 + abs(s)) for s in out):
            out.append(float(r))
    return sorted(out)


_QUARTIC = (1.0, 2.0, 1.0, 2.0, 1.0)  # 1 + 2r + r^2 + 2r^3 + r^4, ascending


def _quartic(rho):
    return ((((_QUARTIC[4] * rho + _QUARTIC[3]) * rho + _QUARTIC[2]) * rho
             + _QUARTIC[1]) * rho + _QUARTIC[0])


def masses_from_rho(rho: float, s: float) -> MassVector:
    """Masses (s, m2, m3) making (-1, 0, rho) a central configuration, total 1.

    The excluded set is rho (rho + 1) (1 + 2 rho + rho^2 + 2 rho^3 + rho^4) = 0.
    """
    excl = rho * (rho + 1.0) * _quartic(rho)
    if abs(excl) <= 1e-12:
        raise SingularRhoError(f"rho={rho} lies on the excluded set")
    den = rho * _quartic(rho)
    m2 = -(
        3.0 * s * rho**3 + 3.0 * s * rho**4 + s * rho**5 + s - 1.0
        + 3.0 * rho * s - 3.0 * rho + 3.0 * rho**2 * s - 3.0 * rho**2
    ) / den
    m3 = (
        2.0 * rho * s + rho**2 * s + 2.0 * s * rho**3 + s * rho**4 + s - 1.0
        - 2.0 * rho - rho**2 + rho**3 + 2.0 * rho**4 + rho**5
    ) / den
    return MassVector([s, m2, m3])


def positivity_interval(rho: float) -> tuple[float, float]:
    """Open interval of s with all three masses positive (valid for rho >= 1)."""
    excl = rho * (rho + 1.0) * _quartic(rho)
    if abs(excl) <= 1e-12:
        raise SingularRhoError(f"rho={rho} lies on the excluded set")
    hi = (1.0 + 3.0 * rho + 3.0 * rho**2) / (_quartic(rho) * (1.0 + rho))
    return 0.0, hi


# ---------------------------------------------------------------------------
# Moulton solve for arbitrary n (one cc per ordering)


def moulton_solve(masses, order=None) -> CentralConfiguration:
    """Colinear central configuration for positive masses in a given order.

    Parameters
    ----------
    masses : array-like
        Strictly positive masses in body order.
    order : sequence of int, optional
        Permutation giving the bodies from left to right; identity by default.

    Returns the normalized central configuration (total mass 1, center 0,
    multiplier -1).  Translation and dilation are gauge-fixed during the
    Newton solve by pinning the two leftmost slots at -1 and 0; unknowns are
    the remaining slot positions, the multiplier and the center.
    """
    m = as_mass_array(masses)
    if np.any(m <= 0.0):
        raise DegenerateMassError("Moulton configurations need positive masses")
    n = m.size
    if order is None:
        order = np.arange(n)
    order = np.asarray(order, dtype=int)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    m_slot = MassVector(m[order])

    # unknowns: slot positions 2..n-1, then alpha, then g
    x = np.concatenate([np.arange(n, dtype=float) - 1.0, [0.0, 0.0]])
    g0 = float(m_slot.values @ x[:n] / m_slot.total)
    a0 = acceleration(m_slot, x[:n].reshape(-1, 1))[:, 0]
    x[n] = float(a0[0] / (x[0] - g0))  # crude multiplier seed from leftmost body
    x[n + 1] = g0

    def system(vec):
        pos = vec[:n]
        alpha, g = vec[n], vec[n + 1]
        acc = acceleration(m_slot, pos.reshape(-1, 1))[:, 0]
        return acc - alpha * (pos - g)

    free = np.arange(2, n)  # the slots Newton moves
    best = np.inf
    fval = system(x)
    for _ in range(_NEWTON_STEPS):
        r = float(np.max(np.abs(fval)))
        best = min(best, r)
        if r <= _NEWTON_TOL:
            break
        pos = x[:n]
        alpha = x[n]
        w = hessian_w(m_slot, pos.reshape(-1, 1)).matrix
        jac = np.zeros((n, n))
        jac[:, : n - 2] = w[:, 2:]
        jac[free, free - 2] -= alpha
        jac[:, n - 2] = -(pos - x[n + 1])
        jac[:, n - 1] = alpha
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError("singular Newton system", best) from exc
        lam = 1.0
        for _ in range(40):
            trial = x.copy()
            trial[2:n] += lam * step[: n - 2]
            trial[n:] += lam * step[n - 2 :]
            gaps = np.diff(trial[:n])
            if np.all(gaps > COLLISION_FLOOR):
                ftrial = system(trial)
                if np.max(np.abs(ftrial)) < np.max(np.abs(fval)):
                    x, fval = trial, ftrial
                    break
            lam *= 0.5
        else:
            raise NoConvergenceError("Newton backtracking stalled", best)
    else:
        raise NoConvergenceError(f"no convergence after {_NEWTON_STEPS} iterations", best)

    coords = np.empty(n)
    coords[order] = x[:n]
    raw = CentralConfiguration.from_positions(MassVector(m), coords.reshape(-1, 1))
    out = normalize_cc(raw)
    if out.residual > _RESIDUAL_TARGET:
        raise NoConvergenceError("residual above target after normalization", out.residual)
    return out


# ---------------------------------------------------------------------------
# 4-body colinear family at (-rho1, -1, 1, rho2)


def _positions(rho1, rho2):
    """Literal configurations (-rho1, -1, 1, rho2), one row per shape."""
    r1 = np.atleast_1d(np.asarray(rho1, dtype=float))
    r2 = np.atleast_1d(np.asarray(rho2, dtype=float))
    pos = np.empty(r1.shape + (4,))
    pos[..., 0] = -r1
    pos[..., 1] = -1.0
    pos[..., 2] = 1.0
    pos[..., 3] = r2
    return pos


def _line_batch(rho1, rho2, max_cond=None):
    """Mass lines with multiplier -1 at the literal configurations.

    Solves, for every shape in the batch, the 5x5 system in (m, -center) with
    gauge m3 = t; returns (positions, inv3, m0, dm, tr0, dtr) where inv3 holds
    the inverse cubed pair distances (zero diagonal), masses are m0 + t*dm and
    the Hessian trace is tr0 + t*dtr.  With ``max_cond`` set, a system whose
    condition number exceeds it raises RankDeficiencyError.
    """
    pos = _positions(rho1, rho2)
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[:, :, None]        # [cell, i, j] = c_j - c_i
    dist = np.abs(diff)
    dist[:, range(4), range(4)] = np.inf
    inv3 = dist ** -3

    a = np.zeros((n, 5, 5))
    a[:, :4, :4] = diff * inv3
    a[:, :4, 4] = 1.0
    a[:, 4, 2] = 1.0
    if max_cond is not None and np.any(np.linalg.cond(a) > max_cond):
        raise RankDeficiencyError("central-configuration system is rank deficient")
    rhs = np.zeros((n, 5, 2))
    rhs[:, :4, 0] = -pos
    rhs[:, 4, 1] = 1.0
    sol = np.linalg.solve(a, rhs)
    m0, dm = sol[:, :4, 0], sol[:, :4, 1]

    pair_inv3 = 2.0 * inv3
    tr0 = np.einsum("nij,nj->n", pair_inv3, m0)
    dtr = np.einsum("nij,nj->n", pair_inv3, dm)
    return pos, inv3, m0, dm, tr0, dtr


@dataclass
class MassLine4:
    """Affine line of sum-1 mass vectors making (-rho1, -1, 1, rho2) central.

    J(m3) = intercept + m3 * slope; the third component is the identity map.
    The multiplier varies along the line and is itself affine in m3.
    """

    rho1: float
    rho2: float
    intercept: np.ndarray
    slope: np.ndarray
    multiplier_intercept: float
    multiplier_slope: float

    def masses(self, m3: float) -> MassVector:
        return MassVector(self.intercept + m3 * self.slope)

    def multiplier(self, m3: float) -> float:
        return self.multiplier_intercept + m3 * self.multiplier_slope

    @property
    def configuration(self) -> Configuration:
        return Configuration(_positions(self.rho1, self.rho2)[0])


def mass_line_4body(rho1: float, rho2: float) -> MassLine4:
    """Sum-normalized affine mass family with free multiplier.

    Rescaling each mass vector m0 + t*dm of the multiplier -1 line of
    _line_batch to total 1 keeps the shape central and divides the multiplier
    by the total.  With S(v) the sum of the entries of v, in closed form:
    intercept = m0/S(m0), slope = dm - S(dm) m0/S(m0) and multiplier(m3) =
    (-1 + m3 S(dm))/S(m0).  Raises RankDeficiencyError when the solve is
    ill-conditioned (condition number above 1e12).
    """
    if not (rho1 >= rho2 > 1.0):
        raise ValueError("expected rho1 >= rho2 > 1")
    _, _, m0, dm, _, _ = _line_batch(rho1, rho2, max_cond=1e12)
    m0, dm = m0[0], dm[0]
    s0, s1 = m0.sum(), dm.sum()
    return MassLine4(rho1, rho2, m0 / s0, dm - s1 * m0 / s0,
                     float(-1.0 / s0), float(s1 / s0))


def solve_masses_4body(rho1: float, rho2: float, m3: float) -> MassVector:
    """Masses (possibly signed, total 1) making (-rho1, -1, 1, rho2) central."""
    return mass_line_4body(rho1, rho2).masses(m3)
