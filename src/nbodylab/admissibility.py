"""Spectral admissibility of the mass-scaled Hessian at central configurations.

A first integral independent of the Hamiltonian can only exist when every
eigenvalue of the mass-scaled Hessian at a normalized central configuration
belongs to the table {(k - 1)(k + 2) / 2 : k = 0, 1, 2, ...}.  This module
builds that table, the closed-form spectrum of the colinear 3-body family,
the exceptional mass curves where a chosen admissible eigenvalue occurs, and
the higher-order obstruction values that rule those curves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .central import CentralConfiguration, moulton_solve, normalize_cc
from .errors import AbsoluteEquilibriumError, FloatRangeError, InvalidKError, SingularRhoError
from .potential import Configuration, MassVector, hessian_w, third_contract
from .sturm import count_real_roots, descartes_positive_bound

__all__ = [
    "SpectrumReport",
    "ExceptionalPoint",
    "admissible_values",
    "admissible_index",
    "nontrivial_eigenvalue",
    "eigenvalue_range",
    "exceptional_masses",
    "exceptional_point",
    "reachable_eigenvalues",
    "order2_obstruction_3body",
    "order2_vanishing_factor",
    "ORDER3_EIG9_COEFFS",
    "order3_obstruction_k9",
    "order3_k9_positive_roots",
    "planar_spectrum",
    "spectrum_report",
    "odd_family_predicate",
]

_MATCH_TOL = 1e-8


def admissible_values(ceiling: float = 200.0) -> list[int]:
    """Values (k-1)(k+2)/2 for k = 0, 1, 2, ... up to the ceiling."""
    out, k = [], 0
    while True:
        v = (k - 1) * (k + 2) // 2
        if v > ceiling:
            return out
        out.append(v)
        k += 1


def admissible_index(value: float, tol: float = _MATCH_TOL):
    """Smallest k with |(k-1)(k+2)/2 - value| <= tol, or None."""
    if value < -1.0 - tol:
        return None
    # invert the quadratic and test the neighboring integers
    k0 = int((-1.0 + math.sqrt(max(9.0 + 8.0 * value, 0.0))) / 2.0)
    for k in range(max(k0 - 1, 0), k0 + 3):
        if abs((k - 1) * (k + 2) / 2.0 - value) <= tol:
            return k
    return None


@dataclass
class SpectrumReport:
    """Eigenvalues with their admissibility verdicts.

    ``matches[i]`` is the table index k for ``eigenvalues[i]`` or None when the
    eigenvalue is not admissible; ``obstructed`` is True when any entry fails.
    ``block_error`` is filled by the planar embedding check.
    """

    eigenvalues: np.ndarray
    matches: list
    obstructed: bool
    block_error: float | None = None


def spectrum_report(eigenvalues, block_error=None) -> SpectrumReport:
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    matches = [admissible_index(v) for v in vals]
    return SpectrumReport(vals, matches, any(m is None for m in matches), block_error)


# ---------------------------------------------------------------------------
# closed-form spectrum of the 3-body family at (-1, 0, rho)


def _den_factor(s, rho):
    # vanishes exactly on the zero-multiplier locus of the family
    return s * (rho**4 + 2 * rho**3 + rho**2 + 2 * rho + 1) - (rho**2 + 2 * rho + 1)


def nontrivial_eigenvalue(s: float, rho: float) -> float:
    """Third eigenvalue of the mass-scaled Hessian on the 3-body family.

    The other two eigenvalues are 0 and 2 at the multiplier -1 normalization.
    Reduces to 8 / (4 - 7 s) at rho = 1.
    """
    quart = 1.0 + 2.0 * rho + rho**2 + 2.0 * rho**3 + rho**4
    den = _den_factor(s, rho)
    if abs(den) <= 1e-12 * max(1.0, abs(s) * quart):
        raise AbsoluteEquilibriumError(
            f"(s, rho)=({s}, {rho}) lies on the zero-multiplier locus"
        )
    return float(-4.0 * (1.0 + rho) * rho**3 * (2.0 * rho**2 + 3.0 * rho + 2.0)
                 / (den * quart))


def _range_ends(rho):
    """Limits of the nontrivial eigenvalue at both ends of the positivity
    interval of s; rho may be a scalar or an array."""
    quart = 1.0 + 2.0 * rho + rho**2 + 2.0 * rho**3 + rho**4
    lo = 4.0 * (1.0 + rho) * rho**3 * (2.0 * rho**2 + 3.0 * rho + 2.0) / (
        (1.0 + 2.0 * rho + rho**2) * quart
    )
    hi = 4.0 * (2.0 * rho**2 + 3.0 * rho + 2.0) * (1.0 + rho) ** 2 / quart
    return lo, hi


def eigenvalue_range(rho: float) -> tuple[float, float]:
    """Open range swept by the nontrivial eigenvalue over positive masses.

    Endpoints are the limits at the two ends of the positivity interval of s;
    at rho = 1 this is (2, 16).  Valid for rho >= 1.
    """
    if rho < 1.0:
        raise SingularRhoError("eigenvalue_range expects rho >= 1")
    lo, hi = _range_ends(rho)
    return float(lo), float(hi)


def reachable_eigenvalues(rho_max: float = 100.0, samples: int = 10_000) -> set[int]:
    """Admissible values attained with positive masses for shapes in [1, rho_max]."""
    lo, hi = _range_ends(np.linspace(1.0, rho_max, samples))
    out = set()
    for v in admissible_values(float(hi.max()) + 1.0):
        if np.any((lo < v) & (v < hi)):
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# exceptional mass curves: the nontrivial eigenvalue equals an admissible k


def exceptional_masses(k, rho):
    """Mass triple on the exceptional curve for eigenvalue k at shape rho.

    Closed-form rational expressions; exact when called with Fractions or
    ints.  The masses sum to 1 and need not all be positive away from the
    symmetric point rho = 1.
    """
    _require_curve_eigenvalue(k, minimum=5)
    one = rho - rho + 1 if isinstance(rho, Fraction) else 1.0
    k = Fraction(k) if isinstance(rho, Fraction) else float(k)
    quad = (one + 2 * rho**3 + rho**4 + 2 * rho + rho**2) ** 2
    m1 = (rho + 1) * (
        -8 * rho**5 + k * rho**5 - 12 * rho**4 + 3 * k * rho**4
        - 8 * rho**3 + 3 * k * rho**3 + 3 * k * rho**2 + 3 * k * rho + k
    ) / (k * quad)
    m2 = -(
        -8 * rho**4 + k * rho**4 - 28 * rho**3 + 2 * k * rho**3
        + k * rho**2 - 40 * rho**2 - 28 * rho + 2 * k * rho - 8 + k
    ) * rho**2 / (k * quad)
    m3 = (rho + 1) * (
        k * rho**5 + 3 * k * rho**4 + 3 * k * rho**3 - 8 * rho**2
        + 3 * k * rho**2 - 12 * rho + 3 * k * rho - 8 + k
    ) * rho**2 / (k * quad)
    return m1, m2, m3


@dataclass
class ExceptionalPoint:
    """A point of an exceptional curve with its normalized configuration."""

    k: int
    rho: float
    masses: MassVector
    cc: CentralConfiguration
    spectrum: np.ndarray


def exceptional_point(k: int, rho: float) -> ExceptionalPoint:
    """Exceptional-curve masses plus the normalized cc and its spectrum.

    Raises FloatRangeError when |rho| is too large for the float mass formula,
    whose denominator grows as rho**8 and leaves the float range from about
    3e38 (an OverflowError, or an inf that makes a mass nan).
    """
    try:
        rho = float(rho)
        masses = np.array(exceptional_masses(float(k), rho))
    except OverflowError:
        masses = None
    if masses is None or not np.all(np.isfinite(masses)):
        raise FloatRangeError(f"rho = {rho} is beyond the float range of the exceptional masses")
    m = MassVector(masses)
    raw = CentralConfiguration.from_positions(m, np.array([-1.0, 0.0, rho]))
    cc = normalize_cc(raw)
    spec = hessian_w(cc.masses, cc.config).spectrum()
    return ExceptionalPoint(int(k), rho, cc.masses, cc, spec)


def _require_curve_eigenvalue(k, minimum=5):
    kk = float(k)
    idx = admissible_index(kk)
    if idx is None or kk < minimum:
        raise InvalidKError(f"eigenvalue {k} is not an admissible value >= {minimum}")


# ---------------------------------------------------------------------------
# order-2 obstruction along the exceptional curves with k in {5, 14}


def order2_vanishing_factor(k: float, rho: float) -> float:
    """(rho - 1) * P(rho) with P the positive-coefficient sextic for this k.

    The order-2 obstruction on the exceptional curve vanishes exactly where
    this factor does; for k in {5, 14} every coefficient of P is positive so
    rho = 1 is the only positive root.
    """
    p = (
        (k + 10)
        + (5 * k + 50) * rho
        + (8 * k + 120) * rho**2
        + (7 * k + 158) * rho**3
        + (8 * k + 120) * rho**4
        + (5 * k + 50) * rho**5
        + (k + 10) * rho**6
    )
    return (rho - 1.0) * p


def _eigenvector_for(cc: CentralConfiguration, target: float) -> np.ndarray:
    vals, vecs = hessian_w(cc.masses, cc.config).eigenpairs()
    idx = int(np.argmin(np.abs(vals - target)))
    if abs(vals[idx] - target) > 1e-6 * max(1.0, abs(target)):
        raise InvalidKError(f"no eigenvalue near {target} (closest {vals[idx]})")
    return vecs[:, idx]


def order2_obstruction_3body(k: int, rho: float) -> float:
    """Third-derivative contraction D^3 V(X_k, X_k, X_k) on the curve for k.

    X_k is the mass-orthonormal eigenvector of the nontrivial eigenvalue at
    the normalized cc, oriented with first nonzero component positive.  The
    value vanishes only at the symmetric shape rho = 1 when k is 5 or 14.
    """
    if k not in (5, 14):
        raise InvalidKError("order-2 obstruction conditions exist only for k in {5, 14}")
    pt = exceptional_point(k, rho)
    x3 = _eigenvector_for(pt.cc, float(k))
    return third_contract(pt.cc.masses, pt.cc.config, x3, x3, x3)


# ---------------------------------------------------------------------------
# order-3 obstruction for the k = 9 curve: a degree-14 certificate polynomial

ORDER3_EIG9_COEFFS = (
    179523957,
    1436191656,
    5144769684,
    11297844542,
    17938383865,
    23104821764,
    25814403801,
    26361946842,
    25814403801,
    23104821764,
    17938383865,
    11297844542,
    5144769684,
    1436191656,
    179523957,
)


def order3_obstruction_k9(rho):
    """Degree-14 certificate polynomial for the k = 9 curve, by Horner.

    Exact in integer arithmetic for int input.  All fifteen coefficients are
    positive, so there is no positive real root: the order-3 conditions have
    no solution on the curve.
    """
    acc = rho - rho  # zero of the caller's numeric type
    for c in reversed(ORDER3_EIG9_COEFFS):
        acc = acc * rho + c
    return acc


def order3_k9_positive_roots() -> dict:
    """Exact certificates that the k = 9 polynomial has no positive root."""
    return {
        "descartes_bound": descartes_positive_bound(ORDER3_EIG9_COEFFS),
        "sturm_count": count_real_roots(ORDER3_EIG9_COEFFS, 0, None),
    }


# ---------------------------------------------------------------------------
# planar embedding of colinear configurations


def planar_spectrum(masses, order=None) -> SpectrumReport:
    """Spectrum of the planar mass-scaled Hessian at a colinear cc.

    Embeds the Moulton configuration for the given positive masses on the
    x-axis of the plane.  In axis-major ordering the matrix is block diagonal,
    diag(A, -A/2) with A the one-dimensional matrix, so each colinear
    eigenvalue lambda > 2 contributes -lambda/2 < -1 and the verdict is
    always obstructed.
    """
    cc1 = moulton_solve(masses, order)
    n = cc1.masses.n
    coords = np.zeros((n, 2))
    coords[:, 0] = cc1.config.coords[:, 0]
    hw = hessian_w(cc1.masses, Configuration(coords))
    w = hw.matrix
    xs = np.arange(n) * 2
    ys = xs + 1
    a = w[np.ix_(xs, xs)]
    block_error = max(
        float(np.max(np.abs(w[np.ix_(xs, ys)]))),
        float(np.max(np.abs(w[np.ix_(ys, xs)]))),
        float(np.max(np.abs(w[np.ix_(ys, ys)] + 0.5 * a))),
    )
    return spectrum_report(hw.spectrum(), block_error=block_error)


# ---------------------------------------------------------------------------
# the odd eigenvalue family b(2b + 3)


def _odd_family_member(value: float, tol: float = _MATCH_TOL):
    if value < -tol:
        return None
    b0 = int((-3.0 + math.sqrt(max(9.0 + 8.0 * value, 0.0))) / 4.0)
    for b in range(max(b0 - 1, 0), b0 + 3):
        if abs(b * (2 * b + 3) - value) <= tol:
            return b
    return None


def odd_family_predicate(eigenvalues) -> bool:
    """True when all values are b(2b+3) for integers b with max B <= 2 min B + 1.

    Matching eigenvalue pairs force the cubic form to vanish identically on
    the invariant plane, which is what the order-2 exclusion then tests.
    """
    bs = []
    for v in eigenvalues:
        b = _odd_family_member(float(v))
        if b is None:
            return False
        bs.append(b)
    return max(bs) <= 2 * min(bs) + 1
