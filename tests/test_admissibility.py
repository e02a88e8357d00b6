"""Spectral admissibility, exceptional curves, higher-order obstructions."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from nbodylab.admissibility import (
    ORDER3_EIG9_COEFFS,
    admissible_index,
    admissible_values,
    eigenvalue_range,
    exceptional_masses,
    exceptional_point,
    nontrivial_eigenvalue,
    odd_family_predicate,
    order2_obstruction_3body,
    order2_vanishing_factor,
    order3_k9_positive_roots,
    order3_obstruction_k9,
    planar_spectrum,
    reachable_eigenvalues,
    spectrum_report,
)
from nbodylab.central import (
    CentralConfiguration,
    masses_from_rho,
    normalize_cc,
    positivity_interval,
)
from nbodylab.errors import FloatRangeError, InvalidKError
from nbodylab.potential import MassVector, hessian_w


def test_admissible_ladder_prefix():
    assert admissible_values(66.0) == [-1, 0, 2, 5, 9, 14, 20, 27, 35, 44, 54, 65]


def test_admissible_index_hits_and_misses():
    assert admissible_index(5.0) == 3
    assert admissible_index(-1.0) == 0
    assert admissible_index(5.0 + 5e-9) == 3
    assert admissible_index(4.9) is None
    assert admissible_index(3.0) is None


def test_spectrum_report_flags_nonmembers():
    rep = spectrum_report([0.0, 2.0, 4.8])
    assert rep.matches[:2] == [1, 2] and rep.matches[2] is None
    assert rep.obstructed
    clean = spectrum_report([0.0, 2.0, 14.0])
    assert not clean.obstructed


def test_equal_mass_eigenvalue_is_24_over_5():
    npt.assert_allclose(nontrivial_eigenvalue(1.0 / 3.0, 1.0), 4.8, rtol=1e-14)


def test_closed_form_eigenvalue_matches_eigensolver():
    rng = np.random.default_rng(31)
    for _ in range(25):
        rho = rng.uniform(1.0, 6.0)
        lo, hi = positivity_interval(rho)
        s = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        mv = masses_from_rho(rho, s)
        cc = normalize_cc(CentralConfiguration.from_positions(
            mv, np.array([-1.0, 0.0, rho])))
        spec = hessian_w(cc.masses, cc.config).spectrum()
        npt.assert_allclose(spec[:2], [0.0, 2.0], atol=1e-9)
        npt.assert_allclose(spec[2], nontrivial_eigenvalue(s, rho), rtol=1e-9)


def test_eigenvalue_range_at_symmetric_shape():
    lo, hi = eigenvalue_range(1.0)
    npt.assert_allclose([lo, hi], [2.0, 16.0], rtol=1e-12)


def test_eigenvalue_range_brackets_samples():
    rng = np.random.default_rng(32)
    for rho in (1.0, 1.9, 4.0):
        lo, hi = eigenvalue_range(rho)
        slo, shi = positivity_interval(rho)
        for _ in range(40):
            s = rng.uniform(slo + 1e-6, shi - 1e-6 * shi)
            val = nontrivial_eigenvalue(s, rho)
            assert lo - 1e-9 <= val <= hi + 1e-9


def test_eigenvalue_monotone_in_mass_parameter():
    # finite differences at 100 interior points, several shapes
    for rho in (1.0, 1.7, 3.2, 10.0):
        slo, shi = positivity_interval(rho)
        ss = np.linspace(slo, shi, 102)[1:-1]
        vals = np.array([nontrivial_eigenvalue(s, rho) for s in ss])
        assert np.all(np.diff(vals) > 0)


def test_reachable_set_small_window():
    assert reachable_eigenvalues(rho_max=20.0, samples=2000) == {5, 9, 14}


@pytest.mark.parametrize("k,expected", [
    (5, (Fraction(12, 35), Fraction(11, 35), Fraction(12, 35))),
    (9, (Fraction(4, 9), Fraction(1, 9), Fraction(4, 9))),
    (14, (Fraction(24, 49), Fraction(1, 49), Fraction(24, 49))),
])
def test_exceptional_masses_exact_at_symmetric_shape(k, expected):
    masses = exceptional_masses(k, Fraction(1))
    assert tuple(masses) == expected


def test_exceptional_masses_float_path_matches_exact():
    for k in (5, 9, 14):
        exact = [float(m) for m in exceptional_masses(k, Fraction(3, 2))]
        approx = list(exceptional_masses(float(k), 1.5))
        npt.assert_allclose(approx, exact, rtol=1e-12)


def test_exceptional_masses_rejects_non_curve_values():
    with pytest.raises(InvalidKError):
        exceptional_masses(7, 1.0)
    with pytest.raises(InvalidKError):
        exceptional_masses(2, 1.0)


def test_exceptional_point_spectrum_law():
    rng = np.random.default_rng(33)
    for _ in range(60):
        k = int(rng.choice([5, 9, 14]))
        rho = rng.uniform(1.0, 10.0)
        pt = exceptional_point(k, rho)
        npt.assert_allclose(np.sort(pt.spectrum), [0.0, 2.0, float(k)], atol=1e-8)


def test_order2_factor_matches_polynomial_freeze():
    # factor = (rho-1) * sum of (k+10, 5k+50, 8k+120, 7k+158, ...) rho^j
    k, rho = 5.0, 2.0
    coeffs = (k + 10, 5 * k + 50, 8 * k + 120, 7 * k + 158,
              8 * k + 120, 5 * k + 50, k + 10)
    horner = 0.0
    for c in reversed(coeffs):
        horner = horner * rho + c
    npt.assert_allclose(order2_vanishing_factor(k, rho), (rho - 1) * horner,
                        rtol=1e-13)


@pytest.mark.parametrize("k", [5, 14])
def test_order2_obstruction_vanishes_only_at_symmetric_shape(k):
    assert abs(order2_obstruction_3body(k, 1.0)) <= 1e-9
    assert abs(order2_obstruction_3body(k, 2.0)) > 1e-3


@pytest.mark.parametrize("k,rho", [(5, 1.3), (5, 2.0), (14, 1.3), (14, 2.0)])
def test_order2_obstruction_sign_matches_closed_form_factor(k, rho):
    val = order2_obstruction_3body(k, rho)
    assert np.sign(val) == np.sign(order2_vanishing_factor(k, rho))


def test_order2_obstruction_rejects_k9():
    with pytest.raises(InvalidKError):
        order2_obstruction_3body(9, 1.5)


def test_order3_coefficients_frozen():
    assert len(ORDER3_EIG9_COEFFS) == 15
    assert ORDER3_EIG9_COEFFS == tuple(reversed(ORDER3_EIG9_COEFFS))  # palindrome
    assert sum(ORDER3_EIG9_COEFFS) == 196193825380
    assert order3_obstruction_k9(1) == 196193825380
    assert order3_obstruction_k9(2) == 101891459218773


def test_order3_exact_fraction_evaluation():
    val = order3_obstruction_k9(Fraction(1, 2))
    assert isinstance(val, Fraction)
    assert val > 0


def test_order3_no_positive_roots():
    report = order3_k9_positive_roots()
    assert report["descartes_bound"] == 0
    assert report["sturm_count"] == 0


def test_order3_no_sign_change_dense_sampling():
    xs = np.linspace(1e-4, 100.0, 100_000)
    vals = np.polyval(list(reversed(ORDER3_EIG9_COEFFS)), xs)
    assert np.all(vals > 0)


def test_planar_spectrum_equal_masses_frozen():
    rep = planar_spectrum(MassVector(np.ones(3)))
    npt.assert_allclose(rep.eigenvalues, [-2.4, -1.0, 0.0, 0.0, 2.0, 4.8],
                        atol=1e-9)
    assert rep.block_error <= 1e-10
    assert rep.obstructed


def test_planar_spectrum_random_masses_always_below_minus_one():
    rng = np.random.default_rng(34)
    for n in (3, 4):
        for _ in range(10):
            rep = planar_spectrum(MassVector(rng.uniform(0.2, 3.0, size=n)))
            assert rep.block_error <= 1e-10
            assert rep.eigenvalues.min() < -1.0


@pytest.mark.parametrize("values,expected", [
    ((5.0, 14.0), True),
    ((14.0, 44.0), True),
    ((5.0, 27.0), True),
    ((5.0, 44.0), False),
    ((2.0, 5.0), False),
    ((0.0, 5.0, 14.0), False),
    ((9.0, 27.0), False),
])
def test_odd_family_predicate(values, expected):
    assert odd_family_predicate(values) is expected


@pytest.mark.parametrize("rho", [3.3e38, 1e40, -1e40, 1e300])
def test_exceptional_point_beyond_the_float_range_raises_a_typed_error(rho):
    # at 3.3e38 k * rho**8 is inf and a mass is nan; from 1e40 rho**8 overflows
    with pytest.raises(FloatRangeError):
        exceptional_point(5, rho)
