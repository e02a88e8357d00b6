"""Acceptance gate: one test per published criterion, with runtime limits.

Every test prints a PASS line with its elapsed time so a full run documents
both the numerical outcome and the budget it was obtained in.
"""

import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from nbodylab.admissibility import (
    ORDER3_EIG9_COEFFS,
    exceptional_point,
    order2_obstruction_3body,
    order3_k9_positive_roots,
    order3_obstruction_k9,
    planar_spectrum,
    reachable_eigenvalues,
)
from nbodylab.cli import main
from nbodylab.fourbody import (
    classify_pairs,
    enumerate_pairs,
    pair_feasibility,
    trace_sweep,
)
from nbodylab.models import (
    FIVE_BODY_KAPPA,
    CentralForceChart,
    PairedOrbitsChart,
    absolute_equilibrium_check,
    check_invariant_subspace,
    circular_orbit_state,
    conic_residual,
    decouple_matrix,
    five_body_midpoints,
    kepler_period,
    n3_subspace,
    polygon_alpha,
    polygon_configuration,
    simulate,
)
from nbodylab.potential import (
    Configuration,
    MassVector,
    eval_potential,
    gradient,
    hessian_w,
    third_contract,
)

NONSYM_EXCLUDED = {
    (9, 9), (9, 14), (14, 14), (14, 20), (14, 27), (14, 35),
    (20, 20), (20, 27), (20, 35), (20, 44), (27, 27), (27, 35),
}
SYM_FEASIBLE = {(5, 9), (5, 14), (9, 27), (14, 44)}
ORDER2_EXCLUDED = {(5, 5), (5, 14), (5, 27), (14, 44)}


def _finish(number, detail, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"PASS criterion {number}: {detail} ({elapsed:.2f} s)")


def test_criterion_01_exceptional_masses_exact(tmp_path, capsys):
    started = time.perf_counter()
    expect = {5: [(12, 35), (11, 35), (12, 35)],
              14: [(24, 49), (1, 49), (24, 49)]}
    for k, target in expect.items():
        out = tmp_path / f"k{k}"
        assert main(["ek", "--k", str(k), "--rho", "1", "--out", str(out)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().splitlines()[-1])
        payload = json.loads((run_dir / "ek.json").read_text())
        got = [(m["numerator"], m["denominator"]) for m in payload["masses"]]
        assert got == target
        for m, (num, den) in zip(payload["masses"], target):
            assert abs(m["value"] - num / den) <= 1e-15
    with capsys.disabled():
        _finish(1, "ek masses exact for k=5 and k=14 at rho=1", started, 1.0)


def test_criterion_02_spectrum_law_randomized():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.choice([5, 9, 14]))
        rho = float(rng.uniform(1.0, 10.0))
        spec = np.sort(exceptional_point(k, rho).spectrum)
        worst = max(worst, float(np.max(np.abs(spec - [0.0, 2.0, k]))))
    assert worst <= 1e-8
    _finish(2, f"1000 spectra match {{0,2,k}}, worst error {worst:.2e}",
            started, 10.0)


def test_criterion_03_reachable_admissible_values():
    started = time.perf_counter()
    hit = reachable_eigenvalues(100.0, 10_000)
    assert hit == {5, 9, 14}
    _finish(3, "reachable admissible values are exactly {5, 9, 14}", started, 30.0)


def test_criterion_04_order2_obstruction_vanishing():
    started = time.perf_counter()
    for k in (5, 14):
        at_one = abs(order2_obstruction_3body(k, 1.0))
        at_two = abs(order2_obstruction_3body(k, 2.0))
        assert at_one <= 1e-9, f"k={k}: obstruction {at_one:.2e} at rho=1"
        assert at_two > 1e-3, f"k={k}: obstruction {at_two:.2e} at rho=2"
    _finish(4, "order-2 contraction vanishes at rho=1 only", started, 5.0)


def test_criterion_05_order3_polynomial_certificates():
    started = time.perf_counter()
    roots = order3_k9_positive_roots()
    assert roots["sturm_count"] == 0
    value = order3_obstruction_k9(1)
    assert isinstance(value, int)
    assert value == sum(ORDER3_EIG9_COEFFS)
    _finish(5, "k=9 polynomial: Sturm count 0, integer sum matches", started, 1.0)


def test_criterion_06_trace_sweep_bound():
    started = time.perf_counter()
    result = trace_sweep(rho_max=20.0, cells=400, jobs=8, refine=True)
    assert 69.5 <= result.global_max < 70.0
    assert abs(result.global_max - 69.74) <= 0.1
    assert result.violations == []
    assert "numerical evidence" in result.caveat
    _finish(6, f"sweep max {result.global_max:.6f} < 70, no violations",
            started, 600.0)


def test_criterion_07_pair_pipeline():
    started = time.perf_counter()
    pairs = enumerate_pairs()
    assert len(pairs) == 26
    classified = classify_pairs(rho_max=20.0, cells=240)
    excluded = {c.pair for c in classified if c.status == "excluded-by-Z0"}
    order2 = {c.pair for c in classified if c.status == "order2-excluded"}
    assert excluded == NONSYM_EXCLUDED
    assert order2 == ORDER2_EXCLUDED
    sym = {c.pair for c in (pair_feasibility(p.pair, symmetric=True)
                            for p in pairs) if c.status == "feasible"}
    assert sym == SYM_FEASIBLE
    _finish(7, "26 pairs; 12 Z0-excluded; 4 symmetric-feasible; 4 order-2-excluded",
            started, 300.0)


def test_criterion_08_planar_verdicts():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    for n in (3, 4):
        for _ in range(50):
            masses = MassVector(rng.uniform(0.2, 3.0, n))
            rep = planar_spectrum(masses)
            assert rep.block_error <= 1e-10
            assert rep.eigenvalues.min() < -1.0 - 1e-8
    _finish(8, "100 random planar spectra all obstructed (eigenvalue < -1)",
            started, 30.0)


def test_criterion_09_five_body_long_run():
    started = time.perf_counter()
    mix = decouple_matrix()
    r1, r2 = 1.0, 1.3
    q1, p1, t1 = circular_orbit_state(FIVE_BODY_KAPPA, r1)
    q2, p2, t2 = circular_orbit_state(FIVE_BODY_KAPPA, r2)
    q0 = mix.T @ np.concatenate([q1, q2])
    p0 = mix.T @ np.concatenate([p1, p2])
    rec = simulate(PairedOrbitsChart(), q0, p0, 100.0 * max(t1, t2),
                   samples=6001)
    for name in ("pair_energy_1", "pair_energy_2",
                 "pair_angular_momentum_1", "pair_angular_momentum_2"):
        assert rec.drift[name] <= 1e-9, f"{name} drift {rec.drift[name]:.2e}"
    mid1, mid2 = five_body_midpoints(rec)
    assert conic_residual(mid1) <= 1e-6
    assert conic_residual(mid2) <= 1e-6
    _finish(9, "100-period 5-body run: integrals hold, midpoints on conics",
            started, 60.0)


def test_criterion_10_n3_model_family():
    started = time.perf_counter()
    for n in range(3, 9):
        masses, cfg = polygon_configuration(n)
        assert absolute_equilibrium_check(masses, cfg) <= 1e-10
        leak = check_invariant_subspace(n3_subspace(n))["max_leakage"]
        assert leak <= 1e-9, f"n={n}: leakage {leak:.2e}"
        kappa = 8.0 * n * polygon_alpha(n)
        q2, p2, period = circular_orbit_state(kappa, 1.5)
        rec = simulate(CentralForceChart(kappa, dof=3),
                       np.array([q2[0], q2[1], 0.0]),
                       np.array([p2[0], p2[1], 0.0]),
                       10.0 * period, samples=801)
        assert rec.drift["energy"] <= 1e-9
    _finish(10, "n=3..8: equilibria balance, subspaces hold, energy conserved",
            started, 60.0)


def test_criterion_11_derivative_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(1111)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        coords = rng.uniform(-2.0, 2.0, (n, d))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 0.3:
            continue
        masses = MassVector(rng.uniform(0.2, 3.0, n))
        cfg = Configuration(coords)
        h = 1e-6

        grad = gradient(masses, cfg).reshape(-1)
        fd_grad = np.empty(n * d)
        for i in range(n * d):
            shift = np.zeros(n * d)
            shift[i] = h
            fd_grad[i] = (
                eval_potential(masses, Configuration(coords + shift.reshape(n, d)))
                - eval_potential(masses, Configuration(coords - shift.reshape(n, d)))
            ) / (2.0 * h)
        npt.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-5)

        # plain Hessian: mass-scaled rows undone with the row body's mass
        hess = np.repeat(masses.values, d)[:, None] * hessian_w(masses, cfg).matrix
        x, y, z = rng.normal(size=(3, n * d))
        fd_quad = (
            gradient(masses, Configuration((coords.reshape(-1) + h * y).reshape(n, d)))
            - gradient(masses, Configuration((coords.reshape(-1) - h * y).reshape(n, d)))
        ).reshape(-1) / (2.0 * h)
        npt.assert_allclose(hess @ y, fd_quad, rtol=1e-5, atol=1e-5)

        third = third_contract(masses, cfg, x, y, z)
        hp = np.repeat(masses.values, d)[:, None] * hessian_w(
            masses, Configuration((coords.reshape(-1) + h * z).reshape(n, d))).matrix
        hm = np.repeat(masses.values, d)[:, None] * hessian_w(
            masses, Configuration((coords.reshape(-1) - h * z).reshape(n, d))).matrix
        fd_third = x @ ((hp - hm) / (2.0 * h)) @ y
        npt.assert_allclose(third, fd_third, rtol=1e-5,
                            atol=1e-5 * max(1.0, abs(third)))
        checked += 1
    _finish(11, "gradient, Hessian and third tensor match finite differences",
            started, 30.0)
