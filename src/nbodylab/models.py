"""Restricted n-body models that integrate in closed form, plus a simulator.

Two constructions are covered.  The planar 5-body model pins a mass -1/4 at
the origin with four unit masses kept antisymmetric in pairs; an orthogonal
change of variables splits the restricted flow into two independent Kepler
problems.  The spatial n+3 model rides a regular polygon of unit masses with
a balancing central mass and a symmetric vertical pair of masses 4*alpha; on
its three-dimensional invariant subspace only one inter-cluster distance
survives and the flow is a central-force problem.

The simulator integrates Hamilton's equations for small chart Hamiltonians
(and for full n-body systems) with conservation diagnostics attached.  Every
chart raises ``CollisionError`` when a surviving separation is
``COLLISION_FLOOR`` (1e-8, from ``potential``) or smaller; ``simulate`` turns
such a collision in the middle of a run into ``StepFailureError``.  Each
chart's floor test and message lives in one place: ``potential`` for
``NBodyChart``, ``_five_body_squares`` for the 5-body chart, ``_radius`` for
the central-force charts and the n+3 model.  The 5-body and central-force
``integrals`` put the closest state of a stack to that one test.

A chart's ``integrals`` takes one state, q and p of shape (dof,), and returns
Python floats, or a stack of S states, (S, dof) each, and returns (S,) arrays
whose rows carry the bits of the one-state call.  ``simulate`` evaluates the
whole integral series in one such call after the integration, so a run's cost
is almost all right-hand sides: one chart gradient each.

``simulate`` steps with ``_dop853``, the package's port of the DOP853 path of
``scipy.integrate.solve_ivp`` with ``t_eval``: the same steps, samples and
right-hand-side count, bit for bit, without loading scipy.  The stepper hands
the right-hand side a row of its stage matrix to fill: the velocities p / m go
into the first dof entries (``np.divide`` in place) and the chart gradient
into the rest, with no concatenated copy per evaluation.  The stepper keeps
per run what each step's interpolant needs and evaluates all output samples
in one pass after the last step; the states come back laid out as scipy's
``sol.y.T`` (C-ordered once a step holds two samples).  ``NBodyChart`` at
d >= 2 computes its mass products once and takes the gradient from
``potential``'s in-place pair kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _dop853
from .errors import CollisionError, StepFailureError
from .potential import (
    COLLISION_FLOOR,
    Configuration,
    MassVector,
    _gradient,
    _pair_distances,
    _pair_sum,
    _potential_batch,
    acceleration,
    eval_potential,
    gradient,
)

__all__ = [
    "FIVE_BODY_MASSES",
    "restricted_potential_5body",
    "decouple_matrix",
    "decouple_5body",
    "central_mass_cancellation_check",
    "polygon_alpha",
    "polygon_configuration",
    "absolute_equilibrium_check",
    "n3_masses",
    "n3_configuration",
    "n3_effective_potential",
    "InvariantSubspace",
    "five_body_subspace",
    "n3_subspace",
    "colinear_subspace",
    "check_invariant_subspace",
    "NBodyChart",
    "PairedOrbitsChart",
    "CentralForceChart",
    "RotatedChart",
    "TrajectoryRecord",
    "simulate",
    "circular_orbit_state",
    "kepler_period",
    "conic_residual",
    "five_body_midpoints",
]

FIVE_BODY_MASSES = MassVector(np.array([-0.25, 1.0, 1.0, 1.0, 1.0]))

# pair strength of each decoupled Kepler subsystem of the 5-body chart
FIVE_BODY_KAPPA = 2.0 ** -0.5


def _five_body_squares(q21, q22, q31, q32):
    """Squares of the two distances surviving on the 5-body chart; raises at the floor."""
    s1 = (q21 - q31) ** 2 + (q22 - q32) ** 2
    s2 = (q21 + q31) ** 2 + (q22 + q32) ** 2
    if min(s1, s2) <= COLLISION_FLOOR**2:
        raise CollisionError("chart point collapses a surviving distance")
    return s1, s2


def restricted_potential_5body(q4) -> float:
    """Potential of the 5-body model on its parallelogram chart.

    The chart is z = (q21, q22, q31, q32): positions of bodies 2 and 3, with
    bodies 4 and 5 at their antipodes and the -1/4 mass fixed at the origin.
    Only two mutual distances survive the cancellations; the full potential
    restricted to the subspace is exactly twice this chart value, and the
    unit-mass chart flow reproduces the restricted dynamics.
    """
    s1, s2 = _five_body_squares(*np.asarray(q4, dtype=float))
    return s1**-0.5 + s2**-0.5


def _restricted_gradient_5body(q4):
    # Python floats: the numpy-scalar arithmetic of the same formula, bit for
    # bit (both square with libm pow), without numpy's per-operation overhead
    q21, q22, q31, q32 = q4.tolist()
    s1, s2 = _five_body_squares(q21, q22, q31, q32)
    f1 = -(s1 ** -1.5)
    f2 = -(s2 ** -1.5)
    return np.array([
        f1 * (q21 - q31) + f2 * (q21 + q31),
        f1 * (q22 - q32) + f2 * (q22 + q32),
        -f1 * (q21 - q31) + f2 * (q21 + q31),
        -f1 * (q22 - q32) + f2 * (q22 + q32),
    ])


def decouple_matrix() -> np.ndarray:
    """Orthogonal map splitting the 5-body chart into two Kepler planes."""
    s = 2.0 ** -0.5
    return np.array([
        [s, 0.0, -s, 0.0],
        [0.0, s, 0.0, -s],
        [s, 0.0, s, 0.0],
        [0.0, s, 0.0, s],
    ])


def decouple_5body(q4):
    """Split a chart point into the two decoupled Kepler plane positions."""
    y = decouple_matrix() @ np.asarray(q4, dtype=float)
    return y[:2].copy(), y[2:].copy()


def central_mass_cancellation_check(r: float) -> float:
    """|central repulsion - antipodal attraction| at distance r, identically 0.

    A mass -1/4 at the origin repels a unit mass at distance r with force
    (1/4)/r^2, which equals the pull of a unit mass at the antipode, distance
    2r: 1/(2r)^2.
    """
    if r <= 0:
        raise ValueError("distance must be positive")
    return abs(0.25 / r**2 - 1.0 / (2.0 * r) ** 2)


# ---------------------------------------------------------------------------
# polygon equilibria and the n+3 model


def polygon_alpha(n: int) -> float:
    """Central mass magnitude balancing a unit regular n-gon of unit masses.

    With this mass at the center the net force on every vertex vanishes
    (absolute equilibrium): the value is one quarter of the cosecant sum.
    """
    if n < 2:
        raise ValueError("polygon needs at least 2 vertices")
    return 0.25 * sum(1.0 / math.sin(k * math.pi / n) for k in range(1, n))


def _polygon_vertices(n: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def polygon_configuration(n: int):
    """Unit n-gon of unit masses plus the balancing central mass.

    Returns (masses, configuration) with the center listed last; the whole
    arrangement is an absolute equilibrium.
    """
    coords = np.vstack([_polygon_vertices(n), np.zeros((1, 2))])
    masses = MassVector(np.concatenate([np.ones(n), [-polygon_alpha(n)]]))
    return masses, Configuration(coords)


def absolute_equilibrium_check(masses, coords) -> float:
    """Max-norm of the potential gradient over all bodies."""
    return float(np.max(np.abs(gradient(masses, coords))))


def n3_masses(n: int) -> MassVector:
    """Masses (1,...,1, -alpha, 4 alpha, 4 alpha) of the spatial n+3 model."""
    a = polygon_alpha(n)
    return MassVector(np.concatenate([np.ones(n), [-a, 4.0 * a, 4.0 * a]]))


def n3_configuration(n: int, beta: float = 1.0, theta: float = 0.0,
                     height: float = 1.0) -> Configuration:
    """Point of the n+3 invariant subspace: scaled/rotated polygon + pair.

    Bodies 1..n sit on the polygon dilated by beta and rotated by theta, the
    balancing mass sits at the origin, and the two masses 4*alpha sit at
    (0, 0, +-height).
    """
    coords = np.zeros((n + 3, 3))
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    coords[:n, :2] = beta * (_polygon_vertices(n) @ rot.T)
    coords[n + 1, 2] = height
    coords[n + 2, 2] = -height
    return Configuration(coords)


def n3_effective_potential(n: int, state3) -> float:
    """Central-force potential of the n+3 model on its 3-dim subspace.

    The chart coordinates are (first vertex x, first vertex y, height of the
    upper pair body); every cluster-internal interaction cancels and the
    remaining 2n cross terms share the single distance |state3|.  Equals the
    full potential restricted to the subspace exactly (no additive constant).
    """
    d = _radius(np.asarray(state3, dtype=float), "chart point collapses the cluster distance")
    return 8.0 * n * polygon_alpha(n) / d


# ---------------------------------------------------------------------------
# invariant subspaces


@dataclass
class InvariantSubspace:
    """Linear subspace of a configuration space with its mass vector.

    ``basis`` is (n*d, k) with orthonormal columns; flattening is body-major
    (body i, axis a) -> i*d + a.
    """

    masses: MassVector
    d: int
    basis: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.masses.n * self.d:
            raise ValueError("each subspace basis vector needs "
                             f"{self.masses.n * self.d} coordinates (bodies x d)")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(self.basis.shape[1]))) > 1e-12:
            raise ValueError("subspace basis is not orthonormal")

    def point(self, coeffs) -> Configuration:
        flat = self.basis @ np.asarray(coeffs, dtype=float)
        return Configuration(flat.reshape(-1, self.d))


def five_body_subspace() -> InvariantSubspace:
    """Parallelogram subspace of the planar 5-body model (dimension 4)."""
    basis = np.zeros((10, 4))
    s = 2.0 ** -0.5
    for col, (body, axis) in enumerate(((1, 0), (1, 1), (2, 0), (2, 1))):
        basis[body * 2 + axis, col] = s
        basis[(body + 2) * 2 + axis, col] = -s
    return InvariantSubspace(FIVE_BODY_MASSES, 2, basis, "five-body parallelogram")


def n3_subspace(n: int) -> InvariantSubspace:
    """Polygon rotation-dilation plus vertical-pair subspace (dimension 3)."""
    verts = _polygon_vertices(n)
    dof = 3 * (n + 3)
    basis = np.zeros((dof, 3))
    for i in range(n):
        basis[3 * i + 0, 0] = verts[i, 0]
        basis[3 * i + 1, 0] = verts[i, 1]
        basis[3 * i + 0, 1] = -verts[i, 1]
        basis[3 * i + 1, 1] = verts[i, 0]
    basis[:, 0] /= math.sqrt(n)
    basis[:, 1] /= math.sqrt(n)
    basis[3 * (n + 1) + 2, 2] = 2.0 ** -0.5
    basis[3 * (n + 2) + 2, 2] = -(2.0 ** -0.5)
    return InvariantSubspace(n3_masses(n), 3, basis, f"{n}+3 polygon-and-pair")


def colinear_subspace(masses) -> InvariantSubspace:
    """Axis subspace of a planar problem (all second coordinates zero)."""
    mv = masses if isinstance(masses, MassVector) else MassVector(masses)
    basis = np.zeros((2 * mv.n, mv.n))
    for i in range(mv.n):
        basis[2 * i, i] = 1.0
    return InvariantSubspace(mv, 2, basis, "colinear axis")


def check_invariant_subspace(sub: InvariantSubspace, samples: int = 50,
                             seed: int = 0, min_separation: float = 0.1) -> dict:
    """Max leakage of the acceleration field out of the subspace.

    Random points in the span are drawn with a rejection rule keeping all
    bodies at least min_separation apart; at each the acceleration vector is
    projected off the span and its relative norm recorded.
    """
    rng = np.random.default_rng(seed)
    b = sub.basis
    k = b.shape[1]
    leakages = []
    rejected = 0
    while len(leakages) < samples:
        coeffs = rng.normal(size=k) * rng.uniform(0.5, 2.0)
        cfg = sub.point(coeffs)
        if _pair_distances(cfg.coords)[1].min() < min_separation:
            rejected += 1
            if rejected > 100 * samples:
                raise RuntimeError("rejection sampling stalled")
            continue
        acc = acceleration(sub.masses, cfg).reshape(-1)
        norm = np.linalg.norm(acc)
        leak = np.linalg.norm(acc - b @ (b.T @ acc)) / max(norm, 1e-300)
        leakages.append(float(leak))
    return {
        "label": sub.label,
        "samples": len(leakages),
        "rejected": rejected,
        "max_leakage": max(leakages),
        "leakages": leakages,
    }


# ---------------------------------------------------------------------------
# chart Hamiltonians


def _state_stack(q, p):
    """C-contiguous (S, dof) stacks of q and p, and whether q was one state."""
    single = np.ndim(q) == 1
    q = np.ascontiguousarray(np.atleast_2d(q), dtype=float)
    p = np.ascontiguousarray(np.atleast_2d(p), dtype=float)
    return q, p, single


def _integral_values(out: dict, single: bool) -> dict:
    """Python floats for one state, (S,) arrays for a stack."""
    return {name: float(v[0]) for name, v in out.items()} if single else out


def _row_norms(y: np.ndarray) -> np.ndarray:
    """|y_s| of each row of a C-contiguous (S, k) stack, bit for bit np.linalg.norm.

    A stacked matmul of each row with itself is the BLAS dot product that
    norm takes of one vector; (y * y).sum(1) and einsum round differently.
    """
    return np.sqrt(np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0])


def _stack_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x_s of each row of an (S, k) stack, bit for bit the single matvec."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


class NBodyChart:
    """Full n-body system in d dimensions as a chart Hamiltonian."""

    def __init__(self, masses, d: int):
        self.masses = masses if isinstance(masses, MassVector) else MassVector(masses)
        self.d = d
        self.dof = self.masses.n * d
        self.dof_masses = np.repeat(self.masses.values, d)
        self.name = f"{self.masses.n}-body d={d}"
        self._mass_products = np.multiply.outer(self.masses.values, self.masses.values)

    def _config(self, q):
        return Configuration(np.asarray(q, dtype=float).reshape(-1, self.d))

    def potential(self, q) -> float:
        return eval_potential(self.masses, self._config(q))

    def gradient(self, q) -> np.ndarray:
        # runs on every right-hand side, so it builds no Configuration:
        # finiteness is the one check of its that the kernel would miss
        q = np.asarray(q, dtype=float)
        if not np.isfinite(q).all():
            raise ValueError("coordinates must be finite")
        q = q.reshape(-1, self.d)
        if self.d == 1:
            return _gradient(self.masses.values, q).reshape(-1)
        return _pair_sum(self._mass_products, q).reshape(-1)

    def min_separation(self, q) -> float:
        return float(_pair_distances(self._config(q).coords)[1].min())

    def integrals(self, q, p) -> dict:
        q, p, single = _state_stack(q, p)
        c = q.reshape(q.shape[0], -1, self.d)
        mom = p.reshape(c.shape)
        kinetic = (p**2 / (2.0 * self.dof_masses)).sum(axis=1)
        out = {"energy": kinetic - _potential_batch(self.masses.values, c)}
        # each axis's momenta as a contiguous row: summed in a single state's order
        total = np.ascontiguousarray(mom.transpose(0, 2, 1)).sum(axis=2)
        for a in range(self.d):
            out[f"momentum_{'xyz'[a]}"] = total[:, a]
        if self.d == 2:
            out["angular_momentum"] = (
                c[:, :, 0] * mom[:, :, 1] - c[:, :, 1] * mom[:, :, 0]).sum(axis=1)
        elif self.d == 3:
            ell = np.cross(c, mom).sum(axis=1)
            for a in range(3):
                out[f"angular_momentum_{'xyz'[a]}"] = ell[:, a]
        return _integral_values(out, single)


class PairedOrbitsChart:
    """5-body parallelogram chart: two decoupled Kepler problems.

    State is z = (q21, q22, q31, q32) with unit chart masses; the integrals
    are the two decoupled plane energies and angular momenta.
    """

    dof = 4
    name = "five-body paired orbits"

    def __init__(self):
        self.dof_masses = np.ones(4)
        self._mix = decouple_matrix()

    def potential(self, q) -> float:
        return restricted_potential_5body(q)

    def gradient(self, q) -> np.ndarray:
        return _restricted_gradient_5body(np.asarray(q, dtype=float))

    def min_separation(self, q) -> float:
        y1, y2 = decouple_5body(q)
        return math.sqrt(2.0) * min(np.linalg.norm(y1), np.linalg.norm(y2))

    def integrals(self, q, p) -> dict:
        q, p, single = _state_stack(q, p)
        y = _stack_matvec(self._mix, q)
        w = _stack_matvec(self._mix, p)
        r1 = _row_norms(np.ascontiguousarray(y[:, :2]))
        r2 = _row_norms(np.ascontiguousarray(y[:, 2:]))
        # the sample closest to a collision takes the gradient's floor test
        _five_body_squares(*q[np.argmin(np.minimum(r1, r2))].tolist())
        # squares in Python floats: libm pow, as the energy of one state was
        # always squared; w * w and array powers differ in the last bit
        kin = np.array([(0.5 * (a**2 + b**2), 0.5 * (c**2 + d**2))
                        for a, b, c, d in w.tolist()])
        e1 = kin[:, 0] - FIVE_BODY_KAPPA / r1
        e2 = kin[:, 1] - FIVE_BODY_KAPPA / r2
        return _integral_values({
            "pair_energy_1": e1,
            "pair_energy_2": e2,
            "pair_angular_momentum_1": y[:, 0] * w[:, 1] - y[:, 1] * w[:, 0],
            "pair_angular_momentum_2": y[:, 2] * w[:, 3] - y[:, 3] * w[:, 2],
            "energy": e1 + e2,
        }, single)


def _radius(q: np.ndarray, message: str = "central-force chart at the origin") -> float:
    """|q| of one state, raising CollisionError(message) at or below the floor.

    math.sqrt(q @ q) is the BLAS dot np.linalg.norm takes, without its overhead.
    """
    r = math.sqrt(q @ q)
    if r <= COLLISION_FLOOR:
        raise CollisionError(message)
    return r


class CentralForceChart:
    """Single particle, unit mass, potential kappa/|q|."""

    def __init__(self, kappa: float, dof: int = 3, name: str = "central force"):
        self.kappa = float(kappa)
        self.dof = dof
        self.dof_masses = np.ones(dof)
        self.name = name

    def potential(self, q) -> float:
        return self.kappa / _radius(np.asarray(q, dtype=float))

    def gradient(self, q) -> np.ndarray:
        qa = np.asarray(q, dtype=float)
        return -self.kappa * qa / _radius(qa)**3

    def min_separation(self, q) -> float:
        qa = np.asarray(q, dtype=float)
        return math.sqrt(qa @ qa)

    def integrals(self, q, p) -> dict:
        q, p, single = _state_stack(q, p)
        r = _row_norms(q)  # each row bit for bit _radius's |q|
        _radius(q[np.argmin(r)])  # raises if the closest sample does
        out = {"energy": 0.5 * (p**2).sum(axis=1) - self.kappa / r}
        if self.dof == 2:
            out["angular_momentum"] = q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]
        elif self.dof == 3:
            ell = np.cross(q, p)
            for a in range(3):
                out[f"angular_momentum_{'xyz'[a]}"] = ell[:, a]
        return _integral_values(out, single)


class RotatedChart:
    """Chart seen through an orthogonal change of variables q -> R q."""

    def __init__(self, inner, rot):
        rot = np.asarray(rot, dtype=float)
        if np.max(np.abs(rot @ rot.T - np.eye(rot.shape[0]))) > 1e-12:
            raise ValueError("rotation matrix is not orthogonal")
        if not np.allclose(inner.dof_masses, inner.dof_masses[0]):
            raise ValueError("orthogonal carrier needs equal chart masses")
        self.inner = inner
        self.rot = rot
        self.dof = inner.dof
        self.dof_masses = inner.dof_masses
        self.name = f"{inner.name} (rotated)"

    def potential(self, q):
        return self.inner.potential(self.rot @ np.asarray(q, dtype=float))

    def gradient(self, q):
        return self.rot.T @ self.inner.gradient(self.rot @ np.asarray(q, dtype=float))

    def min_separation(self, q):
        return self.inner.min_separation(self.rot @ np.asarray(q, dtype=float))

    def integrals(self, q, p):
        q, p, single = _state_stack(q, p)
        inner = self.inner.integrals(_stack_matvec(self.rot, q), _stack_matvec(self.rot, p))
        return _integral_values(inner, single)


# ---------------------------------------------------------------------------
# simulation


@dataclass
class TrajectoryRecord:
    """Sampled Hamiltonian trajectory with conservation diagnostics.

    ``states`` stacks positions then momenta per row; ``drift`` maps each
    declared integral to max |I(t) - I(0)| / |I(0)| (absolute when I(0) is
    numerically zero).
    """

    chart_name: str
    times: np.ndarray
    states: np.ndarray
    integral_names: list
    integral_series: np.ndarray
    drift: dict = field(init=False)
    rhs_evaluations: int = 0

    def __post_init__(self):
        ref = self.integral_series[0]
        dev = np.max(np.abs(self.integral_series - ref[None, :]), axis=0)
        scale = np.where(np.abs(ref) > 1e-12, np.abs(ref), 1.0)
        self.drift = {
            name: float(dev[i] / scale[i]) for i, name in enumerate(self.integral_names)
        }

    def positions(self) -> np.ndarray:
        return self.states[:, : self.states.shape[1] // 2]

    def momenta(self) -> np.ndarray:
        return self.states[:, self.states.shape[1] // 2:]


def simulate(chart, q0, p0, t_end: float, rtol: float = 1e-12,
             samples: int = 2001) -> TrajectoryRecord:
    """Integrate Hamilton's equations on a chart with an 8th-order scheme.

    Adaptive embedded Runge-Kutta of order 8 (DOP853, ``_dop853``) with tight
    tolerances (``rtol``, absolute 1e-13) keeps the declared first integrals
    near machine accuracy; ``samples`` equally spaced times from 0 to ``t_end``
    are output.  A ``t_end`` that is not finite and > 0, a non-finite initial
    state or ``samples`` below 1 raise ValueError before any step is taken.
    An initial state at or below the collision floor raises CollisionError;
    the chart gradient is the right-hand side's only collision guard, and a
    CollisionError from it in the middle of the run becomes StepFailureError.
    When the integrator stops for another reason (say, the step size
    underflows on the way into a collision), the StepFailureError names the
    time and the smallest separation of the last state the right-hand side saw.

    The declared integrals of all samples come from one stacked
    ``chart.integrals`` call after the integration, with the bits of a
    sample-by-sample evaluation; a sample at the collision floor raises the
    CollisionError that sample's own evaluation raises.
    """
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if q0.shape != (chart.dof,) or p0.shape != (chart.dof,):
        raise ValueError(f"state must have {chart.dof} positions and momenta")
    if not (np.isfinite(q0).all() and np.isfinite(p0).all()):
        raise ValueError("initial state must be finite")
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be a finite number > 0, not {t_end}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if chart.min_separation(q0) <= COLLISION_FLOOR:
        raise CollisionError("initial state at or below the collision floor")
    dof, dof_masses, chart_gradient = chart.dof, chart.dof_masses, chart.gradient
    nev = 0
    last = (0.0, q0)  # time and positions of the latest RHS evaluation

    def rhs(t, state, out):
        nonlocal nev, last
        nev += 1
        q = state[:dof]
        last = (t, q)
        try:
            out[dof:] = chart_gradient(q)
        except CollisionError as exc:
            raise StepFailureError(f"collision floor reached during a step: {exc}") from exc
        np.divide(state[dof:], dof_masses, out=out[:dof])

    times = np.linspace(0.0, t_end, samples)
    try:
        states = _dop853.integrate(rhs, np.concatenate([q0, p0]), t_end, times,
                                   rtol, atol=1e-13)
    except _dop853.StepUnderflow as exc:
        t_last, q_last = last
        raise StepFailureError(
            f"integrator stopped at t = {t_last:.6g}, smallest separation "
            f"{chart.min_separation(q_last):.3g}: {exc}") from None
    # one pass over all samples; each row gets the bits of a one-state call
    vals = chart.integrals(states[:, :dof], states[:, dof:])
    names = list(vals)
    series = np.column_stack([vals[name] for name in names])
    return TrajectoryRecord(chart.name, times, states, names, series, nev)


def circular_orbit_state(kappa: float, radius: float, mass: float = 1.0):
    """Planar circular orbit of the -kappa/r Hamiltonian: (q2, p2, period)."""
    speed = math.sqrt(kappa / (mass * radius))
    q = np.array([radius, 0.0])
    p = np.array([0.0, mass * speed])
    return q, p, kepler_period(kappa, radius, mass)


def kepler_period(kappa: float, semi_major: float, mass: float = 1.0) -> float:
    return 2.0 * math.pi * math.sqrt(mass * semi_major**3 / kappa)


def conic_residual(points) -> float:
    """Normalized residual of a focal-conic fit 1/r = A + B cos + C sin.

    Least squares over the sampled planar points with the focus at the
    origin; the max deviation is scaled by the mean inverse radius.  Kepler
    arcs fit to integrator accuracy, anything else does not.
    """
    pts = np.asarray(points, dtype=float)
    r = np.sqrt((pts**2).sum(axis=1))
    if np.min(r) <= COLLISION_FLOOR:
        raise CollisionError("conic sample at the focus")
    u = 1.0 / r
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    design = np.column_stack([np.ones_like(u), np.cos(theta), np.sin(theta)])
    coef, *_ = np.linalg.lstsq(design, u, rcond=None)
    resid = np.abs(design @ coef - u)
    return float(resid.max() / u.mean())


def five_body_midpoints(record: TrajectoryRecord):
    """Side-center trajectories of the parallelogram, one per Kepler plane."""
    mix = decouple_matrix()
    y = record.positions() @ mix.T
    s = 2.0 ** -0.5
    return s * y[:, :2], s * y[:, 2:]
