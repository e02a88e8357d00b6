"""The four benchmark workloads: inputs from a seed, ops, output checks.

Each workload builds its inputs from the seed alone, warms up, and then
hands the worker the same list of ops for every round.  After a round the
worker calls `collect` (parse the outputs into plain data, untimed) and
`check` (compare that data with computations made apart from the program, or
with properties the method must have).  `check` returns a list of problems,
each starting with the id of the check that found it, so a self-test can
perturb one output and see the matching check reject it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# the paper's eigenvalue-pair elimination (rho_max 20)
Z0_EXCLUDED = {
    (9, 9), (9, 14), (14, 14), (14, 20), (14, 27), (14, 35),
    (20, 20), (20, 27), (20, 35), (20, 44), (27, 27), (27, 35),
}
ORDER2_EXCLUDED = {(5, 5), (5, 14), (5, 27), (14, 44)}
SYM_FEASIBLE = {(5, 9), (5, 14), (9, 27), (14, 44)}


@dataclass
class Op:
    """One timed call.  `expect_fail` marks the kept raw-scale Moulton ops."""

    label: str
    fn: Callable[[], object]
    expect_fail: bool = False
    meta: dict = field(default_factory=dict)


@dataclass
class CliRun:
    code: int
    run_dir: Path | None
    stderr: str


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def op_failed(out, err) -> bool:
    return err is not None or (isinstance(out, CliRun) and out.code != 0)


def _close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class CliWorkload:
    """Shared plumbing for workloads that call `nbodylab.cli.main` in-process."""

    def __init__(self, workdir: Path):
        from nbodylab import cli

        self.cli = cli
        self.workdir = workdir

    def run_cli(self, argv: list[str], out: Path) -> CliRun:
        # every op gets its own --out, so two runs in the same second never
        # share a run directory
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        dirs = [p for p in out.iterdir() if p.is_dir()] if out.is_dir() else []
        return CliRun(code, dirs[0] if len(dirs) == 1 else None, stderr.getvalue())

    @staticmethod
    def read_json(run: CliRun, name: str):
        if run.run_dir is None or not (run.run_dir / name).is_file():
            return None
        return json.loads((run.run_dir / name).read_text(encoding="utf-8"))

    @staticmethod
    def csv_bytes(round_dir: Path) -> int:
        return sum(p.stat().st_size for p in round_dir.rglob("*.csv"))


# ---------------------------------------------------------------------------
# pairs: classify_pairs, then the symmetric pass over all 26 pairs


class Pairs:
    """The colinear 4-body eigenvalue-pair elimination through the library.

    The grid is the paper's (rho_max 20) at 119, 120 or 121 cells per axis,
    chosen by the seed: each gives the paper's status sets, and the cost of
    the bisection grows with the cells, so a wider range would add the
    seed's choice to the run-to-run spread.  The seed also orders the
    symmetric pass.
    """

    name = "pairs"
    RHO_MAX = 20.0
    CELLS = (119, 120, 121)

    def __init__(self, seed: int, workdir: Path):
        from nbodylab import central, fourbody, potential

        self.central, self.fourbody, self.potential = central, fourbody, potential
        rng = rng_for(seed, self.name)
        self.cells = int(rng.choice(self.CELLS))
        self.pairs = [c.pair for c in fourbody.enumerate_pairs()]
        self.sym_order = [self.pairs[i] for i in rng.permutation(len(self.pairs))]

    def warm_up(self) -> None:
        self.fourbody.pair_feasibility((5, 9), rho_max=self.RHO_MAX, cells=12)
        self.fourbody.pair_feasibility((5, 9), symmetric=True, rho_max=self.RHO_MAX)

    def ops(self, round_dir: Path) -> list[Op]:
        return [Op("classify+symmetric", self._pipeline)]

    def _pipeline(self):
        fb = self.fourbody
        classified = fb.classify_pairs(rho_max=self.RHO_MAX, cells=self.cells)
        sym = [fb.pair_feasibility(p, symmetric=True, rho_max=self.RHO_MAX)
               for p in self.sym_order]
        return classified, sym

    def collect(self, results, round_dir: Path) -> dict:
        (op, out, err, _), = results
        if err is not None:
            return {"error": repr(err)}
        classified, sym = out
        return {
            "status": {c.pair: c.status for c in classified},
            "zero_samples": [(c.pair, tuple(z)) for c in classified
                             for z in c.evidence.get("zero_samples", [])],
            "sym_status": {c.pair: c.status for c in sym},
            "sym_solutions": [(c.pair, tuple(s)) for c in sym
                              for s in c.evidence.get("positive_mass_solutions", [])],
            "counts": {
                "fourbody.sign_changes": sum(c.evidence.get("sign_changes", 0)
                                             for c in classified),
                "fourbody.zeros_confirmed": sum(c.evidence.get("zeros_confirmed", 0)
                                                for c in classified),
                "fourbody.locus_points": sum(c.evidence.get("nonsym_locus_points", 0)
                                             for c in classified),
            },
        }

    def check(self, data: dict) -> list[str]:
        if "error" in data:
            return [f"pairs.run: pipeline raised {data['error']}"]
        problems = []
        status = data["status"]
        got = {s: {p for p, v in status.items() if v == s}
               for s in ("excluded-by-Z0", "order2-excluded")}
        if len(status) != 26:
            problems.append(f"pairs.status: {len(status)} pairs, expected 26")
        if got["excluded-by-Z0"] != Z0_EXCLUDED:
            problems.append(f"pairs.status: Z0-excluded {sorted(got['excluded-by-Z0'])}")
        if got["order2-excluded"] != ORDER2_EXCLUDED:
            problems.append(f"pairs.status: order-2-excluded {sorted(got['order2-excluded'])}")
        sym = {p for p, v in data["sym_status"].items() if v == "feasible"}
        if len(data["sym_status"]) != 26 or sym != SYM_FEASIBLE:
            problems.append(f"pairs.symmetric: feasible {sorted(sym)}")
        feasible_nonsym = {p for p, v in status.items() if v != "excluded-by-Z0"}
        if {p for p, _ in data["zero_samples"]} != feasible_nonsym:
            problems.append("pairs.zero: zero samples missing for a surviving pair")
        for pair, (r1, r2) in data["zero_samples"]:
            err = self._zero_spectrum_error(pair, r1, r2)
            if not err <= 1e-6:
                problems.append(f"pairs.zero: spectrum at {pair} ({r1}, {r2}) off by {err:.3g}")
        for pair, (rho, t) in data["sym_solutions"]:
            err = _symmetric_spectrum_error(pair, rho, t)
            if not err <= 1e-6:
                problems.append(f"pairs.symmetric: spectrum at {pair} rho={rho} off by {err:.3g}")
        return problems

    def _zero_spectrum_error(self, pair, r1, r2) -> float:
        """Rebuild W at a zero sample through the scalar API; compare spectra.

        On the sum-1 mass line the normalized trace is trace(W)/(-alpha), a
        ratio of two affine functions of m3, so the m3 matching the pair's
        trace 2 + l1 + l2 comes in closed form.
        """
        line = self.central.mass_line_4body(r1, r2)
        cfg = line.configuration
        target = 2.0 + pair[0] + pair[1]
        tr0, tr1 = (np.trace(self.potential.hessian_w(line.masses(s), cfg).matrix)
                    for s in (0.0, 1.0))
        a0, a1 = line.multiplier_intercept, line.multiplier_slope
        m3 = -(tr0 + target * a0) / ((tr1 - tr0) + target * a1)
        w = self.potential.hessian_w(line.masses(m3), cfg).matrix
        vals = np.linalg.eigvals(w) / -line.multiplier(m3)
        want = np.array(sorted((0.0, 2.0, *pair)))
        got = vals[np.argsort(vals.real)]
        return float(np.max(np.abs(got - want) / np.maximum(1.0, want)))


def _symmetric_spectrum_error(pair, rho, t) -> float:
    """Spectrum at (-rho, -1, 1, rho) with multiplier -1 and m3 = t, own solve."""
    c = np.array([-rho, -1.0, 1.0, rho])
    a = np.zeros((5, 5))
    for i in range(4):
        for j in range(4):
            if i != j:
                a[i, j] = (c[j] - c[i]) / abs(c[j] - c[i]) ** 3
    a[:4, 4] = 1.0          # unknown -g
    a[4, 2] = 1.0           # gauge m3 = t
    rhs = np.concatenate([-c, [t]])
    m = np.linalg.solve(a, rhs)[:4]
    if np.any(m <= 0):
        return math.inf
    vals = np.sort(np.linalg.eigvals(_own_w(m, c)).real)
    want = np.array(sorted((0.0, 2.0, *pair)))
    return float(np.max(np.abs(vals - want) / np.maximum(1.0, want)))


# ---------------------------------------------------------------------------
# sweep: one in-process `nbodylab sweep` on a large grid


class Sweep(CliWorkload):
    """`nbodylab sweep --rho-max 20 --jobs 1` at 995..1005 cells per axis.

    1000 is left out: its grid step 19/1000 prints in few digits, so its CSV
    is a third smaller and cheaper to write than at the other sizes.
    """

    name = "sweep"
    CELLS = [c for c in range(995, 1006) if c != 1000]
    SAMPLE_ROWS = 64

    def __init__(self, seed: int, workdir: Path, cells: int | None = None):
        super().__init__(workdir)
        from nbodylab import central, fourbody

        self.central, self.fourbody = central, fourbody
        self.rng = rng_for(seed, self.name)
        self.cells = cells if cells is not None else int(self.rng.choice(self.CELLS))

    def warm_up(self) -> None:
        out = self.workdir / "warm-up"
        self.run_cli(["sweep", "--rho-max", "20", "--cells", "16", "--jobs", "1"], out)
        shutil.rmtree(out)

    def ops(self, round_dir: Path) -> list[Op]:
        argv = ["sweep", "--rho-max", "20", "--cells", str(self.cells), "--jobs", "1"]
        return [Op("sweep", lambda: self.run_cli(argv, round_dir / "sweep"))]

    def collect(self, results, round_dir: Path) -> dict:
        (op, run, err, _), = results
        if err is not None or run.code != 0:
            return {"error": repr(err) if err is not None else run.stderr}
        manifest = self.read_json(run, "manifest.json")
        own = {name: hashlib.sha256((run.run_dir / name).read_bytes()).hexdigest()
               for name in manifest["outputs"]}
        with open(run.run_dir / "sweep.csv", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        rows = len(lines) - 1
        picks = np.sort(self.rng.choice(rows, size=min(rows, self.SAMPLE_ROWS),
                                        replace=False)) + 1
        sample = [tuple(float(v) for v in lines[i].split(",")) for i in picks]
        return {
            "cells": self.cells,
            "payload": self.read_json(run, "sweep.json"),
            "manifest_outputs": manifest["outputs"],
            "own_digests": own,
            "csv_rows": rows,
            "sample": sample,
            "counts": {"reporting.csv_bytes": self.csv_bytes(round_dir)},
        }

    def _on_boundary(self, r1, r2, which, m3, trace) -> bool:
        """trace_4body reproduces the trace, and mass `which` vanishes at m3."""
        masses = self.central.mass_line_4body(r1, r2).masses(m3).values
        return (_close(self.fourbody.trace_4body(r1, r2, m3), trace, 1e-9)
                and abs(masses[int(which) - 1]) <= 1e-9
                and bool(np.all(masses >= -1e-9)))

    def check(self, data: dict) -> list[str]:
        if "error" in data:
            return [f"sweep.run: {data['error']}"]
        problems = []
        p = data["payload"]
        if not (69.5 <= p["global_max"] < 70.0) or p["violations"] != 0:
            problems.append(f"sweep.max: global_max {p['global_max']}, "
                            f"{p['violations']} violations")
        am = p["argmax"]
        if not self._on_boundary(am["rho1"], am["rho2"], am["which_mass"], am["m3"],
                                 p["global_max"]):
            problems.append(f"sweep.argmax: {am} is no boundary point with trace "
                            f"{p['global_max']}")
        cells = data["cells"]
        if (p["row_count"] + p["empty_cells"] != cells * (cells + 1) // 2
                or data["csv_rows"] != p["row_count"]):
            problems.append(f"sweep.rows: {p['row_count']} rows + {p['empty_cells']} empty, "
                            f"{data['csv_rows']} CSV rows, {cells} cells")
        for r1, r2, which, m3, tmax in data["sample"]:
            if not (self._on_boundary(r1, r2, which, m3, tmax) and tmax < 70.0):
                problems.append(f"sweep.sample: row ({r1}, {r2}, {which}, {m3}) is no "
                                f"boundary point with trace {tmax}")
        if data["own_digests"] != data["manifest_outputs"] or not data["own_digests"]:
            problems.append("sweep.digest: manifest digests differ from SHA-256 of the files")
        return problems


# ---------------------------------------------------------------------------
# cc: many short CLI calls (solve-cc, planar, ek)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CentralConfigs(CliWorkload):
    """Short `solve-cc`, `planar` and `ek` runs, as typed at a desk.

    Seeded vectors: uniform(0.2, 3) masses at n = 3..10, where the raw-scale
    solve converges on every seed.  Fixed vectors, the same for every seed,
    reach a few hundred bodies: unit masses and one fixed uniform(0.2, 3)
    draw.  At raw scale these end in NoConvergenceError every time (the
    Moulton stopping rule is absolute while the residual scales as m^2);
    they are the only ops allowed to fail.  Every vector runs at raw scale
    and rescaled to total mass 1.
    """

    name = "cc"
    SEEDED_N = (3, 4, 5, 6, 8, 10)
    EK = (5, 9, 14)
    EK_PER_K = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = rng_for(seed, self.name)
        fixed = np.random.default_rng(20151).uniform(0.2, 3.0, 250)
        self.vectors = [(f"seeded-n{n}", rng.uniform(0.2, 3.0, n), False)
                        for n in self.SEEDED_N]
        self.vectors += [("unit-n60", np.ones(60), True),
                         ("unit-n150", np.ones(150), True),
                         ("fixed-n100", fixed[:100], True),
                         ("fixed-n250", fixed, True)]
        self.ek = []
        for k in self.EK:
            for _ in range(self.EK_PER_K):
                q = int(rng.integers(1, 10))
                self.ek.append((k, Fraction(int(rng.integers(q + 1, 8 * q + 1)), q)))

    def warm_up(self) -> None:
        out = self.workdir / "warm-up"
        self.run_cli(["solve-cc", "--masses", "1,2,3"], out / "a")
        self.run_cli(["planar", "--masses", "1,2,3"], out / "b")
        self.run_cli(["ek", "--k", "5", "--rho", "3/2"], out / "c")
        shutil.rmtree(out)

    def ops(self, round_dir: Path) -> list[Op]:
        ops = []

        def cli_op(label, argv, fail=False, **meta):
            out = round_dir / label
            ops.append(Op(label, lambda: self.run_cli(argv, out), fail, meta))

        for k, rho in self.ek:
            cli_op(f"ek-{k}-{rho.numerator}-{rho.denominator}",
                   ["ek", "--k", str(k), "--rho", str(rho)], k=k, rho=rho)
        for name, masses, faulty in self.vectors:
            for scale, m in (("raw", masses), ("sum1", masses / masses.sum())):
                fail = faulty and scale == "raw"
                for cmd in ("solve-cc", "planar"):
                    cli_op(f"{cmd}-{name}-{scale}", [cmd, "--masses", _fmt(m)], fail,
                           vector=name, scale=scale, cmd=cmd, masses=m)
        return ops

    def collect(self, results, round_dir: Path) -> dict:
        ops = {}
        for op, run, err, _ in results:
            entry = {"expect_fail": op.expect_fail, "meta": op.meta,
                     "code": None if err is not None else run.code,
                     "raised": None if err is None else repr(err)}
            if err is None:
                for name in ("solve_cc.json", "planar.json", "ek.json", "error.json"):
                    payload = self.read_json(run, name)
                    if payload is not None:
                        entry[name.split(".")[0]] = payload
            ops[op.label] = entry
        return {"ops": ops, "counts": {"reporting.csv_bytes": self.csv_bytes(round_dir)}}

    def check(self, data: dict) -> list[str]:
        problems = []
        ops = data["ops"]
        spectra = {}
        for label, e in ops.items():
            if e["expect_fail"]:
                err = (e.get("error") or {}).get("error", {})
                if e["code"] != 2 or err.get("type") != "NoConvergenceError":
                    problems.append(f"cc.failures: {label} ended with code {e['code']}, "
                                    f"{err or e['raised']}")
                continue
            if e["code"] != 0:
                problems.append(f"cc.failures: {label} failed: {e['code']} "
                                f"{e.get('error') or e['raised']}")
                continue
            meta = e["meta"]
            if "k" in meta:
                problems += _check_ek(label, meta["k"], meta["rho"], e.get("ek"))
            elif meta["cmd"] == "solve-cc":
                spec, x = _check_solution(label, meta["masses"], e.get("solve_cc"), problems)
                spectra[(meta["vector"], meta["scale"])] = (spec, x)
        for label, e in ops.items():
            meta = e["meta"]
            if e["expect_fail"] or e["code"] != 0 or meta.get("cmd") != "planar":
                continue
            ref = spectra.get((meta["vector"], "sum1"))
            if ref is None or ref[0] is None:
                problems.append(f"cc.planar: no colinear spectrum for {label}")
                continue
            p = e.get("planar") or {}
            want = np.sort(np.concatenate([ref[0], -0.5 * ref[0]]))
            got = np.sort(np.asarray(p.get("eigenvalues", []), dtype=float))
            if (p.get("verdict") != "obstructed" or got.shape != want.shape
                    or np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) > 1e-8):
                problems.append(f"cc.planar: {label} verdict {p.get('verdict')}, "
                                f"eigenvalues differ from colinear and -1/2 colinear")
        for (vector, scale), (spec, x) in spectra.items():
            if scale != "raw" or spec is None:
                continue
            spec1, x1 = spectra.get((vector, "sum1"), (None, None))
            if (spec1 is None or np.max(np.abs(x - x1)) > 1e-9
                    or np.max(np.abs(spec - spec1) / np.maximum(1.0, spec1)) > 1e-8):
                problems.append(f"cc.scale: raw and sum-1 runs of {vector} disagree")
        return problems


def _own_w(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1-D mass-scaled Hessian: W_ij = -2 m_j / |x_i - x_j|^3, zero row sums."""
    r = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(r, np.inf)
    w = -2.0 * m[None, :] / r**3
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


def _check_solution(label, masses, payload, problems):
    """Normalized colinear cc: at the masses rescaled to total 1, center 0 and
    residual at multiplier -1, recomputed here."""
    if payload is None:
        problems.append(f"cc.solution: {label} wrote no solve_cc.json")
        return None, None
    raw = np.asarray(payload["masses"], dtype=float)
    x = np.asarray(payload["normalized_positions"], dtype=float)
    m = raw / raw.sum()
    d = x[None, :] - x[:, None]                    # x_j - x_i
    r = np.abs(d)
    np.fill_diagonal(r, np.inf)
    grad = m * (m[None, :] * d / r**3).sum(axis=1)
    residual = float(np.max(np.abs(grad + m * x)))
    center = abs(float(m @ x))
    s = np.sqrt(m)
    w = _own_w(m, x)
    spec = np.linalg.eigvalsh(w * (s[:, None] / s[None, :]))
    reported = np.sort(np.asarray(payload["spectrum"]["eigenvalues"], dtype=float))
    if not np.array_equal(raw, masses):
        problems.append(f"cc.solution: {label} reports other masses than it was given")
    if residual > 1e-10 or center > 1e-12:
        problems.append(f"cc.solution: {label} residual {residual:.3g}, center {center:.3g}")
    if not np.all(np.diff(x) > 0):
        problems.append(f"cc.solution: {label} does not keep the body order")
    if (reported.shape != spec.shape
            or np.max(np.abs(reported - spec) / np.maximum(1.0, spec)) > 1e-8
            or np.min(np.abs(reported)) > 1e-8 or np.min(np.abs(reported - 2.0)) > 1e-8):
        problems.append(f"cc.solution: {label} spectrum differs from W rebuilt here "
                        f"or lacks 0 and 2")
    return spec, x


def _check_ek(label, k, rho, payload) -> list[str]:
    """Exact: the masses make (-1, 0, rho) central, trace(W)/(-alpha) - 2 = k."""
    if payload is None:
        return [f"cc.ek: {label} wrote no ek.json"]
    m = [Fraction(e["numerator"], e["denominator"]) for e in payload["masses"]]
    q = [Fraction(-1), Fraction(0), rho]
    g = sum(mi * qi for mi, qi in zip(m, q)) / sum(m)
    grad = [sum(m[i] * m[j] * (q[j] - q[i]) / abs(q[j] - q[i]) ** 3
                for j in range(3) if j != i) for i in range(3)]
    if any(grad[i] != 0 for i in range(3) if q[i] == g):
        return [f"cc.ek: {label} masses do not make (-1, 0, {rho}) central"]
    alphas = {grad[i] / (m[i] * (q[i] - g)) for i in range(3) if q[i] != g}
    trace = sum(2 * m[j] / abs(q[j] - q[i]) ** 3
                for i in range(3) for j in range(3) if i != j)
    if len(alphas) != 1 or payload["k"] != k or payload["rho"] != str(rho):
        return [f"cc.ek: {label} masses do not make (-1, 0, {rho}) central"]
    alpha = alphas.pop()
    if trace / -alpha - 2 != k:
        return [f"cc.ek: {label} trace(W)/(-alpha) - 2 = {trace / -alpha - 2}, not {k}"]
    return []


# ---------------------------------------------------------------------------
# orbits: models.simulate on the three chart kinds


KAPPA5 = 2.0 ** -0.5


def _polygon_alpha(n: int) -> float:
    return 0.25 * sum(1.0 / math.sin(k * math.pi / n) for k in range(1, n))


def _period(kappa, a):
    return 2.0 * math.pi * math.sqrt(a**3 / kappa)


class Orbits:
    """About forty `models.simulate` calls a round on all three chart kinds.

    Five-body paired orbits (two Kepler planes), n+3 central-force charts for
    n = 3..8, and rotating unit-mass polygons on the full n-body chart for
    n = 3..8, each over one period of its slowest motion.  The seed sets the
    scale and orientation of every orbit freely: the integrator's steps per
    period do not change with either.  It moves each eccentricity only
    within 0.02 of a fixed value per op, since the steps per period grow
    with eccentricity and a free draw would add the seed to the spread of
    the op times.
    """

    name = "orbits"
    FIVE_BODY_E = (0.05, 0.2, 0.3, 0.45)      # 4 x 4 eccentricity pairs
    N3_E = (0.1, 0.4)
    SAMPLES = 201

    def __init__(self, seed: int, workdir: Path):
        from nbodylab import models
        from nbodylab.potential import MassVector

        self.models = models
        rng = rng_for(seed, self.name)
        self.cases = []
        mix = models.decouple_matrix()
        for i, base in enumerate((a, b) for a in self.FIVE_BODY_E for b in self.FIVE_BODY_E):
            e = np.array(base) + rng.uniform(-0.02, 0.02, 2)
            rp = rng.uniform(0.8, 1.5) * np.array([1.0, 1.3 * rng.uniform(0.99, 1.01)])
            theta = rng.uniform(0.0, 2.0 * math.pi, 2)
            v = np.sqrt(KAPPA5 * (1.0 + e) / rp)
            cos, sin = np.cos(theta), np.sin(theta)
            y0 = np.concatenate([rp[j] * np.array([cos[j], sin[j]]) for j in range(2)])
            w0 = np.concatenate([v[j] * np.array([-sin[j], cos[j]]) for j in range(2)])
            t_end = max(_period(KAPPA5, rp[j] / (1.0 - e[j])) for j in range(2))
            self.cases.append(("five-body", i, models.PairedOrbitsChart(),
                               mix.T @ y0, mix.T @ w0, t_end, {}))
        for n in range(3, 9):
            kappa = 8.0 * n * _polygon_alpha(n)
            for base in self.N3_E:
                rp, e = rng.uniform(1.0, 2.0), base + rng.uniform(-0.02, 0.02)
                inc = rng.uniform(0.0, 0.5 * math.pi)
                v = math.sqrt(kappa * (1.0 + e) / rp)
                q0 = np.array([rp, 0.0, 0.0])
                p0 = np.array([0.0, v * math.cos(inc), v * math.sin(inc)])
                chart = models.CentralForceChart(kappa, dof=3, name=f"{n}+3 chart")
                self.cases.append(("n+3", n, chart, q0, p0,
                                   _period(kappa, rp / (1.0 - e)), {"kappa": kappa}))
        for n in range(3, 9):
            for _ in range(2):
                radius, phase = rng.uniform(0.7, 1.4), rng.uniform(0.0, 2.0 * math.pi)
                omega = math.sqrt(_polygon_alpha(n) / radius**3)
                ang = phase + 2.0 * math.pi * np.arange(n) / n
                q = radius * np.column_stack([np.cos(ang), np.sin(ang)])
                p = omega * np.column_stack([-q[:, 1], q[:, 0]])
                chart = models.NBodyChart(MassVector(np.ones(n)), 2)
                self.cases.append(("polygon", n, chart, q.reshape(-1), p.reshape(-1),
                                   2.0 * math.pi / omega, {}))

    def warm_up(self) -> None:
        for kind in ("five-body", "n+3", "polygon"):
            _, _, chart, q0, p0, t_end, _ = next(c for c in self.cases if c[0] == kind)
            self.models.simulate(chart, q0, p0, 0.05 * t_end, samples=11)

    def ops(self, round_dir: Path) -> list[Op]:
        def op(chart, q0, p0, t_end):
            return lambda: self.models.simulate(chart, q0, p0, t_end,
                                                samples=self.SAMPLES)

        return [Op(f"{kind}-{n}", op(chart, q0, p0, t_end),
                   meta={"kind": kind, "n": n, "t_end": t_end, **extra})
                for kind, n, chart, q0, p0, t_end, extra in self.cases]

    def collect(self, results, round_dir: Path) -> dict:
        runs = []
        for op, rec, err, _ in results:
            if err is not None:
                runs.append({"label": op.label, "error": repr(err)})
                continue
            runs.append({"label": op.label, **op.meta, "times": rec.times,
                         "states": rec.states.copy(), "rhs": rec.rhs_evaluations})
        return {"runs": runs, "counts": {
            "models.rhs_evaluations": sum(r.get("rhs", 0) for r in runs)}}

    def check(self, data: dict) -> list[str]:
        problems = []
        for r in data["runs"]:
            if "error" in r:
                problems.append(f"orbits.run: {r['label']} raised {r['error']}")
                continue
            if not _close(r["times"][-1], r["t_end"], 1e-12):
                problems.append(f"orbits.run: {r['label']} stopped at {r['times'][-1]}")
            states = r["states"]
            dof = states.shape[1] // 2
            q, p = states[:, :dof], states[:, dof:]
            series = _INTEGRALS[r["kind"]](q, p, r)
            ref = series[0]
            scale = np.where(np.abs(ref) > 1e-12, np.abs(ref), 1.0)
            drift = float(np.max(np.abs(series - ref) / scale))
            if not drift <= 1e-9:
                problems.append(f"orbits.drift: {r['label']} integral drift {drift:.3g}")
            if r["kind"] == "five-body":
                for mid in (0.5 * (q[:, :2] - q[:, 2:]), 0.5 * (q[:, :2] + q[:, 2:])):
                    res = _focal_conic_residual(mid)
                    if not res <= 1e-8:
                        problems.append(f"orbits.conic: {r['label']} midpoint residual {res:.3g}")
            if r["kind"] == "polygon":
                back = float(np.max(np.abs(states[-1] - states[0])))
                if not back <= 1e-8 * max(1.0, float(np.max(np.abs(states[0])))):
                    problems.append(f"orbits.return: {r['label']} misses its start by {back:.3g}")
        return problems


def _five_body_integrals(q, p, run):
    s = 2.0 ** -0.5
    cols = []
    for sign in (-1.0, 1.0):
        y = s * (q[:, :2] + sign * q[:, 2:])
        w = s * (p[:, :2] + sign * p[:, 2:])
        cols.append(0.5 * (w**2).sum(axis=1) - KAPPA5 / np.hypot(y[:, 0], y[:, 1]))
        cols.append(y[:, 0] * w[:, 1] - y[:, 1] * w[:, 0])
    return np.column_stack(cols)


def _central_force_integrals(q, p, run):
    energy = 0.5 * (p**2).sum(axis=1) - run["kappa"] / np.linalg.norm(q, axis=1)
    return np.column_stack([energy, np.cross(q, p)])


def _polygon_integrals(q, p, run):
    n = q.shape[1] // 2
    pos, mom = q.reshape(-1, n, 2), p.reshape(-1, n, 2)
    i, j = np.triu_indices(n, k=1)
    r = np.linalg.norm(pos[:, i] - pos[:, j], axis=2)
    energy = 0.5 * (mom**2).sum(axis=(1, 2)) - (1.0 / r).sum(axis=1)
    ang = (pos[:, :, 0] * mom[:, :, 1] - pos[:, :, 1] * mom[:, :, 0]).sum(axis=1)
    return np.column_stack([energy, mom.sum(axis=1), ang])


_INTEGRALS = {"five-body": _five_body_integrals, "n+3": _central_force_integrals,
              "polygon": _polygon_integrals}


def _focal_conic_residual(points) -> float:
    """Fit r = p - e.x with the focus at the origin; max misfit over mean r."""
    r = np.hypot(points[:, 0], points[:, 1])
    design = np.column_stack([points, np.ones(len(r))])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    return float(np.max(np.abs(design @ coef - r)) / r.mean())


WORKLOADS = {"pairs": Pairs, "sweep": Sweep, "cc": CentralConfigs, "orbits": Orbits}
