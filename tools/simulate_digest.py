"""One SHA-256 over many ``models.simulate`` runs of a source tree.

A development check that a change to the integrator or the chart kernels
keeps every output bit.  Run it once on each tree, each in its own process,
and compare the digests:

    python3 tools/simulate_digest.py --src PARENT_TREE --seeds 3 11 8401
    python3 tools/simulate_digest.py --src . --seeds 3 11 8401

Each seed contributes the 40 cases of the benchmark's ``orbits`` workload
(``perfbench/workloads.py`` of the same tree, 201 samples) and ``--random``
n-body runs on ``NBodyChart`` at d = 1, 2 and 3 with unit or signed masses,
random states, tolerances and sample counts.  Some of those collide or stop
early; a run that raises is hashed by its exception type and text.  A run that
returns is hashed by its times, states (and whether they are Fortran-ordered),
integral names and series, and right-hand-side count.  ``--per-run`` also
prints one line per run, to find the runs that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np


def _load(src: Path):
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    import workloads
    from nbodylab import models
    from nbodylab.errors import NBodyError

    return workloads, models, NBodyError


def _random_runs(models, rng, count):
    """(label, chart, q0, p0, t_end, rtol, samples) of random n-body runs."""
    runs = []
    for k in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        masses = rng.uniform(0.3, 2.0, n)
        if rng.random() < 0.3:  # signed masses
            masses *= rng.choice([-1.0, 1.0], n)
        elif rng.random() < 0.3:
            masses = np.ones(n)
        q0 = rng.uniform(-1.5, 1.5, (n, d))
        p0 = rng.uniform(-0.8, 0.8, (n, d))
        if rng.random() < 0.15:  # from rest: some of these fall into a collision
            p0[:] = 0.0
        runs.append((f"random-{k}-n{n}-d{d}", models.NBodyChart(masses, d),
                     q0.reshape(-1), p0.reshape(-1), float(rng.uniform(0.2, 3.0)),
                     float(rng.choice([1e-12, 1e-9, 1e-6])), int(rng.integers(1, 300))))
    return runs


def _run_bytes(models, errors, chart, q0, p0, t_end, rtol, samples) -> bytes:
    try:
        rec = models.simulate(chart, q0, p0, t_end, rtol=rtol, samples=samples)
    except errors as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    parts = [rec.times.tobytes(), rec.states.tobytes(order="A"),
             bytes([rec.states.flags.f_contiguous]), repr(rec.integral_names).encode(),
             rec.integral_series.tobytes(), str(rec.rhs_evaluations).encode()]
    return b"\0".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True, help="root of the source tree")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--random", type=int, default=40,
                    help="random n-body runs per seed (default 40)")
    ap.add_argument("--per-run", action="store_true", help="print one digest per run")
    args = ap.parse_args(argv)
    workloads, models, errors = _load(args.src.resolve())
    total = hashlib.sha256()
    runs = raised = 0
    for seed in args.seeds:
        orbits = workloads.Orbits(seed, Path("."))
        cases = [(f"orbits-{seed}-{kind}-{n}-{i}", chart, q0, p0, t_end, 1e-12,
                  orbits.SAMPLES)
                 for i, (kind, n, chart, q0, p0, t_end, _) in enumerate(orbits.cases)]
        rng = np.random.default_rng([seed, 2024])
        cases += [(f"{seed}-{label}", *rest)
                  for label, *rest in _random_runs(models, rng, args.random)]
        for label, *case in cases:
            blob = _run_bytes(models, errors, *case)
            raised += blob.startswith((b"StepFailureError", b"CollisionError"))
            runs += 1
            total.update(hashlib.sha256(blob).digest())
            if args.per_run:
                print(f"{hashlib.sha256(blob).hexdigest()[:16]}  {label}")
    print(f"{total.hexdigest()}  {runs} runs, {raised} raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
