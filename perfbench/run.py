#!/usr/bin/env python3
"""nbodylab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {pairs,sweep,cc,orbits} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; nbodylab is imported from ./src.
Each measurement runs in a fresh interpreter (perfbench/worker.py) with
BLAS/OpenMP pinned to one thread and no worker pool.  Set-up time is taken
from SETUP_SAMPLES fresh interpreters and reported as their median.  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.  A human summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline: float, setup_only: bool) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(op_ms: list[float]) -> str:
    """Highest percentile with at least ten ops beyond it, with the op count."""
    n = len(op_ms)
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    if best is None:
        return f"{n} ops, too few for a tail"
    value = statistics.quantiles(op_ms, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"{n} ops, p{best:g} {value:.3f} ms"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nbodylab" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a source checkout holding src/nbodylab "
              "and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [_worker(args, deadline, True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = _worker(args, deadline, False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        wanted, values = spec["per_layer"], result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "op_p50_ms": statistics.median(result["op_ms"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{_tail(result['op_ms'])}, setup samples "
          f"{', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    if args.trace:
        shares = sorted(result["shares"].items(), key=lambda kv: -kv[1])
        print("perfbench: self time, share of the traced rounds' wall: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
