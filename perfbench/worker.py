"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with the monotonic time at which it launched this process;
set-up time runs from then to the first timed op.  Prints one JSON line.

    python3 perfbench/worker.py --workload cc --seed 1 --seconds 10 \
        --trace 0 --t0 <time.monotonic() of the launcher> [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class Rounds:
    """Walls, op times and failures of the rounds of one phase."""

    def __init__(self):
        self.walls: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, float] = {}
        self.peak_rss_mb = 0.0


def run_rounds(wl, tracer, phase: Rounds, workdir: Path, until: float,
               problems: list[str], next_index: int) -> int:
    """Run whole rounds until the monotonic clock passes `until`; at least one."""
    while True:
        round_dir = workdir / f"round-{next_index}"
        ops = wl.ops(round_dir)
        results = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = next_index * len(ops) + i
            start = time.perf_counter()
            try:
                out, err = op.fn(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, exc
            end = time.perf_counter()
            if i == 0:
                first = start
            results.append((op, out, err, end - start))
        phase.walls.append(end - first)
        if not phase.peak_rss_mb:
            # high-water mark before any output check has allocated
            phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op, out, err, seconds in results:
            phase.attempted += 1
            phase.failed += workloads.op_failed(out, err)
            phase.op_s.append(seconds)
        if tracer is not None:
            tracer.enabled = False      # the checks call the program too
        data = wl.collect(results, round_dir)
        problems.extend(f"round {next_index}: {p}" for p in wl.check(data))
        if tracer is not None:
            tracer.enabled = True
        for key, value in data.get("counts", {}).items():
            phase.counts[key] = phase.counts.get(key, 0) + value
        shutil.rmtree(round_dir, ignore_errors=True)
        next_index += 1
        if time.monotonic() >= until:
            return next_index


def layer_metrics(tracer, traced: Rounds, plain: Rounds, wl) -> dict:
    """Per-round figures from the traced rounds; overhead against the plain ones."""
    from tracing import TRACED

    rounds = len(traced.walls)
    ids = {name: tracer.name_id(name) for name, _, _ in TRACED}

    def per_round(values, name):
        return values[ids[name]] / rounds

    out = {}
    for name in dict.fromkeys(n for n, _, _ in TRACED):
        out[f"{name}.calls"] = per_round(tracer.calls, name)
        out[f"{name}.self_ms"] = per_round(tracer.self_ns, name) / 1e6
    out["central.moulton_solve.failed"] = per_round(tracer.failed, "central.moulton_solve")
    out["central.moulton_solve.newton_steps"] = tracer.child_calls(
        "potential.hessian_w", "central.moulton_solve") / rounds
    sweep_ns = tracer.total_ns[ids["fourbody.trace_sweep"]]
    cells = wl.cells if wl.name == "sweep" else 0
    out["fourbody.sweep_cells_per_s"] = (
        rounds * cells * (cells + 1) / 2 / (sweep_ns / 1e9) if sweep_ns else 0.0)
    for key in ("fourbody.sign_changes", "fourbody.zeros_confirmed",
                "fourbody.locus_points", "models.rhs_evaluations",
                "reporting.csv_bytes"):
        out[key] = traced.counts.get(key, 0) / rounds
    # untraced: every op of a workload that integrates is one simulate call
    rhs = plain.counts.get("models.rhs_evaluations", 0)
    out["models.rhs_us"] = sum(plain.op_s) / rhs * 1e6 if rhs else 0.0
    out["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
    out["trace.spans"] = len(tracer.span_start) / rounds
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    base = Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        problems: list[str] = []
        plain, traced, tracer = Rounds(), Rounds(), None
        start = time.monotonic()
        share = 0.5 if args.trace else 1.0
        index = run_rounds(wl, None, plain, workdir, start + share * args.seconds,
                           problems, 0)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            run_rounds(wl, tracer, traced, workdir, start + args.seconds, problems, index)
            tracer.write(base / "traces" / f"{args.workload}.csv")
        result = {
            "setup_s": setup_s,
            "correct": not problems,
            "problems": problems[:20],
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "wall_s": statistics.median(plain.walls),
            "op_ms": [s * 1e3 for s in plain.op_s],
            "rounds": len(plain.walls),
            "peak_rss_mb": plain.peak_rss_mb,
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, traced, plain, wl)
            wall_ns = sum(traced.walls) * 1e9
            result["shares"] = {name: tracer.self_ns[i] / wall_ns
                                for i, name in enumerate(tracer.names)
                                if tracer.self_ns[i]}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
