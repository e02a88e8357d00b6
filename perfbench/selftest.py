#!/usr/bin/env python3
"""Show that every output check of the benchmark rejects a perturbed output.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it runs one round
(the sweep on a 200-cell grid), requires the checks to pass on the real
outputs, then perturbs one output at a time and requires the named check to
report it.  Exits 1 if any check passes a perturbed output.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def one_round(wl, workdir: Path) -> dict:
    round_dir = workdir / "round"
    results = []
    for op in wl.ops(round_dir):
        try:
            out, err = op.fn(), None
        except Exception as exc:
            out, err = None, exc
        results.append((op, out, err, 0.0))
    return wl.collect(results, round_dir)


def first(items, pred):
    return next(x for x in items if pred(x))


def pairs_cases(data):
    def status(d):
        d["status"][(9, 9)] = "feasible"

    def sym_status(d):
        d["sym_status"][(5, 9)] = "excluded-by-Z0"

    def zero(d):
        pair, (r1, r2) = d["zero_samples"][0]
        d["zero_samples"][0] = (pair, (r1 + 1e-3, r2))

    def sym_solution(d):
        pair, (rho, t) = d["sym_solutions"][0]
        d["sym_solutions"][0] = (pair, (rho, t * (1 + 1e-4)))

    return [("pairs.status", status), ("pairs.symmetric", sym_status),
            ("pairs.zero", zero), ("pairs.symmetric", sym_solution)]


def sweep_cases(data):
    def gmax(d):
        d["payload"]["global_max"] = 70.0

    def argmax(d):
        d["payload"]["argmax"]["m3"] += 1e-4

    def rows(d):
        d["payload"]["row_count"] -= 1

    def sample(d):
        row = list(d["sample"][3])
        row[4] *= 1 + 1e-7
        d["sample"][3] = tuple(row)

    def digest(d):
        name = next(iter(d["own_digests"]))
        d["own_digests"][name] = "0" * 64

    return [("sweep.max", gmax), ("sweep.argmax", argmax), ("sweep.rows", rows),
            ("sweep.sample", sample), ("sweep.digest", digest)]


def cc_cases(data):
    ops = data["ops"]

    def label(cmd, scale, faulty=False):
        return first(ops, lambda k: k.startswith(f"{cmd}-") and k.endswith(f"-{scale}")
                     and ops[k]["expect_fail"] == faulty
                     and ("unit" in k or "fixed" in k) == faulty)

    def position(d):
        d["ops"][label("solve-cc", "sum1")]["solve_cc"]["normalized_positions"][1] += 1e-7

    def eigen(d):
        d["ops"][label("solve-cc", "sum1")]["solve_cc"]["spectrum"]["eigenvalues"][-1] += 1e-6

    def scale(d):
        d["ops"][label("solve-cc", "raw")]["solve_cc"]["normalized_positions"][0] -= 1e-6

    def verdict(d):
        d["ops"][label("planar", "raw")]["planar"]["verdict"] = "inconclusive"

    def planar_eig(d):
        d["ops"][label("planar", "sum1")]["planar"]["eigenvalues"][0] *= 1 + 1e-6

    def ek(d):
        entry = d["ops"][first(ops, lambda k: k.startswith("ek-"))]["ek"]
        entry["masses"][0]["numerator"] += 1

    def unexpected_success(d):
        d["ops"][label("solve-cc", "raw", True)]["code"] = 0

    def other_error(d):
        d["ops"][label("planar", "raw", True)]["error"]["error"]["type"] = "CollisionError"

    return [("cc.solution", position), ("cc.solution", eigen), ("cc.scale", scale),
            ("cc.planar", verdict), ("cc.planar", planar_eig), ("cc.ek", ek),
            ("cc.failures", unexpected_success), ("cc.failures", other_error)]


def orbits_cases(data):
    runs = data["runs"]

    def kind(name):
        return runs.index(first(runs, lambda r: r["kind"] == name))

    def drift(i):
        def apply(d):
            st = d["runs"][i]["states"]
            st[37, st.shape[1] // 2 + 1] += 1e-6
        return apply

    def conic(d):
        # move one sample of both midpoints outward; the integrals see it too
        d["runs"][kind("five-body")]["states"][50, :4] *= 1 + 1e-6

    def back(d):
        d["runs"][kind("polygon")]["states"][-1, 0] += 1e-6

    return [("orbits.drift", drift(kind("five-body"))), ("orbits.drift", drift(kind("n+3"))),
            ("orbits.drift", drift(kind("polygon"))), ("orbits.conic", conic),
            ("orbits.return", back)]


CASES = {"pairs": pairs_cases, "sweep": sweep_cases, "cc": cc_cases, "orbits": orbits_cases}


def main() -> int:
    bad = 0
    base = Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=base))
        try:
            started = time.perf_counter()
            wl = cls(7, workdir, cells=200) if name == "sweep" else cls(7, workdir)
            data = one_round(wl, workdir)
            problems = wl.check(data)
            if problems:
                bad += 1
                print(f"FAIL {name}: real outputs rejected: {problems[:3]}")
            for check_id, perturb in CASES[name](data):
                changed = copy.deepcopy(data)
                perturb(changed)
                found = [p for p in wl.check(changed) if p.startswith(check_id + ":")]
                ok = bool(found)
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {check_id:16s} {perturb.__name__:20s} "
                      f"{found[0] if found else 'not rejected'}"[:150])
            print(f"     {name}: {time.perf_counter() - started:.1f} s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        base.rmdir()
    except OSError:
        pass
    print("self-test", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
