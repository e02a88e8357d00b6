"""Batch command-line front end.

One subcommand per analysis; every run writes a JSON summary, a CSV detail
table and a manifest with output digests into its own timestamped directory.
Usage problems exit 1; module errors exit 2 after writing a structured error
JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, admissibility, central, fourbody, models
from ._dop853 import MIN_RTOL
from .errors import NBodyError, NoConvergenceError
from .potential import MassVector, hessian_w
from .reporting import RunReport, jsonable


class CliUsageError(Exception):
    """Bad argument combination detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # usage problems (including unknown flags) exit with status 1 and one
    # line, in the same form as a CliUsageError; --help shows the usage
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number, or a number list that starts with one ("-1e-3",
        # "-0.25,1,1", "-inf"), is a value and not a flag; argparse's own test
        # takes only a lone int or decimal such as "-1" or "-.5"
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _rtol(text: str) -> float:
    value = _positive_float(text)
    if value < MIN_RTOL:
        raise argparse.ArgumentTypeError(
            f"must be at least {float(MIN_RTOL)!r} (100 machine epsilons), got {text!r}")
    return value


def _float_list(text: str) -> list:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _int_at_least(minimum: int, what: str):
    """Argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"need at least {minimum} {what}, got {value}")
        return value
    return parse


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# the largest grid each grid subcommand accepts; the peak RSS at each limit is
# about 0.3 GB: sweep keeps its feasible cells, pairs the whole grid's mass line
_MAX_CELLS = {"sweep": 3000, "pairs": 1000}

# the chart fields each model reads; model, q0, p0 and t_end serve them all
_MODEL_FIELDS = {"five-body": (), "n3": ("n",), "kepler": ("kappa", "dof"),
                 "full": ("masses", "d")}
_SIMULATE_MODELS = tuple(_MODEL_FIELDS)


def build_parser() -> _Parser:
    parser = _Parser(prog="nbodylab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nbodylab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("solve-cc", help="colinear central configuration of given masses")
    p.add_argument("--masses", type=_float_list, required=True,
                   help="comma-separated masses, e.g. 1,1,1")
    p.add_argument("--n", type=int, default=None,
                   help="expected body count (validated against --masses)")
    p.add_argument("--order", type=_int_list, default=None,
                   help="axis ordering as a permutation, e.g. 0,1,2")
    p.set_defaults(func=cmd_solve_cc)

    p = sub.add_parser("ek", help="exceptional-curve masses for spectrum {0,2,k}")
    p.add_argument("--k", type=int, required=True, help="target eigenvalue (5, 9 or 14)")
    p.add_argument("--rho", type=_fraction, required=True,
                   help="shape parameter as an exact rational, e.g. 1 or 3/2")
    p.set_defaults(func=cmd_ek)

    p = sub.add_parser("sweep", help="4-body boundary trace sweep over shape space")
    p.add_argument("--rho-max", type=_finite_float, default=20.0,
                   help="upper edge of both axes")
    p.add_argument("--cells", type=int, default=400,
                   help=f"grid cells per axis (2 to {_MAX_CELLS['sweep']})")
    p.add_argument("--jobs", type=_int_at_least(1, "worker"), default=None,
                   help="worker processes (at least 1)")
    p.add_argument("--no-refine", action="store_true", help="skip local refinement")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pairs", help="classify admissible 4-body eigenvalue pairs")
    p.add_argument("--mode", choices=("nonsymmetric", "symmetric", "full"),
                   default="full", help="which feasibility stage to run")
    p.add_argument("--rho-max", type=_finite_float, default=20.0, help="search window edge")
    p.add_argument("--cells", type=int, default=240,
                   help=f"grid cells per axis (2 to {_MAX_CELLS['pairs']})")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("planar", help="planar spectrum verdict at a colinear configuration")
    p.add_argument("--masses", type=_float_list, required=True,
                   help="comma-separated positive masses")
    p.add_argument("--n", type=int, default=None,
                   help="expected body count (validated against --masses)")
    p.add_argument("--order", type=_int_list, default=None, help="axis ordering")
    p.set_defaults(func=cmd_planar)

    p = sub.add_parser("simulate", help="integrate a model chart and report drifts")
    p.add_argument("--model", choices=_SIMULATE_MODELS,
                   default=None, help="which chart to integrate")
    p.add_argument("--n", type=int, help="polygon size for the n3 model (default 4)")
    p.add_argument("--kappa", type=_finite_float, help="kepler strength (default 1)")
    p.add_argument("--dof", type=int, help="kepler degrees of freedom (default 3)")
    p.add_argument("--masses", type=_float_list, default=None, help="full-model masses")
    p.add_argument("--d", type=_int_at_least(1, "dimension"),
                   help="full-model space dimension (default 2)")
    p.add_argument("--q0", type=_float_list, default=None, help="initial positions")
    p.add_argument("--p0", type=_float_list, default=None, help="initial momenta")
    p.add_argument("--t-end", type=_positive_float, default=None,
                   help="integration time (> 0)")
    p.add_argument("--samples", type=_int_at_least(2, "samples"), default=2001,
                   help="output samples (at least 2)")
    p.add_argument("--rtol", type=_rtol, default=1e-12,
                   help="integrator tolerance (> 0)")
    p.add_argument("--init-json", default=None,
                   help="JSON model file; its fields (model, n, kappa, dof, masses, "
                        "d, q0, p0, t_end) fill the flags not typed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-subspace", help="acceleration leakage of an invariant subspace")
    p.add_argument("--builtin", choices=("five-body", "n3", "colinear"), default=None,
                   help="one of the shipped subspaces")
    p.add_argument("--n", type=int, default=4, help="polygon size for the n3 subspace")
    p.add_argument("--masses", type=_float_list, default=None,
                   help="masses for the colinear subspace or a JSON-free custom check")
    p.add_argument("--json", dest="json_file", default=None,
                   help="JSON file with masses, d and basis_rows")
    p.add_argument("--samples", type=_int_at_least(1, "sample"), default=50,
                   help="random points to draw (at least 1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--threshold", type=_finite_float, default=1e-9, help="pass threshold")
    p.set_defaults(func=cmd_check_subspace)

    for sp in sub.choices.values():
        sp.add_argument("--out", default="runs", help="base output directory")
    return parser


def _check_bodies(masses, n=None, order=None):
    """Usage checks of --masses, --n and --order before any solve."""
    if len(masses) < 2:
        raise CliUsageError(f"--masses needs at least two entries, got {len(masses)}")
    if n is not None and n != len(masses):
        raise CliUsageError(f"--n {n} does not match {len(masses)} masses")
    if order is not None and sorted(order) != list(range(len(masses))):
        raise CliUsageError(f"--order must be a permutation of 0..{len(masses) - 1}")


def _check_grid(args):
    if args.cells < 2 or args.rho_max <= 1.0:
        raise CliUsageError(f"{args.subcommand} needs --cells >= 2 and --rho-max > 1")
    limit = _MAX_CELLS[args.subcommand]
    if args.cells > limit:
        raise CliUsageError(f"{args.subcommand} takes at most --cells {limit}, got {args.cells}")


# ---------------------------------------------------------------------------
# subcommands


def _write_eigenvalues_csv(report: RunReport, rep):
    report.write_csv(
        "eigenvalues.csv",
        ("index", "eigenvalue", "admissible_match"),
        [(i, v, "" if m is None else m)
         for i, (v, m) in enumerate(zip(rep.eigenvalues, rep.matches))],
    )


def cmd_solve_cc(args, report: RunReport):
    _check_bodies(args.masses, args.n, args.order)
    mv = MassVector(np.asarray(args.masses, dtype=float))
    cc = central.moulton_solve(mv, order=args.order)  # already normalized
    spec = hessian_w(cc.masses, cc.config).spectrum()
    rep = admissibility.spectrum_report(spec)
    payload = jsonable({
        "masses": mv.values,
        "positions": cc.config.coords[:, 0],
        "multiplier": cc.multiplier,
        "center": float(cc.center[0]),
        "residual": cc.residual,
        "normalized_positions": cc.config.coords[:, 0],
        "spectrum": {
            "eigenvalues": rep.eigenvalues,
            "matches": rep.matches,
            "obstructed": rep.obstructed,
        },
    })
    report.write_json("solve_cc.json", payload, "solve_cc")
    _write_eigenvalues_csv(report, rep)


def cmd_ek(args, report: RunReport):
    masses = admissibility.exceptional_masses(args.k, args.rho)
    point = admissibility.exceptional_point(args.k, float(args.rho))
    target = np.array([0.0, 2.0, float(args.k)])
    err = float(np.max(np.abs(np.sort(point.spectrum) - target)))
    payload = jsonable({
        "k": args.k,
        "rho": str(args.rho),
        "masses": [{"numerator": m.numerator, "denominator": m.denominator,
                    "value": float(m)} for m in masses],
        "spectrum": np.sort(point.spectrum),
        "spectrum_error": err,
        "positive": bool(all(m > 0 for m in masses)),
    })
    report.write_json("ek.json", payload, "ek")
    report.write_csv(
        "masses.csv",
        ("body", "numerator", "denominator", "value"),
        [(i + 1, m.numerator, m.denominator, float(m)) for i, m in enumerate(masses)],
    )


def _sweep_csv_chunks(result):
    """sweep.csv as text, one kernel chunk at a time.

    The bytes are those csv.writer writes for the header and result.rows: the
    repr of each axis value is built once, which_Mi comes from a five-entry
    table, and m3 and trace are written as their shortest repr.
    """
    axis_text = np.array([repr(v) for v in result.axis.tolist()], dtype=object)
    which_text = np.array([repr(w) for w in range(5)], dtype=object)
    yield "rho1,rho2,which_Mi,m3_at_max,trace_max\n"
    for i1, i2, which, m3, trace in result.chunks:
        if i1.size:
            yield "\n".join(map(",".join, zip(
                axis_text[i1].tolist(), axis_text[i2].tolist(), which_text[which].tolist(),
                map(repr, m3.tolist()), map(repr, trace.tolist())))) + "\n"


def cmd_sweep(args, report: RunReport):
    _check_grid(args)
    result = fourbody.trace_sweep(rho_max=args.rho_max, cells=args.cells,
                                  jobs=args.jobs, refine=not args.no_refine)
    r1, r2, m3, which = result.argmax
    payload = jsonable({
        "rho_max": result.rho_max,
        "cells": result.cells,
        "jobs": args.jobs if args.jobs else 1,
        "global_max": result.global_max,
        "argmax": {"rho1": r1, "rho2": r2, "m3": m3, "which_mass": which},
        "violations": len(result.violations),
        "empty_cells": result.empty_cells,
        "refined": result.refined,
        "caveat": result.caveat,
        "row_count": result.row_count,
    })
    report.write_json("sweep.json", payload, "sweep")
    report._write("sweep.csv", _sweep_csv_chunks(result))


def cmd_pairs(args, report: RunReport):
    _check_grid(args)
    if args.mode == "full":
        cands = fourbody.classify_pairs(rho_max=args.rho_max, cells=args.cells)
    elif args.mode == "nonsymmetric":
        cands = fourbody.nonsymmetric_pairs(rho_max=args.rho_max, cells=args.cells)
    else:
        cands = [fourbody.pair_feasibility(c.pair, symmetric=True, rho_max=args.rho_max)
                 for c in fourbody.enumerate_pairs()]
    counts = {"enumerated": len(cands)}
    for c in cands:
        counts[c.status] = counts.get(c.status, 0) + 1
    payload = jsonable({
        "mode": args.mode,
        "rho_max": args.rho_max,
        "cells": args.cells,
        "counts": counts,
        "pairs": [{"pair": list(c.pair), "status": c.status,
                   "evidence": {k: v for k, v in c.evidence.items()
                                if k not in ("zero_samples", "solutions")}}
                  for c in cands],
    })
    report.write_json("pairs.json", payload, "pairs")
    report.write_csv(
        "pairs.csv",
        ("lambda1", "lambda2", "status", "min_abs_z0", "order2_conditions"),
        [(c.pair[0], c.pair[1], c.status,
          c.evidence.get("min_abs_z0", ""),
          c.evidence.get("order2_conditions", "")) for c in cands],
    )


def cmd_planar(args, report: RunReport):
    _check_bodies(args.masses, args.n, args.order)
    mv = MassVector(np.asarray(args.masses, dtype=float))
    rep = admissibility.planar_spectrum(mv, order=args.order)
    inadmissible = [float(v) for v, m in zip(rep.eigenvalues, rep.matches) if m is None]
    verdict = "obstructed" if rep.eigenvalues.min() < -1.0 - 1e-8 else "inconclusive"
    payload = jsonable({
        "masses": mv.values,
        "eigenvalues": rep.eigenvalues,
        "block_error": rep.block_error,
        "matches": rep.matches,
        "inadmissible": inadmissible,
        "verdict": verdict,
    })
    report.write_json("planar.json", payload, "planar")
    _write_eigenvalues_csv(report, rep)


def _read_json_object(path, flag):
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise CliUsageError(f"cannot read {flag}: {exc}") from exc
    if not isinstance(spec, dict):
        raise CliUsageError(f"{flag} must hold a JSON object")
    return spec


def _build_chart(args):
    """Chart plus default circular initial state and its period, if any."""
    if args.model == "five-body":
        chart = models.PairedOrbitsChart()
        mix = models.decouple_matrix()
        r1, r2 = 1.0, 1.3
        kap = models.FIVE_BODY_KAPPA
        y0 = np.array([r1, 0.0, 0.0, r2])
        w0 = np.array([0.0, np.sqrt(kap / r1), -np.sqrt(kap / r2), 0.0])
        period = max(models.kepler_period(kap, r1), models.kepler_period(kap, r2))
        return chart, mix.T @ y0, mix.T @ w0, period
    if args.model == "n3":
        if args.n < 2:
            raise CliUsageError("--n must be at least 2")
        kap = 8.0 * args.n * models.polygon_alpha(args.n)
        chart = models.CentralForceChart(kap, dof=3, name=f"{args.n}+3 chart")
        q2, p2, period = models.circular_orbit_state(kap, 1.5)
        return (chart, np.array([q2[0], q2[1], 0.0]),
                np.array([p2[0], p2[1], 0.0]), period)
    if args.model == "kepler":
        if args.kappa <= 0 or args.dof not in (2, 3):
            raise CliUsageError("kepler needs --kappa > 0 and --dof 2 or 3")
        chart = models.CentralForceChart(args.kappa, dof=args.dof)
        q2, p2, period = models.circular_orbit_state(args.kappa, 1.0)
        q0 = np.zeros(args.dof)
        p0 = np.zeros(args.dof)
        q0[:2], p0[:2] = q2, p2
        return chart, q0, p0, period
    if args.masses is None:
        raise CliUsageError("--model full needs --masses")
    _check_bodies(args.masses)
    chart = models.NBodyChart(MassVector(np.asarray(args.masses, dtype=float)), args.d)
    return chart, None, None, None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# the model fields of simulate: a typed flag wins, the --init-json file fills
# the flags not typed, and the built-in default fills the rest.  Each field
# also names what its --init-json value must hold; the model is checked first.
_SIMULATE_FIELDS = {
    "model": (None, lambda v: v in _SIMULATE_MODELS,
              f"one of {', '.join(_SIMULATE_MODELS)}"),
    "n": (4, _is_int, "an integer"),
    "kappa": (1.0, _is_number, "a finite number"),
    "dof": (3, _is_int, "an integer"),
    "masses": (None, _is_number_list, "a list of finite numbers"),
    "d": (2, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "q0": (None, _is_number_list, "a list of finite numbers"),
    "p0": (None, _is_number_list, "a list of finite numbers"),
    "t_end": (None, _is_positive, "a finite number > 0"),
}


def _read_init_json(path) -> dict:
    """The --init-json object, after checking its model name and field types."""
    spec = _read_json_object(path, "--init-json")
    for key, (_, check, kind) in _SIMULATE_FIELDS.items():
        if spec.get(key) is not None and not check(spec[key]):
            raise CliUsageError(f"--init-json: {key} must be {kind}, not {spec[key]!r}")
    return spec


def cmd_simulate(args, report: RunReport):
    spec = _read_init_json(args.init_json) if args.init_json else {}
    typed = [key for key in _SIMULATE_FIELDS if getattr(args, key) is not None]
    for key, (default, _, _) in _SIMULATE_FIELDS.items():
        if getattr(args, key) is None:
            setattr(args, key, spec.get(key, default))
    if args.model is None:
        raise CliUsageError("pick --model or supply --init-json with a model")
    # a typed chart flag of another model is a usage error; --init-json only
    # fills, so its unread fields are skipped.  The manifest records the model
    # as run: every field it reads, and none of the other models' chart fields.
    unread = {key for keys in _MODEL_FIELDS.values() for key in keys}
    unread -= set(_MODEL_FIELDS[args.model])
    stray = [f"--{key}" for key in typed if key in unread]
    if stray:
        raise CliUsageError(f"--model {args.model} does not read {', '.join(stray)}")
    for key in _SIMULATE_FIELDS:
        if key not in unread and getattr(args, key) is not None:
            report.params[key] = getattr(args, key)
    chart, q0_default, p0_default, period = _build_chart(args)
    q0 = np.asarray(args.q0, dtype=float) if args.q0 is not None else q0_default
    p0 = np.asarray(args.p0, dtype=float) if args.p0 is not None else p0_default
    if q0 is None or p0 is None:
        raise CliUsageError("this model has no default orbit: supply --q0 and --p0")
    if len(q0) != chart.dof or len(p0) != chart.dof:
        raise CliUsageError(f"state length must be {chart.dof}")
    t_end = args.t_end
    if t_end is None:
        if period is None:
            raise CliUsageError("supply --t-end (no default period for this model)")
        t_end = 10.0 * period
    record = models.simulate(chart, q0, p0, t_end, rtol=args.rtol, samples=args.samples)
    payload = jsonable({
        "model": args.model,
        "chart": record.chart_name,
        "dof": chart.dof,
        "t_end": t_end,
        "samples": args.samples,
        "rtol": args.rtol,
        "drift": record.drift,
        "rhs_evaluations": record.rhs_evaluations,
        "q0": q0,
        "p0": p0,
    })
    report.write_json("simulate.json", payload, "simulate")
    header = (["t"] + [f"q{i}" for i in range(chart.dof)]
              + [f"p{i}" for i in range(chart.dof)] + record.integral_names)
    rows = np.column_stack([record.times, record.states, record.integral_series])
    report.write_csv("trajectory.csv", header, rows.tolist())


def cmd_check_subspace(args, report: RunReport):
    if args.json_file:
        spec = _read_json_object(args.json_file, "--json")
        missing = [key for key in ("masses", "d", "basis_rows") if key not in spec]
        if missing:
            raise CliUsageError(f"--json lacks {', '.join(missing)}")
        try:
            sub = models.InvariantSubspace(
                MassVector(np.asarray(spec["masses"], dtype=float)), int(spec["d"]),
                np.asarray(spec["basis_rows"], dtype=float).T, spec.get("label", "custom"))
        except (TypeError, ValueError) as exc:
            raise CliUsageError(f"--json: {exc}") from exc
    elif args.builtin == "five-body":
        sub = models.five_body_subspace()
    elif args.builtin == "n3":
        if args.n < 2:
            raise CliUsageError("--n must be at least 2")
        sub = models.n3_subspace(args.n)
    elif args.builtin == "colinear":
        masses = args.masses if args.masses is not None else [1.0, 1.0, 1.0]
        _check_bodies(masses)
        sub = models.colinear_subspace(np.asarray(masses, dtype=float))
    else:
        raise CliUsageError("pick --builtin or supply --json")
    result = models.check_invariant_subspace(sub, samples=args.samples, seed=args.seed)
    payload = jsonable({
        "label": result["label"],
        "samples": result["samples"],
        "rejected": result["rejected"],
        "max_leakage": result["max_leakage"],
        "threshold": args.threshold,
        "within_threshold": result["max_leakage"] <= args.threshold,
    })
    report.write_json("check_subspace.json", payload, "check_subspace")
    report.write_csv(
        "leakage.csv",
        ("sample", "leakage"),
        list(enumerate(result["leakages"])),
    )


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = jsonable({
        k: v for k, v in vars(args).items()
        if k not in ("func", "out", "subcommand") and v is not None
    })
    params = {k: str(v) if isinstance(v, Fraction) else v for k, v in params.items()}
    try:
        report = RunReport(args.out, args.subcommand, params)
        try:
            args.func(args, report)
        except NBodyError as exc:
            detail = {"type": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, NoConvergenceError) and exc.best_residual is not None:
                detail["best_residual"] = float(exc.best_residual)
            report.write_json("error.json", {
                "subcommand": args.subcommand,
                "parameters": params,
                "error": detail,
            }, "error")
            print(f"nbodylab {args.subcommand}: {detail['type']}: {exc}", file=sys.stderr)
            return 2
        report.finish()
    except CliUsageError as exc:
        print(f"nbodylab {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nbodylab: cannot create run directory: {exc}", file=sys.stderr)
        return 1
    print(report.directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
