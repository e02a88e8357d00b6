"""Batch command-line front end.

One subcommand per analysis; every run writes a JSON summary, a CSV detail
table and a manifest with output digests into its own timestamped directory.
A flag and the field of the same name in an --init-json or --json file pass
one rule and give the same value.  Usage problems exit 1; module errors exit 2
after writing a structured error JSON.
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


_KIND_NAMES = {float: "a number", int: "an integer", Fraction: "a rational number",
               str: "a string"}


class _Rule:
    """The rule of one input, for a flag and for a JSON field alike.

    argparse calls it on a flag's text; with ``from_text=False`` it takes the
    JSON value of the same field, which must already have the rule's type (a
    bool or a string is not a number).  Both give the same value under the same
    bounds.  ``items`` 1 reads a comma-separated list or a JSON list, 2 a JSON
    list of lists; a bound pairs a test that the value breaks it with a message.
    """

    def __init__(self, kind, *bounds, items=0):
        self.kind, self.bounds, self.items = kind, bounds, items

    def __call__(self, raw, from_text=True):
        value = self._value(raw, from_text, self.items)
        for broken, message in self.bounds:
            if broken(value):
                raise argparse.ArgumentTypeError(message.format(value=value, raw=raw))
        return value

    def _value(self, raw, from_text, items):
        if items:
            if from_text:
                raw = [tok for tok in raw.split(",") if tok.strip() != ""]
            elif not isinstance(raw, list):
                raise argparse.ArgumentTypeError(f"not a list: {raw!r}")
            return [self._value(item, from_text, items - 1) for item in raw]
        json_kind = (int, float) if self.kind is float else self.kind
        has_kind = from_text or (isinstance(raw, json_kind) and not isinstance(raw, bool))
        try:
            value = self.kind(raw) if has_kind else None
            finite = value is None or self.kind not in (float, Fraction) or math.isfinite(value)
        except (ValueError, ZeroDivisionError):
            value = None
        except OverflowError:  # a rational or a JSON integer beyond the float range
            value, finite = raw, False
        if value is None:
            raise argparse.ArgumentTypeError(f"not {_KIND_NAMES[self.kind]}: {raw!r}")
        if not finite:
            raise argparse.ArgumentTypeError(f"non-finite value {raw!r}")
        return value


def _above(low):
    return (lambda value: value <= low), f"must be > {low}, got {{raw!r}}"


def _at_least(low, unit):
    return (lambda value: value < low), f"need at least {low} {unit}, got {{value}}"


def _at_most(high, unit):
    return (lambda value: value > high), f"need at most {high} {unit}, got {{value}}"


def _one_of(options):
    listed = ", ".join(map(str, options))
    return (lambda value: value not in options), f"must be one of {listed}, got {{value!r}}"


# the largest grid each grid subcommand accepts; the peak RSS at each limit is
# about 0.3 GB: sweep keeps its feasible cells, pairs the whole grid's mass line
_MAX_CELLS = {"sweep": 3000, "pairs": 1000}

# the chart fields each model reads; model, q0, p0 and t_end serve them all
_MODEL_FIELDS = {"five-body": (), "n3": ("n",), "kepler": ("kappa", "dof"),
                 "full": ("masses", "d")}

# the one rule of each input: every typed flag's argparse type, and the rule
# of each --init-json and --json field, which shares its flag's name
_RULES = {
    "masses": _Rule(float, (lambda value: len(value) < 2, "need at least 2 entries, got {value}"),
                    items=1),
    "q0": _Rule(float, items=1),
    "p0": _Rule(float, items=1),
    "basis_rows": _Rule(float, items=2),
    "label": _Rule(str),
    "order": _Rule(int, items=1),
    "rho_max": _Rule(float, _above(1)),
    "sweep_cells": _Rule(int, _at_least(2, "cells"), _at_most(_MAX_CELLS["sweep"], "cells")),
    "pairs_cells": _Rule(int, _at_least(2, "cells"), _at_most(_MAX_CELLS["pairs"], "cells")),
    "jobs": _Rule(int, _at_least(1, "worker")),
    "n": _Rule(int, _at_least(2, "polygon bodies")),
    "kappa": _Rule(float, _above(0)),
    "dof": _Rule(int, _one_of((2, 3))),
    "d": _Rule(int, _at_least(1, "dimension")),
    "t_end": _Rule(float, _above(0)),
    "samples": _Rule(int, _at_least(2, "samples")),
    "subspace_samples": _Rule(int, _at_least(1, "sample")),
    "rtol": _Rule(float, _above(0), (lambda value: value < MIN_RTOL, "must be at least "
                  f"{float(MIN_RTOL)!r} (100 machine epsilons), got {{raw!r}}")),
    # the exact ek masses of a longer rho pass Python's 4300-digit limit of int text
    "rho": _Rule(Fraction, (lambda value: max(abs(value.numerator), value.denominator) >= 10**400,
                            "need a numerator and denominator of at most 400 digits")),
    "threshold": _Rule(float),
    "int": _Rule(int),
    "model": _Rule(str, _one_of(tuple(_MODEL_FIELDS))),
}

# the model fields of simulate and their built-in defaults: a typed flag wins,
# the --init-json file fills the flags not typed, and the default the rest
_SIMULATE_FIELDS = {"model": None, "n": 4, "kappa": 1.0, "dof": 3, "masses": None,
                    "d": 2, "q0": None, "p0": None, "t_end": None}

# the fields check-subspace --json reads; all but label are required
_SUBSPACE_FIELDS = ("masses", "d", "basis_rows", "label")


def build_parser() -> _Parser:
    parser = _Parser(prog="nbodylab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nbodylab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    rule = _RULES

    p = sub.add_parser("solve-cc", help="colinear central configuration of given masses")
    p.add_argument("--masses", type=rule["masses"], required=True,
                   help="comma-separated masses, e.g. 1,1,1")
    p.add_argument("--n", type=rule["int"], default=None,
                   help="expected body count (validated against --masses)")
    p.add_argument("--order", type=rule["order"], default=None,
                   help="axis ordering as a permutation, e.g. 0,1,2")
    p.set_defaults(func=cmd_solve_cc)

    p = sub.add_parser("ek", help="exceptional-curve masses for spectrum {0,2,k}")
    p.add_argument("--k", type=rule["int"], required=True, help="target eigenvalue (5, 9 or 14)")
    p.add_argument("--rho", type=rule["rho"], required=True,
                   help="shape parameter as an exact rational, e.g. 1 or 3/2")
    p.set_defaults(func=cmd_ek)

    p = sub.add_parser("sweep", help="4-body boundary trace sweep over shape space")
    p.add_argument("--rho-max", type=rule["rho_max"], default=20.0,
                   help="upper edge of both axes (> 1)")
    p.add_argument("--cells", type=rule["sweep_cells"], default=400,
                   help=f"grid cells per axis (2 to {_MAX_CELLS['sweep']})")
    p.add_argument("--jobs", type=rule["jobs"], default=None,
                   help="worker processes (at least 1)")
    p.add_argument("--no-refine", action="store_true", help="skip local refinement")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pairs", help="classify admissible 4-body eigenvalue pairs")
    p.add_argument("--mode", choices=("nonsymmetric", "symmetric", "full"),
                   default="full", help="which feasibility stage to run")
    p.add_argument("--rho-max", type=rule["rho_max"], default=20.0, help="search window edge")
    p.add_argument("--cells", type=rule["pairs_cells"], default=240,
                   help=f"grid cells per axis (2 to {_MAX_CELLS['pairs']})")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("planar", help="planar spectrum verdict at a colinear configuration")
    p.add_argument("--masses", type=rule["masses"], required=True,
                   help="comma-separated positive masses")
    p.add_argument("--n", type=rule["int"], default=None,
                   help="expected body count (validated against --masses)")
    p.add_argument("--order", type=rule["order"], default=None, help="axis ordering")
    p.set_defaults(func=cmd_planar)

    p = sub.add_parser("simulate", help="integrate a model chart and report drifts")
    p.add_argument("--model", type=rule["model"], default=None,
                   help=f"which chart to integrate: {', '.join(_MODEL_FIELDS)}")
    p.add_argument("--n", type=rule["n"], help="polygon size for the n3 model (default 4)")
    p.add_argument("--kappa", type=rule["kappa"], help="kepler strength (default 1)")
    p.add_argument("--dof", type=rule["dof"], help="kepler degrees of freedom (default 3)")
    p.add_argument("--masses", type=rule["masses"], default=None, help="full-model masses")
    p.add_argument("--d", type=rule["d"], help="full-model space dimension (default 2)")
    p.add_argument("--q0", type=rule["q0"], default=None, help="initial positions")
    p.add_argument("--p0", type=rule["p0"], default=None, help="initial momenta")
    p.add_argument("--t-end", type=rule["t_end"], default=None,
                   help="integration time (> 0)")
    p.add_argument("--samples", type=rule["samples"], default=2001,
                   help="output samples (at least 2)")
    p.add_argument("--rtol", type=rule["rtol"], default=1e-12,
                   help="integrator tolerance (at least 100 machine epsilons)")
    p.add_argument("--init-json", default=None,
                   help="JSON model file; its fields (model, n, kappa, dof, masses, "
                        "d, q0, p0, t_end) fill the flags not typed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-subspace", help="acceleration leakage of an invariant subspace")
    p.add_argument("--builtin", choices=("five-body", "n3", "colinear"), default=None,
                   help="one of the shipped subspaces")
    p.add_argument("--n", type=rule["n"], default=4, help="polygon size for the n3 subspace")
    p.add_argument("--masses", type=rule["masses"], default=None,
                   help="masses for the colinear subspace or a JSON-free custom check")
    p.add_argument("--json", dest="json_file", default=None,
                   help="JSON file with masses, d, basis_rows and an optional label")
    p.add_argument("--samples", type=rule["subspace_samples"], default=50,
                   help="random points to draw (at least 1)")
    p.add_argument("--seed", type=rule["int"], default=0, help="RNG seed")
    p.add_argument("--threshold", type=rule["threshold"], default=1e-9, help="pass threshold")
    p.set_defaults(func=cmd_check_subspace)

    for sp in sub.choices.values():
        sp.add_argument("--out", default="runs", help="base output directory")
    return parser


def _check_bodies(masses, n, order):
    """The checks of --n and --order against --masses, before any solve."""
    if n is not None and n != len(masses):
        raise CliUsageError(f"--n {n} does not match {len(masses)} masses")
    if order is not None and sorted(order) != list(range(len(masses))):
        raise CliUsageError(f"--order must be a permutation of 0..{len(masses) - 1}")


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


def _read_fields(path, flag, fields, required=()) -> dict:
    """The JSON object of ``flag``, each of ``fields`` passed through its rule
    (a null has no rule's type), and each of ``required`` present."""
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise CliUsageError(f"cannot read {flag}: {exc}") from exc
    if not isinstance(spec, dict):
        raise CliUsageError(f"{flag} must hold a JSON object")
    for key in fields:
        if key in spec:
            try:
                spec[key] = _RULES[key](spec[key], from_text=False)
            except argparse.ArgumentTypeError as exc:
                raise CliUsageError(f"{flag}: {key}: {exc}") from None
    missing = [key for key in required if key not in spec]
    if missing:
        raise CliUsageError(f"{flag} lacks {', '.join(missing)}")
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
        kap = 8.0 * args.n * models.polygon_alpha(args.n)
        chart = models.CentralForceChart(kap, dof=3, name=f"{args.n}+3 chart")
        q2, p2, period = models.circular_orbit_state(kap, 1.5)
        return (chart, np.array([q2[0], q2[1], 0.0]),
                np.array([p2[0], p2[1], 0.0]), period)
    if args.model == "kepler":
        chart = models.CentralForceChart(args.kappa, dof=args.dof)
        q2, p2, period = models.circular_orbit_state(args.kappa, 1.0)
        q0 = np.zeros(args.dof)
        p0 = np.zeros(args.dof)
        q0[:2], p0[:2] = q2, p2
        return chart, q0, p0, period
    if args.masses is None:
        raise CliUsageError("--model full needs --masses")
    chart = models.NBodyChart(MassVector(np.asarray(args.masses, dtype=float)), args.d)
    return chart, None, None, None


def cmd_simulate(args, report: RunReport):
    spec = _read_fields(args.init_json, "--init-json", _SIMULATE_FIELDS) if args.init_json else {}
    typed = [key for key in _SIMULATE_FIELDS if getattr(args, key) is not None]
    for key, default in _SIMULATE_FIELDS.items():
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
        spec = _read_fields(args.json_file, "--json", _SUBSPACE_FIELDS, _SUBSPACE_FIELDS[:3])
        try:
            sub = models.InvariantSubspace(
                MassVector(np.asarray(spec["masses"])), spec["d"],
                np.asarray(spec["basis_rows"]).T, spec.get("label", "custom"))
        except ValueError as exc:  # a ragged basis, or one of the wrong size or not orthonormal
            raise CliUsageError(f"--json: {exc}") from exc
    elif args.builtin == "five-body":
        sub = models.five_body_subspace()
    elif args.builtin == "n3":
        sub = models.n3_subspace(args.n)
    elif args.builtin == "colinear":
        sub = models.colinear_subspace(np.asarray(args.masses or [1.0, 1.0, 1.0]))
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
        k: str(v) if isinstance(v, Fraction) else v for k, v in vars(args).items()
        if k not in ("func", "out", "subcommand") and v is not None
    })
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
