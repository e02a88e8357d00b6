"""Spans around the calls into nbodylab's public functions, set from outside.

`install` replaces each traced function by a wrapper in every nbodylab module
that holds a reference to it, so a function imported by name (for example
`central.hessian_w` or `admissibility.moulton_solve`) is traced wherever it is
called from.  Chart methods and `RunReport.write_csv` are wrapped on their
classes.  Nothing inside the package changes; the untraced run never calls
`install`.

Each span records its name, the benchmark op it belongs to, its parent span,
and its start and end in nanoseconds.  Spans stay in memory; `write` puts them
in one CSV file when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from pathlib import Path

# (metric prefix, module name, attribute); a dotted attribute is a method
TRACED = (
    ("potential.hessian_w", "potential", "hessian_w"),
    ("potential.acceleration", "potential", "acceleration"),
    ("potential.gradient", "potential", "gradient"),
    ("potential.third_contract", "potential", "third_contract"),
    ("central.moulton_solve", "central", "moulton_solve"),
    ("central.normalize_cc", "central", "normalize_cc"),
    ("admissibility.planar_spectrum", "admissibility", "planar_spectrum"),
    ("admissibility.exceptional_point", "admissibility", "exceptional_point"),
    ("admissibility.spectrum_report", "admissibility", "spectrum_report"),
    ("fourbody.pair_feasibility", "fourbody", "pair_feasibility"),
    ("fourbody.order2_exclusion_4body", "fourbody", "order2_exclusion_4body"),
    ("fourbody.trace_sweep", "fourbody", "trace_sweep"),
    ("models.simulate", "models", "simulate"),
    ("models.chart.gradient", "models", "NBodyChart.gradient"),
    ("models.chart.gradient", "models", "PairedOrbitsChart.gradient"),
    ("models.chart.gradient", "models", "CentralForceChart.gradient"),
    ("models.chart.min_separation", "models", "NBodyChart.min_separation"),
    ("models.chart.min_separation", "models", "PairedOrbitsChart.min_separation"),
    ("models.chart.min_separation", "models", "CentralForceChart.min_separation"),
    ("models.chart.integrals", "models", "NBodyChart.integrals"),
    ("models.chart.integrals", "models", "PairedOrbitsChart.integrals"),
    ("models.chart.integrals", "models", "CentralForceChart.integrals"),
    ("reporting.validate_payload", "reporting", "validate_payload"),
    ("reporting.write_csv", "reporting", "RunReport.write_csv"),
    ("reporting.sha256_file", "reporting", "sha256_file"),
    ("cli.main", "cli", "main"),
)

MODULES = ("potential", "central", "admissibility", "fourbody", "models",
           "reporting", "cli")


class Tracer:
    """In-memory span store with per-name call, failure and time totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: list[int] = []
        self.failed: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for totals in (self.calls, self.failed, self.self_ns, self.total_ns):
                totals.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0)
            self._stack.append(idx)
            self._child_ns.append(0)
            ok = False
            start = clock()
            self.span_start.append(start)
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                self.span_end[idx] = end
                self._stack.pop()
                dur = end - start
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - self._child_ns.pop()
                self.calls[nid] += 1
                if not ok:
                    self.failed[nid] += 1
                if self._child_ns:
                    self._child_ns[-1] += dur

        return traced

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent is named `parent`."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for i, n in enumerate(names)
                   if n == cid and parents[i] >= 0 and names[parents[i]] == pid)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(("span", "op", "parent", "name", "start_ns", "end_ns"))
            for i in range(len(self.span_start)):
                out.writerow((i, self.span_op[i], self.span_parent[i],
                              self.names[self.span_name[i]],
                              self.span_start[i], self.span_end[i]))


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever an nbodylab module refers to it."""
    import importlib

    mods = [importlib.import_module(f"nbodylab.{m}") for m in MODULES]
    by_name = dict(zip(MODULES, mods))
    for label, owner, attr in TRACED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(by_name[owner], cls_name)
            setattr(cls, meth, tracer.wrap(label, vars(cls)[meth]))
            continue
        original = getattr(by_name[owner], attr)
        wrapped = tracer.wrap(label, original)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
