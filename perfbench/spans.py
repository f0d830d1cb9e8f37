"""Span recording for traced benchmark passes.

Tracing is done from outside the program: ``install`` replaces public
functions of the weylzeta modules with wrappers that record one span per
call, in every module namespace that binds the function, so calls between
modules are seen too.  Spans stay in memory (label, parent span, job, start,
end) until the pass ends; ``layer_metrics`` then turns them into the
per-layer metrics listed in ``workloads.PER_LAYER``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

# Public functions traced, by defining module: (name, span label).
TARGETS = {
    "weylzeta.rootsys": [
        ("build", "build"),
        ("quadratic_nullspace_dim", "rigidity"),
        ("spanning_check", "rigidity"),
    ],
    "weylzeta.repdegrees": [
        ("enumerate_dominant", "enumerate"),
        ("in_lattice", "lattice"),
        ("allowable", "allowable"),
        ("dim_irrep", "dim_irrep"),
        ("euler_identity_check", "euler"),
        ("zeta_coefficients", "compute"),
        ("zeta_star_coefficients", "compute"),
    ],
    "weylzeta.weylpoly": [("weyl_polynomial", "weyl_polynomial")],
    "weylzeta.efficiency": [("eff_bruteforce", "bruteforce")],
    "weylzeta.gassmann": [
        ("dirichlet_coeffs", "dirichlet"),
        ("quotient_zeta", "quotient_zeta"),
        ("perm_equivalent", "perm_equivalent"),
    ],
}


class Recorder:
    """In-memory span store: one entry per traced call."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_job = -1
        self.counters = {"builds": 0, "weights_kept": 0,
                         "quotient_calls": 0, "quotient_kept": 0}
        self.f4_spans: list[int] = []
        self._built: set[int] = set()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn, observe=None):
        """fn wrapped to record a span labelled ``label`` per call.

        ``observe(index, args, result)`` runs after a call that returned.
        """
        lid = self._label_id(label)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.label.append(lid)
            self.parent.append(stack[-1])
            self.job.append(self.current_job)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    # -- observers: counts taken where the work happens --------------------

    def _observe_build(self, idx, args, result):
        if id(result) not in self._built:
            self._built.add(id(result))
            self.counters["builds"] += 1

    def _observe_enumerate(self, idx, args, result):
        self.counters["weights_kept"] += len(result)

    def _observe_lattice(self, idx, args, result):
        if args[0].kind != "sc":
            self.counters["quotient_calls"] += 1
            self.counters["quotient_kept"] += bool(result)

    def _observe_bruteforce(self, idx, args, result):
        if str(getattr(args[0], "id", args[0])) == "F4":
            self.f4_spans.append(idx)


def _rebind(original, replacement) -> None:
    """Bind ``replacement`` wherever a weylzeta module binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "weylzeta" or name.startswith("weylzeta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Patch every traced function and method of the imported weylzeta."""
    import weylzeta.cli  # noqa: F401  (loads every module that binds a target)
    from weylzeta import repdegrees, verify

    observers = {
        "build": rec._observe_build,
        "enumerate_dominant": rec._observe_enumerate,
        "in_lattice": rec._observe_lattice,
        "eff_bruteforce": rec._observe_bruteforce,
    }
    for module_name, targets in TARGETS.items():
        module = sys.modules[module_name]
        for name, label in targets:
            original = getattr(module, name)
            _rebind(original, rec.wrap(label, original, observers.get(name)))
    for name, fn in list(vars(verify).items()):
        if name.startswith("check_") and callable(fn):
            _rebind(fn, rec.wrap("check." + name[len("check_"):], fn))
    table = repdegrees.DegreeTable
    table.from_text = classmethod(rec.wrap("parse", table.from_text.__func__))
    table.to_text = rec.wrap("render", table.to_text)


def layer_metrics(rec: Recorder, cache_jobs: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``cache_jobs`` holds the indices of the jobs that ran with ``--cache``.
    A cache job that called a compute function missed; the others hit.
    """
    n = len(rec.start)
    label_of = rec.labels
    dur = array("d", (rec.end[i] - rec.start[i] for i in range(n)))
    children = array("d", bytes(8 * n))
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            children[p] += dur[i]
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    missed_jobs: set[int] = set()
    visited = 0
    for i in range(n):
        label = label_of[rec.label[i]]
        self_s[label] = self_s.get(label, 0.0) + dur[i] - children[i]
        incl_s[label] = incl_s.get(label, 0.0) + dur[i]
        calls[label] = calls.get(label, 0) + 1
        if label == "compute":
            missed_jobs.add(rec.job[i])
        elif label == "lattice":
            p = rec.parent[i]
            if p >= 0 and label_of[rec.label[p]] == "enumerate":
                visited += 1
    write_s = sum(dur[i] - children[i] for i in range(n)
                  if label_of[rec.label[i]] == "job" and rec.job[i] in missed_jobs
                  and rec.job[i] in cache_jobs)
    parsed = calls.get("parse", 0)
    misses = len(missed_jobs & cache_jobs)
    hits = len(cache_jobs) - misses
    c = rec.counters
    out = {
        "rootsys.build_s": self_s.get("build", 0.0),
        "rootsys.builds": c["builds"],
        "rootsys.rigidity_s": self_s.get("rigidity", 0.0),
        "repdegrees.enumerate_s": self_s.get("enumerate", 0.0),
        "repdegrees.weights_visited": visited,
        "repdegrees.weights_kept": c["weights_kept"],
        "repdegrees.lattice_s": self_s.get("lattice", 0.0),
        "repdegrees.lattice_calls": calls.get("lattice", 0),
        "repdegrees.lattice_accept_ratio":
            c["quotient_kept"] / c["quotient_calls"] if c["quotient_calls"] else 0.0,
        "repdegrees.allowable_s": self_s.get("allowable", 0.0),
        "repdegrees.allowable_calls": calls.get("allowable", 0),
        "repdegrees.dim_irrep_s": self_s.get("dim_irrep", 0.0),
        "repdegrees.dim_irrep_calls": calls.get("dim_irrep", 0),
        "repdegrees.euler_s": self_s.get("euler", 0.0),
        "weylpoly.weyl_polynomial_s": self_s.get("weyl_polynomial", 0.0),
        "weylpoly.polynomials": calls.get("weyl_polynomial", 0),
        "efficiency.bruteforce_s": self_s.get("bruteforce", 0.0),
        "efficiency.bruteforce_F4_s": sum(dur[i] - children[i] for i in rec.f4_spans),
        "gassmann.dirichlet_s": self_s.get("dirichlet", 0.0),
        "gassmann.dirichlet_calls": calls.get("dirichlet", 0),
        "gassmann.quotient_zeta_s": self_s.get("quotient_zeta", 0.0),
        "gassmann.perm_equivalent_s": self_s.get("perm_equivalent", 0.0),
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_tables_parsed": parsed,
        "cli.cache_parse_useful_ratio": hits / parsed if parsed else 0.0,
        "cli.cache_parse_s": incl_s.get("parse", 0.0),
        "cli.cache_write_s": write_s,
        "trace.spans": n,
    }
    for label in label_of:
        if label.startswith("check."):
            out[f"verify.{label}_s"] = incl_s.get(label, 0.0)
    return out


def merge(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
