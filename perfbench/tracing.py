"""Spans and counters around the public functions of each innerclt module.

The wrappers live here, outside the package.  `Tracer.install` replaces
every public function at each name the package binds it to (modules import
by name, so `clark.integrate` and `correlations.integrate` are wrapped as
well as `quadrature.integrate`), the listed methods on their classes, the
private `clt._accumulate` (timed as clt.accumulate_s), and
`scipy.stats.kstest`.  `uninstall` puts the originals back.

A span is (name, start_ns, end_ns, parent, op_id).  Spans stay in memory
and are written out once at the end.  A layer's self time is the duration
of its spans minus the part covered by their child spans.

Which end-to-end metric each per-layer metric should move:
  blaschke.{calls,points,self_s,ns_per_point}   wall_s on quad_corr, clt_sample
  blaschke.us_per_call                          op_p50_ms on clark_atoms
  quadrature.* (but uniform_s)                  wall_s, op_p90_ms, peak_mem_mb
                                                on quad_corr; flat elsewhere
  quadrature.uniform_s                          wall_s on clt_sample
  correlations.{calls,self_s}                   wall_s on quad_corr
  clark.*                                       op_p50_ms, wall_s on clark_atoms
  variance.*                                    wall_s, peak_mem_mb on
                                                variance_scan; flat elsewhere
  clt.*                                         op_p50_ms, wall_s on clt_sample
  cli.{self_s,bytes_written}                    wall_s on clt_sample
  import.scipy_stats_s                          setup_s on every workload
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

import innerclt
from innerclt import blaschke, clark, cli, clt, correlations, quadrature, variance
from innerclt.errors import NonConvergence

LAYERS = {"blaschke": blaschke, "quadrature": quadrature, "correlations": correlations,
          "clark": clark, "variance": variance, "clt": clt, "cli": cli}
METHODS = {
    "blaschke.BlaschkeProduct": ("__call__", "derivative", "taylor_at_zero", "boundary_step",
                                 "boundary_orbit", "boundary_iterates", "iterate_boundary"),
    "clark.BoundaryAtomSolver": ("__init__", "atom_angles", "atoms"),
    "variance.CoefficientSequence": ("ones", "random_signs", "geometric", "explicit"),
}
SEQ_BUILDERS = tuple(f"variance.CoefficientSequence.{m}" for m in METHODS["variance.CoefficientSequence"])
INTEGRATE = "quadrature.integrate"
BUILD = "clark.BoundaryAtomSolver.__init__"
SOLVE = "clark.BoundaryAtomSolver.atoms"
# Problem size of each variance kernel, counted once per outermost call.
VARIANCE_TERMS = {
    "sigma_N_squared": lambda b: b["N"],
    "tail_sigma_squared": lambda b: len(b["a"]) - b["N"] + 1,
    "toeplitz_sandwich": lambda b: b["N"],
    "split_plan": lambda b: b["N"],
    "quasiorthogonality": lambda b: sum(int(n) for n in b["n_list"]),
    "growth_condition": lambda b: sum(int(n) for n in b["n_list"]),
}

PER_LAYER = (
    ("blaschke.calls", "count"), ("blaschke.points", "count"), ("blaschke.self_s", "s"),
    ("blaschke.ns_per_point", "ns"), ("blaschke.us_per_call", "us"),
    ("quadrature.integrate_calls", "count"), ("quadrature.levels", "count"),
    ("quadrature.grid_points", "count"), ("quadrature.useful_ratio", "ratio"),
    ("quadrature.circle_grid_s", "s"), ("quadrature.self_s", "s"),
    ("quadrature.nonconvergence", "count"), ("quadrature.uniform_s", "s"),
    ("correlations.calls", "count"), ("correlations.self_s", "s"),
    ("clark.solver_builds", "count"), ("clark.build_s", "s"),
    ("clark.build_grid_points", "count"), ("clark.solves", "count"), ("clark.solve_s", "s"),
    ("clark.orbit_calls_per_solve", "count"),
    ("variance.calls", "count"), ("variance.terms", "count"), ("variance.self_s", "s"),
    ("variance.ns_per_term", "ns"), ("variance.seq_build_s", "s"),
    ("clt.samples", "count"), ("clt.accumulate_s", "s"), ("clt.report_s", "s"),
    ("clt.ks_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op_id]
        self.stack = []
        self.active = Counter()  # open spans per name and per layer
        self.counts = Counter()
        self.op_id = -1
        self.enabled = False
        self._saved = []
        self._pre = self._hooks()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        pre = self._pre.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op_id]
            self.spans.append(span)
            self.stack.append(idx)
            self.active[name] += 1
            self.active[layer] += 1
            try:
                if pre is not None:
                    args, kwargs = pre(fn, args, kwargs)
                span[1] = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                except NonConvergence:
                    if name == INTEGRATE:
                        self.counts["quadrature.nonconvergence"] += 1
                    raise
                finally:
                    span[2] = time.perf_counter_ns()
                if name == INTEGRATE:
                    self.counts["quadrature.accepted_points"] += result.grid_size
                return result
            finally:
                self.stack.pop()
                self.active[name] -= 1
                self.active[layer] -= 1
        return wrapper

    def _hooks(self):
        hooks = {
            "blaschke.BlaschkeProduct.__call__": self._count_points,
            "blaschke.BlaschkeProduct.derivative": self._count_points,
            "blaschke.BlaschkeProduct.boundary_orbit": self._count_orbit,
            INTEGRATE: self._enter_integrate,
            BUILD: lambda fn, a, k: self._bump("clark.solver_builds", a, k),
            SOLVE: lambda fn, a, k: self._bump("clark.solves", a, k),
            "clt.simulate": self._count_samples,
            "clt.tails_run": self._count_samples,
        }
        for kernel in VARIANCE_TERMS:
            hooks[f"variance.{kernel}"] = functools.partial(self._count_terms, kernel)
        return hooks

    def _bump(self, key, args, kwargs):
        self.counts[key] += 1
        return args, kwargs

    def _count_points(self, fn, args, kwargs):
        self.counts["blaschke.calls"] += 1
        self.counts["blaschke.points"] += int(np.size(args[1]))
        return args, kwargs

    def _count_orbit(self, fn, args, kwargs):
        if self.active[BUILD]:
            self.counts["clark.build_grid_points"] += int(np.size(args[1]))
        if self.active[SOLVE]:
            self.counts["clark.solve_orbit_calls"] += 1
        return args, kwargs

    def _count_samples(self, fn, args, kwargs):
        self.counts["clt.samples"] += int(inspect.signature(fn).bind(*args, **kwargs).arguments["M"])
        return args, kwargs

    def _count_terms(self, kernel, fn, args, kwargs):
        if self.active["variance"] == 1:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            self.counts["variance.terms"] += int(VARIANCE_TERMS[kernel](bound))
        return args, kwargs

    def _enter_integrate(self, fn, args, kwargs):
        """Count grid levels through the integrand.

        The integrand is code of whoever called integrate, so its span is
        named after the caller's layer ("bench" for a direct call).
        """
        bound = inspect.signature(fn).bind(*args, **kwargs)
        parent = self.spans[self.stack[-1]][3]
        caller = self.spans[parent][0].split(".")[0] if parent >= 0 else "bench"
        traced_g = self._wrap(f"{caller}.integrand", bound.arguments["g"])

        def counted(z):
            self.counts["quadrature.levels"] += 1
            self.counts["quadrature.grid_points"] += int(np.size(z))
            return traced_g(z)

        bound.arguments["g"] = counted
        self.counts["quadrature.integrate_calls"] += 1
        return bound.args, bound.kwargs

    # -- install / uninstall ------------------------------------------------

    def install(self, callers=()):
        """Wrap the public functions at every name the package binds them to.

        `callers` are further modules (the benchmark's own) whose imported
        names are rebound the same way.
        """
        originals = {}
        for layer, module in LAYERS.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        originals[clt._accumulate] = self._wrap("clt._accumulate", clt._accumulate)
        for module in (innerclt, *LAYERS.values(), *callers):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(module, attr, originals[obj])
        for qualname, methods in METHODS.items():
            layer, cls_name = qualname.split(".")
            cls = getattr(LAYERS[layer], cls_name)
            for m in methods:
                raw = cls.__dict__[m]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(f"{qualname}.{m}", raw.__func__))
                else:
                    wrapped = self._wrap(f"{qualname}.{m}", raw)
                self._set(cls, m, wrapped, raw)
        from scipy import stats
        self._set(stats, "kstest", self._wrap("scipy.kstest", stats.kstest))

    def _set(self, owner, attr, new, old=None):
        self._saved.append((owner, attr, owner.__dict__[attr] if old is None else old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0] * len(self.spans)
        for span, d in zip(self.spans, dur):
            if span[3] >= 0:
                child[span[3]] += d
        self_time, total, calls = Counter(), Counter(), Counter()
        for span, d, c in zip(self.spans, dur, child):
            layer = span[0].split(".")[0]
            self_time[layer] += d - c
            total[span[0]] += d
            if not span[0].endswith(".integrand"):
                calls[layer] += 1
        c = self.counts

        def sec(ns):
            return ns * 1e-9

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        return {
            "blaschke.calls": c["blaschke.calls"],
            "blaschke.points": c["blaschke.points"],
            "blaschke.self_s": sec(self_time["blaschke"]),
            "blaschke.ns_per_point": ratio(self_time["blaschke"], c["blaschke.points"]),
            "blaschke.us_per_call": ratio(self_time["blaschke"], c["blaschke.calls"], 1e-3),
            "quadrature.integrate_calls": c["quadrature.integrate_calls"],
            "quadrature.levels": c["quadrature.levels"],
            "quadrature.grid_points": c["quadrature.grid_points"],
            "quadrature.useful_ratio": ratio(c["quadrature.accepted_points"],
                                             c["quadrature.grid_points"]),
            "quadrature.circle_grid_s": sec(total["quadrature.circle_grid"]),
            "quadrature.self_s": sec(self_time["quadrature"]),
            "quadrature.nonconvergence": c["quadrature.nonconvergence"],
            "quadrature.uniform_s": sec(total["quadrature.counter_uniform"]),
            "correlations.calls": calls["correlations"],
            "correlations.self_s": sec(self_time["correlations"]),
            "clark.solver_builds": c["clark.solver_builds"],
            "clark.build_s": sec(total[BUILD]),
            "clark.build_grid_points": c["clark.build_grid_points"],
            "clark.solves": c["clark.solves"],
            "clark.solve_s": sec(total[SOLVE]),
            "clark.orbit_calls_per_solve": ratio(c["clark.solve_orbit_calls"], c["clark.solves"]),
            "variance.calls": calls["variance"],
            "variance.terms": c["variance.terms"],
            "variance.self_s": sec(self_time["variance"]),
            "variance.ns_per_term": ratio(self_time["variance"], c["variance.terms"]),
            "variance.seq_build_s": sec(sum(total[k] for k in SEQ_BUILDERS)),
            "clt.samples": c["clt.samples"],
            "clt.accumulate_s": sec(total["clt._accumulate"]),
            "clt.report_s": sec(total["clt.gauss_report"]),
            "clt.ks_s": sec(total["scipy.kstest"]),
            "cli.self_s": sec(self_time["cli"]),
            "cli.bytes_written": c["cli.bytes_written"],
        }

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
