"""Span tracing of qbrach's public functions, installed from outside `src/`.

`Tracer.install()` replaces each traced function at every binding it is
called through: its defining module, any module that imported it by name,
module-level dicts that hold it (`catalog.SCENARIO_BUILDERS`,
`report.SUITES`), and, for methods, the class.  Each call records a span
(name, start, end, parent) in flat arrays; `uninstall()` restores the
originals, so untraced passes run the program unchanged.  `aggregate()`
turns the spans and counters of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("matcore", "brach", "catalog", "gates", "special", "report", "cli")

# (module, attribute path) of every traced callable.  The scenario builders
# are traced under the single name "catalog.build".
TARGETS = (
    ("matcore", "expm_h"), ("matcore", "hermitian_eig"),
    ("matcore", "ordered_exponential"), ("matcore", "check_hermitian"),
    ("matcore", "trace_inner"),
    ("brach", "evolve"), ("brach", "ControlProblem.__init__"),
    ("brach", "ControlProblem.project_driver"),
    ("brach", "ControlProblem.project_constraint"), ("brach", "brach_rhs"),
    ("catalog", "su3_partitions"), ("catalog", "validate"),
    ("catalog", "family_sun"), ("catalog", "Scenario.state_at"),
    ("gates", "verify_unitary"), ("gates", "group_closure"),
    ("special", "residue_at_origin"), ("special", "bessel_J"),
    ("special", "greens_spinwave"), ("special", "spinwave_lattice_oracle"),
    ("special", "laplace_numeric"), ("special", "weighted_integrals"),
    ("special", "bessel_inner_product_probe"),
    ("report", "verify_gates"), ("report", "verify_special"),
    ("report", "verify_catalog"),
    ("cli", "main"),
)
BUILD = "catalog.build"

# The per-layer metrics, in the order BENCHMARK.json lists them:
# (name, unit, better).
PER_LAYER = (
    *((f"matcore.{f}.{s}", u, "lower")
      for f in ("expm_h", "hermitian_eig", "ordered_exponential",
                "check_hermitian", "trace_inner")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    ("brach.evolve.calls", "count", "lower"),
    ("brach.evolve.total_s", "s", "lower"),
    ("brach.evolve.self_s", "s", "lower"),
    ("brach.evolve.steps", "count", "lower"),
    ("brach.evolve.us_per_step", "us", "lower"),
    ("brach.evolve.max_norm_drift", "ratio", "lower"),
    ("brach.evolve.max_trH2_drift", "ratio", "lower"),
    ("brach.evolve.max_trHF_residual", "ratio", "lower"),
    ("brach.evolve.max_eig_drift", "ratio", "lower"),
    ("brach.drift_aborts", "count", "lower"),
    ("brach.ControlProblem.__init__.calls", "count", "lower"),
    ("brach.ControlProblem.__init__.total_s", "s", "lower"),
    *((f"brach.ControlProblem.{f}.{s}", u, "lower")
      for f in ("project_driver", "project_constraint")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    ("brach.brach_rhs.calls", "count", "lower"),
    ("brach.brach_rhs.self_s", "s", "lower"),
    ("catalog.su3_partitions.total_s", "s", "lower"),
    ("catalog.su3_partitions.self_s", "s", "lower"),
    ("catalog.validate.calls", "count", "lower"),
    ("catalog.validate.total_s", "s", "lower"),
    ("catalog.validate.self_s", "s", "lower"),
    ("catalog.family_sun.calls", "count", "lower"),
    ("catalog.family_sun.total_s", "s", "lower"),
    ("catalog.Scenario.state_at.calls", "count", "lower"),
    ("catalog.Scenario.state_at.self_s", "s", "lower"),
    ("catalog.build.calls", "count", "lower"),
    ("catalog.build.total_s", "s", "lower"),
    *((f"gates.{f}.{s}", u, "lower")
      for f in ("verify_unitary", "group_closure")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    *((f"special.{f}.{s}", u, "lower")
      for f in ("residue_at_origin", "bessel_J", "greens_spinwave",
                "spinwave_lattice_oracle", "laplace_numeric",
                "weighted_integrals", "bessel_inner_product_probe")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    *((f"report.{f}.total_s", "s", "lower")
      for f in ("verify_gates", "verify_special", "verify_catalog")),
    ("report.records", "count", "higher"),
    ("report.records_failed", "count", "lower"),
    ("report.records_reported_only", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.rows_written", "count", "higher"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(owner, path):
    """(holder, attribute name, value) for a dotted path under `owner`."""
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Tracer:
    """Records spans of the traced calls; one instance per process."""

    def __init__(self, package):
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches = []          # (holder, key, original, wrapper, is_dict)
        self._drift_abort = self.modules["brach"].DriftAbort
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self._stack = [-1]
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop recorded spans; the arrays are cleared in place because the
        installed wrappers hold references to them."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        del self._stack[1:]
        self.counters = {"evolve_steps": 0, "drift_aborts": 0,
                         "nonzero_exits": 0, "max_norm_drift": 0.0,
                         "max_trH2_drift": 0.0, "max_trHF_residual": 0.0,
                         "max_eig_drift": 0.0, "records": 0,
                         "records_failed": 0, "records_reported_only": 0}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, after=None):
        name_id = self._name_id(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                if after is not None:
                    after(args, kwargs, result, exc)

        return traced

    # -- hooks that read a call's arguments and result ---------------------

    def _after_evolve(self, evolve):
        sig = inspect.signature(evolve)

        def after(args, kwargs, traj, exc):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.counters["evolve_steps"] += max(
                int(round(a["t_max"] / a["dt"])), 1)
            if isinstance(exc, self._drift_abort):
                self.counters["drift_aborts"] += 1
            if traj is None:
                return
            c = self.counters
            for key, arr in (("max_norm_drift", traj.norm_drift),
                             ("max_trH2_drift", traj.trH2_drift),
                             ("max_trHF_residual", traj.trHF_residual),
                             ("max_eig_drift", traj.eigenvalue_drift)):
                if len(arr):
                    c[key] = max(c[key], float(np.max(arr)))
        return after

    def _after_verify(self, args, kwargs, env, exc):
        if env is None:
            return
        for r in env.records:
            self.counters["records"] += 1
            self.counters["records_failed"] += r.status == "fail"
            self.counters["records_reported_only"] += (
                r.status == "reported-only")

    def _after_main(self, args, kwargs, rc, exc):
        if exc is not None or rc != 0:
            self.counters["nonzero_exits"] += 1

    # -- installation ------------------------------------------------------

    def _bind_everywhere(self, original, wrapper):
        for mod in self.modules.values():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original, wrapper, False))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            self._patches.append((val, k, original, wrapper,
                                                  True))

    def install(self):
        if self._patches:
            return
        hooks = {"verify_gates": self._after_verify,
                 "verify_special": self._after_verify,
                 "verify_catalog": self._after_verify,
                 "main": self._after_main}
        for mod_name, path in TARGETS:
            holder, attr, original = _resolve(self.modules[mod_name], path)
            hook = (self._after_evolve(original) if path == "evolve"
                    else hooks.get(path))
            wrapper = self._wrap(original, f"{mod_name}.{path}", hook)
            if inspect.isclass(holder):
                self._patches.append((holder, attr, original, wrapper, False))
            else:
                self._bind_everywhere(original, wrapper)
        catalog = self.modules["catalog"]
        for builder in set(catalog.SCENARIO_BUILDERS.values()):
            self._bind_everywhere(builder, self._wrap(builder, BUILD))
        for holder, key, _, wrapper, is_dict in self._patches:
            if is_dict:
                holder[key] = wrapper
            else:
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original, _, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = []

    def snapshot(self) -> dict:
        """Spans and counters of the pass recorded since the last reset."""
        return {"name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.span_parent,
                                        dtype=np.int32).copy(),
                "start": np.frombuffer(self.span_start).copy(),
                "end": np.frombuffer(self.span_end).copy(),
                "counters": dict(self.counters)}


def aggregate(names: list[str], spans: dict) -> dict:
    """Per-layer metrics (without trace.overhead_ratio) of one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans; total time sums only the outermost span of each name, so a
    function that reaches itself through another traced call is not
    counted twice.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n_names = len(names)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    # a span is nested in a same-name span when any ancestor shares its name
    outer = np.ones(len(dur), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        outer[live] &= name[anc[live]] != name[live]
        anc[live] = parent[anc[live]]
    calls = np.bincount(name, minlength=n_names)
    selfs = np.bincount(name, weights=self_time, minlength=n_names)
    totals = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
    ids = {n: i for i, n in enumerate(names)}

    def stat(fn, kind):
        i = ids.get(fn)
        if i is None:
            return 0
        return {"calls": int(calls[i]), "self_s": float(selfs[i]),
                "total_s": float(totals[i])}[kind]

    c = spans["counters"]
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric == "trace.overhead_ratio":
            continue
        fn, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s", "total_s"):
            out[metric] = stat(fn, kind)
    evolve_total = stat("brach.evolve", "total_s")
    steps = c["evolve_steps"]
    out.update({
        "brach.evolve.steps": steps,
        "brach.evolve.us_per_step": (evolve_total / steps * 1e6
                                     if steps else 0.0),
        "brach.evolve.max_norm_drift": c["max_norm_drift"],
        "brach.evolve.max_trH2_drift": c["max_trH2_drift"],
        "brach.evolve.max_trHF_residual": c["max_trHF_residual"],
        "brach.evolve.max_eig_drift": c["max_eig_drift"],
        "brach.drift_aborts": c["drift_aborts"],
        "report.records": c["records"],
        "report.records_failed": c["records_failed"],
        "report.records_reported_only": c["records_reported_only"],
        "cli.nonzero_exits": c["nonzero_exits"],
        "cli.bytes_written": c.get("bytes_written", 0),
        "cli.rows_written": c.get("rows_written", 0),
    })
    return out
