"""Outside-in tracing of the galns modules.

The tracer never edits the package: it replaces functions with timing
wrappers after import.  A module that did ``from .dynamics import
integrate`` holds its own reference to the function, so every module
attribute that *is* the original object is rebound, not just the one in
the defining module.  Methods are wrapped on their class.

Each wrapped call records a span (name, start, end, parent span, run id)
in flat arrays kept in memory; ``write`` saves them when the run ends.
Calls and self time (span duration minus the time covered by child spans)
are accumulated while the program runs, so the per-layer metrics need no
second pass over the spans.
"""

import functools
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np


def galns_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "galns" or name.startswith("galns."))]


def rebind(original, replacement):
    """Point every galns module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod in galns_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.self_s = []
        self.counts = {}
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper around fn.  ``before(args, kwargs)`` may return
        replacement (args, kwargs); ``after(args, kwargs, result)`` sees the
        return value.  Both run inside the span."""
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def wrap_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before, after)
        if rebind(original, wrapper) == 0:
            raise RuntimeError("%s.%s is bound nowhere"
                               % (module.__name__, attr))

    def wrap_method(self, cls, attr, name, before=None, after=None):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

    # -- reading the trace -------------------------------------------------

    def ncalls(self, name):
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, name):
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def durations(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        mask = ids == nid
        return (np.frombuffer(self.span_end)[mask]
                - np.frombuffer(self.span_start)[mask])

    def children_of(self, child, parent):
        """Number of ``child`` spans whose nearest traced parent is a
        ``parent`` span."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        par = np.frombuffer(self.span_parent, dtype=np.int32)
        mask = (ids == cid) & (par >= 0)
        return int(np.sum(ids[par[mask]] == pid))

    def write(self, path):
        n = len(self.span_name)
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end),
                 run_id=np.full(n, self.run_id, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))


def install(tracer):
    """Wrap the public functions of every galns layer the benchmark
    reports on.  Must run after ``galns.cli`` (and so every module) is
    imported."""
    from galns import (cli, control, dynamics, lie_rank, nonlinearity,
                       saturation, spectral)

    t = tracer

    def count_rhs(args, kwargs):
        # adaptive_lawson(lam, nonlin, y0, t0, t1, tol, ...)
        def counted(z, s, _f=(kwargs["nonlin"] if "nonlin" in kwargs
                              else args[1])):
            t.count("rhs_calls")
            return _f(z, s)
        if "nonlin" in kwargs:
            kwargs = dict(kwargs, nonlin=counted)
        else:
            args = (args[0], counted) + tuple(args[2:])
        return args, kwargs

    def count_steps(args, kwargs, result):
        t.count("accepted_steps", len(result[0]) - 1)

    def csv_bytes(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        t.count("csv_bytes", os.path.getsize(path))

    def covering_iterations(args, kwargs, result):
        t.count("covering_iterations",
                sum(row["iterations"] for row in result["per_target"]))

    def cascade_steps(args, kwargs, result):
        t.count("cascade_steps", len(result["steps"]))

    def cli_output(args, kwargs, result):
        argv = kwargs["argv"] if "argv" in kwargs else args[0]
        out = argv[list(argv).index("--out") + 1]
        t.count("cli_output_bytes",
                sum(os.path.getsize(os.path.join(out, f))
                    for f in os.listdir(out)))

    t.wrap_method(dynamics.GalerkinSystem, "__init__", "dynamics.system_build")
    t.wrap_method(dynamics.GalerkinSystem, "quadratic_vec",
                  "dynamics.quadratic_vec")
    t.wrap_method(dynamics.Trajectory, "write_csv", "dynamics.write_csv",
                  after=csv_bytes)
    t.wrap_function(dynamics, "adaptive_lawson", "dynamics.adaptive_lawson",
                    before=count_rhs, after=count_steps)
    t.wrap_function(dynamics, "integrate", "dynamics.integrate")
    t.wrap_function(nonlinearity, "interaction_coeffs",
                    "nonlinearity.interaction_coeffs")
    t.wrap_function(nonlinearity, "quadrature_B", "nonlinearity.quadrature_B")
    t.wrap_function(nonlinearity, "oracle_sweep", "nonlinearity.oracle_sweep")
    t.wrap_function(spectral, "gauss_legendre_grid",
                    "spectral.gauss_legendre_grid")
    t.wrap_function(saturation, "verify_step", "saturation.verify_step")
    t.wrap_function(saturation, "bareiss_rank", "saturation.bareiss_rank")
    t.wrap_function(lie_rank, "full_rank_check", "lie_rank.full_rank_check")
    t.wrap_function(control, "endpoint_map", "control.endpoint_map")
    t.wrap_function(control, "covering_check", "control.covering_check",
                    after=covering_iterations)
    t.wrap_function(control, "tracking_control", "control.tracking_control")
    t.wrap_function(control, "imitate", "control.imitate")
    t.wrap_function(control, "cascade_to_K1", "control.cascade_to_K1",
                    after=cascade_steps)
    t.wrap_function(cli, "main", "cli", after=cli_output)


def layer_metrics(t):
    """Per-layer metrics of one traced run, by the names BENCHMARK.json
    uses."""
    m = {}
    for name in ("dynamics.system_build", "nonlinearity.interaction_coeffs",
                 "dynamics.quadratic_vec", "dynamics.adaptive_lawson",
                 "dynamics.integrate", "control.endpoint_map",
                 "control.tracking_control", "control.imitate",
                 "spectral.gauss_legendre_grid", "saturation.verify_step",
                 "saturation.bareiss_rank", "lie_rank.full_rank_check"):
        m[name + ".calls"] = t.ncalls(name)
        m[name + ".self_s"] = t.self_time(name)
    rhs, acc = t.counts.get("rhs_calls", 0), t.counts.get("accepted_steps", 0)
    m["dynamics.adaptive_lawson.rhs_calls"] = rhs
    m["dynamics.adaptive_lawson.accepted_steps"] = acc
    m["dynamics.rhs_per_accepted_step"] = rhs / acc if acc else 0.0
    ep_ms = 1e3 * t.durations("control.endpoint_map")
    m["control.endpoint_map.p50_ms"] = \
        float(np.percentile(ep_ms, 50)) if len(ep_ms) else 0.0
    m["control.endpoint_map.p99_ms"] = \
        float(np.percentile(ep_ms, 99)) if len(ep_ms) else 0.0
    m["control.covering_check.self_s"] = t.self_time("control.covering_check")
    m["control.covering_check.iterations"] = \
        t.counts.get("covering_iterations", 0)
    m["control.cascade_to_K1.self_s"] = t.self_time("control.cascade_to_K1")
    m["control.cascade_to_K1.replays"] = \
        t.children_of("dynamics.integrate", "control.cascade_to_K1")
    m["control.imitate.retries"] = \
        t.ncalls("control.imitate") - t.counts.get("cascade_steps", 0)
    m["nonlinearity.quadrature_B.calls"] = \
        t.ncalls("nonlinearity.quadrature_B")
    m["nonlinearity.oracle_sweep.self_s"] = \
        t.self_time("nonlinearity.oracle_sweep")
    m["cli.self_s"] = t.self_time("cli")
    m["cli.output_bytes"] = t.counts.get("cli_output_bytes", 0)
    m["dynamics.write_csv.self_s"] = t.self_time("dynamics.write_csv")
    m["dynamics.write_csv.bytes"] = t.counts.get("csv_bytes", 0)
    return m
