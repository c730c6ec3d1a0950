"""Per-layer tracing of the glse package, installed from outside.

Each layer function is wrapped at every module attribute it is reached
through (`from .x import f` binds a second name, and callers look the name
up in their own module), and in every default argument of a function in
those modules (a default is bound once, when its `def` runs). The wrappers keep a stack of open spans, so each
name gets its call count, total time and self time (total minus the time
covered by wrapped callees). Coarse functions also keep one record per
span (name, start, duration, parent span) for the written trace; leaves
called millions of times are only aggregated per name.

A binding site that no longer exists is skipped, and a name with no site
left is reported absent: its metrics are omitted, never failed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

# (layer name, binding sites "module:attribute", aggregate-only leaf):
# the defining module plus each module on a workload's path that binds
# the function under its own name
SITES = (
    ("cli.main", ("glse.cli:main",), False),
    ("harness.run_sweep", ("glse.harness:run_sweep", "glse.cli:run_sweep"),
     False),
    ("harness.load_sweep_config", ("glse.harness:load_sweep_config",
                                   "glse.cli:load_sweep_config"), False),
    ("harness.emit_csv", ("glse.harness:emit_csv", "glse.cli:emit_csv"),
     False),
    ("harness.run_trial", ("glse.harness:run_trial",), False),
    ("rmt.sample_channel", ("glse.rmt:sample_channel",
                            "glse.harness:sample_channel"), False),
    ("finite.glse_convex", ("glse.finite:glse_convex",
                            "glse.harness:glse_convex"), False),
    ("penalties.prox", ("glse.penalties:prox", "glse.finite:prox"), True),
    ("penalties.decouple", ("glse.penalties:decouple",
                            "glse.replica:decouple"), True),
    ("replica.tune", ("glse.replica:tune", "glse.harness:tune"), False),
    ("replica.solve_rs_generic", ("glse.replica:solve_rs_generic",), False),
    ("replica.generic_moments", ("glse.replica:generic_moments",), False),
    ("replica.scenario_moments", ("glse.replica:scenario_moments",
                                  "glse.rsb:scenario_moments"), True),
    ("replica.solve_rs_scenario", ("glse.replica:solve_rs_scenario",
                                   "glse.rsb:solve_rs_scenario"), False),
    ("rsb.solve_rsb1", ("glse.rsb:solve_rsb1", "glse.harness:solve_rsb1"),
     False),
    ("rsb.binary_moments", ("glse.rsb:_binary_moments",), True),
    ("rsb.inner_fixed_point", ("glse.rsb:_inner_fixed_point",), False),
)

# names whose per-call durations are kept for percentiles
SAMPLED = ("harness.run_trial",)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "samples", "iters",
                 "iters_max", "nonconverged")

    def __init__(self, sampled):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = [] if sampled else None
        self.iters = 0
        self.iters_max = 0
        self.nonconverged = 0


def _record_precode(stat, out):
    """Solver diagnostics read from a returned PrecodeOutput."""
    stat.iters += out.iterations
    stat.iters_max = max(stat.iters_max, out.iterations)
    stat.nonconverged += not out.converged


RESULT_HOOKS = {"finite.glse_convex": _record_precode}


class Tracer:
    """Wraps the layer functions while installed; aggregates their spans."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.stats = {}
        self.spans = []
        self._stack = []
        self._restore = []

    def install(self):
        wrappers, modules = {}, []
        for name, bindings, leaf in self.sites:
            for binding in bindings:
                module_name, attr = binding.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if name not in self.stats:
                    self.stats[name] = _Stat(name in SAMPLED)
                wrapper = self._wrap(name, fn, leaf)
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, fn))
                wrappers.setdefault(id(fn), wrapper)
                if module not in modules:
                    modules.append(module)
        self._bind_defaults(wrappers, modules)
        return self

    def _bind_defaults(self, wrappers, modules):
        """Point default arguments that hold a wrapped function at its
        wrapper; `wrappers` maps id(original) to the wrapper."""
        seen = set()
        for module in modules:
            for fn in list(vars(module).values()):
                fn = getattr(fn, "__wrapped__", fn)
                if not inspect.isfunction(fn) or id(fn) in seen:
                    continue
                seen.add(id(fn))
                if fn.__defaults__ and any(id(d) in wrappers
                                           for d in fn.__defaults__):
                    self._restore.append((fn, "__defaults__",
                                          fn.__defaults__))
                    fn.__defaults__ = tuple(wrappers.get(id(d), d)
                                            for d in fn.__defaults__)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, leaf):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # frame: [time covered by wrapped callees, span index or None]
            frame = [0.0, None]
            if not leaf:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if stat.samples is not None:
                    stat.samples.append(elapsed)
                if frame[1] is not None:
                    spans[frame[1]][1:3] = [start, elapsed]
            if hook is not None:
                hook(stat, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """Write the per-name aggregates and the coarse spans as JSON."""
        payload = {
            "stats": {name: {"calls": st.calls, "s": st.total,
                             "self_s": st.self_time}
                      for name, st in self.stats.items()},
            "spans": [{"name": n, "start": s, "s": d, "parent": p}
                      for n, s, d, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _percentile(values, q):
    """Linear-interpolated percentile of a nonempty list, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(stats, passes):
    """Per-layer metrics, per traced pass, from the tracer's aggregates.

    Names whose functions could not be wrapped are absent from the result.
    """
    out = {}

    def put(name, stat, value, unit):
        if name in stats:
            out[f"{name}.{stat}"] = (value(stats[name]), unit)

    def per_pass(x):
        return x / passes

    def us_per(total, count):
        return 1e6 * total / count if count else 0.0

    for name in ("cli.main", "rsb.solve_rsb1"):
        put(name, "s", lambda st: per_pass(st.total), "s")
        put(name, "self_s", lambda st: per_pass(st.self_time), "s")
    put("harness.run_sweep", "self_s", lambda st: per_pass(st.self_time), "s")
    put("harness.load_sweep_config", "s", lambda st: per_pass(st.total), "s")
    put("harness.emit_csv", "s", lambda st: per_pass(st.total), "s")
    put("harness.run_trial", "calls", lambda st: per_pass(st.calls), "count")
    put("harness.run_trial", "self_s",
        lambda st: per_pass(st.self_time), "s")
    put("harness.run_trial", "p50_ms", lambda st: (
        1e3 * _percentile(st.samples, 50.0) if st.samples else 0.0), "ms")
    put("harness.run_trial", "p97_5_ms", lambda st: (
        1e3 * _percentile(st.samples, 97.5) if st.samples else 0.0), "ms")
    for name in ("rmt.sample_channel", "penalties.prox", "penalties.decouple",
                 "replica.tune", "replica.scenario_moments",
                 "replica.solve_rs_scenario", "rsb.binary_moments"):
        put(name, "calls", lambda st: per_pass(st.calls), "count")
        put(name, "s", lambda st: per_pass(st.total), "s")
    put("finite.glse_convex", "calls", lambda st: per_pass(st.calls), "count")
    put("finite.glse_convex", "s", lambda st: per_pass(st.total), "s")
    put("finite.glse_convex", "self_s",
        lambda st: per_pass(st.self_time), "s")
    put("finite.glse_convex", "iters_mean",
        lambda st: st.iters / st.calls if st.calls else 0.0, "count")
    put("finite.glse_convex", "iters_max", lambda st: st.iters_max, "count")
    put("finite.glse_convex", "nonconverged",
        lambda st: per_pass(st.nonconverged), "count")
    put("finite.glse_convex", "us_per_iter",
        lambda st: us_per(st.total, st.iters), "us")
    put("penalties.decouple", "us_per_call",
        lambda st: us_per(st.total, st.calls), "us")
    put("rsb.binary_moments", "us_per_call",
        lambda st: us_per(st.total, st.calls), "us")
    put("replica.solve_rs_generic", "s", lambda st: per_pass(st.total), "s")
    put("replica.generic_moments", "calls",
        lambda st: per_pass(st.calls), "count")
    put("replica.generic_moments", "self_s",
        lambda st: per_pass(st.self_time), "s")
    put("rsb.inner_fixed_point", "calls",
        lambda st: per_pass(st.calls), "count")
    return out
