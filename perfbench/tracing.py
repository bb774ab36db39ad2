"""Runtime spans around zetatheta's public functions, installed from outside.

Nothing under src/ is edited: `install` replaces each named function, in
every zetatheta module that holds it, by a wrapper that records a span
(name, start, end, parent) and the function's work counters.  It runs in the
forked child of a traced op; the child ships `Tracer.payload()` back and the
parent folds the payloads of all ops with `LayerTotals`.

Per-layer metric names have the form ``<module>.<function>.<stat>``, where
stat is calls, self_s, elements, entries, terms, hit_ratio or
converged_ratio, plus the derived names in DERIVED.
"""

import functools
import sys
import time

import numpy as np

from stats import self_times

DERIVED = ("critical_line.xi_evals_per_zero", "trace.overhead_s", "trace.overhead_frac")

# Which argument is the array whose length is the function's `elements`:
# (position, keyword name).
ARRAY_ARG = {
    "hurwitz_zeta_many": (0, "s"),
    "dedekind_zeta_many": (0, "s"),
    "loggamma": (0, "z"),
    "gamma_many": (0, "s"),
    "omega_many": (1, "s"),
    "lambda_many": (1, "s"),
    "z_small_series_many": (2, "xs"),
}
TABLE_FUNCS = ("power_coeffs", "moebius_coeffs")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent_index]
        self.stack = []
        self.counts = {}
        self._seen_tables = set()

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def measure(self, name, args, kwargs, result):
        """Work counters of one call that returned `result`."""
        func = name.rsplit(".", 1)[1]
        if func in ARRAY_ARG:
            self.add(name + ".elements", int(np.size(_arg(args, kwargs, *ARRAY_ARG[func]))))
        if func in TABLE_FUNCS:
            self.add(name + ".entries", len(result.values))
            if id(result) in self._seen_tables:
                self.add(name + ".hits")
            self._seen_tables.add(id(result))
        elif func == "dirichlet_convolve":
            self.add(name + ".entries", len(result))
        elif func == "dirichlet_inverse":
            self.add(name + ".entries", len(_arg(args, kwargs, 0, "a")))
        elif func == "line_integral":
            self.add(name + ".converged", int(bool(result.converged)))
        elif func == "s_series" and isinstance(result, tuple):
            self.add(name + ".terms", int(result[1]))
        elif func == "refine_zero":
            self.add(name + ".returns")

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self.measure(name, args, kwargs, result)
            return result
        return traced

    def payload(self):
        return {"spans": self.spans, "counts": self.counts}


def traced_functions(metric_names):
    """{(module, function)} that the per-layer metric names refer to."""
    out = set()
    for name in metric_names:
        if name in DERIVED:
            if name == "critical_line.xi_evals_per_zero":
                out |= {("critical_line", "refine_zero"), ("fields", "omega_many")}
            continue
        module, func, _ = name.split(".")
        out.add((module, func))
    return out


def install(tracer, functions):
    """Wrap each (module, function) wherever a zetatheta module holds it.

    Returns the names that could not be found.
    """
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "zetatheta" or n.startswith("zetatheta."))]
    missing = []
    for module_name, func in sorted(functions):
        home = sys.modules.get(f"zetatheta.{module_name}")
        original = getattr(home, func, None)
        if original is None:
            missing.append(f"{module_name}.{func}")
            continue
        wrapper = tracer.wrap(f"{module_name}.{func}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return missing


class LayerTotals:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self):
        self.ops = 0
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.xi_evals_under_refine = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def add_op(self, payload, untraced_s, traced_s):
        self.ops += 1
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        spans = payload["spans"]
        for span, own in zip(spans, self_times(spans)):
            self.calls[span[0]] = self.calls.get(span[0], 0) + 1
            self.self_s[span[0]] = self.self_s.get(span[0], 0.0) + own
        for key, value in payload["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for span in spans:
            if span[0] == "fields.omega_many" and \
                    _has_ancestor(spans, span, "critical_line.refine_zero"):
                self.xi_evals_under_refine += 1

    def metric(self, name):
        """Value of one per-layer metric, or None when no op exercised it."""
        n = max(self.ops, 1)
        if name == "trace.overhead_s":
            return (self.traced_s - self.untraced_s) / n if self.ops else None
        if name == "trace.overhead_frac":
            return self.traced_s / self.untraced_s - 1.0 if self.untraced_s > 0 else None
        if name == "critical_line.xi_evals_per_zero":
            zeros = self.counts.get("critical_line.refine_zero.returns", 0)
            return self.xi_evals_under_refine / zeros if zeros else None
        module, func, stat = name.split(".")
        key = f"{module}.{func}"
        calls = self.calls.get(key, 0)
        if calls == 0:
            return None
        if stat == "calls":
            return calls / n
        if stat == "self_s":
            return self.self_s[key] / n
        if stat == "hit_ratio":
            return self.counts.get(key + ".hits", 0) / calls
        if stat == "converged_ratio":
            return self.counts.get(key + ".converged", 0) / calls
        if stat in ("elements", "entries", "terms"):
            return self.counts.get(f"{key}.{stat}", 0) / n
        raise ValueError(f"unknown per-layer statistic in {name!r}")


def _has_ancestor(spans, span, name):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
