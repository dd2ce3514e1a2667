"""Layer spans and work counters recorded from outside the program.

The tracer wraps public functions of the ``rqmcheck`` modules and rebinds
every module-level name that refers to them, so a call is caught whichever
module made it (``hilbert`` calls its own imported ``onshell_kernel_grid``,
``generators`` its own ``wigner_d_entries``, and so on).  Spans nest by
parent: a layer's self time is its span durations minus the time its child
spans cover, so the self times of all layers add up to the root span.

Counts are computed from call arguments and results (points passed in,
terms evaluated, samples drawn); they repeat exactly for a given seed.
Unique ratios identify a point set by its shape and 62 sampled
coordinates.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> self-time metric name; every layer has one, so the self times
# reported close on the traced wall time
SELF_TIME_METRICS = {
    "suites": "suites.self_s",
    "suites.run_hermiticity_matrix": "suites.run_hermiticity_matrix.self_s",
    "hilbert.transform": "hilbert.transform.s",
    "hilbert.inner_product": "hilbert.inner_product.self_s",
    "hilbert.gram_matrix": "hilbert.gram_matrix.self_s",
    "hilbert.tensor_grid": "hilbert.tensor_grid.s",
    "hilbert.mc": "hilbert.mc.s",
    "kernels.onshell_grid": "kernels.onshell_grid.s",
    "kernels.position": "kernels.position.s",
    "generators.irrep_action": "generators.irrep_action.s",
    "generators.spin_project": "generators.spin_project.s",
    "generators.momentum_project": "generators.momentum_project.s",
    "generators.irrep_inner": "generators.irrep_inner.s",
    "generators.algebra": "generators.algebra.s",
    "spin.wigner_d": "spin.wigner_d.s",
    "spacetime": "spacetime.s",
}

# work counts besides each layer's ``.calls``
WORK_COUNTS = (
    "hilbert.transform.terms", "hilbert.transform.term_points",
    "hilbert.mc.samples", "hilbert.mc.excluded",
    "kernels.onshell_grid.points", "kernels.position.points",
    "spin.wigner_d.points", "generators.irrep_inner.points",
    "generators.irrep_action.points", "generators.spin_project.points",
    "generators.momentum_project.points",
)

# (module, function name, layer) for plain call spans
_CALL_LAYERS = (
    ("suites", "run_hermiticity_matrix", "suites.run_hermiticity_matrix"),
    ("hilbert", "inner_product", "hilbert.inner_product"),
    ("hilbert", "gram_matrix", "hilbert.gram_matrix"),
    ("hilbert", "tensor_grid", "hilbert.tensor_grid"),
    ("generators", "apply_generator", "generators.algebra"),
    ("generators", "apply_generator_orbital", "generators.algebra"),
    ("generators", "generator_spin_matrix", "generators.algebra"),
    ("generators", "commutator_rhs", "generators.algebra"),
    ("generators", "check_commutator", "generators.algebra"),
)

# factories returning lazy IrrepStates whose cost lands in ``func``
_STATE_LAYERS = (
    ("apply_poincare_irrep", "generators.irrep_action"),
    ("spin_project", "generators.spin_project"),
    ("momentum_project", "generators.momentum_project"),
)


def fingerprint(points):
    """Cheap identity of a point array: shape plus 62 sampled coordinates."""
    arr = np.asarray(points, dtype=float)
    flat = arr.reshape(-1)
    step = max(1, flat.size // 61)
    return arr.shape, flat[::step].tobytes()


def _rqmcheck_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "rqmcheck" or name.startswith("rqmcheck.")]


class Tracer:
    """In-memory span recorder with per-layer self time and counters.

    One tracer serves one process and one thread (the benchmark runs the
    suites with ``jobs=1``).  ``request`` tags the spans of one
    ``run_suites`` call.
    """

    def __init__(self):
        self.spans = []            # (request, id, parent, layer, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.request = 0
        self._stack = []           # [layer, start, child_time, id]
        self._next_id = 0

    def enter(self, layer):
        self._stack.append([layer, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self):
        end = perf_counter()
        layer, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.spans.append((self.request, span_id, parent, layer, start, end))
        return duration

    def span(self, layer, fn, count=None):
        """Wrap ``fn`` in a span; ``count(args, kwargs, result)`` tallies
        work."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self.counts[layer + ".calls"] += 1
            if count is not None:
                count(args, kwargs, result)
            return result
        return wrapper

    def root(self, fn):
        """Time a whole ``run_suites`` call as the root span of a request."""
        def run(*args, **kwargs):
            self.request += 1
            self.enter("suites")
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = self.exit()
            return result, wall
        return run

    def metrics(self):
        """Self times, counts and unique ratios by metric name."""
        out = {metric: self.self_s.get(layer, 0.0)
               for layer, metric in SELF_TIME_METRICS.items()}
        out.update((layer + ".calls", 0) for layer in SELF_TIME_METRICS)
        out.update((name, 0) for name in WORK_COUNTS)
        out.update(self.counts)
        for name, total in (("hilbert.transform", "hilbert.transform.terms"),
                            ("kernels.onshell_grid",
                             "kernels.onshell_grid.calls")):
            evaluations = self.counts.get(total, 0)
            out[name + ".unique_ratio"] = (
                len(self.distinct[name]) / evaluations if evaluations else 0.0)
        return out


class Bindings:
    """Install wrappers at every call site; ``restore`` undoes all of them."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement):
        """Point every ``rqmcheck`` module attribute naming ``original``
        at ``replacement``; returns how many names were rebound."""
        count = 0
        for mod in _rqmcheck_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, replacement)
                    count += 1
        if count == 0:
            raise LookupError(f"{original!r} is bound nowhere")
        return count

    def set_attr(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def time_suites(bindings, suite_seconds):
    """Record each suite's wall time into ``suite_seconds`` (untraced too)."""
    from rqmcheck import suites

    for name, (fn, desc) in list(suites.SUITES.items()):
        def timed(cfg, _fn=fn, _name=name):
            start = perf_counter()
            try:
                return _fn(cfg)
            finally:
                suite_seconds[_name] = perf_counter() - start
        bindings.set_item(suites.SUITES, name, (timed, desc))


def install(tracer, bindings):
    """Wrap every traced layer; the suites themselves become ``suites``
    spans so their own code counts toward ``suites.self_s``."""
    from rqmcheck import generators, hilbert, kernels, spacetime, spin, suites

    modules = {"suites": suites, "hilbert": hilbert, "generators": generators,
               "kernels": kernels, "spin": spin}
    for mod_name, fn_name, layer in _CALL_LAYERS:
        fn = getattr(modules[mod_name], fn_name)
        bindings.rebind(fn, tracer.span(layer, fn))

    for name, (fn, desc) in list(suites.SUITES.items()):
        bindings.set_item(suites.SUITES, name,
                          (tracer.span("suites", fn), desc))

    counts, distinct = tracer.counts, tracer.distinct

    def count_wigner(args, kwargs, result):
        counts["spin.wigner_d.points"] += int(np.size(args[1]))

    fn = spin.wigner_d_entries
    bindings.rebind(fn, tracer.span("spin.wigner_d", fn, count_wigner))

    def count_onshell(args, kwargs, result):
        variant, m, two_s, points = args
        counts["kernels.onshell_grid.points"] += len(points)
        distinct["kernels.onshell_grid"].add(
            (variant, float(m), two_s, fingerprint(points)))

    fn = kernels.onshell_kernel_grid
    bindings.rebind(fn, tracer.span("kernels.onshell_grid", fn,
                                     count_onshell))

    def count_position(args, kwargs, result):
        counts["kernels.position.points"] += int(np.size(args[1]))

    fn = kernels.scalar_position_kernel
    bindings.rebind(fn, tracer.span("kernels.position", fn, count_position))

    def count_mc(args, kwargs, result):
        info = result[2]
        counts["hilbert.mc.samples"] += info["points"]
        counts["hilbert.mc.excluded"] += info["excluded"]

    fn = hilbert.position_inner_product_mc
    bindings.rebind(fn, tracer.span("hilbert.mc", fn, count_mc))

    def count_transform(args, kwargs, result):
        mwf, points = args
        n_points = result.shape[1]
        fp = fingerprint(points)
        for terms in mwf.comps:
            for t in terms:
                counts["hilbert.transform.terms"] += 1
                counts["hilbert.transform.term_points"] += n_points
                distinct["hilbert.transform"].add((mwf.m, t.key(), fp))

    evaluate = hilbert.MomentumWaveFunction.evaluate
    bindings.set_attr(hilbert.MomentumWaveFunction, "evaluate",
                      tracer.span("hilbert.transform", evaluate,
                                  count_transform))

    def count_inner(args, kwargs, result):
        # IrrepState.grid() is a tensor grid of nodes^3 points
        counts["generators.irrep_inner.points"] += args[0].nodes ** 3

    inner = generators.IrrepState.inner
    bindings.set_attr(generators.IrrepState, "inner",
                      tracer.span("generators.irrep_inner", inner,
                                  count_inner))

    for fn_name, layer in _STATE_LAYERS:
        fn = getattr(generators, fn_name)
        bindings.rebind(fn, _lazy_state_span(tracer, layer, fn))

    for name, fn in inspect.getmembers(spacetime, inspect.isfunction):
        if fn.__module__ == spacetime.__name__ and not name.startswith("_"):
            bindings.rebind(fn, tracer.span("spacetime", fn))


def _lazy_state_span(tracer, layer, factory):
    """Span the factory call and every later call of the state's ``func``."""
    counts = tracer.counts

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            state = factory(*args, **kwargs)
        finally:
            tracer.exit()
        counts[layer + ".calls"] += 1
        func = state.func

        def traced_func(points):
            tracer.enter(layer)
            try:
                values = func(points)
            finally:
                tracer.exit()
            counts[layer + ".points"] += values.shape[-1]
            return values

        return dataclasses.replace(state, func=traced_func)

    return wrapper
