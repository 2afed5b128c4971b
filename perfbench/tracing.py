"""In-memory spans around calls into the program's layers.

A span is [name, start, end, parent index, label].  Spans are recorded by
wrapping public functions at the module bindings the program calls
through (for example `wgb.engine.reduce_poly`, which Buchberger and the
interreduction use), so the program itself is unchanged.  None of the
wrapped bindings calls itself through the same name, so same-name spans
never nest.
"""

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name, label):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, label]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, label=None):
        rec = self._open(name, label)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr, name):
        """Replace module.attr by a wrapper that records a span per call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def install(tracer):
    """Wrap every measured layer at the bindings the program calls through."""
    import wgb.engine as engine
    import wgb.fglm as fglm
    import wgb.structure as structure

    for module, attr, name in [
        (engine, "matrix_gb_whomog", "engine.matrix"),
        # the final interreduction has no public entry point of its own
        (engine, "_interreduce", "engine.interreduce"),
        (engine, "buchberger", "engine.buchberger"),
        (structure, "buchberger", "engine.buchberger"),
        (structure, "prefix_ideal_dims", "engine.prefix_dims"),
        (engine, "reduce_poly", "poly.reduce"),
        (fglm, "reduce_poly", "poly.reduce"),
        (engine, "staircase_census", "series.census"),
        (structure, "staircase_census", "series.census"),
        (engine, "semiregular_truncation_degree", "series.expand"),
        (structure, "semiregular_truncation_degree", "series.expand"),
        (structure, "expand_rational", "series.expand"),
        (structure, "truncate_semiregular", "series.expand"),
        (engine, "monomials_of_wdeg", "monomial.enumerate"),
        (fglm, "fglm_lex", "fglm.lex"),
        (fglm, "staircase", "fglm.staircase"),
        (fglm, "multiplication_matrices", "fglm.mult_matrices"),
        (structure, "is_semiregular", "structure.semiregular"),
        (structure, "is_regular_sequence", "structure.regular"),
    ]:
        tracer.wrap(module, attr, name)


def summarize(spans):
    """Per span name: total time, self time (minus direct children), calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        s = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        s["s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["calls"] += 1
    return out


def within(spans, name, *outer):
    """(time, calls) of the spans called name enclosed by spans of every
    name in outer."""
    total, calls = 0.0, 0
    for i, (n, start, end, _, _) in enumerate(spans):
        if n != name:
            continue
        enclosing = set()
        parent = spans[i][3]
        while parent >= 0:
            enclosing.add(spans[parent][0])
            parent = spans[parent][3]
        if enclosing.issuperset(outer):
            total += end - start
            calls += 1
    return total, calls
