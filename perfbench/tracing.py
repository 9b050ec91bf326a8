"""In-memory spans around calls into `mskit`'s public functions.

Each wrapped name is replaced, at every module where a caller looks it up,
by a function that records a span (name, start, end, parent, operation)
and calls the original. Bindings of one function in several modules share
a span name. Private helpers are never wrapped, so their cost lands in the
self time of their public caller. A span name none of whose bindings exists
any more is recorded as absent instead of raising.
"""

import importlib
import time

# (module the caller looks the name up in, attribute, span name). The
# kernels and `energy` are wrapped only where the solver looks them up.
PUBLIC_NAMES = (
    ("mskit.minmov", "poisson_apply_raw", "fields.poisson_apply_raw"),
    ("mskit.minmov", "grad_forward", "fields.grad_forward"),
    ("mskit.minmov", "grad_forward_adjoint", "fields.grad_forward_adjoint"),
    ("mskit.minmov", "mm_step", "minmov.mm_step"),
    ("mskit.minmov", "de_giorgi_interpolant", "minmov.de_giorgi_interpolant"),
    ("mskit.minmov", "mass_threshold", "minmov.mass_threshold"),
    ("mskit.minmov", "energy", "minmov.energy"),
    ("mskit.flows", "flow_deform", "flows.flow_deform"),
    ("mskit.flows", "velocity_convergence_check", "flows.velocity_convergence_check"),
    ("mskit.energy", "interface_measure", "energy.interface_measure"),
    ("mskit.diagnostics", "interface_measure", "energy.interface_measure"),
    ("mskit.flows", "interface_measure", "energy.interface_measure"),
    ("mskit.energy", "compatibility_check", "energy.compatibility_check"),
    ("mskit.diagnostics", "dissipation_ledger", "diagnostics.dissipation_ledger"),
    ("mskit.diagnostics", "construct_xi", "diagnostics.construct_xi"),
    ("mskit.flows", "construct_xi", "diagnostics.construct_xi"),
    ("mskit.diagnostics", "gibbs_thomson_residual", "diagnostics.gibbs_thomson_residual"),
    ("mskit.scenarios", "make_initial", "scenarios.make_initial"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op


class Tracer:
    """Records spans while installed; `op` tags the spans of one operation."""

    def __init__(self, names=PUBLIC_NAMES):
        self.names = names
        self.spans = []
        self.absent = []
        self.op = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self):
        found = set()
        for module_name, attr, name in self.names:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            found.add(name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        names = dict.fromkeys(name for _module, _attr, name in self.names)
        self.absent = [name for name in names if name not in found]
        return self

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans):
    """Per-span duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for j in sorted(children[i], key=lambda j: spans[j].start):
            a = max(spans[j].start, s.start)
            b = min(spans[j].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans):
    """Per operation: calls, total seconds and self seconds per span name."""
    ops = {}
    for s, own in zip(spans, self_times(spans)):
        table = ops.setdefault(s.op, {})
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
    return ops
