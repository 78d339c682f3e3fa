"""Per-layer spans recorded by wrapping the package's functions from outside.

Nothing in ``weinorman`` changes: :class:`Tracer` replaces module and class
attributes under the name their callers look them up by, records one span
(name, start, end, parent, op id) per call, and puts every original back in
:meth:`Tracer.restore`.  Functions called far more often than the layers
around them (``apply_exp_ad``, hundreds of times per step) are counted, not
spanned, so that tracing stays cheap.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

import weinorman.cli
import weinorman.hierarchy
import weinorman.integrate
import weinorman.signals

# (owner, attribute, span name).  ``integrate_wn`` is wrapped under both names
# it is called by: the package module and the CLI's own import of it.
SPANNED = (
    (weinorman.integrate, "integrate_wn", "integrate.integrate_wn"),
    (weinorman.cli, "integrate_wn", "integrate.integrate_wn"),
    (weinorman.integrate, "rhs", "hierarchy.rhs"),
    (weinorman.integrate, "assemble_A_numeric", "hierarchy.assemble_A_numeric"),
    (weinorman.integrate, "condition_estimate", "hierarchy.condition_estimate"),
    (weinorman.integrate, "reconstruct_K", "integrate.reconstruct_K"),
    (weinorman.integrate, "trajectory_to_json", "integrate.trajectory_to_json"),
    (weinorman.signals, "expand_in_basis", "basis.expand_in_basis"),
    (weinorman.cli, "main", "cli.main"),
    (weinorman.cli, "load_run_config", "cli.load_run_config"),
    (weinorman.hierarchy, "derive_hierarchy", "hierarchy.derive_hierarchy"),
    (weinorman.hierarchy, "emit", "hierarchy.emit"),
)
COUNTED = ((weinorman.hierarchy, "apply_exp_ad", "adjoint.apply_exp_ad"),)


def _signal_methods():
    """(class, method, span name) for every signal class defining the method.

    The integrator calls ``coefficients`` and ``matrix`` on signal objects,
    so they are wrapped on each class that defines them in its own body.
    """
    out = []
    for cls in vars(weinorman.signals).values():
        if isinstance(cls, type) and issubclass(cls, weinorman.signals.CoefficientSignal):
            for meth in ("coefficients", "matrix"):
                if meth in vars(cls):
                    out.append((cls, meth, f"signals.{meth}"))
    return out


class Tracer:
    """Spans and call counts for the ops run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, name in (*SPANNED, *_signal_methods()):
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def restore(self) -> None:
        """Put every wrapped attribute back, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span ``op`` of op ``op_id``."""
        self.op = op_id
        return self._spanned(fn, "op")(*args)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children, so each nanosecond is attributed to exactly one layer.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, incl, self_ns = Counter(), Counter(), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
        return calls, incl, self_ns

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
