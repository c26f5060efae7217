"""Outside-in layer tracer: times divalg's layers by wrapping module
attributes, without any change to the program.

Each span names a layer and the attribute that is its entry point.  A span
records busy time (inclusive), self time (busy minus the time of the spans
it encloses), call count and the spans that called it.  A hook may add
counts computed from the call's arguments and result.

A wrapped attribute is replaced in every loaded ``divalg`` module that holds
the same object, because ``from .x import f`` copies the reference.  An
attribute that no longer exists, or whose arguments or result a hook can no
longer read, is reported as missing, never as zero, so a refactor that
renames or reshapes an entry point shows up in the metrics.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _falsify_trials(tracer, sig, args, kwargs, result):
    tracer.counts["dissident.falsify.trials"] += _arg(sig, args, kwargs, "trials")


def _division_trials(tracer, sig, args, kwargs, result):
    tracer.counts["qda.division_check.trials"] += _arg(sig, args, kwargs, "trials")


def _assemble(tracer, sig, args, kwargs, result):
    d = _arg(sig, args, kwargs, "d")
    tracer.degree = d
    tracer.counts[f"lifting.assemble.rows.d{d}"] += result.nrows
    tracer.counts[f"lifting.assemble.nnz.d{d}"] += result.nnz


def _eliminate(tracer, sig, args, kwargs, result):
    if tracer.degree is not None:
        tracer.counts[f"modkernel.eliminate.primes.d{tracer.degree}"] += 1


def _rref(tracer, sig, args, kwargs, result):
    reduced, pivots, _ = result
    rows, cols = reduced.shape
    tracer.counts["modkernel.rref.flops"] += 2 * rows * cols * len(pivots)


def _reconstruct(tracer, sig, args, kwargs, result):
    tracer.counts["modkernel.reconstruct.failures"] += result is None


def _validate(tracer, sig, args, kwargs, result):
    tracer.counts["lifting.validate.accepted"] += bool(result)


# (span, module, attribute path, hook).  The module-level internals stand in
# for layers that have no public entry point yet.
SPANS = (
    ("serialize.parse", "divalg.serialize", "loads_typed", None),
    ("serialize.emit", "divalg.serialize", "canonical_json", None),
    ("dissident.falsify", "divalg.dissident", "dissidence_falsify", _falsify_trials),
    ("dissident.eta_P_point", "divalg.dissident", "eta_P_point", None),
    ("qda.division_check", "divalg.qda", "division_check", _division_trials),
    ("qda.recover_triple", "divalg.qda", "recover_triple", None),
    ("octonion.frobenius_split", "divalg.octonion", "frobenius_split", None),
    ("exact.det", "divalg.exact", "Matrix.det", None),
    ("lifting.scan", "divalg.lifting", "solve_lifting_scan", None),
    ("lifting.assemble", "divalg.lifting", "_sparse_system", _assemble),
    ("lifting.validate", "divalg.lifting", "_validate", _validate),
    ("lifting.verify", "divalg.lifting", "verify_lifting", None),
    ("modkernel.kernel", "divalg.modkernel", "sparse_kernel", None),
    ("modkernel.eliminate", "divalg.modkernel", "_kernel_mod_p", _eliminate),
    ("modkernel.rref", "divalg.modkernel", "_rref_mod", _rref),
    ("modkernel.reconstruct", "divalg.modkernel", "_reconstruct_basis", _reconstruct),
    ("modkernel.verify", "divalg.modkernel", "_verify_candidate", None),
    ("poly.gcd", "divalg.poly", "poly_content_gcd", None),
    ("poly.mul", "divalg.poly", "HomogeneousPoly.__mul__", None),
)


class Span:
    __slots__ = ("busy", "self_time", "calls", "parents", "active")

    def __init__(self):
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.parents = Counter()
        self.active = 0


class Tracer:
    """Wraps the entry points in ``SPANS`` while installed."""

    def __init__(self, spans=SPANS):
        self.spans = {name: Span() for name, *_ in spans}
        self.missing = {}
        self.counts = Counter()
        self.degree = None
        self.top_level = 0.0
        self._spec = spans
        self._stack = []  # [span name, time covered by child spans]
        self._undo = []

    # -- installation

    def install(self):
        for name, module_name, path, hook in self._spec:
            try:
                module = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module_name}.{path}: {exc}"
                continue
            wrapper = self._wrap(name, original, hook)
            if owner is module:
                holders = [
                    m for key, m in list(sys.modules.items())
                    if key.split(".")[0] == "divalg" and getattr(m, attr, None) is original
                ]
            else:
                holders = [owner]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _wrap(self, name, original, hook):
        span = self.spans[name]
        stack = self._stack
        sig = inspect.signature(original) if hook is not None else None

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            span.active += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span.active -= 1
                span.calls += 1
                span.parents[parent] += 1
                if not span.active:  # a recursive call is counted once
                    span.busy += elapsed
                span.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level += elapsed
            if hook is not None and name not in self.missing:
                try:
                    hook(self, sig, args, kwargs, result)
                except (TypeError, KeyError, ValueError, AttributeError) as exc:
                    # the entry point changed its signature or result
                    self.missing[name] = f"{original.__qualname__}: {exc!r}"
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- results

    def snapshot(self):
        """Plain-data view: spans, counts and missing entry points."""
        return {
            "spans": {
                name: {
                    "busy_s": s.busy,
                    "self_s": s.self_time,
                    "calls": s.calls,
                    "parents": {str(p): c for p, c in sorted(s.parents.items(), key=str)},
                }
                for name, s in self.spans.items() if name not in self.missing
            },
            "counts": dict(self.counts),
            "missing": dict(self.missing),
            "top_level_s": self.top_level,
        }


# metrics that count a span's calls under the name its layer gives them
CALL_COUNTS = {"modkernel.eliminate.primes", "modkernel.reconstruct.attempts",
               "lifting.validate.kernel_vectors"}


def per_layer_metrics(snap, names):
    """Map every per-layer metric name to its value from a snapshot, or to
    None when the entry point it depends on is missing."""
    spans, counts, missing = snap["spans"], snap["counts"], snap["missing"]
    out = {}
    for metric in names:
        span = next((s for s in spans.keys() | missing.keys()
                     if metric.startswith(s + ".")), None)
        if span is None:
            continue
        if span in missing:
            out[metric] = None
        elif metric == span + ".busy_s":
            out[metric] = spans[span]["busy_s"]
        elif metric == span + ".calls" or metric in CALL_COUNTS:
            out[metric] = spans[span]["calls"]
        elif metric == "modkernel.rref.gflops":
            busy = spans[span]["busy_s"]
            out[metric] = counts.get("modkernel.rref.flops", 0) / busy / 1e9 if busy else 0.0
        else:
            out[metric] = counts.get(metric, 0)
    return out
