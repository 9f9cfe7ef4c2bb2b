"""Span tracing for the benchmark, applied to eck from outside.

Each wrap target is a public eck function or method.  ``install`` replaces
every ``eck.*`` module attribute and class attribute that *is* the original
object (so ``from .x import f`` copies and aliases such as ``__radd__`` are
caught too) with a wrapper that records one span per call.  A target that no
longer exists is recorded in ``Tracer.missing``; it is never an error here.

A span is ``(span_id, parent_id, name, start, end)`` with times from
``time.perf_counter``; spans stay in memory until ``write_spans``.  Self
time is a span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


class Stat:
    """Aggregate of one span name: call count, self time and size counters."""

    __slots__ = ("calls", "self_s", "counts", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}
        self.keys: set = set()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def high(self, counter: str, value: int) -> None:
        if value > self.counts.get(counter, 0):
            self.counts[counter] = value


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span_id, seconds covered by children]
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn, hook=None):
        stat = self.stat(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                spans.append((span_id, parent, name, start, end))
                if hook is not None:
                    try:
                        hook(stat, args, kwargs, result, error)
                    except Exception:  # a counter that no longer fits the code is reported, not raised
                        stat.add("hook_errors", 1)
                error = None

        return functools.update_wrapper(traced, fn)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("run_id\tspan_id\tparent_id\tname\tstart\tend\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(f"{self.run_id}\t{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


# -- size counters recorded at the span boundary ------------------------------


def _ok(result, error) -> bool:
    return error is None and result is not NotImplemented


def _poly_mul(stat, args, kwargs, result, error):
    if _ok(result, error):
        stat.add("out_terms", len(result.terms))


def _div_by_one_minus(stat, args, kwargs, result, error):
    if error is not None and type(error).__name__ == "NotDivisible":
        stat.add("not_divisible", 1)


def _ratexpr_add(stat, args, kwargs, result, error):
    if _ok(result, error):
        stat.high("den_len_max", len(result.den))
        stat.high("num_terms_max", len(result.num.terms))


def _reduced(stat, args, kwargs, result, error):
    if _ok(result, error):
        stat.add("factors_in", len(args[0].den))
        stat.add("factors_cancelled", len(args[0].den) - len(result.den))


def _equivalent(stat, args, kwargs, result, error):
    if _ok(result, error) and not result:
        stat.add("false", 1)


def _terms_of_result(stat, args, kwargs, result, error):
    if _ok(result, error):
        stat.add("terms", len(result.terms))


def _num_terms_of_result(stat, args, kwargs, result, error):
    if _ok(result, error):
        stat.add("num_terms", len(result.num.terms))


def _recipe_terms(stat, args, kwargs, result, error):
    terms = args[1] if len(args) > 1 else kwargs.get("terms")
    if hasattr(terms, "__len__"):
        stat.add("terms", len(terms))


def _distinct_arguments(fn):
    """Remember each distinct call, arguments bound by name with defaults
    filled in, so ``f(k, n)`` and ``f(k, n, ambient=None)`` are one key."""
    signature = inspect.signature(fn)

    def hook(stat, args, kwargs, result, error):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        stat.keys.add(tuple(bound.arguments.items()))

    return hook


#: (span name, dotted path of the original, counter hook or a factory taking
#: the original and returning the hook).  ``eck.render.*`` stands for every
#: function defined in ``eck.render``.
TARGETS = (
    ("algebra.poly_mul", "eck.algebra.SparsePoly.__mul__", _poly_mul),
    ("algebra.poly_add", "eck.algebra.SparsePoly.__add__", None),
    ("algebra.poly_shift", "eck.algebra.SparsePoly.shifted", None),
    ("algebra.div_by_one_minus", "eck.algebra.SparsePoly.div_by_one_minus", _div_by_one_minus),
    ("algebra.poly_eval", "eck.algebra.SparsePoly.evaluate", None),
    ("algebra.apply_map", "eck.algebra.SparsePoly.apply_map", None),
    ("algebra.ratexpr_add", "eck.algebra.RatExpr.__add__", _ratexpr_add),
    ("algebra.reduced", "eck.algebra.RatExpr.reduced", _reduced),
    ("algebra.equivalent", "eck.algebra.RatExpr.equivalent", _equivalent),
    ("hirzebruch.affine_class", "eck.hirzebruch.affine_class", _distinct_arguments),
    ("hirzebruch.projective_class", "eck.hirzebruch.projective_class", _distinct_arguments),
    ("hirzebruch.sum_of_products", "eck.hirzebruch.sum_of_products", _recipe_terms),
    ("identities.verify", "eck.identities.verify", None),
    ("identities.integrate_projective", "eck.identities.integrate_projective", None),
    ("positivity.to_positive_form", "eck.positivity.to_positive_form", _terms_of_result),
    ("positivity.to_ratexpr", "eck.positivity.SPolynomial.to_ratexpr", _num_terms_of_result),
    ("positivity.check_nonnegative", "eck.positivity.check_nonnegative", None),
    ("specialize.biseries_mul", "eck.specialize.BiSeries.__mul__", None),
    ("specialize.biseries_inverse", "eck.specialize.BiSeries.inverse", None),
    ("specialize.diagonalize", "eck.specialize.diagonalize", None),
    ("specialize.csm", "eck.specialize.csm", None),
    ("specialize.multidegree", "eck.specialize.multidegree", None),
    ("suite.run_all", "eck.suite.run_all", None),
    ("cli.run", "eck.cli.run", None),
    ("render", "eck.render.*", None),
)

_HOOK_FACTORIES = {_distinct_arguments}


def _resolve(path: str):
    """The raw object at a dotted path (class attributes unbound), or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            space = vars(obj) if isinstance(obj, type) else None
            obj = space.get(attr) if space is not None else getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _originals(path: str) -> list:
    if path.endswith(".*"):
        try:
            module = importlib.import_module(path[:-2])
        except ImportError:
            return []
        return [
            value
            for value in vars(module).values()
            if inspect.isfunction(value) and value.__module__ == module.__name__
        ]
    original = _resolve(path)
    return [] if original is None else [original]


def _replace_everywhere(original, wrapper) -> int:
    """Swap ``original`` for ``wrapper`` in every eck module namespace and
    every eck class namespace; returns the number of places replaced."""
    replaced = 0
    modules = [m for name, m in list(sys.modules.items()) if name == "eck" or name.startswith("eck.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                replaced += 1
            elif isinstance(value, type) and value.__module__.startswith("eck"):
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, wrapper)
                        replaced += 1
    return replaced


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target; missing targets are listed in ``tracer.missing``."""
    for name, path, hook in targets:
        originals = _originals(path)
        if not originals:
            tracer.missing.append(path)
            tracer.stat(name)
            continue
        for original in originals:
            made = hook(original) if hook in _HOOK_FACTORIES else hook
            if _replace_everywhere(original, tracer.wrap(name, original, made)) == 0:
                tracer.missing.append(f"{path} ({original.__qualname__} not found in eck namespaces)")
