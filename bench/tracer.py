"""Span tracing of hopfforest from outside the package.

The tracer replaces chosen functions and methods with wrappers that record a
span (name, parent span, start, end) or bump a counter, and puts the
originals back afterwards.  A module-level function is rebound in every
loaded ``hopfforest`` module that holds it, because ``from .trees import
enumerate_trees`` copies the binding into the importing module at import
time; patching only the defining module would miss those callers.

Spans live in flat arrays until the run ends; self time per name is then
derived as span duration minus the duration of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Optional

#: (name, module, attribute path) of every function timed as a span.  The
#: attribute path is ``func`` or ``Class.method``.
SPANS = [
    ("algebra.poly_add", "hopfforest.algebra", "Polynomial.__add__"),
    ("algebra.poly_mul", "hopfforest.algebra", "Polynomial.__mul__"),
    ("algebra.tensor_add", "hopfforest.algebra", "Tensor.__add__"),
    ("algebra.tensor_mul", "hopfforest.algebra", "Tensor.__mul__"),
    ("algebra.multiplied_out", "hopfforest.algebra", "Tensor.multiplied_out"),
    ("hopfspec.load", "hopfforest.hopfspec", "load_spec_file"),
    ("hopfspec.validate", "hopfforest.hopfspec", "CoproductSpec.validate"),
    ("coproduct.iterated_reduced", "hopfforest.coproduct", "iterated_reduced"),
    ("coproduct.coproduct_poly", "hopfforest.coproduct", "coproduct_poly"),
    ("coproduct.coassociativity", "hopfforest.coproduct", "coassociativity_report"),
    ("coproduct.counit", "hopfforest.coproduct", "counit_report"),
    ("coproduct.convolution", "hopfforest.coproduct", "convolution_check"),
    ("trees.enumerate", "hopfforest.trees", "enumerate_trees"),
    ("trees.tree_multiplicity", "hopfforest.trees", "tree_multiplicity"),
    ("linearize.k_linearizations", "hopfforest.linearize", "k_linearizations"),
    ("antipode.forest", "hopfforest.antipode", "antipode_forest"),
    ("antipode.dyson_salam", "hopfforest.antipode", "antipode_dyson_salam"),
    ("antipode.bogoliubov", "hopfforest.antipode", "antipode_bogoliubov"),
    ("antipode.poly", "hopfforest.antipode", "antipode_poly"),
    ("antipode.term_stats", "hopfforest.antipode", "term_stats"),
    ("prelie.brace_action", "hopfforest.prelie", "brace_action"),
    ("prelie.check", "hopfforest.prelie", "prelie_check"),
    ("prelie.associativity", "hopfforest.prelie", "associativity_report"),
    ("prelie.filtration", "hopfforest.prelie", "filtration_report"),
    ("prelie.guin_oudom_mul", "hopfforest.prelie", "guin_oudom_mul"),
    ("cli.self", "hopfforest.cli", "run"),  # self time: parsing and formatting
]

#: (counter, module, attribute path) of hot functions that are only counted:
#: a span around each of them would cost more than the work it measures.
COUNTS = [
    ("algebra.poly_init_calls", "hopfforest.algebra", "Polynomial.__init__"),
    ("algebra.tensor_init_calls", "hopfforest.algebra", "Tensor.__init__"),
    ("algebra.terms_calls", "hopfforest.algebra", "Polynomial.terms"),
    ("algebra.terms_calls", "hopfforest.algebra", "Tensor.terms"),
    ("trees.node_calls", "hopfforest.trees", "node"),
    # counted for its hook, which adds up coproduct.monomials_checked_count
    ("coproduct.monomials_up_to_calls", "hopfforest.coproduct", "monomials_up_to"),
]

_ANTIPODE_ROUTES = ("antipode.forest", "antipode.dyson_salam", "antipode.bogoliubov")


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _assign(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


class Tracer:
    """Records spans and counters while installed; `restore` undoes every
    patch.  One tracer serves one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.brace_keys: set = set()
        self._brace_specs: dict[int, object] = {}  # keeps ids unique
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, on_result: Optional[Callable]):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, active = self.span_start, self.span_end, self._stack, self._active
        active.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            outermost = active[name] == 0
            active[name] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                active[name] -= 1
                stack.pop()
            if on_result is not None:
                on_result(args, result, outermost)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable, on_result: Optional[Callable]):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result, True)
            return result

        return wrapper

    def _add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _hooks(self) -> dict[str, Callable]:
        def trees_out(args, result, outermost):
            if outermost:
                self._add("trees.trees_enumerated_count", len(result))

        def antipode_terms(args, result, outermost):
            if outermost:
                self._add("antipode.terms_out_count", len(result))

        def monomials(args, result, outermost):
            self._add("coproduct.monomials_checked_count", len(result))

        def brace(args, result, outermost):
            spec, i, right = args
            self._brace_specs[id(spec)] = spec
            self.brace_keys.add((id(spec), i, right.indices))

        hooks = {
            "trees.enumerate": trees_out,
            "coproduct.monomials_up_to_calls": monomials,
            "prelie.brace_action": brace,
        }
        hooks.update({route: antipode_terms for route in _ANTIPODE_ROUTES})
        return hooks

    # -- patching ---------------------------------------------------------

    def _rebind(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace one function everywhere the package holds a reference to
        it: a class attribute, or every module global and every value of a
        module-level dict (such as a method dispatch table) that is it."""
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = make(original)
        targets: list[tuple[object, str]] = []
        if isinstance(owner, type):
            targets.append((owner, attr))
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "hopfforest" and not mod_name.startswith("hopfforest."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, key))
                    elif isinstance(value, dict):
                        targets.extend((value, k) for k, v in value.items() if v is original)
        for target, key in targets:
            self._patches.append((target, key, original))
            _assign(target, key, wrapped)

    def install(self) -> None:
        hooks = self._hooks()
        for name, module, path in SPANS:
            hook = hooks.get(name)
            self._rebind(module, path, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for name, module, path in COUNTS:
            hook = hooks.get(name)
            self._rebind(module, path, lambda fn, n=name, h=hook: self._count_wrapper(n, fn, h))

    def restore(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            _assign(target, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        durations = [self.span_end[k] - self.span_start[k] for k in range(n)]
        for k in range(n):
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += durations[k]
        totals = {name: 0.0 for name in self.names}
        for k in range(n):
            totals[self.names[self.span_name[k]]] += durations[k] - child[k]
        return totals

    def span_counts(self) -> dict[str, int]:
        out = {name: 0 for name in self.names}
        for name_id in self.span_name:
            out[self.names[name_id]] += 1
        return out
