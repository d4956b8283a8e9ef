"""Per-layer tracing by wrapping vfcoho's public functions at run time.

`Tracer.install()` replaces every public function and public method of the
traced modules with a wrapper, both where it is defined and wherever
another vfcoho module imported it by name.  Each wrapper is a span: it
pushes a child-time accumulator, calls the original, and on return adds
its duration to its parent's accumulator.  A function's self time is its
duration minus the time of the spans it caused, so the self times of all
modules add up to the traced time with no double counting.  Spans are
aggregated as they close (per function, and per caller-module/callee-module
edge) instead of being kept one by one: the odd-trace workload makes
millions of ring operations.

Cochain evaluation is traced through `Cochain.__init__`, which wraps every
new cochain's `evaluate`; that is where the `cocycles.eval.*` counters
(zero values, distinct argument tuples) are taken.

The program itself is not edited: `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED_MODULES = ("rings", "fields", "forms", "cocycles", "cohomology",
                  "extensions", "linalg", "weil", "sampling", "suites")
# The harness' own spans (one per workload operation) are attributed here.
HARNESS = "bench"

# Cheap queries and serializers: wrapping them would mostly time the
# wrapper.  Everything else public is traced, and of the special methods
# the arithmetic ones.
_SKIP = {"is_zero", "text", "to_json", "sorted_terms", "vector_text",
         "passed", "to_dict", "spec_dict", "entry", "constant_term"}
_DUNDER_OPS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
               "__matmul__"}


def _public(name: str) -> bool:
    return name in _DUNDER_OPS or not (name.startswith("_") or name in _SKIP)


def _arg_key(value):
    """Hashable, value-based key of a cochain argument: the terms of a
    VectorField or GaugeElement, or a finite-algebra vector as it is."""
    coeffs = getattr(value, "coeffs", None)
    if coeffs is None:
        return value
    return tuple(tuple(sorted(f.terms.items())) for f in coeffs)


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"]
                        for name in TRACED_MODULES}
        names = (HARNESS,) + TRACED_MODULES
        self.module_index = {name: i for i, name in enumerate(names)}
        self.module_names = names
        # stat = [calls, self seconds, module index, terms out]
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[int, int], int] = {}
        # _stack holds the child-time accumulator of every open span; the
        # bottom entry collects untraced time.  _owners holds the module
        # index of every open span.
        self._stack: list[float] = [0.0]
        self._owners: list[int] = [0]
        self._restore: list[tuple[object, str, object]] = []
        self.evals = 0
        self.eval_zero = 0
        self._eval_seen: set = set()
        self._cochain_serial = 0

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, qualname: str, module: str, count_terms: bool = False):
        stat = self.stats.setdefault(qualname, [0, 0.0, self.module_index[module], 0])
        stack, owners, edges = self._stack, self._owners, self.edges
        me = self.module_index[module]
        perf = time.perf_counter

        def span(*args, **kwargs):
            edge = (owners[-1], me)
            edges[edge] = edges.get(edge, 0) + 1
            owners.append(me)
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                owners.pop()
            if count_terms:
                terms = getattr(result, "terms", None)
                if terms is not None:
                    stat[3] += len(terms)
            return result

        return functools.update_wrapper(span, fn)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn as a harness span, e.g. one workload operation."""
        return self._wrap(fn, f"{HARNESS}.{name}", HARNESS)(*args, **kwargs)

    # -- installing ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for short, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, Exception):
                        self._wrap_class(short, obj)
                elif callable(obj) and _public(name):
                    wrapper = self._wrap(obj, f"{short}.{name}", short,
                                         count_terms=short == "rings")
                    replaced[id(obj)] = wrapper
        # Rebind every imported copy (`from .fields import neg_jacobian`)
        # and every module-level registry entry (the suite table).
        for mod in list(self.modules.values()) + [self.package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._restore.append((obj, key, value))
                            obj[key] = replaced[id(value)]
        self._wrap_cochain_init()
        return self

    def _wrap_class(self, short: str, cls: type) -> None:
        count_terms = short == "rings"
        for name, attr in list(vars(cls).items()):
            if not _public(name):
                continue
            qual = f"{short}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                inner = self._wrap(attr.__func__, qual, short, count_terms)
                self._set(cls, name, type(attr)(inner))
            elif callable(attr) and not isinstance(attr, type):
                self._set(cls, name, self._wrap(attr, qual, short, count_terms))

    def _wrap_cochain_init(self) -> None:
        cochain_cls = self.modules["cohomology"].Cochain
        original = cochain_cls.__init__
        tracer = self

        def init(cochain, *args, **kwargs):
            original(cochain, *args, **kwargs)
            cochain.evaluate = tracer._wrap_evaluate(cochain.evaluate)

        self._set(cochain_cls, "__init__", init)

    def _wrap_evaluate(self, evaluate):
        module = evaluate.__module__.rsplit(".", 1)[-1]
        if module not in self.module_index:
            module = HARNESS
        self._cochain_serial += 1
        serial = self._cochain_serial
        timed = self._wrap(evaluate, f"{module}.<cochain evaluate>", module)
        seen = self._eval_seen

        def evaluate_span(*args):
            value = timed(*args)
            self.evals += 1
            zero = value.is_zero() if hasattr(value, "is_zero") else not value
            if zero:
                self.eval_zero += 1
            seen.add((serial,) + tuple(_arg_key(a) for a in args))
            return value

        return evaluate_span

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter, e.g. at the end of set-up."""
        for stat in self.stats.values():
            stat[0], stat[1], stat[3] = 0, 0.0, 0
        self.edges.clear()
        self._stack[0] = 0.0
        self.evals = self.eval_zero = 0
        self._eval_seen.clear()

    def snapshot(self) -> dict:
        """Every counter since the last reset, per module and per function."""
        modules = {name: {"calls": 0, "self_s": 0.0} for name in self.module_names}
        for calls, self_s, index, _terms in self.stats.values():
            entry = modules[self.module_names[index]]
            entry["calls"] += calls
            entry["self_s"] += self_s
        return {
            "modules": modules,
            "functions": {q: {"calls": s[0], "self_s": s[1], "terms_out": s[3]}
                          for q, s in self.stats.items() if s[0]},
            "edges": {f"{self.module_names[a]}->{self.module_names[b]}": n
                      for (a, b), n in sorted(self.edges.items())},
            "evals": self.evals,
            "eval_zero": self.eval_zero,
            "eval_distinct": len(self._eval_seen),
        }


def share(part: int, whole: int) -> float:
    """part / whole, or 0.0 when nothing was counted."""
    return part / whole if whole else 0.0
