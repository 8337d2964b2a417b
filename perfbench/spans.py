"""Timing wrappers and spans for the traced run.

:class:`Tracer` replaces the public functions of the package's modules with
wrappers that record one span per call: name, start, end, parent span and
query id.  A function bound into another module with ``from .x import y``
is wrapped there too, and so is a default argument that holds one (the
reducer of ``cyclically_reduce_with_conjugator``).  ``restore`` puts every
original back; :func:`find_wrapped` lists anything still wrapped.
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "britton", "freegroup", "arith", "conjugacy", "monoid", "cli")
_MARK = "__perfbench_span__"


def _exp_bits(f) -> int:
    return max([abs(f.k0).bit_length()] + [abs(k).bit_length() for _, k in f.steps])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.qid = None
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        # per span index: time its children's counters took after they closed
        self.counter_s: Counter = Counter()
        self._saved: list = []  # (owner, attribute, original value)

    # -- counters recorded at the span boundaries ------------------------

    def _after(self, name: str, args, result, token):
        c, m = self.counts, self.maxima
        c[name + ".calls"] += 1
        if name in ("britton.word_problem", "britton.britton_reduce_fast",
                    "britton.cyclically_reduce_with_conjugator", "britton.color"):
            m["britton.max_exp_bits"] = max(m["britton.max_exp_bits"], _exp_bits(args[0]))
        if name == "graphs.rebase":
            # what len(result.letters()) gives, without building the letters
            c["graphs.rebase.letters_out"] += result.n + (result.k0 != 0) + sum(1 for _, k in result.steps if k)
        elif name == "britton.color":
            c["britton.color.positions"] += args[0].n
        elif name == "britton.britton_reduce_fast":
            c["britton.reduce.edges_in"] += args[0].n
            c["britton.reduce.edges_out"] += result.n
        elif name == "freegroup.embed_f2":
            c["freegroup.embed_f2.letters_out"] += len(result)
        elif name == "arith.crt_solve":
            bits = max((abs(d).bit_length() for _, d in args[0]), default=0)
            m["arith.crt_solve.max_modulus_bits"] = max(m["arith.crt_solve.max_modulus_bits"], bits)
        elif name == "conjugacy.conjugate":
            if result.verdict.value == "conjugate" and c["conjugacy.hyperbolic_system.calls"] > token:
                c["conjugacy.aligned_hits"] += 1
        elif name == "monoid.congruent":
            if result.verdict.value == "unknown":
                c["monoid.congruent.unknown"] += 1
            c["monoid.congruent.path_steps"] += len(result.path or ())

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            token = self.counts["conjugacy.hyperbolic_system.calls"]
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.qid)
            self._after(name, args, result, token)
            if parent >= 0:  # the counters are not the parent's own work
                self.counter_s[parent] += perf_counter() - end
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    # -- installing and restoring ------------------------------------------

    def install(self, package: str = "gbs"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)])
        for wrapper in originals.values():
            fn = wrapper.__wrapped__
            if fn.__defaults__ and any(id(d) in originals for d in fn.__defaults__):
                new = tuple(originals.get(id(d), d) for d in fn.__defaults__)
                self._set(fn, "__defaults__", new)
        britton = sys.modules[f"{package}.britton"]
        init = britton.PrefixRatios.__init__
        self._set(britton.PrefixRatios, "__init__", self._wrap("britton.PrefixRatios", init))

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the time covered by
        its direct children (children never overlap in one thread) and by
        the counters recorded as each child closed."""
        child = defaultdict(float, self.counter_s)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return dict(out)


def find_wrapped(package: str = "gbs") -> list:
    """Every attribute of a loaded ``package`` module (and the defaults and
    constructors the tracer touches) that still holds a timing wrapper."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK) and not inspect.isclass(obj):
                found.append(f"{modname}.{attr}")
            if inspect.isfunction(obj) and any(hasattr(d, _MARK) for d in obj.__defaults__ or ()):
                found.append(f"{modname}.{attr}.__defaults__")
            if inspect.isclass(obj) and hasattr(vars(obj).get("__init__"), _MARK):
                found.append(f"{modname}.{attr}.__init__")
    return found
