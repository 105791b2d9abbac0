"""Span tracer that wraps hopfreal's layers from outside the package.

Every public function of the layer modules is replaced by a timing wrapper
in every ``hopfreal`` module namespace that binds it, since ``from .x import
y`` copies the binding (``kernel_basis`` is bound in ``exactlin``,
``realization`` and ``hopf``, for example).  ``SpanBasis.add``,
``SpanBasis.reduce`` and ``BasisId.__hash__`` are patched on their classes;
the hash only counts calls.  ``uninstall`` puts every original back.

Each wrapped call is one span: run id, span id, parent span id, name, start
and end, in nanoseconds of the process's CPU time.  Spans are kept in memory in flat arrays and written out by
``write_spans`` when the run ends.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array

LAYERS = ("exactlin", "coalgebra", "free_tensor", "invariant", "lifting",
          "realization", "hopf", "inputdoc")

# Methods of exactlin.SpanBasis traced under a metric name of their own.
_METHODS = (("add", "exactlin.span_add"), ("reduce", "exactlin.span_reduce"))
_HASH_COUNTER = "coalgebra.basisid_hash.calls"


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "hopfreal" or name.startswith("hopfreal."))}


def bindings() -> dict:
    """Every binding the tracer may patch, so a caller can check restoration."""
    out = {}
    for mod_name, mod in _modules().items():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(mod_name, attr)] = value
    span_basis = sys.modules["hopfreal.exactlin"].SpanBasis
    for attr, _ in _METHODS:
        out[("SpanBasis", attr)] = span_basis.__dict__[attr]
    out[("BasisId", "__hash__")] = sys.modules["hopfreal.coalgebra"].BasisId.__dict__["__hash__"]
    for stage, fn in sys.modules["hopfreal.pipeline"]._Pipeline.STAGES.items():
        out[("STAGES", stage)] = fn
    return out


def same_bindings(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _max_bits(entries) -> int:
    best = 0
    for v in entries:
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if bits > best:
            best = bits
    return best


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.stats = {}      # name -> [calls, inclusive ns, self ns, depth]
        self.extra = {}      # derived counters, e.g. exactlin.rref.nnz_in
        self.hashes = [0]
        self.specs = []
        self._ids = array("q")
        self._parents = array("q")
        self._name_idx = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._stack = [[-1, 0]]  # (span id, ns covered by children)
        self._next_id = itertools.count()
        self._patches = []

    # ----- installation -----------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module("hopfreal." + layer)
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["hopfreal." + layer]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(fn, name, *hooks.get(name, (None, None)))
        for mod in _modules().values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        span_basis = sys.modules["hopfreal.exactlin"].SpanBasis
        for attr, name in _METHODS:
            fn = span_basis.__dict__[attr]
            self._patch(span_basis, attr, self._wrap(fn, name, *hooks.get(name, (None, None))))
        basis_id = sys.modules["hopfreal.coalgebra"].BasisId
        orig_hash = basis_id.__dict__["__hash__"]
        counter = self.hashes

        def __hash__(obj):
            counter[0] += 1
            return orig_hash(obj)

        self._patch(basis_id, "__hash__", __hash__)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, pre, post):
        idx = len(self.names)
        self.names.append(name)
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        ids, parents, name_idx = self._ids, self._parents, self._name_idx
        starts, ends = self._starts, self._ends
        next_id = self._next_id
        clock = time.process_time_ns  # a pace process shares the CPU
        hashes = self.hashes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                seen = hashes[0]
                token = pre(args)
                hashes[0] = seen  # lookups made by the hook are not the program's
            frame = [next(next_id), 0]
            parent = stack[-1][0]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                st[0] += 1
                st[2] += dur - frame[1]
                st[3] -= 1
                if st[3] == 0:
                    st[1] += dur  # recursion counts once in inclusive time
                ids.append(frame[0])
                parents.append(parent)
                name_idx.append(idx)
                starts.append(t0)
                ends.append(t1)
            if post is not None:
                post(token if pre is not None else args, result)
            return result

        return wrapper

    # ----- derived counters -------------------------------------------------

    def _count(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _peak(self, key, value):
        if value > self.extra.get(key, 0):
            self.extra[key] = value

    def _hooks(self):
        def rref_pre(args):
            m = args[0]
            self._count("exactlin.rref.nnz_in", len(m.entries))
            self._peak("exactlin.rref.max_rows", m.rows)
            self._peak("exactlin.rref.max_cols", m.cols)
            self._peak("exactlin.rref.max_bits", _max_bits(m.entries.values()))

        def span_add_post(_, added):
            if added:
                self._count("exactlin.span_add.new")

        def cache_miss(key_of, counter):
            def pre(args):
                spec = args[0]
                if key_of(args) not in spec._cache:
                    self._count(counter)
            return pre

        adds = self.stats.setdefault("exactlin.span_add", [0, 0, 0, 0])

        def ideal_span_pre(_):
            return adds[0]

        def ideal_span_post(adds_before, span):
            self._count("realization.ideal_span.adds", adds[0] - adds_before)
            self._count("realization.ideal_span.dim_out", span.dim)

        def keep_spec(_, spec):
            self.specs.append(spec)

        return {
            "exactlin.rref": (rref_pre, None),
            "exactlin.span_add": (None, span_add_post),
            "lifting.lift_basis_block": (
                cache_miss(lambda a: ("lift", a[1], a[2]), "lifting.lift_basis_block.misses"),
                None),
            "realization.represent_word": (
                cache_miss(lambda a: ("pi", a[1]), "realization.represent_word.misses"),
                None),
            "realization.ideal_span": (ideal_span_pre, ideal_span_post),
            "inputdoc.build_spec": (None, keep_spec),
            "lifting.with_truncation": (None, keep_spec),
        }

    # ----- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values: ``<layer>.<function>.{calls,s,self_s}`` for every
        wrapped function, plus the derived counters."""
        out = {}
        for name, (calls, incl, self_ns, _) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = incl / 1e9
            out[name + ".self_s"] = self_ns / 1e9
        out.update(self.extra)
        out[_HASH_COUNTER] = self.hashes[0]
        out["lifting.spec_cache.entries"] = sum(len(s._cache) for s in self.specs)
        out["trace.spans"] = len(self._ids)
        return out

    def layer_self_s(self) -> dict:
        """Self time summed per layer (module), in seconds."""
        out = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st[2] / 1e9
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            names, run = self.names, self.run_id
            for k in range(len(self._ids)):
                handle.write(f"{run}\t{self._ids[k]}\t{self._parents[k]}\t"
                             f"{names[self._name_idx[k]]}\t{self._starts[k]}\t"
                             f"{self._ends[k]}\n")
