"""Span recording around the package's public functions, installed from the
benchmark's own files.

Each traced name is patched in the namespace of the module that looks it up
at call time (for example `oreelim.modres.triangularize_with_log`, which is
what `res_x2_modular` calls), or on the class for methods.  A name that a
later refactor removed is reported as absent instead of failing the run.

Spans are kept in memory per pair: (span id, parent id, name, start ns,
end ns).  A layer's self time is its span's duration minus the durations of
its direct children; the spans of one pair never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute path) -- the attribute is looked up on the
# module at call time, or on a class for "Class.method".
TRACED = (
    ("resultant.res_x2_direct", "oreelim.resultant", "res_x2_direct"),
    ("resultant.sylvester", "oreelim.resultant", "sylvester_matrix"),
    ("resultant.sylvester", "oreelim.modres", "sylvester_matrix"),
    ("skewdet.diag_product", "oreelim.resultant", "dieudonne_det"),
    ("skewdet.triangularize", "oreelim.skewdet", "triangularize_with_log"),
    ("skewdet.triangularize", "oreelim.modres", "triangularize_with_log"),
    ("ore_uni.mul", "oreelim.ore_uni", "OrePoly.__mul__"),
    ("ore_uni.right_divmod", "oreelim.ore_uni", "OrePoly.right_divmod"),
    ("modres.recover", "oreelim.modres", "res_x2_modular"),
    ("modres.plan", "oreelim.modres", "plan_modular"),
    ("field.extend_field", "oreelim.modres", "extend_field"),
    ("modres.check_bad_eval", "oreelim.modres", "check_bad_eval"),
    ("modres.embed", "oreelim.modres", "embed_bivar"),
    ("modres.chain", "oreelim.modres", "chain_evaluate"),
    ("modres.map_back", "oreelim.field", "FieldEmbedding.inverse_packed"),
)

# ore_uni spans are recorded only inside triangularization: they measure
# row-update cost against division cost there, and the diagonal product's
# multiplications stay in the self time of `dieudonne_det`.
INNER_ONLY = {
    "ore_uni.mul": "skewdet.triangularize",
    "ore_uni.right_divmod": "skewdet.triangularize",
}


class SpanRecorder:
    """Records spans while active; `install` patches the traced names and
    `uninstall` restores the originals."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.absent = []
        self._stack = []  # (span id, name) of open spans
        self._next_id = 0
        self._patched = []

    # -- patching --------------------------------------------------------------

    def install(self, traced=TRACED):
        for name, module_name, attr in traced:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, original))
            self._patched.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        recorder = self
        outer = INNER_ONLY.get(name)

        def traced(*args, **kwargs):
            if not recorder.active or (
                outer is not None and not recorder.inside(outer)
            ):
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1][0] if recorder._stack else None
            recorder._stack.append((span_id, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                recorder._stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, name):
        return any(n == name for _, n in self._stack)

    # -- one pair --------------------------------------------------------------

    def call(self, name, fn, *args):
        """Run fn(*args) as the root span `name` with recording on; returns
        (result, spans)."""
        self.spans = []
        self.active = True
        try:
            result = self._wrap(name, fn)(*args)
        finally:
            self.active = False
        return result, self.spans


def span_totals(spans):
    """{name: (self ns, total ns, calls)} summed over a list of spans."""
    child_ns = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = defaultdict(lambda: [0, 0, 0])
    for span_id, _, name, start, end in spans:
        acc = out[name]
        acc[0] += end - start - child_ns[span_id]
        acc[1] += end - start
        acc[2] += 1
    return {name: tuple(v) for name, v in out.items()}


FIELD_OPS = ("add", "mul", "inv", "frob")


def count_field_calls(fn, args, contexts):
    """Run fn(*args) once with counting wrappers on the public `FieldCtx`
    methods; returns {(label, op): calls} for each (label, ctx) in
    `contexts`.  Kept apart from span timing because wrapping the field hot
    path would distort every span around it."""
    from oreelim.field import FieldCtx

    counts = {(label, op): 0 for label, _ in contexts for op in FIELD_OPS}
    label_of = {id(ctx): label for label, ctx in contexts}
    originals = {op: getattr(FieldCtx, op) for op in FIELD_OPS}

    def counting(op, original):
        def counted(self, *a):
            label = label_of.get(id(self))
            if label is not None:
                counts[(label, op)] += 1
            return original(self, *a)

        return counted

    try:
        for op, original in originals.items():
            setattr(FieldCtx, op, counting(op, original))
        fn(*args)
    finally:
        for op, original in originals.items():
            setattr(FieldCtx, op, original)
    return counts
