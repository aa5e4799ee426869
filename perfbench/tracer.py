"""Span tracer for the benchmark's traced runs.

The tracer times kdual from outside.  `install` rebinds each entry point
in ENTRIES, in every kdual namespace that holds it: the defining module,
modules that bind it with `from .x import f` (suites, tduality, ...), the
package namespace, and class attributes that alias a method (such as
`__rmul__ = __mul__`).  A call made while the tracer is enabled records a
span: [name, start, end, parent span index, op id].  Spans stay in memory
until the caller writes them out.

Self time is a span's duration minus the time its direct child spans
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module of src/kdual, entry point) pairs, timed around each call.
ENTRIES = (
    ("exact_abelian", "smith_normal_form"),
    ("exact_abelian", "cokernel"),
    ("exact_abelian", "solve"),
    ("exact_abelian", "rmodule_classify"),
    ("exact_abelian", "RModule.__init__"),
    ("graded_algebra", "PresentedRing.element"),
    ("graded_algebra", "RingElement.__mul__"),
    ("graded_algebra", "RingElement.__pow__"),
    ("graded_algebra", "degree_component"),
    ("expressions", "parse_expression"),
    ("paper_rings", "build_ring"),
    ("paper_rings", "f_oracle"),
    ("paper_rings", "Dictionary.push"),
    ("transforms", "t_transform"),
    ("transforms", "kunneth_split"),
    ("transforms", "gysin_cohomology"),
    ("tduality", "mv_k_groups"),
    ("tduality", "search_clutchings"),
    ("tduality", "twisted_k_mv"),
    ("tduality", "enumerate_pair_classes"),
    ("tduality", "tdual"),
    ("suites", "run_suite"),
    ("cli", "main"),
)
# Spans recorded by the benchmark rather than by a wrapper.
STARTUP = "cli.startup"   # interpreter start plus `import kdual.cli`
OP_PREFIX = "op."         # one root span per op

SUITES = ("tables", "oracle", "transform", "tdual")

MODULES = ("exact_abelian", "graded_algebra", "expressions", "paper_rings",
           "transforms", "tduality", "suites", "cli")


def span_names():
    return [f"{module}.{entry}" for module, entry in ENTRIES] + [STARTUP]


def suite_key(suite):
    return f"suites.run_suite.{suite}.incl_s"


def _max_bits(decomposition):
    bits = 0
    for matrix in (decomposition.u, decomposition.d, decomposition.v):
        if matrix.entries:
            bits = max(bits, max(max(matrix.entries), -min(matrix.entries)).bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        # largest entry bit length of a returned U, D, V; largest input
        # dimension; raw terms handed to PresentedRing.element
        self.stats = {"exact_abelian.smith_normal_form.max_bits": 0,
                      "exact_abelian.smith_normal_form.max_dim": 0,
                      "graded_algebra.PresentedRing.element.terms_in": 0}
        # inclusive seconds of each suite that `verify all` runs
        self.stats.update({suite_key(s): 0.0 for s in SUITES})
        self._stack = []
        self._op = None
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def record(self, name, start, end, op_id):
        """A root span measured by the caller."""
        self.spans.append([name, start, end, -1, op_id])

    def start_op(self, op_id, name):
        """Enable tracing and open the root span of one op."""
        self._op = op_id
        self.enabled = True
        return self.begin(OP_PREFIX + name)

    def end_op(self, index):
        self.end(index)
        self.enabled = False
        self._op = None

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        before = after = None
        if name == "paper_rings.build_ring":
            def before(args):
                return fn.cache_info().misses

            def after(args, result, index, misses):
                if fn.cache_info().misses == misses:
                    del tracer.spans[index]  # a cache hit: only cold calls count
        elif name == "exact_abelian.smith_normal_form":
            def after(args, result, index, _):
                stats, key = tracer.stats, "exact_abelian.smith_normal_form."
                stats[key + "max_bits"] = max(stats[key + "max_bits"], _max_bits(result))
                stats[key + "max_dim"] = max(stats[key + "max_dim"], args[0].rows, args[0].cols)
        elif name == "suites.run_suite":
            def after(args, result, index, _):
                key = suite_key(args[0])
                if key in tracer.stats:
                    tracer.stats[key] += tracer.spans[index][2] - tracer.spans[index][1]
        elif name == "graded_algebra.PresentedRing.element":
            def before(args):
                tracer.stats["graded_algebra.PresentedRing.element.terms_in"] += len(args[1])

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result, index, state)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        package = importlib.import_module("kdual")
        modules = [package] + [importlib.import_module(f"kdual.{m}") for m in MODULES]
        for module_name, entry in ENTRIES:
            owner = importlib.import_module(f"kdual.{module_name}")
            *path, attr = entry.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = modules
            wrapper = self._wrap(f"{module_name}.{entry}", original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        self.enabled = False


# ---------------------------------------------------------------------------
# reading spans


def self_times(spans):
    """Self seconds of every span, in span order."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans):
    """{span name: [calls, self seconds]} over all spans."""
    totals = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    return totals


def module_of(name):
    return name.split(".", 1)[0]


def self_shares(spans, ops):
    """Per module: self seconds inside the given ops, as a share of the
    ops' root span time."""
    root_time = 0.0
    shares = {}
    for (name, start, end, parent, op), self_s in zip(spans, self_times(spans)):
        if op not in ops:
            continue
        if parent < 0:
            root_time += end - start
        module = module_of(name)
        if module != "op":
            shares[module] = shares.get(module, 0.0) + self_s
    return {m: s / root_time for m, s in shares.items()} if root_time else {}


def inclusive_seconds(spans, modules, op):
    """Wall time that spans of the given modules cover inside one op,
    counting a span only when no ancestor belongs to them."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, span_op) in enumerate(spans):
        above = parent >= 0 and (inside[parent] or module_of(spans[parent][0]) in modules)
        inside[i] = above
        if span_op == op and not above and module_of(name) in modules:
            total += end - start
    return total
