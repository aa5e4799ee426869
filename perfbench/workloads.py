"""Seeded inputs, calls into kdual and answer checks for the op workloads.

A workload run repeats *passes*.  Every pass holds the same fixed mix of
ops (the same kinds, sizes and counts), with fresh inputs drawn from
``random.Random(f"{workload}:{seed}:{pass}")``.  So a pass costs about the
same whatever the seed, a later pass never repeats an earlier input (a
cache keyed on inputs gains nothing), and the same seed always gives the
same op sequence.

All inputs of a pass are generated before the pass is timed.  kdual only
sees the generated inputs; every answer is checked after its op returns,
outside the timed call.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from kdual import exact_abelian, expressions, graded_algebra, paper_rings, transforms
from kdual.exact_abelian import IntegerMatrix, RModule
from kdual.graded_algebra import EQ, PM, Degree

# lattice: (matrix size n, matrices per pass).  Each matrix feeds one
# smith_normal_form op and one cokernel op on a scrambled copy.
LATTICE_SIZES = ((16, 6), (24, 4), (32, 3), (48, 2))
LATTICE_ENTRY = 9
# lattice: (module rank, modules per pass) for RModule construction and,
# separately, for rmodule_classify.
LATTICE_RANKS = ((10, 2), (20, 2), (30, 2), (40, 2))

# rewrite: the rings the stream draws from, and per ring and pass the
# number of parse, product, power and degree-slice ops.
REWRITE_RINGS = ("kk_torus2", "hh_universal_base", "hh_circle_flip",
                 "kk_circle_flip", "hh_cp_infty")
REWRITE_MIX = (("parse_expression", 60), ("mul", 80), ("pow", 30), ("degree_component", 20))
TRANSFORMS_PER_PASS = 100
# rings whose degree-zero part has an oracle dictionary (name in paper_rings)
DICTIONARIES = {"kk_torus2": "torus2", "kk_circle_flip": "circle"}



@dataclass(frozen=True)
class Op:
    """One call into kdual: `kind` names the entry point, `args` are the
    generated inputs and `expect` is what the check compares against."""

    kind: str
    args: tuple
    expect: object = None


def _t_power(element, k):
    for _ in range(k):
        element = transforms.t_transform(element)
    return element


# Every call goes through a module or class attribute looked up at call
# time, so a tracer that rebinds those attributes sees it.
CALLS = {
    "smith_normal_form": lambda m: exact_abelian.smith_normal_form(m),
    "cokernel": lambda m: exact_abelian.cokernel(m),
    "RModule": lambda rank, rel, act: exact_abelian.RModule(rank, rel, act),
    "rmodule_classify": lambda module: exact_abelian.rmodule_classify(module),
    "parse_expression": lambda ring, text: expressions.parse_expression(ring, text),
    "mul": lambda a, b: a * b,
    "pow": lambda a, k: a ** k,
    "degree_component": lambda ring, degree: graded_algebra.degree_component(ring, degree),
    "t_transform": _t_power,
}


def pass_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# lattice inputs


def _scrambled(rows, rng):
    """Rows and columns permuted and some rows negated: a different matrix
    with the same invariant factors."""
    n = len(rows)
    rperm, cperm = rng.sample(range(n), n), rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * rows[rperm[i]][j] for j in cperm] for i in range(n)]


def _planted_multiset(rank, rng):
    """About a fifth of the rank in copies of R (rank 2 each), the rest
    split about evenly over R/I, R/J and I/2I."""
    a = rank // 5 + rng.randint(-1, 1)
    rest = rank - 2 * a
    b = rest // 3 + rng.randint(-1, 1)
    c = rest // 3 + rng.randint(-1, 1)
    return +Counter({"R": a, "R/I": b, "R/J": c, "I/2I": rest - b - c})


def _mixing(n, rng):
    """A random unimodular P with its exact inverse Q, as a product of
    3n transvections with multipliers +-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def planted_module_args(rank, rng):
    """(rank, relations, action) of a direct sum of R, R/I, R/J and I/2I
    hidden by a random change of basis, and the planted multiset."""
    multiset = _planted_multiset(rank, rng)
    action = [[0] * rank for _ in range(rank)]
    torsion = []  # generators of the I/2I summands, each of order 2
    i = 0
    for name in exact_abelian.INDECOMPOSABLES:
        for _ in range(multiset[name]):
            if name == "R":
                action[i][i + 1] = action[i + 1][i] = 1
                i += 2
            else:
                action[i][i] = 1 if name == "R/I" else -1
                if name == "I/2I":
                    torsion.append(i)
                i += 1
    p, q = _mixing(rank, rng)
    relations = [[2 if r == k else 0 for k in torsion] for r in range(rank)]
    relations = _matmul(p, relations) if torsion else relations
    action = _matmul(_matmul(p, action), q)
    return (rank, IntegerMatrix.from_rows(relations, cols=len(torsion)),
            IntegerMatrix.from_rows(action)), multiset


def lattice_pass(seed, index):
    rng = pass_rng("lattice", seed, index)
    ops = []
    for n, count in LATTICE_SIZES:
        for _ in range(count):
            rows = [[rng.randint(-LATTICE_ENTRY, LATTICE_ENTRY) for _ in range(n)]
                    for _ in range(n)]
            key = len(ops)
            ops.append(Op("smith_normal_form", (IntegerMatrix.from_rows(rows),), key))
            ops.append(Op("cokernel", (IntegerMatrix.from_rows(_scrambled(rows, rng)),), key))
    for rank, count in LATTICE_RANKS:
        for _ in range(count):
            args, _ = planted_module_args(rank, rng)
            ops.append(Op("RModule", args))
            args, multiset = planted_module_args(rank, rng)
            ops.append(Op("rmodule_classify", (RModule(*args),), multiset))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# rewrite inputs


class RewriteContext:
    """The rings of the rewrite stream and the fixed tables its inputs and
    checks use.  Building it builds and certifies the rings."""

    def __init__(self):
        self.rings = {name: paper_rings.build_ring(name) for name in REWRITE_RINGS}
        self.slices = {}
        for name, ring in self.rings.items():
            if ring.period:
                self.slices[name] = [graded_algebra.degree_component(ring, Degree(0, EQ)),
                                     graded_algebra.degree_component(ring, Degree(1, PM))]
        self.dictionaries = {name: paper_rings.dictionary(d) for name, d in DICTIONARIES.items()}
        # the transform is Z-linear on the six monomials of the flip circle;
        # column j holds the coordinates of T(basis[j])
        circle = self.rings["kk_circle_flip"]
        self.t_basis = [m for s in self.slices["kk_circle_flip"] for m in s.monomials]
        self.t_matrix = [self.t_coords(transforms.t_transform(circle.element({m: 1})))
                         for m in self.t_basis]

    def t_coords(self, element):
        terms = dict(element.terms)
        return [terms.get(m, 0) for m in self.t_basis]

    def random_element(self, name, rng, degree_zero=False):
        ring = self.rings[name]
        if name in self.slices:
            # degree zero, degree one, or (inhomogeneous) both
            slices = self.slices[name]
            pick = slices[:1] if degree_zero else [slices[:1], slices[1:], slices][rng.randint(0, 2)]
            return ring.element({m: rng.randint(-4, 4) or 1 for s in pick for m in s.monomials})
        raw = {}
        for _ in range(6):
            exps = tuple(rng.randint(0, 4) for _ in ring.generators)
            raw[exps] = raw.get(exps, 0) + (rng.randint(1, 4) * rng.choice((1, -1)))
        return ring.element(raw)


def random_expression(rng, names, depth):
    """A random expression tree over generator names: ("int", v),
    ("gen", name), (op, left, right) for op in add/sub/mul, ("pow", x, k)."""
    if depth == 0 or rng.random() < 0.2:
        return ("int", rng.randint(1, 5)) if rng.random() < 0.2 else ("gen", rng.choice(names))
    kind = rng.choice(("add", "sub", "mul", "mul", "pow"))
    if kind == "pow":
        return ("pow", random_expression(rng, names, depth - 1), rng.randint(2, 3))
    return (kind, random_expression(rng, names, depth - 1),
            random_expression(rng, names, depth - 1))


def render(node):
    kind = node[0]
    if kind in ("int", "gen"):
        return str(node[1])
    if kind == "pow":
        return f"({render(node[1])})^{node[2]}"
    op = {"add": " + ", "sub": " - ", "mul": "*"}[kind]
    return f"({render(node[1])}{op}{render(node[2])})"


def evaluate(ring, node):
    """The value of an expression tree, by ring arithmetic (no parser)."""
    kind = node[0]
    if kind == "int":
        return node[1] * ring.one()
    if kind == "gen":
        return ring.gen(node[1])
    if kind == "pow":
        return evaluate(ring, node[1]) ** node[2]
    left, right = evaluate(ring, node[1]), evaluate(ring, node[2])
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    return left * right


def rewrite_pass(seed, index, context):
    rng = pass_rng("rewrite", seed, index)
    ops = []
    for name in REWRITE_RINGS:
        ring = context.rings[name]
        names = [g.name for g in ring.generators]
        for kind, count in REWRITE_MIX:
            for k in range(count):
                if kind == "parse_expression":
                    tree = random_expression(rng, names, 5)
                    ops.append(Op(kind, (ring, render(tree)), tree))
                elif kind == "mul":
                    # the first product of a pass in a dictionary ring is of
                    # degree-zero elements, so the oracle check always runs
                    zero = name in DICTIONARIES and k == 0
                    ops.append(Op(kind, (context.random_element(name, rng, zero),
                                         context.random_element(name, rng, zero))))
                elif kind == "pow":
                    ops.append(Op(kind, (context.random_element(name, rng),
                                         rng.randint(2, 4))))
                else:
                    level = rng.randint(0, 3 if ring.period else 7)
                    ops.append(Op(kind, (ring, Degree(level, rng.choice((EQ, PM))))))
    circle = context.rings["kk_circle_flip"]
    for _ in range(TRANSFORMS_PER_PASS):
        element = circle.element({m: rng.randint(-4, 4) for m in context.t_basis})
        ops.append(Op("t_transform", (element, rng.randint(1, 8))))
    rng.shuffle(ops)
    return ops


def generate(workload, seed, index, context=None):
    """The ops of pass `index`; rewrite needs a RewriteContext."""
    if workload == "lattice":
        return lattice_pass(seed, index)
    return rewrite_pass(seed, index, context)


def make_context(workload):
    return RewriteContext() if workload == "rewrite" else None


# ---------------------------------------------------------------------------
# checks


def _snf_ok(matrix, decomposition):
    """U @ M @ V = D, with D diagonal, nonnegative and a divisor chain."""
    u, d, v = decomposition.u, decomposition.d, decomposition.v
    if (d.rows, d.cols) != (matrix.rows, matrix.cols):
        return False
    rows = d.to_rows()
    diag = [rows[i][i] for i in range(min(d.rows, d.cols))]
    if any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j):
        return False
    if any(x < 0 for x in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a):
            return False
    return _matmul(_matmul(u.to_rows(), matrix.to_rows()), v.to_rows()) == rows


def _invariant_factors(diag, rows):
    torsion = tuple(x for x in diag if x not in (0, 1))
    return torsion + (0,) * (rows - sum(1 for x in diag if x))


def _normal(element, ring):
    return element.ring is ring and ring.element(dict(element.terms)) == element


def _slice_ok(ring, degree, slice_):
    target = ring.reduce_degree(degree)
    monomials = list(slice_.monomials)
    return (slice_.ring is ring and slice_.degree == target
            and monomials == sorted(set(monomials), key=ring.monomial_key)
            and all(ring.monomial_is_normal(m) and ring.monomial_degree(m) == target
                    for m in monomials)
            and slice_.orders == tuple(ring.monomial_additive_order(m) for m in monomials))


class Checker:
    """Checks each op's answer; `failed` counts ops whose answer is wrong,
    raised, or could not be checked."""

    def __init__(self, context=None):
        self.context = context
        self.failed = 0
        self._diagonals = {}   # smith_normal_form diagonal, by matrix key
        self._cokernels = {}   # cokernel answers waiting for that diagonal

    def check(self, op, result):
        if isinstance(result, Exception):
            self.failed += 1
            return
        try:
            ok = getattr(self, "_" + op.kind)(op, result)
        except Exception:  # a malformed answer is a failed check
            ok = False
        if not ok:
            self.failed += 1

    def finish(self):
        """Count cokernel answers whose diagonal never arrived."""
        self.failed += len(self._cokernels)
        self._cokernels.clear()
        self._diagonals.clear()

    # lattice

    def _smith_normal_form(self, op, result):
        ok = _snf_ok(op.args[0], result)
        if ok:
            self._diagonals[op.expect] = (result.diagonal(), op.args[0].rows)
            waiting = self._cokernels.pop(op.expect, None)
            if waiting is not None and waiting != _invariant_factors(*self._diagonals[op.expect]):
                self.failed += 1
        return ok

    def _cokernel(self, op, result):
        factors = tuple(result.invariant_factors)
        if op.expect in self._diagonals:
            return factors == _invariant_factors(*self._diagonals[op.expect])
        self._cokernels[op.expect] = factors
        return True

    def _RModule(self, op, result):
        rank, relations, action = op.args
        return (result.rank, result.relations, result.action) == (rank, relations, action)

    def _rmodule_classify(self, op, result):
        return +result == op.expect

    # rewrite

    def _push_ok(self, ring, result, *factors, power=1):
        """Oracle check for degree-zero elements of a dictionary ring."""
        dictionary = self.context.dictionaries.get(ring.name)
        if dictionary is None or not all(f.is_homogeneous(Degree(0, EQ)) for f in factors):
            return True
        expected = dictionary.push(factors[0]) ** power
        for f in factors[1:]:
            expected = expected * dictionary.push(f)
        return dictionary.push(result) == expected

    def _parse_expression(self, op, result):
        ring = op.args[0]
        return _normal(result, ring) and result == evaluate(ring, op.expect)

    def _mul(self, op, result):
        a, b = op.args
        return (_normal(result, a.ring) and b * a == result
                and self._push_ok(a.ring, result, a, b))

    def _pow(self, op, result):
        a, k = op.args
        expected = a
        for _ in range(k - 1):
            expected = expected * a
        return (_normal(result, a.ring) and result == expected
                and self._push_ok(a.ring, result, a, power=k))

    def _degree_component(self, op, result):
        return _slice_ok(*op.args, result)

    def _t_transform(self, op, result):
        element, k = op.args
        coords = self.context.t_coords(element)
        for _ in range(k):
            coords = [sum(col[i] * c for col, c in zip(self.context.t_matrix, coords))
                      for i in range(len(coords))]
        return _normal(result, element.ring) and self.context.t_coords(result) == coords \
            and len(result.terms) == sum(1 for c in coords if c)


# With a speed.Speed, run_pass times the reference loop once this many
# seconds have passed since the last time, and at the end of the pass.
SPEED_SEGMENT_S = 0.25


def run_pass(ops, checker, tracer=None, speed=None):
    """Run the ops in order and check each answer after its call returns.
    Returns the seconds spent inside each call; with a speed.Speed, each
    scaled by the factor of the segment of the pass it ran in."""
    seconds = []
    unscaled = 0  # index of the first op not yet scaled
    clock = time.perf_counter
    for i, op in enumerate(ops):
        call = CALLS[op.kind]
        span = tracer.start_op(i, op.kind) if tracer is not None else None
        start = clock()
        try:
            result = call(*op.args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        seconds.append(clock() - start)
        if span is not None:
            tracer.end_op(span)
        checker.check(op, result)
        if speed is not None and (i + 1 == len(ops) or clock() - speed.at >= SPEED_SEGMENT_S):
            scale = speed.factor()
            seconds[unscaled:] = [s * scale for s in seconds[unscaled:]]
            unscaled = len(seconds)
    checker.finish()
    return seconds


# ---------------------------------------------------------------------------
# cold `kdual verify all` reports


def expected_check_ids():
    path = Path(__file__).resolve().parent / "verify_ids.json"
    return json.loads(path.read_text())


def verify_report_ok(exit_code, stdout, expected_ids):
    """Exit code 0, exactly the expected check ids, each `pass` or
    `paper-asserted`.  Other report fields are not compared."""
    if exit_code != 0:
        return False
    try:
        checks = json.loads(stdout)["checks"]
        ids = [c["id"] for c in checks]
        statuses = {c["status"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return False
    return sorted(ids) == sorted(expected_ids) and statuses <= {"pass", "paper-asserted"}
