"""Property tests over generated inputs (hypothesis).

Derandomized, so every run draws the same examples; skipped when
hypothesis is not installed.  `RModule.quotient_and_kernel` is compared
with the separate Smith forms it replaced (see conftest.py).  The
normal-form checks at the end compare `PresentedRing.element` with a
reference that rewrites by re-sorting and scanning every rule, over drawn,
exhaustive and high-power inputs.  Degree slices of generated rings are
compared with brute force past the bound that `PresentedRing.define`
proves.
"""

from collections import Counter
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdual.exact_abelian import (
    INDECOMPOSABLES,
    IntegerMatrix,
    RModule,
    rmodule_classify,
    smith_normal_form,
)
from kdual.expressions import parse_expression
from kdual.graded_algebra import (
    EQ,
    PM,
    Degree,
    PresentedRing,
    UnboundedSliceError,
    _raw_product,
    degree_component,
)
from kdual.paper_rings import RING_NAMES, build_ring

from helpers import inverse_unimodular, rmodule_from_multiset

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def matrices(draw, max_side=5, bound=9):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entries = draw(st.lists(st.integers(-bound, bound),
                            min_size=rows * cols, max_size=rows * cols))
    return IntegerMatrix(rows, cols, tuple(entries))


@PROPERTY
@given(matrices())
def test_smith_normal_form_round_trip(m):
    s = smith_normal_form(m)
    assert s.u @ m @ s.v == s.d
    diag = s.diagonal()
    assert s.d == IntegerMatrix.diagonal(diag, m.rows, m.cols)
    assert all(d >= 0 for d in diag)
    for d, nxt in zip(diag, diag[1:]):
        assert (nxt % d == 0) if d else nxt == 0
    assert smith_normal_form(s.u).diagonal() == [1] * m.rows
    assert smith_normal_form(s.v).diagonal() == [1] * m.cols


multisets = st.builds(Counter, st.dictionaries(st.sampled_from(INDECOMPOSABLES),
                                               st.integers(0, 1)))


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations on the n x n identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        dst, src = draw(st.permutations(range(n)))[:2]
        q = draw(st.integers(-2, 2))
        rows[dst] = [a + q * b for a, b in zip(rows[dst], rows[src])]
    return IntegerMatrix.from_rows(rows, cols=n)


@PROPERTY
@given(multisets, multisets, st.data())
def test_classify_direct_sum_is_the_multiset_union(first, second, data):
    module = rmodule_from_multiset(first + second)
    u = data.draw(unimodular(module.rank))
    changed = RModule(module.rank, u @ module.relations,
                      u @ module.action @ inverse_unimodular(u))
    assert rmodule_classify(changed) == +(first + second)


@PROPERTY
@given(multisets, st.data())
def test_quotients_and_kernels_share_one_smith_form(shared_route_matches, multiset, data):
    # a base change, then relation columns that are combinations of the others
    module = rmodule_from_multiset(multiset)
    n = module.rank
    u = data.draw(unimodular(n))
    relations = u @ module.relations
    extra = data.draw(st.integers(0, 3))
    mix = IntegerMatrix(relations.cols, extra, tuple(data.draw(st.lists(
        st.integers(-3, 3), min_size=relations.cols * extra, max_size=relations.cols * extra))))
    changed = RModule(n, relations.hstack(relations @ mix),
                      u @ module.action @ inverse_unimodular(u))
    shared_route_matches(changed)


@st.composite
def raw_elements(draw):
    ring = build_ring(draw(st.sampled_from(RING_NAMES)))
    n = len(ring.generators)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), st.integers(-4, 4), max_size=4))
    return ring, terms


@PROPERTY
@given(raw_elements())
def test_normal_form_is_idempotent(drawn):
    ring, terms = drawn
    element = ring.element(terms)
    assert ring.element(dict(element.terms)) == element
    for exps, coeff in element.terms:
        assert ring.monomial_is_normal(exps)
        assert coeff and ring._reduce_coeff(exps, coeff) == coeff


def sort_and_scan_terms(ring, terms):
    """Normal form of raw terms by the engine that preceded the heap
    worklist: re-sort the working terms, rewrite the largest reducible
    monomial by the first rule that divides it, and repeat."""
    work = {}
    for exps, coeff in terms.items():
        coeff = ring._reduce_coeff(exps, coeff)
        if coeff:
            work[exps] = work.get(exps, 0) + coeff
    while True:
        target = None
        for exps in sorted(work, key=ring.monomial_key, reverse=True):
            for lhs, rhs in ring.rules:
                if all(a <= b for a, b in zip(lhs, exps)):
                    target = (exps, lhs, rhs)
                    break
            if target:
                break
        if target is None:
            break
        exps, lhs, rhs = target
        coeff = work.pop(exps)
        quotient = tuple(a - b for a, b in zip(exps, lhs))
        for mono, c in rhs:
            new = tuple(a + b for a, b in zip(quotient, mono))
            val = ring._reduce_coeff(new, work.get(new, 0) + coeff * c)
            if val:
                work[new] = val
            else:
                work.pop(new, None)
    return tuple(sorted(work.items(), key=lambda kv: ring.monomial_key(kv[0])))


@st.composite
def raw_terms(draw):
    ring = build_ring(draw(st.sampled_from(RING_NAMES)))
    monomials = st.tuples(*[st.integers(0, 5)] * len(ring.generators))
    terms = draw(st.dictionaries(monomials, st.integers(-6, 6), max_size=6))
    torsion = [i for i, g in enumerate(ring.generators) if g.additive_order == 2]
    if torsion:
        # even multiples of torsion monomials vanish only once reduced mod 2
        for exps in draw(st.lists(monomials, max_size=3)):
            i = draw(st.sampled_from(torsion))
            terms[exps[:i] + (max(exps[i], 1),) + exps[i + 1:]] = 2 * draw(st.integers(-3, 3))
    return ring, terms


@PROPERTY
@given(raw_terms())
def test_normal_form_matches_the_sort_and_scan_reference(drawn):
    ring, terms = drawn
    assert ring.element(terms).terms == sort_and_scan_terms(ring, terms)


@pytest.mark.parametrize("name", RING_NAMES)
def test_monomial_products_match_the_sort_and_scan_reference(name):
    ring = build_ring(name)
    n = len(ring.generators)
    monomials = [m for m in product(range(4), repeat=n) if sum(m) <= 3]
    for a, b in product(monomials, repeat=2):
        ab = tuple(x + y for x, y in zip(a, b))
        for coeff in (1, 2):
            got = ring.element({a: coeff}) * ring.element({b: 1})
            assert got.terms == sort_and_scan_terms(ring, {ab: coeff}), (a, b, coeff)


@pytest.mark.parametrize("name, text, k", (
    ("kk_circle_flip", "t + sigma + chi", 8),
    ("kk_point", "t - 3*sigma", 9),
    ("kk_torus2", "t + sigma + chi1 - chi2", 6),
    ("hh_universal_base", "t12 + c - chat", 7),
))
def test_high_powers_match_the_sort_and_scan_reference(name, text, k):
    ring = build_ring(name)
    base = parse_expression(ring, text)
    raw = {(0,) * len(ring.generators): 1}
    for _ in range(k):
        raw = _raw_product(raw.items(), base.terms)
    assert (base ** k).terms == sort_and_scan_terms(ring, raw)


@st.composite
def monomial_rings(draw):
    """1-3 generators of level 0-2, with or without period 2, and rules
    that send monomials to zero, which are always confluent."""
    names = ("u", "v", "w")[:draw(st.integers(1, 3))]
    generators = [(name, draw(st.integers(0, 2)), draw(st.sampled_from((EQ, PM))),
                   draw(st.sampled_from((0, 2)))) for name in names]
    powers = [draw(st.sampled_from((None, 1, 2, 3))) for _ in names]
    monomials = st.dictionaries(st.sampled_from(names), st.integers(1, 3), min_size=1)
    rules = [({name: a}, []) for name, a in zip(names, powers) if a]
    rules += [(lhs, []) for lhs in draw(st.lists(monomials, max_size=3))]
    return PresentedRing.define("generated", generators, rules, draw(st.sampled_from((None, 2))))


@PROPERTY
@given(monomial_rings())
def test_slices_of_generated_rings_match_brute_force_past_the_proved_bound(ring):
    n = len(ring.generators)
    pure_powers = {i for lhs, _ in ring.rules for i, e in enumerate(lhs) if e == sum(lhs)}
    uncapped = [i for i, g in enumerate(ring.generators)
                if (ring.period is not None or g.degree.level == 0) and i not in pure_powers]
    degrees = [Degree(level, variant) for level in range(-1, 5) for variant in (EQ, PM)]
    if uncapped:
        for degree in degrees:
            with pytest.raises(UnboundedSliceError):
                degree_component(ring, degree)
        # the even powers of an uncapped generator are infinitely many
        # normal monomials of degree (0, eq)
        power = tuple(2 * (ring._slice_slack + 5) * (i == uncapped[0]) for i in range(n))
        assert ring.monomial_is_normal(power)
        assert ring.monomial_degree(power) == Degree(0, EQ)
        return
    largest = ring._slice_slack + 4 + 2
    normal = [m for m in product(range(largest + 1), repeat=n)
              if sum(m) <= largest and ring.monomial_is_normal(m)]
    for degree in degrees:
        bound = ring._slice_slack + (0 if ring.period else max(degree.level, 0))
        target = ring.reduce_degree(degree)
        found = sorted((m for m in normal
                        if sum(m) <= bound + 2 and ring.monomial_degree(m) == target),
                       key=ring.monomial_key)
        assert degree_component(ring, degree).monomials == tuple(found), degree
