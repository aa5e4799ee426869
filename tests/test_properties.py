"""Property tests over generated inputs (hypothesis).

Derandomized, so every run draws the same examples; skipped when
hypothesis is not installed.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kdual.exact_abelian import (
    INDECOMPOSABLES,
    IntegerMatrix,
    RModule,
    inverse_unimodular,
    rmodule_classify,
    rmodule_from_multiset,
    smith_normal_form,
)
from kdual.paper_rings import RING_NAMES, build_ring

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
    module = rmodule_from_multiset(first).direct_sum(rmodule_from_multiset(second))
    u = data.draw(unimodular(module.rank))
    changed = RModule(module.rank, u @ module.relations,
                      u @ module.action @ inverse_unimodular(u))
    assert rmodule_classify(changed) == +(first + second)


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
