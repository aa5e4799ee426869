"""Constructors that only the tests use, shared by more than one test module."""

from collections import Counter

from kdual.exact_abelian import (
    INDECOMPOSABLES,
    IntegerMatrix,
    RModule,
    indecomposable,
    smith_normal_form,
)
from kdual.expressions import ParseError


def inverse_unimodular(m: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a square matrix with determinant +1 or -1."""
    s = smith_normal_form(m)
    if m.rows != m.cols or s.diagonal() != [1] * m.rows:
        raise ValueError("matrix is not unimodular")
    # u m v = 1  =>  m^{-1} = v u
    return s.v @ s.u


def rmodule_from_multiset(multiset) -> RModule:
    """The direct sum of indecomposables in a multiset, block by block in
    the order of INDECOMPOSABLES."""
    counts = Counter(multiset)
    mods = []
    for name in INDECOMPOSABLES:
        mods.extend([indecomposable(name)] * counts[name])
    return RModule(sum(m.rank for m in mods),
                   IntegerMatrix.block_diagonal(*(m.relations for m in mods)),
                   IntegerMatrix.block_diagonal(*(m.action for m in mods)))


def from_named_terms(ring, terms):
    """The ring element of (monomial dict keyed by generator name, coeff)
    terms; an unknown name raises UnknownGeneratorError."""
    raw = {}
    for mono, coeff in terms:
        exps = ring._exps_from_dict(dict(mono))
        raw[exps] = raw.get(exps, 0) + int(coeff)
    return ring.element(raw)


def reference_tokenize(text):
    """The tokens of an expression, read one character at a time: the
    model that `kdual.expressions._tokenize` must agree with."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalpha() or text[j].isdecimal()
                                     or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in ("-", "\u2212"):  # ASCII hyphen and the unicode minus sign
            tokens.append(("op", "-", i))
            i += 1
            continue
        if ch in "+*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens
