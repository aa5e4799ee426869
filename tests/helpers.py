"""Constructors that only the tests use, shared by more than one test module."""

from collections import Counter

from kdual.exact_abelian import (
    INDECOMPOSABLES,
    ClassificationError,
    IntegerMatrix,
    RModule,
    cokernel,
    indecomposable,
    preimage_lattice,
    smith_normal_form,
    subquotient_group,
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


def quotient_and_kernel_by_separate_forms(module, op):
    """M / op(M) and the kernel of op on M, each group built in full: the
    quotient from a Smith form of [relations | op], the kernel from
    `preimage_lattice`, which takes its own Smith form of [op | -relations],
    and `subquotient_group`."""
    relations = module.relations
    return (cokernel(relations.hstack(op)),
            subquotient_group(preimage_lattice(op, relations), relations))


def reference_classify(module):
    """The multiset of `rmodule_classify` by the route that builds all five
    groups of the fingerprint, the kernels by separate Smith forms and
    their 2-torsion read off the groups; the same ClassificationError
    messages, raised in the same order.  The kernels are built only once
    the quotients pass the checks, which they cannot change."""

    def two_torsion(group):
        orders = group.torsion_orders
        return len(orders) if set(orders) <= {2} else None

    def op(sign):
        n = module.rank
        return IntegerMatrix(n, n, tuple(a + sign * b for a, b in zip(
            IntegerMatrix.identity(n).entries, module.action.entries)))

    under = module.underlying_group()
    q_minus, q_plus = (cokernel(module.relations.hstack(op(sign))) for sign in (-1, 1))
    d, t_minus, t_plus = map(two_torsion, (under, q_minus, q_plus))
    if d is None or t_minus is None or t_plus is None:
        raise ClassificationError("torsion is not elementary 2-torsion")
    b, c = t_plus - d, t_minus - d
    twice_a = under.free_rank - b - c
    if b < 0 or c < 0 or twice_a < 0 or twice_a % 2:
        raise ClassificationError("invariants match no sum of the four indecomposables")
    a = twice_a // 2
    _, k_minus = quotient_and_kernel_by_separate_forms(module, op(-1))
    _, k_plus = quotient_and_kernel_by_separate_forms(module, op(1))
    expected = {"under": (2 * a + b + c, d), "q_minus": (a + b, c + d),
                "q_plus": (a + c, b + d), "k_minus": (a + b, d), "k_plus": (a + c, d)}
    actual = {key: (group.free_rank, two_torsion(group))
              for key, group in (("under", under), ("q_minus", q_minus), ("q_plus", q_plus),
                                 ("k_minus", k_minus), ("k_plus", k_plus))}
    if expected != actual:
        raise ClassificationError(
            f"fingerprint mismatch: expected {expected}, computed {actual}")
    return +Counter(dict(zip(INDECOMPOSABLES, (a, b, c, d))))


def from_named_terms(ring, terms):
    """The ring element of (monomial dict keyed by generator name, coeff)
    terms; an unknown name raises UnknownGeneratorError."""
    raw = {}
    for mono, coeff in terms:
        exps = ring._exps_from_dict(dict(mono))
        raw[exps] = raw.get(exps, 0) + int(coeff)
    return ring.element(raw)


def first_dividing_rule(ring, exps):
    """The first rule of `ring.rules` whose left-hand side divides the
    monomial exps, by indexing every exponent: the model that
    `PresentedRing._rule_dividing` must agree with."""
    for rule in ring.rules:
        lhs = rule[0]
        if all(exps[i] >= lhs[i] for i in range(len(lhs))):
            return rule
    return None


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
