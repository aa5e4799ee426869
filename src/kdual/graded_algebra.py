"""Bigraded commutative rings presented by generators and rewrite rules.

A ring here is a commutative polynomial ring on finitely many generators,
each carrying a degree (an integer level plus a two-valued variant flag)
and an additive order (0 for a free coefficient, 2 for a two-torsion one),
modulo a finite list of oriented rewrite rules.  Elements are kept in a
canonical normal form: every stored monomial is irreducible under the
rules and every coefficient is reduced modulo the additive order of its
monomial.

Rewriting terminates because every rule strictly decreases the
(total exponent, reverse-lexicographic) monomial order, which ranks the
generators as the presentation lists them, the last one highest; this is
checked at construction time.  Construction also decides local confluence
by the Knuth-Bendix critical-pair test: every overlap of two rules, and every
overlap of a rule with the torsion relation 2*g = 0 of an order-2
generator g, must reduce to one normal form both ways.  By Newman's
lemma the two checks together prove that every element has a unique
normal form, so a presentation that is not confluent is rejected with
ConfluenceError before any element is built.  Last, construction proves
the degree slices finite (Cox, Little & O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 5 sec. 3): a normal monomial has exponent below a in a
generator whose a-th power is a rule's left-hand side, and, without a
period, total exponent at most L in the generators of positive level at
level L.  A generator neither caps has infinitely many normal powers in
degree (0, eq), and `degree_component` refuses the slices of its ring.
A ring keeps one slice per reduced degree: `degree_component` enumerates
it on the first request and hands the same object out after that.  The
refusal is not kept; each request for a slice of an uncapped ring raises
again.

Normal forms are computed largest monomial first.  A heap pops each
monomial of the working sum once, in descending monomial order; its
coefficient is final by then, because a rewrite only adds smaller
monomials.  A rule divides a monomial when its left-hand exponent tuple
is at most the monomial's, position by position; the first rule in the
presentation's order that divides a monomial rewrites it.  The order in
which monomials are rewritten, and the rule chosen for each, do not
change the result: the rules are confluent, so every reduction reaches
the one normal form.

Degrees add componentwise; the variant flag adds modulo two (two "pm"
factors multiply into "eq").  Rings of K-type carry `period = 2` and
reduce levels modulo the period; rings of H-type keep integer levels.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, ge, neg, sub

from .frozen import Frozen

EQ = "eq"
PM = "pm"


class UnknownGeneratorError(KeyError):
    """An expression mentions a generator the ring does not have."""


class ConfluenceError(ValueError):
    """Two rewrites of one overlap reach different normal forms."""


class UnboundedSliceError(ValueError):
    """No rule caps the powers of a generator, so slices may be infinite."""


class Degree(Frozen):
    __slots__ = ("level", "variant")
    level: int
    variant: str

    def __init__(self, level, variant=EQ):
        if variant not in (EQ, PM):
            raise ValueError(f"variant must be {EQ!r} or {PM!r}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "variant", variant)

    def __add__(self, other):
        variant = EQ if self.variant == other.variant else PM
        return Degree(self.level + other.level, variant)

    def __str__(self):
        return f"({self.level}, {self.variant})"


class GeneratorSpec(Frozen):
    __slots__ = ("name", "degree", "additive_order")
    name: str
    degree: Degree
    additive_order: int

    def __init__(self, name, degree, additive_order=0):
        if additive_order not in (0, 2):
            raise ValueError("additive orders other than 0 and 2 are not supported")
        super().__init__(name, degree, additive_order)


def _heap_key(exps):
    """monomial_key negated, so that heapq pops the largest monomial first."""
    return (-sum(exps), tuple(map(neg, reversed(exps))))


class PresentedRing:
    """Commutative ring with generators, coefficient orders and rewrites.

    :meth:`define` is the only constructor; it keeps the generators in
    the order given, validates that every rewrite is degree-homogeneous
    and strictly decreasing, proves the rules confluent and the degree
    slices finite, and freezes the result.
    """

    # -- construction --------------------------------------------------------

    @classmethod
    def define(cls, name, generators, rules=(), period=None):
        """Build a ring from readable data.

        generators: iterable of (name, level, variant, additive_order);
            the monomial order ranks them in this order, the last one highest
        rules: iterable of (lhs_monomial_dict, [(rhs_monomial_dict, coeff), ...])

        Levels, additive orders, exponents and coefficients must be ints.
        """
        generators, rules = tuple(generators), tuple(rules)
        data = [(f"generator {gen!r}", (lvl, order)) for gen, lvl, _, order in generators]
        for lhs, rhs in rules:
            data.append((f"the rule for {lhs}",
                         [*lhs.values(), *(x for m, c in rhs for x in (*m.values(), c))]))
        for where, values in data:
            for value in values:
                if type(value) is not int:  # a bool is not an int here
                    raise ValueError(f"{name}: {where} has {value!r}, which is not an int")
        specs = [GeneratorSpec(n, Degree(lvl, var), order) for n, lvl, var, order in generators]
        names = [g.name for g in specs]
        for g in specs:
            if names.count(g.name) > 1:
                raise ValueError(f"{name}: generator {g.name!r} is given more than once")
            # slices without a period are enumerated as if levels only grow
            if period is None and g.degree.level < 0:
                raise ValueError(f"{name}: generator {g.name!r} has negative level "
                                 f"{g.degree.level} in a ring without a period")
        ring = cls.__new__(cls)
        ring.name = name
        ring.generators = tuple(specs)
        ring.period = period
        ring._index = {g.name: i for i, g in enumerate(ring.generators)}
        packed = []
        for lhs, rhs in rules:
            packed.append((ring._exps_from_dict(lhs),
                           tuple((ring._exps_from_dict(m), c) for m, c in rhs)))
        ring.rules = tuple(packed)  # (lhs exponent tuple, ((exps, coeff), ...))
        ring._validate_rules()
        ring._check_confluence()
        ring._slice_slack, ring._uncapped = ring._prove_slices_finite()
        # the unit and the generators, built once: the parser and integer
        # arithmetic read them on every call, and ring equality ignores them
        n = len(ring.generators)
        ring._one = ring.element({(0,) * n: 1})
        ring._gens = {g.name: ring.element({tuple(int(i == k) for i in range(n)): 1})
                      for k, g in enumerate(ring.generators)}
        ring._slices = {}  # reduced degree -> Slice, filled by degree_component
        return ring

    def _exps_from_dict(self, monomial):
        exps = [0] * len(self.generators)
        for name, e in monomial.items():
            if name not in self._index:
                raise UnknownGeneratorError(f"{self.name} has no generator {name!r}")
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            exps[self._index[name]] = e
        return tuple(exps)

    def _validate_rules(self):
        for lhs, rhs in self.rules:
            lhs_key = self.monomial_key(lhs)
            lhs_deg = self.monomial_degree(lhs)
            for mono, _ in rhs:
                if self.monomial_key(mono) >= lhs_key:
                    raise ValueError(
                        f"rule for {self.monomial_str(lhs)} does not decrease the order")
                if self.monomial_degree(mono) != lhs_deg:
                    raise ValueError(
                        f"rule for {self.monomial_str(lhs)} is not degree-homogeneous")

    def _check_confluence(self):
        """Knuth-Bendix critical-pair test; raises ConfluenceError.

        Overlaps of two rules whose left-hand sides share a generator are
        reduced from lcm(lhs_i, lhs_j) by each rule.  Overlaps with the
        torsion relation 2*g = 0 reduce 2*lcm(g, lhs) to 0 one way, so the
        other way, 2 * (lcm / lhs) * rhs, must reduce to 0 too.  Rules
        with disjoint left-hand sides always commute.
        """
        def shifted(lhs, rhs, m, scale=1):
            quotient = tuple(a - b for a, b in zip(m, lhs))
            out = {}
            for mono, c in rhs:
                new = tuple(a + b for a, b in zip(quotient, mono))
                out[new] = out.get(new, 0) + scale * c
            return self.element(out)

        for i, (lhs_i, rhs_i) in enumerate(self.rules):
            for lhs_j, rhs_j in self.rules[i + 1:]:
                if not any(a and b for a, b in zip(lhs_i, lhs_j)):
                    continue
                m = tuple(map(max, lhs_i, lhs_j))
                one, other = shifted(lhs_i, rhs_i, m), shifted(lhs_j, rhs_j, m)
                if one != other:
                    raise ConfluenceError(
                        f"{self.name}: rules for {self.monomial_str(lhs_i)} and "
                        f"{self.monomial_str(lhs_j)} reduce the overlap "
                        f"{self.monomial_str(m)} to {one} and to {other}")
            for k, g in enumerate(self.generators):
                if g.additive_order != 2:
                    continue
                m = tuple(max(e, int(k == idx)) for idx, e in enumerate(lhs_i))
                left = shifted(lhs_i, rhs_i, m, scale=2)
                if not left.is_zero():
                    raise ConfluenceError(
                        f"{self.name}: 2*{self.monomial_str(m)} is 0 by the torsion "
                        f"of {g.name}, but the rule for {self.monomial_str(lhs_i)} "
                        f"reduces it to {left}")

    def _prove_slices_finite(self):
        """(slack, uncapped): slices at level L have total exponent at most
        slack + max(L, 0), or slack with a period; slack sums a - 1 over the
        least caps x^a, and uncapped is the first generator lacking a needed cap."""
        slack = 0
        for i, g in enumerate(self.generators):
            if self.period is None and g.degree.level > 0:
                continue  # its exponents add up to at most the level
            # the rules whose left-hand side is a power of g alone
            caps = [lhs[i] for lhs, _ in self.rules if lhs[i] and lhs.count(0) == len(lhs) - 1]
            if not caps:
                return slack, g.name
            slack += min(caps) - 1
        return slack, None

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PresentedRing)
            and (other.name, other.generators, other.rules, other.period)
            == (self.name, self.generators, self.rules, self.period))

    def __hash__(self):
        return hash(("PresentedRing", self.name))  # equal rings share a name

    # -- degrees and monomials ------------------------------------------------

    def reduce_degree(self, degree: Degree) -> Degree:
        if self.period:
            return Degree(degree.level % self.period, degree.variant)
        return degree

    def monomial_degree(self, exps) -> Degree:
        level = 0
        flips = 0
        for e, g in zip(exps, self.generators):
            level += e * g.degree.level
            if g.degree.variant == PM:
                flips += e
        return self.reduce_degree(Degree(level, PM if flips % 2 else EQ))

    def monomial_key(self, exps):
        return (sum(exps), tuple(reversed(exps)))

    def monomial_additive_order(self, exps) -> int:
        for e, g in zip(exps, self.generators):
            if e and g.additive_order == 2:
                return 2
        return 0

    def monomial_str(self, exps) -> str:
        parts = []
        for e, g in zip(exps, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def monomial_is_normal(self, exps) -> bool:
        return self._rule_dividing(exps) is None

    def _rule_dividing(self, exps):
        """The first rule (lhs, rhs) in `rules` whose lhs divides exps, or
        None.  lhs divides exps when no exponent of lhs exceeds the one of
        exps at the same position; the two tuples are compared whole."""
        for rule in self.rules:
            if all(map(ge, exps, rule[0])):
                return rule
        return None

    # -- normalization ---------------------------------------------------------

    def _reduce_coeff(self, exps, coeff):
        order = self.monomial_additive_order(exps)
        return coeff % order if order else coeff

    def _normalize_terms(self, terms: dict) -> list:
        """Normal-form terms of a raw sum, in descending monomial order.

        Each popped monomial's coefficient is reduced by its additive
        order; then the first rule whose left-hand side divides the
        monomial replaces it by quotient * rhs, or, if none does, the term
        is emitted.  Every rule lowers the order, and the order is
        multiplicative, so the pushed monomials are all smaller.

        `element` and every product run this rule search.  A sum, a
        negation or an integer multiple of normal elements has only
        normal monomials, so no rule can fire on it: `_normal_sum` does
        the rest of the work (reduce, drop zeros, order) without it.
        """
        coeffs = {exps: coeff for exps, coeff in terms.items() if coeff}
        heap = [(_heap_key(exps), exps) for exps in coeffs]
        heapify(heap)
        out = []
        while heap:
            exps = heappop(heap)[1]
            coeff = self._reduce_coeff(exps, coeffs.pop(exps))
            if not coeff:
                continue
            rule = self._rule_dividing(exps)
            if rule is None:
                out.append((exps, coeff))
                continue
            lhs, rhs = rule
            quotient = tuple(map(sub, exps, lhs))
            for mono, c in rhs:
                new = tuple(map(add, quotient, mono))
                if new in coeffs:
                    coeffs[new] += coeff * c
                else:
                    coeffs[new] = coeff * c
                    heappush(heap, (_heap_key(new), new))
        return out

    def _normal_sum(self, terms: dict) -> "RingElement":
        """The element of a sum of normal monomials: each coefficient is
        reduced by its monomial's additive order, zeros are dropped and
        the terms are put in monomial order.  No rule is searched for."""
        out = []
        for exps in sorted(terms, key=self.monomial_key):
            coeff = self._reduce_coeff(exps, terms[exps])
            if coeff:
                out.append((exps, coeff))
        return RingElement(self, tuple(out))

    # -- element constructors ---------------------------------------------------

    def element(self, terms: dict) -> "RingElement":
        normalized = self._normalize_terms(terms)
        normalized.reverse()
        return RingElement(self, tuple(normalized))

    def zero(self) -> "RingElement":
        return self.element({})

    def one(self) -> "RingElement":
        return self._one

    def gen(self, name) -> "RingElement":
        if name not in self._gens:
            raise UnknownGeneratorError(f"{self.name} has no generator {name!r}")
        return self._gens[name]


def _raw_product(first, second) -> dict:
    """The product of two iterables of (exps, coeff) terms in the free
    polynomial ring: exponents add, nothing is rewritten."""
    raw = {}
    for e1, c1 in first:
        for e2, c2 in second:
            exps = tuple(a + b for a, b in zip(e1, e2))
            raw[exps] = raw.get(exps, 0) + c1 * c2
    return raw


class RingElement:
    """Normalized element; build through the ring, not directly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (exps, coeff), sorted, normalized

    # -- algebra ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("elements of different rings")
            return other
        if isinstance(other, int):
            return self.ring.one() * other
        raise TypeError("cannot mix ring elements with non-integers")

    def __add__(self, other):
        other = self._coerce(other)
        raw = dict(self.terms)
        for exps, coeff in other.terms:
            raw[exps] = raw.get(exps, 0) + coeff
        return self.ring._normal_sum(raw)

    __radd__ = __add__

    def __neg__(self):
        return self.ring._normal_sum({exps: -c for exps, c in self.terms})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):  # the monomials stay normal
            return self.ring._normal_sum({exps: c * other for exps, c in self.terms})
        return self.ring.element(_raw_product(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        """self to the k-th power by square-and-multiply: at most 2 log2(k)
        products instead of k - 1.  The product is associative and normal
        forms are unique, so this is the element that repeated products
        give."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponents must be nonnegative integers")
        out, square = None, self  # square is self ** (2 ** bit) at each bit of k
        while k:
            if k & 1:
                out = square if out is None else out * square
            k >>= 1
            if k:
                square = square * square
        return self.ring.one() if out is None else out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return (isinstance(other, RingElement) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring.name, self.terms))

    def is_zero(self):
        return not self.terms

    # -- degree ------------------------------------------------------------------

    def degree(self):
        """Common degree of all terms, or None for 0 and mixed elements."""
        degrees = {self.ring.monomial_degree(exps) for exps, _ in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_homogeneous(self, degree=None):
        if self.is_zero():
            return True
        d = self.degree()
        if d is None:
            return False
        return degree is None or d == self.ring.reduce_degree(degree)

    # -- display and serialization --------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in reversed(self.terms):
            mono = self.ring.monomial_str(exps)
            if mono == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__

    def to_json(self):
        return {
            "ring": self.ring.name,
            "terms": [
                {"mono": {g.name: e for g, e in zip(self.ring.generators, exps) if e},
                 "coeff": coeff}
                for exps, coeff in self.terms
            ],
        }


class Slice(Frozen):
    """Monomial basis of one homogeneous degree of a ring."""

    __slots__ = ("ring", "degree", "monomials", "orders")
    ring: PresentedRing
    degree: Degree
    monomials: tuple  # exponent tuples in monomial order
    orders: tuple     # additive order per basis monomial (0 = free)

    @property
    def labels(self):
        return tuple(self.ring.monomial_str(m) for m in self.monomials)

    @property
    def group(self) -> FGAbelianGroup:
        from .exact_abelian import FGAbelianGroup
        return FGAbelianGroup.from_orders(self.orders)

    @property
    def dim(self):
        return len(self.monomials)

    def coords(self, element: RingElement):
        if element.ring != self.ring:
            raise ValueError("element of a different ring")
        index = {m: i for i, m in enumerate(self.monomials)}
        vec = [0] * len(self.monomials)
        for exps, coeff in element.terms:
            if exps not in index:
                raise ValueError(
                    f"{element} has a term {self.ring.monomial_str(exps)} outside the slice")
            vec[index[exps]] = coeff
        return tuple(vec)

    def element(self, coords) -> RingElement:
        return self.ring.element({m: c for m, c in zip(self.monomials, coords)})

    def reduce_coords(self, coords):
        return tuple(c % o if o else c for c, o in zip(coords, self.orders))

    def matrix(self, fn, target=None) -> IntegerMatrix:
        """Matrix of the additive map fn from this slice to target (this
        slice by default): column j holds the target coordinates of fn
        applied to the j-th basis monomial."""
        from .exact_abelian import IntegerMatrix
        target = self if target is None else target
        return IntegerMatrix.from_columns(
            [target.coords(fn(self.ring.element({m: 1}))) for m in self.monomials],
            rows=target.dim)


def normal_monomials(ring: PresentedRing, bound: int, degree: Degree | None = None):
    """All irreducible monomials of total exponent at most bound (of the
    given degree, if one is given), in monomial order.

    Exponents are chosen one generator at a time, the later positions
    still 0.  At position i the rules whose last generator is the i-th are
    tested, each by its whole left-hand exponent tuple (its positions past
    i are 0 as well).  A branch is cut as soon as one divides the exponents
    chosen so far: divisibility is monotone, so every extension of that
    prefix, and every larger exponent at the current position, is
    reducible too.
    """
    if bound < 0:
        return []
    n = len(ring.generators)
    # rules checked at position i: those whose last generator is the i-th
    ending = [[] for _ in range(n)]
    for lhs, _ in ring.rules:
        if not any(lhs):
            return []  # the rule rewrites 1, so every monomial is reducible
        last = max(i for i, e in enumerate(lhs) if e)
        ending[last].append(lhs)
    levels = [g.degree.level for g in ring.generators]
    flipping = [g.degree.variant == PM for g in ring.generators]
    target = None if degree is None else ring.reduce_degree(degree)
    found = []
    exps = [0] * n

    def rec(idx, total, level, flips):
        if idx == n:
            if target is None or ring.reduce_degree(
                    Degree(level, PM if flips % 2 else EQ)) == target:
                found.append(tuple(exps))
            return
        e = 0
        while total + e <= bound:
            new_level = level + e * levels[idx]
            if target is not None and ring.period is None and new_level > target.level:
                break  # levels only grow; prune
            exps[idx] = e
            if any(all(map(ge, exps, lhs)) for lhs in ending[idx]):
                break  # this prefix and all its extensions are reducible
            rec(idx + 1, total + e, new_level, flips + e * flipping[idx])
            e += 1
        exps[idx] = 0

    rec(0, 0, 0, 0)
    del rec  # the closure refers to itself through its cell: break the cycle
    return sorted(found, key=ring.monomial_key)


def degree_component(ring: PresentedRing, degree: Degree) -> Slice:
    """Monomial basis of the homogeneous slice in the given degree.

    A ring has one slice per reduced degree, kept on the ring: the first
    request enumerates it, at the exponent bound that
    `PresentedRing.define` proved from the rules, and later ones return
    the same object.  UnboundedSliceError, raised if the proof found no
    bound, is not kept: every request raises it again.
    """
    reduced = ring.reduce_degree(degree)
    found = ring._slices.get(reduced)
    if found is not None:
        return found
    if ring._uncapped is not None:
        raise UnboundedSliceError(
            f"{ring.name}: no rule caps the powers of {ring._uncapped!r}, "
            f"so the slice at {degree} need not be finite")
    bound = ring._slice_slack + (max(reduced.level, 0) if ring.period is None else 0)
    monomials = normal_monomials(ring, bound, reduced)
    found = ring._slices[reduced] = Slice(
        ring, reduced, tuple(monomials), tuple(ring.monomial_additive_order(m) for m in monomials))
    return found


def apply_ring_hom(source: PresentedRing, target: PresentedRing, images: dict,
                   element: RingElement) -> RingElement:
    """Extend generator images to the whole ring and apply to element.

    Each term's image is expanded as a raw product of the images' terms,
    and the sum is normalized once in the target: its rules are confluent,
    so this is the normal form that multiplying step by step would give.
    """
    for g in source.generators:
        if g.name not in images:
            raise UnknownGeneratorError(f"no image given for generator {g.name!r}")
        if images[g.name].ring != target:
            raise ValueError(f"the image of {g.name!r} is an element of a different ring")
    return _image_of_terms(source, target, images, element.terms)


def _image_of_terms(source, target, images, terms) -> RingElement:
    """The image of a sum of (exps, coeff) terms of source, which need not
    be in normal form."""
    raw = {}
    for exps, coeff in terms:
        term = {(0,) * len(target.generators): coeff}
        for e, g in zip(exps, source.generators):
            for _ in range(e):
                term = _raw_product(term.items(), images[g.name].terms)
        for mono, c in term.items():
            raw[mono] = raw.get(mono, 0) + c
    return target.element(raw)


def verify_ring_hom(source: PresentedRing, target: PresentedRing, images: dict,
                    degree_map=None) -> bool:
    """Check that generator images define a ring homomorphism.

    Verifies degree compatibility (through degree_map when the target
    grades differently, e.g. forgetting the variant), coefficient orders,
    and that every rewrite rule of the source maps to zero.  Returns False
    on any failure; raises only for missing generators.
    """
    if degree_map is None:
        degree_map = lambda d: d
    for g in source.generators:
        if g.name not in images:
            raise UnknownGeneratorError(f"no image given for generator {g.name!r}")
        img = images[g.name]
        if img.ring != target:
            return False
        if not img.is_homogeneous(degree_map(g.degree)):
            return False
        if g.additive_order and not (g.additive_order * img).is_zero():
            return False
    for lhs, rhs in source.rules:
        # lhs - rhs as raw terms: normalizing it in source would give zero
        rule = ((lhs, 1),) + tuple((mono, -c) for mono, c in rhs)
        if not _image_of_terms(source, target, images, rule).is_zero():
            return False
    return True
