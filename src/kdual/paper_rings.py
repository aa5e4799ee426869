"""The built-in rings, the fixed-point restriction oracle, and their
mutual certification.

Two families of rings are exposed through :func:`build_ring`:

* H-type rings (integer level, two-torsion coefficient ``t12`` with
  ``t12^2`` playing the role of the Borel class ``t``):
  ``hh_point``, ``hh_circle_trivial``, ``hh_circle_flip``,
  ``hh_cp_infty``, ``hh_universal_base``;

* K-type rings (level modulo 2): ``kk_point``, ``kk_circle_flip``,
  ``kk_torus2``, and the degree-zero ring ``k0_equiv_circle``.

Independently of the rewrite engine, the module carries golden tables for
the injective restriction homomorphism F on the involutive torus in
dimensions 1, 2 and 3: F sends an equivariant K-class to its underlying
class (modelled in the exterior algebra on odd generators, with
1 - H_ij = x_i * x_j) together with its fiber representation at each of
the 2^n fixed points, stored as a pair (a, b) meaning a + b*t in
Z[t]/(t^2 - 1).  Because F is injective, componentwise equality of oracle
values certifies ring identities; every built-in K-type ring is checked
against the oracle when it is constructed and the constructor raises
CertificationError rather than hand out an uncertified ring.

An oracle value (`OracleValue`) is one vector of integer coordinates over
a fixed basis: the 2^n sorted exterior words, then (a, b) at each fixed
point.  Sums and integer multiples act on each coordinate.  On the
exterior part the product reads a table of structure constants, built
once per n: two words that share an index multiply to zero, and otherwise
to their merged sorted word, with the sign of the adjacent swaps that sort
the concatenation.  On each fixed point (a, b)(c, d) = (ac + bd, ad + bc),
the product in Z[t]/(t^2 - 1).  `OracleValue.build`, which sorts any index
word by adjacent swaps, reads the golden rows and is the definition the
tests hold the table to.

Every map from basis monomials of a ring into the oracle is one
`Dictionary`, whose `push` is a linear combination of label images, and
certification reads one table of products of two dictionaries,
`PRODUCT_CHECKS`.

The syntax of every presentation is proved rather than sampled:
`PresentedRing.define` proves the rewrite rules terminating and
confluent, so normal forms are unique and the product they induce is
associative and commutative.  A normal form is irreducible with reduced
coefficients by construction, so building a ring does not normalize
normal forms again to check them.  The oracle certification checks
meaning: that the presented ring is the ring the tables describe.

Results that depend on the golden tables, the oracle images of each
dictionary's labels among them, are cached per value of KDUAL_GOLDEN_DIR.
A golden file that lacks a field or a row, holds a field of the wrong
type, or holds a row that `OracleValue.build` refuses, raises ValueError
naming the file and the row.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache, update_wrapper
from itertools import combinations
from operator import add, sub
from pathlib import Path

from . import expressions
from .frozen import Frozen
from .graded_algebra import (
    EQ,
    PM,
    Degree,
    PresentedRing,
    apply_ring_hom,
    degree_component,
)

TABLES_SHA256 = "447bef50f7d11dc579864c6f94702ccb8dd7551de7e011a8d8a393b51288f3b6"

GOLDEN_DIR_ENV = "KDUAL_GOLDEN_DIR"


class CertificationError(RuntimeError):
    """A built-in ring failed its construction-time certification."""


# ---------------------------------------------------------------------------
# ring definitions

_KK_BASE_RULES = [
    ({"t": 2}, [({}, 1)]),
    ({"t": 1, "sigma": 1}, [({"sigma": 1}, -1)]),
    ({"sigma": 2}, [({}, 1), ({"t": 1}, -1)]),
]

# name -> (generators in monomial order, rules, period), as PresentedRing.define takes them
PRESENTATIONS = {
    "hh_point": ([("t12", 1, PM, 2)], [], None),
    "hh_circle_trivial": ([("t12", 1, PM, 2), ("e", 1, EQ, 0)],
                          [({"e": 2}, [])], None),
    "hh_circle_flip": ([("t12", 1, PM, 2), ("chi", 1, PM, 0)],
                       [({"chi": 2}, [({"t12": 1, "chi": 1}, 1)])], None),
    "hh_cp_infty": ([("t12", 1, PM, 2), ("c", 2, PM, 0)], [], None),
    "hh_universal_base": ([("t12", 1, PM, 2), ("c", 2, PM, 0), ("chat", 2, PM, 0)],
                          [({"c": 1, "chat": 1}, [])], None),
    "kk_point": ([("t", 0, EQ, 0), ("sigma", 1, PM, 0)], _KK_BASE_RULES, 2),
    "kk_circle_flip": (
        [("t", 0, EQ, 0), ("sigma", 1, PM, 0), ("chi", 1, PM, 0)],
        _KK_BASE_RULES + [({"chi": 2}, [({"sigma": 1, "chi": 1}, 1)])], 2),
    "kk_torus2": (
        [("t", 0, EQ, 0), ("sigma", 1, PM, 0), ("chi1", 1, PM, 0), ("chi2", 1, PM, 0)],
        _KK_BASE_RULES + [({"chi1": 2}, [({"sigma": 1, "chi1": 1}, 1)]),
                          ({"chi2": 2}, [({"sigma": 1, "chi2": 1}, 1)])], 2),
    "k0_equiv_circle": (
        [("t", 0, EQ, 0), ("ell", 0, EQ, 0)],
        [({"t": 2}, [({}, 1)]),
         ({"t": 1, "ell": 1}, [({"ell": 1}, -1)]),
         ({"ell": 2}, [({"ell": 1}, 2)])], 2),
}

RING_NAMES = tuple(PRESENTATIONS)


def _define(name):
    if name not in PRESENTATIONS:
        raise ValueError(f"unknown ring name {name!r}")
    generators, rules, period = PRESENTATIONS[name]
    return PresentedRing.define(name, generators, rules, period)


# auxiliary non-equivariant rings (targets of the forgetful maps), as
# name -> (generators, rewrite rules)
NONEQUIVARIANT_PRESENTATIONS = {
    "h_point": ([], []),
    "h_circle": ([("e", 1, EQ, 0)], [({"e": 2}, [])]),
    "h_cp_infty": ([("c", 2, EQ, 0)], []),
}


@lru_cache(maxsize=None)
def nonequivariant_ring(name):
    if name not in NONEQUIVARIANT_PRESENTATIONS:
        raise ValueError(f"unknown ring name {name!r}")
    return PresentedRing.define(name, *NONEQUIVARIANT_PRESENTATIONS[name])


# ---------------------------------------------------------------------------
# oracle values: integer coordinates over one fixed basis


@lru_cache(maxsize=None)
def _word_positions(n):
    """Sorted index word -> its coordinate: the 2^n words on 1..n, by size
    and then lexicographically."""
    words = (w for size in range(n + 1) for w in combinations(range(1, n + 1), size))
    return {word: k for k, word in enumerate(words)}


def _sort_sign(indices):
    """The word sorted by adjacent swaps, and (-1)^(number of swaps)."""
    indices = list(indices)
    sign = 1
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return tuple(indices), sign


@lru_cache(maxsize=None)
def _exterior_table(n):
    """(i, j, k, sign) for each two words i, j without a shared index:
    word i times word j is sign times word k."""
    positions = _word_positions(n)
    table = []
    for u, i in positions.items():
        for v, j in positions.items():
            if set(u).isdisjoint(v):
                word, sign = _sort_sign(u + v)
                table.append((i, j, positions[word], sign))
    return tuple(table)


class OracleValue(Frozen):
    """Value of the restriction homomorphism F on the n-torus.

    `coords` lists the coefficients of the underlying class on the 2^n
    sorted exterior words, by size and then lexicographically, followed
    by (a, b) for the fiber a + b*t at each of the 2^n fixed points.
    Equality of values certifies equality of equivariant classes because
    F is injective.
    """

    __slots__ = ("n", "coords")
    n: int
    coords: tuple

    def __init__(self, n, coords):
        if len(coords) != 3 << n:
            raise ValueError(f"a value on the {n}-torus has {3 << n} coordinates, "
                             f"not {len(coords)}")
        super().__init__(n, coords)

    @classmethod
    def build(cls, n, terms, fixed_points):
        """The value whose underlying class is the sum of (index word,
        coefficient) terms, with fiber a + b*t for each (a, b) of
        fixed_points, one for each of the 2^n fixed points.  A word
        may list indices of 1..n in any order: it is sorted by adjacent
        swaps, one sign flip per swap, and a word with a repeated index is
        zero."""
        if len(fixed_points) != 1 << n:
            raise ValueError(f"{len(fixed_points)} fixed points on the {n}-torus, "
                             f"wanted {1 << n}")
        positions = _word_positions(n)
        coords = [0] * len(positions)
        for indices, coeff in terms:
            if not all(1 <= i <= n for i in indices):
                raise ValueError(f"index word {tuple(indices)} on the {n}-torus "
                                 f"has an index outside 1..{n}")
            if len(set(indices)) == len(indices):
                word, sign = _sort_sign(indices)
                coords[positions[word]] += sign * coeff
        for point in fixed_points:
            coords.extend(point)
        return cls(n, tuple(coords))

    def fixed_points(self):
        """The (a, b) of the fiber a + b*t at each fixed point."""
        fixed = self.coords[1 << self.n:]
        return tuple(zip(fixed[::2], fixed[1::2]))

    def _check(self, other):
        if not isinstance(other, OracleValue) or other.n != self.n:
            raise ValueError("oracle images of different tori")

    def __add__(self, other):
        self._check(other)
        return OracleValue(self.n, tuple(map(add, self.coords, other.coords)))

    def __neg__(self):
        return OracleValue(self.n, tuple(-c for c in self.coords))

    def __sub__(self, other):
        self._check(other)
        return OracleValue(self.n, tuple(map(sub, self.coords, other.coords)))

    def __mul__(self, other):
        if isinstance(other, int):
            return OracleValue(self.n, tuple(other * c for c in self.coords))
        self._check(other)
        x, y = self.coords, other.coords
        out = [0] * (1 << self.n)
        for i, j, k, sign in _exterior_table(self.n):
            out[k] += sign * x[i] * y[j]
        for p in range(1 << self.n, len(x), 2):
            a, b, c, d = x[p], x[p + 1], y[p], y[p + 1]
            out += (a * c + b * d, a * d + b * c)
        return OracleValue(self.n, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponents must be nonnegative integers")
        out = f_oracle_unit(self.n)
        for _ in range(k):
            out = out * self
        return out


# ---------------------------------------------------------------------------
# golden data


def per_golden_dir(fn):
    """Cache fn per value of KDUAL_GOLDEN_DIR, so that a result read or
    certified against one set of golden files is never handed out while
    another set is in force.  A lookup reads the variable, but resolves
    no path; `cache_info` and `cache_clear` act on the one cache."""
    cached = lru_cache(maxsize=None)(lambda golden, *args, **kwargs: fn(*args, **kwargs))

    def lookup(*args, **kwargs):
        return cached(os.environ.get(GOLDEN_DIR_ENV), *args, **kwargs)

    update_wrapper(lookup, fn)
    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


def _data_dir() -> Path:
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def golden_path(filename) -> Path:
    return _data_dir() / filename


def tables_raw_bytes() -> bytes:
    return golden_path("tables.json").read_bytes()


def golden_field(record, name, where, kind=list):
    """record[name] for a record read from a golden file, or a ValueError
    that names the file and the record (`where`) when the field is missing
    or is not a `kind`."""
    if not isinstance(record, dict) or name not in record:
        raise ValueError(f"{where} has no field {name!r}")
    if not isinstance(record[name], kind):
        raise ValueError(f"{where}: field {name!r} is not a {kind.__name__}")
    return record[name]


def _is_int_list(value, length=None) -> bool:
    return (isinstance(value, list) and all(type(x) is int for x in value)
            and length in (None, len(value)))


def verify_tables_checksum() -> bool:
    import hashlib
    return hashlib.sha256(tables_raw_bytes()).hexdigest() == TABLES_SHA256


@per_golden_dir
def _load_tables():
    path = golden_path("tables.json")
    data = json.loads(tables_raw_bytes().decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold an object keyed by dimension")
    out = {}
    for key, table in data.items():
        where_table = f"{path}: dimension {key}"
        try:
            n = int(key)
        except ValueError:
            raise ValueError(f"{where_table}: the dimension is not an integer") from None
        rows = {}
        for gen, row in golden_field(table, "rows", where_table, dict).items():
            where = f"{path}: row {gen} of dimension {key}"
            terms = golden_field(row, "forgetful", where)
            for term in terms:
                if not (isinstance(term, list) and len(term) == 2
                        and _is_int_list(term[0]) and type(term[1]) is int):
                    raise ValueError(f"{where}: forgetful term {json.dumps(term)} "
                                     "is not [[index, ...], coefficient] in ints")
            points = golden_field(row, "fixed", where)
            for point in points:
                if not _is_int_list(point, 2):
                    raise ValueError(f"{where}: fixed point {json.dumps(point)} "
                                     "is not a pair of ints")
            try:
                rows[gen] = OracleValue.build(n, terms, points)
            except ValueError as error:
                raise ValueError(f"{where}: {error}") from None
        generators = tuple(golden_field(table, "generators", where_table))
        for gen in generators:
            if not isinstance(gen, str) or gen not in rows:
                raise ValueError(f"{where_table} has no row for generator {json.dumps(gen)}")
        out[n] = {
            "fixed_points": tuple(golden_field(table, "fixed_points", where_table)),
            "generators": generators,
            "rows": rows,
        }
    for n in (1, 2, 3):
        if n not in out:
            raise ValueError(f"{path}: there is no table for dimension {n}")
    return out


def oracle_table(n):
    if n not in (1, 2, 3):
        raise ValueError("oracle tables exist for the torus in dimensions 1, 2, 3")
    return _load_tables()[n]


def f_oracle_unit(n) -> OracleValue:
    return OracleValue(n, (1,) + (0,) * ((1 << n) - 1) + (1, 0) * (1 << n))


def f_oracle(n, text) -> OracleValue:
    """Oracle value on the n-torus of an expression in the table
    generators, such as "(C0 - H12)*(C0 - L3)"."""
    rows = oracle_table(n)["rows"]

    def atom(name, position):
        if name not in rows:
            raise expressions.ParseError(f"unknown generator {name!r} on the {n}-torus",
                                         position)
        return rows[name]

    return expressions.evaluate(text, atom, f_oracle_unit(n))


def verify_relation_via_oracle(n, lhs, rhs) -> bool:
    """Certify lhs = rhs in equivariant K-theory via injectivity of F."""
    return f_oracle(n, lhs) == f_oracle(n, rhs)


# torus dimension -> oracle expressions of an additive basis of the image of F
ORACLE_BASES = {
    1: ("C0", "C1", "C0 - L"),
    2: ("C0", "C1", "C0 - H", "C1*(C0 - H)", "C0 - L1", "C0 - L2"),
    3: ("C0", "C1",
        "C0 - H12", "C1*(C0 - H12)",
        "C0 - H23", "C1*(C0 - H23)",
        "C0 - H13", "C1*(C0 - H13)",
        "C0 - L1", "C0 - L2", "C0 - L3",
        "(C0 - H12)*(C0 - L3)"),
}


def _oracle_basis(n):
    if n not in ORACLE_BASES:
        raise ValueError("no additive basis in this dimension")
    return ORACLE_BASES[n]


def verify_f_injective(n) -> bool:
    """Rank check: F is injective on the additive basis in dimension n.
    The odd exterior words are zero on the even classes of the basis, so
    their rows add nothing to the rank."""
    from .exact_abelian import IntegerMatrix, cokernel
    basis = _oracle_basis(n)
    vectors = [f_oracle(n, b).coords for b in basis]
    matrix = IntegerMatrix.from_columns(vectors, rows=len(vectors[0]))
    return matrix.rows - cokernel(matrix).free_rank == len(basis)


# ---------------------------------------------------------------------------
# dictionaries between ring bases and geometric classes


class Dictionary(Frozen):
    """Map from some basis monomials of a ring into the oracle on the
    n-torus: each monomial label goes to an oracle expression, and an
    element goes to the linear combination of its labels' images."""

    __slots__ = ("ring_name", "torus_dim", "entries")
    ring_name: str
    torus_dim: int
    entries: tuple  # ((monomial label, oracle expression), ...)

    @per_golden_dir
    def _images(self) -> dict:
        """label -> oracle image, evaluated once per dictionary and set of
        golden tables."""
        return {label: f_oracle(self.torus_dim, text) for label, text in self.entries}

    def push(self, element) -> OracleValue:
        """Oracle image of a ring element spanned by the dictionary's labels."""
        if element.ring.name != self.ring_name:
            raise ValueError(f"dictionary is for {self.ring_name}, not {element.ring.name}")
        images = self._images()
        coords = [0] * (3 << self.torus_dim)
        for exps, coeff in element.terms:
            label = element.ring.monomial_str(exps)
            if label not in images:
                raise ValueError(f"{label} is not in the embedded basis")
            coords = [c + coeff * v for c, v in zip(coords, images[label].coords)]
        return OracleValue(self.torus_dim, tuple(coords))


DICTIONARIES = {
    "circle": Dictionary("kk_circle_flip", 1, (
        ("1", "C0"), ("t", "C1"), ("sigma*chi", "C0 - L"))),
    "torus2": Dictionary("kk_torus2", 2, (
        ("1", "C0"), ("t", "C1"),
        ("chi1*chi2", "C0 - H"), ("t*chi1*chi2", "C1*(C0 - H)"),
        ("sigma*chi1", "C0 - L1"), ("sigma*chi2", "C0 - L2"))),
    "equiv_circle": Dictionary("k0_equiv_circle", 1, (
        ("1", "C0"), ("t", "C1"), ("ell", "C0 - L"))),
    # the odd part of the flip circle by suspension into the 3-torus: j1k
    # maps along the (1, k) coordinates
    "j12": Dictionary("kk_circle_flip", 3, (
        ("chi", "C0 - H12"), ("t*chi", "C1*(C0 - H12)"), ("sigma", "C0 - L2"))),
    "j13": Dictionary("kk_circle_flip", 3, (
        ("chi", "C0 - H13"), ("t*chi", "C1*(C0 - H13)"), ("sigma", "C0 - L3"))),
    # the odd part by suspension on the second coordinate of the 2-torus,
    # and the even part along the first coordinate of the 2- and 3-torus
    "odd2": Dictionary("kk_circle_flip", 2, (
        ("chi", "C0 - H"), ("t*chi", "C1*(C0 - H)"), ("sigma", "C0 - L2"))),
    "even2": Dictionary("kk_circle_flip", 2, (
        ("1", "C0"), ("t", "C1"), ("sigma*chi", "C0 - L1"))),
    "even3": Dictionary("kk_circle_flip", 3, (
        ("1", "C0"), ("t", "C1"), ("sigma*chi", "C0 - L1"))),
}


def dictionary(name) -> Dictionary:
    if name not in DICTIONARIES:
        raise ValueError(f"no dictionary named {name!r}")
    return DICTIONARIES[name]


_MISMATCH = "oracle mismatch on {u} * {v}"

# ring name -> rows (left, right, product, factor, failure): for every label
# u of dictionary left and v of dictionary right,
# left.push(u) * right.push(v) = product.push(u * v) * f_oracle(factor).
# A ring's first row multiplies its degree-zero dictionary by itself.  On
# the flip circle, C0 - H23 acts as the Thom class of the second and third
# coordinates of the 3-torus.
PRODUCT_CHECKS = {
    "kk_circle_flip": (
        ("circle", "circle", "circle", "1", _MISMATCH),
        ("j12", "j13", "even3", "C0 - H23", "odd product {u} * {v} fails the 3-torus check"),
        ("even2", "odd2", "odd2", "1", "mixed product {u} * {v} fails the 2-torus check"),
    ),
    "kk_torus2": (("torus2", "torus2", "torus2", "1", _MISMATCH),),
    "k0_equiv_circle": (("equiv_circle", "equiv_circle", "equiv_circle", "1", _MISMATCH),),
}


# ---------------------------------------------------------------------------
# certification


@per_golden_dir
def dictionary_failure(ring):
    """Why the ring's rows of PRODUCT_CHECKS fail, or None when every row
    holds for every two labels and the first row's dictionary covers the
    degree-zero basis.  Certification raises on this answer, and the
    oracle suite reads it from the cache."""
    if ring.name not in PRODUCT_CHECKS:
        raise ValueError(f"no dictionary for {ring.name!r}")
    rows = PRODUCT_CHECKS[ring.name]
    basis = degree_component(ring, Degree(0, EQ)).labels
    if set(basis) != {label for label, _ in dictionary(rows[0][0]).entries}:
        return f"degree-zero basis {sorted(basis)} does not match the dictionary"
    for left, right, product, factor, failure in rows:
        left, right, product = map(dictionary, (left, right, product))
        scale = f_oracle(product.torus_dim, factor)
        us = [expressions.parse_expression(ring, label) for label, _ in left.entries]
        vs = [expressions.parse_expression(ring, label) for label, _ in right.entries]
        pushed = [right.push(v) for v in vs]
        for u in us:
            pu = left.push(u)
            for v, pv in zip(vs, pushed):
                if pu * pv != product.push(u * v) * scale:
                    return failure.format(u=u, v=v)
    return None


@per_golden_dir
def build_ring(name) -> PresentedRing:
    """Construct one of the built-in rings, certified against the oracle
    when PRODUCT_CHECKS has rows for it."""
    ring = _define(name)
    failure = dictionary_failure(ring) if name in PRODUCT_CHECKS else None
    if failure is not None:
        raise CertificationError(f"{name}: {failure}")
    return ring


# ---------------------------------------------------------------------------
# named maps used across the package


# maps forgetting the involution, as source ring -> (target
# non-equivariant ring, generator -> image expression in the target)
FORGETFUL_MAPS = {
    "hh_point": ("h_point", {"t12": "0"}),
    "hh_circle_trivial": ("h_circle", {"t12": "0", "e": "e"}),
    "hh_circle_flip": ("h_circle", {"t12": "0", "chi": "e"}),
    "hh_cp_infty": ("h_cp_infty", {"t12": "0", "c": "c"}),
}


def forgetful_images(name):
    """Generator images of the map forgetting the involution."""
    if name not in FORGETFUL_MAPS:
        raise ValueError(f"no forgetful map for {name!r}")
    target_name, images = FORGETFUL_MAPS[name]
    target = nonequivariant_ring(target_name)
    return target, {gen: expressions.parse_expression(target, text)
                    for gen, text in images.items()}


def forget_variant_degree(degree):
    """Degree conversion for the forgetful maps: the variant is dropped."""
    return Degree(degree.level, EQ)


def nu_substitution():
    """Pull-back along the antipodal gauge flip of the flip circle."""
    ring = build_ring("hh_circle_flip")
    return {"t12": ring.gen("t12"), "chi": ring.gen("chi") + ring.gen("t12")}


def kk_flip_substitution():
    """Pull-back along the antipodal gauge flip on the K-ring of the flip
    circle: it fixes t and sigma and sends chi to sigma + t*chi.

    The images are certified against the oracle by
    :func:`verify_kk_flip_via_oracle`: the flip swaps the two fixed points
    of the circle, hence acts on the suspension-embedded classes of the
    3-torus table by swapping fixed points with opposite first coordinate
    while fixing the underlying non-equivariant class.
    """
    ring = build_ring("kk_circle_flip")
    return {"t": ring.gen("t"), "sigma": ring.gen("sigma"),
            "chi": ring.gen("sigma") + ring.gen("t") * ring.gen("chi")}


def _swap_first_coordinate(value: OracleValue) -> OracleValue:
    """The value with fixed points 2m and 2m + 1, which differ in the first
    coordinate alone, swapped; the underlying class stays."""
    coords = value.coords
    swapped = coords[:1 << value.n]
    for p in range(1 << value.n, len(coords), 4):
        swapped += coords[p + 2:p + 4] + coords[p:p + 2]
    return OracleValue(value.n, swapped)


def verify_kk_flip_via_oracle() -> bool:
    """Certify the deck-flip substitution on the flip-circle K-ring.

    Each odd basis class chi, t*chi, sigma embeds into the 3-torus table
    by suspension along the (1, 2) coordinates; the flip of the first
    circle permutes fixed points and fixes the underlying class, and the
    substituted element must embed to exactly that permuted value.
    """
    ring = build_ring("kk_circle_flip")
    images = kk_flip_substitution()
    j12 = dictionary("j12")
    for label, _ in j12.entries:
        original = expressions.parse_expression(ring, label)
        flipped = apply_ring_hom(ring, ring, images, original)
        if j12.push(flipped) != _swap_first_coordinate(j12.push(original)):
            return False
    return True
