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

Oracle values are formed in canonical form directly.  The product of two
sorted exterior monomials is zero when they share an index; otherwise it
is their merged sorted word, with the sign (-1)^(number of inversions, the
pairs i > j of an index i of the left factor and j of the right).  Sums add
the coefficients of equal words and drop the zeros.  `ExteriorKClass.build`,
which sorts any index word by adjacent swaps, reads the golden rows and is
the definition the tests hold these operations to.  The fixed-point values
multiply componentwise in Z[t]/(t^2 - 1), and `embed_in_oracle` forms one
linear combination of the label images, coordinate by coordinate.

The syntax of every presentation is proved rather than sampled:
`PresentedRing.define` proves the rewrite rules terminating and
confluent, so normal forms are unique and the product they induce is
associative and commutative.  A normal form is irreducible with reduced
coefficients by construction, so building a ring does not normalize
normal forms again to check them.  The oracle certification checks
meaning: that the presented ring is the ring the tables describe.

Results that depend on the golden tables, the oracle images of each
embedding's labels among them, are cached per value of KDUAL_GOLDEN_DIR.
A golden file that lacks a field or a row, or holds a field of the wrong
type, raises ValueError naming the file and the row.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache, update_wrapper
from operator import add, mul
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
# exterior-algebra model of the K-theory of the torus


class ExteriorKClass(Frozen):
    """Element of the exterior algebra on n odd generators x_1..x_n.

    Terms map a sorted index tuple to an integer coefficient; the even
    part models K^0 of the n-torus and the odd part K^1.  Products carry
    the usual alternating signs and x_i^2 = 0.
    """

    __slots__ = ("n", "terms")
    n: int
    terms: tuple  # sorted tuple of (index tuple, coeff)

    @classmethod
    def build(cls, n, data):
        """The class of (index word, coefficient) terms in any order: each
        word is sorted by adjacent swaps, one sign flip per swap, and a
        word with a repeated index is zero."""
        cleaned = {}
        for indices, coeff in data.items() if isinstance(data, dict) else data:
            indices = tuple(indices)
            if any(not 1 <= i <= n for i in indices):
                raise ValueError("generator index out of range")
            if len(set(indices)) != len(indices):
                continue  # repeated factor squares to zero
            order, sign = cls._sort_sign(indices)
            coeff = int(coeff) * sign
            if coeff:
                cleaned[order] = cleaned.get(order, 0) + coeff
        return cls.from_sums(n, cleaned)

    @staticmethod
    def _sort_sign(indices):
        indices = list(indices)
        sign = 1
        for i in range(1, len(indices)):
            j = i
            while j > 0 and indices[j - 1] > indices[j]:
                indices[j - 1], indices[j] = indices[j], indices[j - 1]
                sign = -sign
                j -= 1
        return tuple(indices), sign

    @classmethod
    def from_sums(cls, n, sums):
        """The class of a dict that maps sorted index tuples to summed
        coefficients; the zero sums are dropped."""
        return cls(n, tuple(sorted(term for term in sums.items() if term[1])))

    @classmethod
    def unit(cls, n):
        return cls(n, (((), 1),))

    def __add__(self, other):
        if other.n != self.n:
            raise ValueError("mixed exterior algebras")
        sums = dict(self.terms)
        for k, v in other.terms:
            sums[k] = sums.get(k, 0) + v
        return ExteriorKClass.from_sums(self.n, sums)

    def __neg__(self):
        return ExteriorKClass(self.n, tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExteriorKClass.from_sums(self.n, {k: other * v for k, v in self.terms})
        if other.n != self.n:
            raise ValueError("mixed exterior algebras")
        sums = {}
        for k1, v1 in self.terms:
            for k2, v2 in other.terms:
                if not set(k1).isdisjoint(k2):
                    continue  # repeated factor squares to zero
                # sorting x_k1 x_k2 moves each x_j of k2 past every x_i of
                # k1 with i > j, and each such swap flips the sign
                inversions = sum(i > j for i in k1 for j in k2)
                k = tuple(sorted(k1 + k2))
                sums[k] = sums.get(k, 0) + (-v1 * v2 if inversions & 1 else v1 * v2)
        return ExteriorKClass.from_sums(self.n, sums)

    __rmul__ = __mul__

    def coefficients(self):
        return dict(self.terms)


class RElt(Frozen):
    """Element a + b*t of Z[t]/(t^2 - 1)."""

    __slots__ = ("a", "b")
    a: int
    b: int

    def __add__(self, other):
        if not isinstance(other, RElt):
            other = self._coerce(other)
        return RElt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return RElt(-self.a, -self.b)

    def __mul__(self, other):
        if not isinstance(other, RElt):
            other = self._coerce(other)
        return RElt(self.a * other.a + self.b * other.b,
                    self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(value):
        if isinstance(value, int):
            return RElt(value, 0)
        raise TypeError("cannot mix with non-integers")

    def __str__(self):
        return f"{self.a} + {self.b}t"


R_ONE = RElt(1, 0)


class FOracleImage(Frozen):
    """Value of the restriction homomorphism F on the n-torus.

    `forgetful` is the underlying non-equivariant class; `fixed_points`
    lists the fiber representation at each of the 2^n fixed points.  The
    algebra is componentwise; equality of images certifies equality of
    equivariant classes because F is injective.
    """

    __slots__ = ("n", "forgetful", "fixed_points")
    n: int
    forgetful: ExteriorKClass
    fixed_points: tuple

    def _check(self, other):
        if not isinstance(other, FOracleImage) or other.n != self.n:
            raise ValueError("oracle images of different tori")

    def __add__(self, other):
        self._check(other)
        return FOracleImage(self.n, self.forgetful + other.forgetful,
                            tuple(map(add, self.fixed_points, other.fixed_points)))

    def __neg__(self):
        return FOracleImage(self.n, -self.forgetful, tuple(-a for a in self.fixed_points))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FOracleImage(self.n, self.forgetful * other,
                                tuple(a * other for a in self.fixed_points))
        self._check(other)
        return FOracleImage(self.n, self.forgetful * other.forgetful,
                            tuple(map(mul, self.fixed_points, other.fixed_points)))

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
                if not all(1 <= i <= n for i in term[0]):
                    raise ValueError(f"{where}: forgetful term {json.dumps(term)} "
                                     f"has an index outside 1..{n}")
            forgetful = ExteriorKClass.build(n, terms)
            points = golden_field(row, "fixed", where)
            for point in points:
                if not _is_int_list(point, 2):
                    raise ValueError(f"{where}: fixed point {json.dumps(point)} "
                                     "is not a pair of ints")
            fixed = tuple(RElt(a, b) for a, b in points)
            if len(fixed) != 2 ** n:
                raise ValueError(f"{where} has {len(fixed)} fixed points, wanted {2 ** n}")
            rows[gen] = FOracleImage(n, forgetful, fixed)
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


def f_oracle_unit(n) -> FOracleImage:
    return FOracleImage(n, ExteriorKClass.unit(n), (R_ONE,) * 2 ** n)


def f_oracle(n, text) -> FOracleImage:
    """Oracle value on the n-torus of an expression in the table
    generators, such as "(C0 - H12)*(C0 - L3)"."""
    rows = oracle_table(n)["rows"]

    def atom(name, position):
        if name not in rows:
            raise expressions.ParseError(f"unknown generator {name!r} on the {n}-torus",
                                         position)
        return rows[name]

    return expressions.evaluate(text, atom, f_oracle_unit(n))


@per_golden_dir
def _embedding_images(n, items) -> dict:
    """label -> oracle image on the n-torus, for one embedding given as
    its (label, expression) items."""
    return {label: f_oracle(n, text) for label, text in items}


def embed_in_oracle(n, embedding, element) -> FOracleImage:
    """Oracle image on the n-torus of a ring element, through an embedding
    that maps the label of each basis monomial to an oracle expression:
    the linear combination of the label images with the element's
    coefficients, summed coordinate by coordinate.

    The images of an embedding's labels are evaluated once per embedding
    and set of golden tables."""
    images = _embedding_images(n, tuple(embedding.items()))
    forgetful, a, b = {}, [0] * 2 ** n, [0] * 2 ** n
    for exps, coeff in element.terms:
        label = element.ring.monomial_str(exps)
        if label not in images:
            raise ValueError(f"{label} is not in the embedded basis")
        image = images[label]
        for k, v in image.forgetful.terms:
            forgetful[k] = forgetful.get(k, 0) + coeff * v
        for i, point in enumerate(image.fixed_points):
            a[i] += coeff * point.a
            b[i] += coeff * point.b
    return FOracleImage(n, ExteriorKClass.from_sums(n, forgetful), tuple(map(RElt, a, b)))


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


def _image_vector(image: FOracleImage):
    even = [k for k in _even_monomials(image.n)]
    coeffs = image.forgetful.coefficients()
    vec = [coeffs.get(k, 0) for k in even]
    for p in image.fixed_points:
        vec.extend((p.a, p.b))
    return vec


def _even_monomials(n):
    from itertools import combinations
    out = []
    for size in range(0, n + 1, 2):
        out.extend(combinations(range(1, n + 1), size))
    return out


def verify_f_injective(n) -> bool:
    """Rank check: F is injective on the additive basis in dimension n."""
    from .exact_abelian import IntegerMatrix, cokernel
    basis = _oracle_basis(n)
    vectors = [_image_vector(f_oracle(n, b)) for b in basis]
    matrix = IntegerMatrix.from_columns(vectors, rows=len(vectors[0]))
    return matrix.rows - cokernel(matrix).free_rank == len(basis)


# ---------------------------------------------------------------------------
# dictionaries between ring bases and geometric classes


class Dictionary(Frozen):
    """Invertible correspondence between a ring's degree-zero monomial
    basis and expressions in the oracle generators."""

    __slots__ = ("ring_name", "torus_dim", "entries")
    ring_name: str
    torus_dim: int
    entries: tuple  # ((monomial label, oracle expression), ...)

    def as_dict(self):
        return dict(self.entries)

    def push(self, element) -> FOracleImage:
        """Oracle image of a degree-(0, eq) ring element."""
        if element.ring.name != self.ring_name:
            raise ValueError(f"dictionary is for {self.ring_name}, not {element.ring.name}")
        return embed_in_oracle(self.torus_dim, self.as_dict(), element)


DICTIONARIES = {
    "circle": Dictionary("kk_circle_flip", 1, (
        ("1", "C0"), ("t", "C1"), ("sigma*chi", "C0 - L"))),
    "torus2": Dictionary("kk_torus2", 2, (
        ("1", "C0"), ("t", "C1"),
        ("chi1*chi2", "C0 - H"), ("t*chi1*chi2", "C1*(C0 - H)"),
        ("sigma*chi1", "C0 - L1"), ("sigma*chi2", "C0 - L2"))),
    "equiv_circle": Dictionary("k0_equiv_circle", 1, (
        ("1", "C0"), ("t", "C1"), ("ell", "C0 - L"))),
}


def dictionary(name) -> Dictionary:
    if name not in DICTIONARIES:
        raise ValueError(f"no dictionary named {name!r}")
    return DICTIONARIES[name]


_DICTIONARY_FOR_RING = {d.ring_name: name for name, d in DICTIONARIES.items()}

# Suspension embedding of the odd part of the flip-circle ring into the
# 3-torus oracle: j_k maps along the (1, k) coordinates, and the class
# C0 - H23 acts as the Thom class of the second and third coordinates.
SUSPENSION_EMBEDDINGS = {
    "j12": {"chi": "C0 - H12", "t*chi": "C1*(C0 - H12)", "sigma": "C0 - L2"},
    "j13": {"chi": "C0 - H13", "t*chi": "C1*(C0 - H13)", "sigma": "C0 - L3"},
}
SUSPENSION_THOM = "C0 - H23"

# Embeddings of the odd part into the 2-torus oracle (suspension on the
# second coordinate), used for the module-structure certification, and of
# the even part, which serves the 3-torus as well.
ODD_EMBEDDING_2 = {"chi": "C0 - H", "t*chi": "C1*(C0 - H)", "sigma": "C0 - L2"}
EVEN_EMBEDDING_2 = {"1": "C0", "t": "C1", "sigma*chi": "C0 - L1"}


# ---------------------------------------------------------------------------
# certification


@per_golden_dir
def dictionary_failure(ring):
    """Why the dictionary of the ring is not multiplicative on its
    degree-zero basis, or None when push(u * v) = push(u) * push(v) for
    every two basis monomials u, v.  Certification raises on this answer,
    and the oracle suite reads it from the cache."""
    if ring.name not in _DICTIONARY_FOR_RING:
        raise ValueError(f"no dictionary for {ring.name!r}")
    d = dictionary(_DICTIONARY_FOR_RING[ring.name])
    basis = degree_component(ring, Degree(0, EQ))
    if set(basis.labels) != set(d.as_dict()):
        return f"degree-zero basis {sorted(basis.labels)} does not match the dictionary"
    elements = [ring.element({m: 1}) for m in basis.monomials]
    pushed = [d.push(u) for u in elements]
    for u, pu in zip(elements, pushed):
        for v, pv in zip(elements, pushed):
            if d.push(u * v) != pu * pv:
                return f"oracle mismatch on {u} * {v}"
    return None


def _certify_against_oracle(ring):
    if ring.name not in _DICTIONARY_FOR_RING:
        return
    failure = dictionary_failure(ring)
    if failure is not None:
        raise CertificationError(f"{ring.name}: {failure}")
    if ring.name == "kk_circle_flip":
        _certify_circle_odd_products(ring)


def _certify_circle_odd_products(ring):
    """Products involving the odd classes of the flip circle, certified on
    the 2- and 3-torus tables through the suspension embeddings."""
    odd = [expressions.parse_expression(ring, label)
           for label in ("chi", "t*chi", "sigma")]
    thom = f_oracle(3, SUSPENSION_THOM)
    j12 = [embed_in_oracle(3, SUSPENSION_EMBEDDINGS["j12"], u) for u in odd]
    j13 = [embed_in_oracle(3, SUSPENSION_EMBEDDINGS["j13"], v) for v in odd]
    for u, ju in zip(odd, j12):
        for v, jv in zip(odd, j13):
            if ju * jv != embed_in_oracle(3, EVEN_EMBEDDING_2, u * v) * thom:
                raise CertificationError(
                    f"{ring.name}: odd product {u} * {v} fails the 3-torus check")
    even = [expressions.parse_expression(ring, label)
            for label in ("1", "t", "sigma*chi")]
    odd_2 = [embed_in_oracle(2, ODD_EMBEDDING_2, v) for v in odd]
    for u in even:
        eu = embed_in_oracle(2, EVEN_EMBEDDING_2, u)
        for v, ov in zip(odd, odd_2):
            if eu * ov != embed_in_oracle(2, ODD_EMBEDDING_2, u * v):
                raise CertificationError(
                    f"{ring.name}: mixed product {u} * {v} fails the 2-torus check")


@per_golden_dir
def build_ring(name) -> PresentedRing:
    """Construct and certify one of the built-in rings."""
    ring = _define(name)
    _certify_against_oracle(ring)
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


def _swap_first_coordinate(image: FOracleImage) -> FOracleImage:
    if image.n != 3:
        raise ValueError("expected a 3-torus oracle value")
    fixed = list(image.fixed_points)
    for a in range(0, 8, 2):
        fixed[a], fixed[a + 1] = fixed[a + 1], fixed[a]
    return FOracleImage(3, image.forgetful, tuple(fixed))


def verify_kk_flip_via_oracle() -> bool:
    """Certify the deck-flip substitution on the flip-circle K-ring.

    Each odd basis class chi, t*chi, sigma embeds into the 3-torus table
    by suspension along the (1, 2) coordinates; the flip of the first
    circle permutes fixed points and fixes the underlying class, and the
    substituted element must embed to exactly that permuted value.
    """
    ring = build_ring("kk_circle_flip")
    images = kk_flip_substitution()
    j12 = SUSPENSION_EMBEDDINGS["j12"]
    for label in ("chi", "t*chi", "sigma"):
        original = expressions.parse_expression(ring, label)
        flipped = apply_ring_hom(ring, ring, images, original)
        if (embed_in_oracle(3, j12, flipped)
                != _swap_first_coordinate(embed_in_oracle(3, j12, original))):
            return False
    return True
