"""Maps between the built-in rings and the graded-group calculus.

This module holds the wrong-way and right-way maps along circle factors
(pull-backs, push-forwards, the suspension section), the degree-shifting
duality transform on the flip circle and its powers, the split Künneth
tables for products with the flip circle, the group cohomology of the
two-element group computed from its 2-periodic free resolution, and the
assembly of total-space cohomology from multiplication by an Euler class
(the two-step kernel/cokernel data of the circle-bundle exact sequence).

A graded table is a function (level, variant) -> entry that works each
entry out once, when first read: a `Counter` of indecomposables (a fresh
copy on each read) for a K-table, an `FGAbelianGroup` otherwise.

Push-forwards along a torus factor are not postulated: they are read off
from the free decomposition of the torus ring over the pulled-back circle
ring, with basis {1, chi_fiber}.  That decomposition is checked, not
assumed.  Every map that carries an element into another ring is given by
generator images and applied by `apply_ring_hom`.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .exact_abelian import (
    FGAbelianGroup,
    IntegerMatrix,
    InvariantError,
    RModule,
    cokernel,
    kernel_basis,
    preimage_lattice,
    relation_lattice,
    rmodule_classify,
    subquotient_group,
)
from .frozen import Frozen
from .graded_algebra import (
    EQ,
    PM,
    Degree,
    RingElement,
    Slice,
    apply_ring_hom,
    degree_component,
)
from .paper_rings import build_ring, per_golden_dir


# ---------------------------------------------------------------------------
# pull-backs and push-forwards between the flip circle and the 2-torus


def pullback_circle_to_torus(axis: int, element: RingElement) -> RingElement:
    """Pull back along projection to the given torus factor (chi -> chi_axis)."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    if element.ring != circle:
        raise ValueError("element must live in the flip-circle ring")
    images = {"t": torus.gen("t"), "sigma": torus.gen("sigma"), "chi": torus.gen(f"chi{axis}")}
    return apply_ring_hom(circle, torus, images, element)


def pushforward_torus2(axis: int, element: RingElement) -> RingElement:
    """Push forward along projection to the given torus factor.

    Writes the element as a + chi_fiber * b with a, b pulled back along
    the projection (fiber = the other factor) and returns b; this kills
    pulled-back classes, sends chi_fiber to 1, and shifts the degree by
    (-1, variant flip).  Normalized inputs always decompose this way; a
    leftover term is a hard error.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    if element.ring != torus:
        raise ValueError("element must live in the 2-torus ring")
    fiber = f"chi{3 - axis}"
    at = [g.name for g in torus.generators].index(fiber)
    b = {}
    for exps, coeff in element.terms:
        if exps[at] > 1:
            raise InvariantError("normalized monomial has a square of a circle class")
        if exps[at]:
            b[exps[:at] + (0,) + exps[at + 1:]] = coeff
    images = {"t": circle.gen("t"), "sigma": circle.gen("sigma"),
              f"chi{axis}": circle.gen("chi"), fiber: circle.zero()}
    return apply_ring_hom(torus, circle, images, torus.element(b))


def suspension_section(element: RingElement) -> RingElement:
    """Section of the push-forward (pi_1)_*: multiply the pull-back of the
    flip-circle class by chi2.  Splits degree-wise: (pi_1)_* after this map
    is the identity."""
    torus = build_ring("kk_torus2")
    return pullback_circle_to_torus(1, element) * torus.gen("chi2")


# ---------------------------------------------------------------------------
# the duality transform on the flip circle


T_BASIS_LABELS = ("1", "t", "sigma*chi", "chi", "t*chi", "sigma")


def _geometric_transform(element: RingElement) -> RingElement:
    """a -> (pi_2)_* ((1 + t*chi1*chi2) * pi_1^* a), through the 2-torus."""
    torus = build_ring("kk_torus2")
    kernel = torus.one() + torus.gen("t") * torus.gen("chi1") * torus.gen("chi2")
    return pushforward_torus2(2, kernel * pullback_circle_to_torus(1, element))


@per_golden_dir
def flip_circle_slices() -> tuple:
    """The flip circle's ring with its (0, eq) and (1, pm) slices.  Their
    six normal monomials are free and a basis of the ring over Z: the
    basis on which the transform and the Mayer-Vietoris clutchings act."""
    ring = build_ring("kk_circle_flip")
    return ring, degree_component(ring, Degree(0, EQ)), degree_component(ring, Degree(1, PM))


@per_golden_dir
def _transform() -> tuple:
    """The ring, the basis (even monomials, then odd monomials), each
    monomial's position, the positions in monomial order, and the matrix
    of the geometric transform on that basis."""
    ring, even, odd = flip_circle_slices()
    if any(even.orders + odd.orders):
        raise InvariantError("the transform's basis has a torsion monomial")
    # T swaps the slices, so its matrix is block anti-diagonal
    matrix = (IntegerMatrix.zeros(even.dim, even.dim)
              .hstack(odd.matrix(_geometric_transform, even))
              .vstack(even.matrix(_geometric_transform, odd)
                      .hstack(IntegerMatrix.zeros(odd.dim, odd.dim))))
    basis = even.monomials + odd.monomials
    order = tuple(sorted(range(len(basis)), key=lambda i: ring.monomial_key(basis[i])))
    return ring, basis, {m: i for i, m in enumerate(basis)}, order, matrix


def _apply(transform: tuple, matrix: IntegerMatrix, element: RingElement) -> RingElement:
    """The matrix, on the transform's basis, applied to the element."""
    ring, basis, index, order, _ = transform
    if element.ring != ring:
        raise ValueError("element must live in the flip-circle ring")
    vec = [0] * len(basis)
    for exps, coeff in element.terms:
        if exps not in index:
            raise InvariantError(f"{ring.monomial_str(exps)} is outside the transform's basis")
        vec[index[exps]] = coeff
    image = matrix.apply(vec)
    # the basis monomials are normal and free, so these terms, taken in
    # monomial order, are already a normal form
    return RingElement(ring, tuple((basis[i], image[i]) for i in order if image[i]))


def t_transform(element: RingElement) -> RingElement:
    """a -> (pi_2)_* ((1 + t*chi1*chi2) * pi_1^* a) on the flip circle.

    Additive and linear over Z[t]/(t^2 - 1); exchanges the two variant
    summands with a level shift of -1.  Applied as a 6x6 integer matrix
    on the normal monomials of the two slices of `flip_circle_slices`,
    whose blocks `Slice.matrix` derives from the geometric composite once
    per set of golden tables.
    """
    transform = _transform()
    return _apply(transform, transform[-1], element)


def t_basis() -> dict:
    """The six module basis elements of the flip circle, the monomials of
    `flip_circle_slices`, keyed by label in the order of T_BASIS_LABELS;
    a fresh dict on each call."""
    ring, even, odd = flip_circle_slices()
    elements = {ring.monomial_str(m): ring.element({m: 1}) for m in even.monomials + odd.monomials}
    return {label: elements[label] for label in T_BASIS_LABELS}


def t_matrix_power(k: int) -> IntegerMatrix:
    """The matrix of T^k on the basis of `flip_circle_slices` (even
    monomials, then odd), for 1 <= k <= 16, by repeated squaring."""
    if not 1 <= k <= 16:
        raise ValueError("power must be between 1 and 16")
    square = _transform()[-1]
    power = IntegerMatrix.identity(square.rows)
    while k:
        if k & 1:
            power = power.mul(square)
        square, k = square.mul(square), k >> 1
    return power


def t_power_table(k: int) -> dict:
    """Iterated transform on the six-element module basis of the flip
    circle: the columns of `t_matrix_power(k)`, as ring elements."""
    transform, power = _transform(), t_matrix_power(k)
    return {label: _apply(transform, power, elem) for label, elem in t_basis().items()}


# ---------------------------------------------------------------------------
# graded group tables and the Künneth splitting


def k_table_of_ring(name: str):
    """The K-table of a K-type built-in ring: (level, variant) -> a fresh
    `Counter` of the indecomposables in that slice, each slice classified
    once per table.  Levels count modulo the ring's period."""
    ring = build_ring(name)
    t = ring.gen("t")

    @cache
    def classify(degree):
        slice_ = degree_component(ring, degree)
        return rmodule_classify(RModule(slice_.dim, relation_lattice(slice_.orders),
                                        slice_.matrix(lambda e: t * e)))
    return lambda level, variant: Counter(classify(ring.reduce_degree(Degree(level, variant))))


def h_table_of_ring(name: str):
    """The H-table of a built-in ring: (level, variant) -> the group of
    that slice, worked out once per table."""
    ring = build_ring(name)
    return cache(lambda level, variant: degree_component(ring, Degree(level, variant)).group)


def split_table(table):
    """Table of the product with the flip circle: each degree is the sum of
    the same degree and the variant-flipped degree one level down, as
    multisets for a K-table and as groups for an H-table."""
    return lambda level, variant: (table(level, variant)
                                   + table(level - 1, PM if variant == EQ else EQ))


def kunneth_split(theory: str):
    """Graded groups of the flip circle, split off the point's K-table
    (theory "K") or cohomology table (theory "H")."""
    if theory == "K":
        return split_table(k_table_of_ring("kk_point"))
    if theory == "H":
        return split_table(h_table_of_ring("hh_point"))
    raise ValueError(f"unknown theory {theory!r}: want 'K' or 'H'")


# ---------------------------------------------------------------------------
# group cohomology of the two-element group


def group_cohomology_z2(m: int, n: int) -> FGAbelianGroup:
    """H^n of the two-element group with coefficients Z(m) (the involution
    acts by (-1)^m), computed from the 2-periodic free resolution.

    The cochain complex has one copy of Z in each degree; the
    differentials alternate between multiplication by (-1)^m - 1 and
    (-1)^m + 1, whose product is zero, so the image of d_{n-1} lies in
    the kernel of d_n.
    """
    if m not in (0, 1):
        raise ValueError("the coefficient twist must be 0 or 1")
    if n < 0:
        return FGAbelianGroup()
    sign = (-1) ** m

    def differential(i):
        return IntegerMatrix.from_rows([[sign - 1 if i % 2 == 0 else sign + 1]])

    image = IntegerMatrix.zeros(1, 0) if n == 0 else differential(n - 1)
    return subquotient_group(kernel_basis(differential(n)), image)


# ---------------------------------------------------------------------------
# total-space cohomology from multiplication by an Euler class


class ExtensionError(RuntimeError):
    """The circle-bundle exact sequence does not decide a total-space group."""


class GysinDegreeData(Frozen):
    """Degree-n data of the circle-bundle exact sequence over a base ring,
    in the coordinates of two base slices.

    The total-space group is an extension of `kernel_group`, the classes
    of the degree-(n - 1, flipped variant) slice that cup product with the
    Euler class sends to zero (the possible push-forwards), by
    `cokernel_group`, the degree-n slice modulo the image of cup product
    with the Euler class (the image of the pull-back).
    """

    __slots__ = ("base_slice", "kernel_slice", "into", "kernel_vectors")
    base_slice: Slice          # degree (n, v) of the base
    kernel_slice: Slice        # degree (n-1, flip v) of the base
    into: IntegerMatrix        # euler cup: degree (n-2, flip v) -> base_slice
    kernel_vectors: IntegerMatrix  # columns spanning ker(euler cup) on kernel_slice

    def cokernel_group(self) -> FGAbelianGroup:
        return cokernel(relation_lattice(self.base_slice.orders).hstack(self.into))

    def kernel_group(self) -> FGAbelianGroup:
        return subquotient_group(self.kernel_vectors, relation_lattice(self.kernel_slice.orders))


def gysin_degree_data(base_ring, euler: RingElement, level: int, variant: str) -> GysinDegreeData:
    flipped = PM if variant == EQ else EQ
    here = degree_component(base_ring, Degree(level, variant))
    below = degree_component(base_ring, Degree(level - 1, flipped))
    two_below = degree_component(base_ring, Degree(level - 2, flipped))
    above = degree_component(base_ring, Degree(level + 1, variant))

    into = two_below.matrix(lambda e: euler * e, here)
    out = below.matrix(lambda e: euler * e, above)
    return GysinDegreeData(here, below, into,
                           preimage_lattice(out, relation_lattice(above.orders)))


def gysin_cohomology(base_ring, euler: RingElement):
    """Total-space cohomology table of the circle bundle with the given
    Euler class: (level, variant) -> the group in that degree, assembled
    from the kernel and cokernel of cup product with the Euler class.
    Each degree's data is built once per table, when it is first read.

    Extensions are never resolved silently: reading an entry whose kernel
    part has torsion while the cokernel part is nonzero raises
    ExtensionError, except for the zero Euler class, where the section
    splits the sequence.
    """
    if euler.ring != base_ring:
        raise ValueError("Euler class must live in the base ring")
    if not euler.is_zero() and not euler.is_homogeneous(Degree(2, PM)):
        raise ValueError("Euler class must be homogeneous of degree (2, pm)")

    @cache
    def parts(level, variant):
        data = gysin_degree_data(base_ring, euler, level, variant)
        return data.kernel_group(), data.cokernel_group()

    def table(level, variant):
        ker, cok = parts(level, variant)
        if not euler.is_zero() and ker.torsion_orders and not cok.is_trivial():
            raise ExtensionError(
                f"the extension of {ker} by {cok} in degree ({level}, {variant}) "
                "is left open by the sequence")
        return cok + ker
    return table
