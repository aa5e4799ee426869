"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison below is equality; there are
no tolerances.  Each test prints a single PASS line on success (visible
with `pytest -s` or `-rA`); a failure is an ordinary assertion failure.
"""

import random
from collections import Counter
from kdual.exact_abelian import (
    INDECOMPOSABLES,
    IntegerMatrix,
    multiset_group,
    rmodule_classify,
    smith_normal_form,
)
from kdual.expressions import parse_expression
from kdual.graded_algebra import (
    EQ,
    PM,
    Degree,
    apply_ring_hom,
    degree_component,
    normal_monomials,
    verify_ring_hom,
)
from kdual.paper_rings import (
    build_ring,
    nu_substitution,
    verify_f_injective,
    verify_relation_via_oracle,
)
from kdual import tduality, transforms

from helpers import rmodule_from_multiset


def _passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _slice_summary(ring, level, variant):
    s = degree_component(ring, Degree(level, variant))
    return "0" if not s.dim else " + ".join(
        f"{'Z' if o == 0 else 'Z/' + str(o)}.{label}"
        for label, o in sorted(zip(s.labels, s.orders)))


# 1. low-degree tables of the four basic rings, degrees 0..5 ------------------

EXPECTED_TABLES = {
    "hh_point": {
        EQ: ["Z.1", "0", "Z/2.t12^2", "0", "Z/2.t12^4", "0"],
        PM: ["0", "Z/2.t12", "0", "Z/2.t12^3", "0", "Z/2.t12^5"],
    },
    "hh_circle_trivial": {
        EQ: ["Z.1", "Z.e", "Z/2.t12^2", "Z/2.t12^2*e", "Z/2.t12^4", "Z/2.t12^4*e"],
        PM: ["0", "Z/2.t12", "Z/2.t12*e", "Z/2.t12^3", "Z/2.t12^3*e", "Z/2.t12^5"],
    },
    "hh_circle_flip": {
        EQ: ["Z.1", "0", "Z/2.t12*chi + Z/2.t12^2", "0",
             "Z/2.t12^3*chi + Z/2.t12^4", "0"],
        PM: ["0", "Z.chi + Z/2.t12", "0", "Z/2.t12^2*chi + Z/2.t12^3", "0",
             "Z/2.t12^4*chi + Z/2.t12^5"],
    },
    "hh_cp_infty": {
        EQ: ["Z.1", "0", "Z/2.t12^2", "Z/2.t12*c", "Z.c^2 + Z/2.t12^4", "Z/2.t12^3*c"],
        PM: ["0", "Z/2.t12", "Z.c", "Z/2.t12^3", "Z/2.t12^2*c",
             "Z/2.t12*c^2 + Z/2.t12^5"],
    },
}


NONEQUIVARIANT_ROWS = {
    "hh_point": ("h_point", ["Z.1", "0", "0", "0", "0", "0"]),
    "hh_circle_trivial": ("h_circle", ["Z.1", "Z.e", "0", "0", "0", "0"]),
    "hh_circle_flip": ("h_circle", ["Z.1", "Z.e", "0", "0", "0", "0"]),
    "hh_cp_infty": ("h_cp_infty", ["Z.1", "0", "Z.c", "0", "Z.c^2", "0"]),
}


def test_criterion_01_low_degree_tables():
    from kdual.paper_rings import forget_variant_degree, forgetful_images, nonequivariant_ring
    for name, columns in EXPECTED_TABLES.items():
        ring = build_ring(name)
        for variant, column in columns.items():
            for level, expected in enumerate(column):
                actual = _slice_summary(ring, level, variant)
                assert actual == expected, (name, level, variant, actual)
        # the middle rows: forget the involution and read off the plain ring
        target_name, column = NONEQUIVARIANT_ROWS[name]
        target = nonequivariant_ring(target_name)
        for level, expected in enumerate(column):
            assert _slice_summary(target, level, EQ) == expected, (name, level)
        _, images = forgetful_images(name)
        assert verify_ring_hom(ring, target, images, forget_variant_degree)
    _passed(1, "low-degree tables of the four basic rings (all three rows), degrees 0..5")


# 2. ring relations certified through the restriction oracle -------------------


def test_criterion_02_oracle_relations_and_injectivity():
    assert verify_relation_via_oracle(1, "L^2", "C0")
    assert verify_relation_via_oracle(1, "C1*L", "-L + C0 + C1")
    six_relations = [
        ("(C0 + C1)*(C0 - L1)", "0"),
        ("(C0 + C1)*(C0 - L2)", "0"),
        ("(C0 - H)*(C1 - L1)", "0"),
        ("(C0 - H)*(C1 - L2)", "0"),
        ("(C0 - H)*(C1 - H)", "0"),
        ("(C0 - L1)*(C0 - L2)", "(C0 - C1)*(C0 - H)"),
    ]
    for lhs, rhs in six_relations:
        assert verify_relation_via_oracle(2, lhs, rhs), (lhs, rhs)
    for n in (1, 2, 3):
        assert verify_f_injective(n), n
    _passed(2, "circle and torus relations plus injectivity of the restriction map")


# 3. the K-ring of the point ----------------------------------------------------


def test_criterion_03_point_k_ring():
    ring = build_ring("kk_point")
    sigma, t = ring.gen("sigma"), ring.gen("t")
    assert sigma ** 3 == 2 * sigma
    assert sigma ** 2 == 1 - t
    assert ((1 + t) * sigma).is_zero()
    # the double connecting map is multiplication by 1 - t
    circle = build_ring("kk_circle_flip")
    circle_sigma = circle.gen("sigma")
    for elem in transforms.t_basis().values():
        assert elem * circle_sigma * circle_sigma == (1 - circle.gen("t")) * elem
    _passed(3, "point K-ring presentation and the double connecting map")


# 4. torus K-groups in the split model ------------------------------------------


def test_criterion_04_torus_k_groups():
    table = transforms.kunneth_split("K")
    for n in (1, 2, 3):
        assert table(0, EQ) == {"R": 2 ** (n - 1), "R/J": 2 ** (n - 1)}
        assert not table(1, EQ) and not table(0, PM)
        table = transforms.split_table(table)
    _passed(4, "torus K-groups split as (R + R/J)^(2^(n-1)) with zero odd part")


# 5. the duality transform -------------------------------------------------------


def test_criterion_05_transform_values():
    ring = build_ring("kk_circle_flip")
    basis = transforms.t_basis()
    expected_t = {"1": "t*chi", "t": "chi", "sigma*chi": "sigma - (1 - t)*chi",
                  "chi": "1 - sigma*chi", "t*chi": "t + sigma*chi", "sigma": "-sigma*chi"}
    expected_t2 = {"1": "t + sigma*chi", "t": "1 - sigma*chi",
                   "sigma*chi": "-1 + t + sigma*chi", "chi": "chi - sigma",
                   "t*chi": "t*chi + sigma", "sigma": "chi - t*chi - sigma"}
    for label, elem in basis.items():
        assert transforms.t_transform(elem) == parse_expression(ring, expected_t[label])
    table2 = transforms.t_power_table(2)
    for label in basis:
        assert table2[label] == parse_expression(ring, expected_t2[label])
    t = ring.gen("t")
    assert all(transforms.t_power_table(4)[l] == t * basis[l] for l in basis)
    assert all(transforms.t_power_table(8)[l] == basis[l] for l in basis)
    assert any(table2[l] != basis[l] for l in basis)
    _passed(5, "the six transform values, the six squares, T^4 = t, T^8 = 1, T^2 != 1")


# 6. group cohomology of the order-two group --------------------------------------


def test_criterion_06_group_cohomology():
    for n in range(11):
        expected0 = "Z" if n == 0 else ("Z/2" if n % 2 == 0 else "0")
        expected1 = "Z/2" if n % 2 == 1 else "0"
        assert str(transforms.group_cohomology_z2(0, n)) == expected0, n
        assert str(transforms.group_cohomology_z2(1, n)) == expected1, n
    for m in (0, 1):
        for n in range(1, 9):
            assert (transforms.group_cohomology_z2(m, n)
                    == transforms.group_cohomology_z2(m, n + 2))
    _passed(6, "group cohomology from the periodic resolution, degrees 0..10")


# 7. duality relations over the circle ----------------------------------------------


def test_criterion_07_duality_enumeration():
    report = tduality.dual_pair_report("circle_trivial")
    lines = [(line["pair"], line["dual"]) for line in report["relations"]]
    assert lines == [
        ("(E0, 0)", "(E0, 0)"),
        ("(E0, h(t12*e))", "(E1[t12*e], 0)"),
        ("(E0, pi*(t12^2*e))", "(E0, pi*(t12^2*e))"),
        ("(E0, pi*(t12^2*e) + h(t12*e))", "(E1[t12*e], 0)"),
        ("(E1[t12*e], h(t12*e))", "(E1[t12*e], h(t12*e))"),
    ]
    classes = tduality.enumerate_pair_classes("circle_trivial")
    for cls in classes:
        assert classes[cls.dual_index].dual_index == cls.index
    plain = tduality.pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    shifted = tduality.pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    assert tduality.canonical_pair(plain) == tduality.canonical_pair(shifted)
    assert tduality.DualityTable("circle_trivial").shift_equivariant()
    _passed(7, "the five duality relations, the involution, the gauge "
               "identification and shift equivariance")


# 8. twisted K tables and the module-level duality ------------------------------------


def test_criterion_08_twisted_k_tables():
    for cls in tduality.enumerate_pair_classes("circle_trivial"):
        table = tduality.twisted_k_mv(cls.representative)
        for degree, side in sorted(table.derived):
            status = table.status(degree, side)
            assert status in ("derived", "paper-asserted"), (cls.label, degree, side)
            if status == "paper-asserted":
                # underlying groups still agree with the recorded table
                key = tduality._twist_invariants(cls.representative)
                printed = tduality.PRINTED_MV_TABLES[key][(degree, side)]
                assert multiset_group(printed) == multiset_group(table.derived[degree, side])
        # the module duality, by the classified tables under the degree shift
        dual_table = tduality.twisted_k_mv(tduality.tdual(cls.representative).dual)
        for degree in (0, 1):
            assert table.derived[degree, EQ] == dual_table.derived[1 - degree, PM]
            assert table.derived[degree, PM] == dual_table.derived[1 - degree, EQ]
    assert tduality.DualityTable("circle_trivial").theorem_T()
    assert tduality.DualityTable("point").theorem_T()
    _passed(8, "every recorded K-table entry derived or certified at group "
               "level, and the module duality holds on both bases")


# 9. the universal-base tables ----------------------------------------------------------

UNIVERSAL_BASE_TABLE = {
    EQ: ["Z.1", "0", "Z/2.t12^2", "Z/2.t12*c + Z/2.t12*chat",
         "Z.c^2 + Z.chat^2 + Z/2.t12^4"],
    PM: ["0", "Z/2.t12", "Z.c + Z.chat", "Z/2.t12^3",
         "Z/2.t12^2*c + Z/2.t12^2*chat"],
}


def test_criterion_09_universal_base():
    ring = build_ring("hh_universal_base")
    assert (ring.gen("c") * ring.gen("chat")).is_zero()
    assert (2 * ring.gen("t12")).is_zero()
    for variant, column in UNIVERSAL_BASE_TABLE.items():
        for level, expected in enumerate(column):
            assert _slice_summary(ring, level, variant) == expected, (level, variant)
    _passed(9, "universal-base tables in degrees 0..4 from the presentation")


# 10. property suites ----------------------------------------------------------------------


def _random_element(rng, ring, max_terms=4, max_exp=3, max_coeff=3):
    terms = {}
    n = len(ring.generators)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.randint(-max_coeff, max_coeff)
    return ring.element(terms)


def test_criterion_10_property_suites():
    rng = random.Random(123456)
    ring_names = ("hh_point", "hh_circle_trivial", "hh_circle_flip", "hh_cp_infty",
                  "hh_universal_base", "kk_point", "kk_circle_flip", "kk_torus2",
                  "k0_equiv_circle")

    # normalize is idempotent on 1000 random elements
    for index in range(1000):
        ring = build_ring(ring_names[index % len(ring_names)])
        element = _random_element(rng, ring)
        assert ring.element(dict(element.terms)) == element

    # multiplication: exhaustive associativity and commutativity to bound 4
    for name in ring_names:
        ring = build_ring(name)
        monomials = [ring.element({m: 1}) for m in normal_monomials(ring, 4)]
        for a in monomials:
            for b in monomials:
                ab = a * b
                assert ab == b * a
                for c in monomials:
                    assert ab * c == a * (b * c)

    # plus 1000 random commutativity/distributivity cases
    for index in range(1000):
        ring = build_ring(ring_names[index % len(ring_names)])
        a = _random_element(rng, ring, max_exp=2)
        b = _random_element(rng, ring, max_exp=2)
        c = _random_element(rng, ring, max_exp=2)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert ring.one() * a == a

    # Smith normal form round trip on 1000 random small matrices
    for _ in range(1000):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = IntegerMatrix(rows, cols, tuple(rng.randint(-9, 9)
                                            for _ in range(rows * cols)))
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == s.d
        diag = s.diagonal()
        for x, y in zip(diag, diag[1:]):
            assert (x and y % x == 0) or (x == 0 and y == 0)

    # classification of random sums of the four indecomposables
    for _ in range(120):
        multiset = Counter({name: rng.randint(0, 2) for name in INDECOMPOSABLES})
        assert rmodule_classify(rmodule_from_multiset(multiset)) == +multiset

    # the antipodal substitution is an involutive ring map
    hh = build_ring("hh_circle_flip")
    images = nu_substitution()
    assert verify_ring_hom(hh, hh, images)
    for name, image in images.items():
        assert apply_ring_hom(hh, hh, images, image) == hh.gen(name)

    # push-forward after the suspension section is the identity
    for label in ("chi", "t*chi", "sigma"):
        elem = transforms.t_basis()[label]
        assert transforms.pushforward_torus2(
            1, transforms.suspension_section(elem)) == elem

    # the degree-3 obstruction class is the connecting image of the Chern class
    hhc = build_ring("hh_circle_trivial")
    chern = parse_expression(hhc, "t12*e")
    assert hhc.gen("t12") * chern == parse_expression(hhc, "t12^2*e")
    assert not (hhc.gen("t12") * chern).is_zero()

    _passed(10, "idempotence, ring laws (exhaustive to bound 4 plus 1000 "
                "random), Smith round trip, module sums, the antipodal "
                "involution, the section identity and the obstruction identity")
