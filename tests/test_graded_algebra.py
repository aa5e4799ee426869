import gc
import random

import pytest

from kdual.exact_abelian import FGAbelianGroup, IntegerMatrix
from kdual.expressions import ParseError, _tokenize, parse_expression
from kdual.graded_algebra import (
    EQ,
    PM,
    ConfluenceError,
    Degree,
    GeneratorSpec,
    PresentedRing,
    UnboundedSliceError,
    UnknownGeneratorError,
    apply_ring_hom,
    degree_component,
    normal_monomials,
    verify_ring_hom,
)
from kdual.paper_rings import (
    NONEQUIVARIANT_PRESENTATIONS,
    PRESENTATIONS,
    RING_NAMES,
    _define,
    build_ring,
    forget_variant_degree,
    forgetful_images,
    nonequivariant_ring,
)

from helpers import from_named_terms, reference_tokenize


def random_element(rng, ring, max_terms=4, max_exp=3, max_coeff=3):
    terms = {}
    n = len(ring.generators)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.randint(-max_coeff, max_coeff)
    return ring.element(terms)


# --- degrees -------------------------------------------------------------------


def test_degree_addition_variants():
    assert Degree(1, PM) + Degree(1, PM) == Degree(2, EQ)
    assert Degree(1, PM) + Degree(2, EQ) == Degree(3, PM)
    assert Degree(0, EQ) + Degree(0, EQ) == Degree(0, EQ)


def test_period_reduction():
    kk = build_ring("kk_point")
    assert kk.reduce_degree(Degree(2, EQ)) == Degree(0, EQ)
    hh = build_ring("hh_point")
    assert hh.reduce_degree(Degree(2, EQ)) == Degree(2, EQ)


# --- normalization ---------------------------------------------------------------


def test_normalize_point_ring_relations():
    kk = build_ring("kk_point")
    sigma = kk.gen("sigma")
    t = kk.gen("t")
    assert sigma ** 3 == 2 * sigma
    assert sigma * sigma == 1 - t
    assert ((1 + t) * sigma).is_zero()


def test_normalize_torsion_coefficients():
    hh = build_ring("hh_point")
    t12 = hh.gen("t12")
    assert (2 * t12).is_zero()
    assert (3 * t12) == t12
    assert not (2 * hh.one()).is_zero()


def test_normalize_zero():
    for name in RING_NAMES:
        ring = build_ring(name)
        assert ring.element(dict(ring.zero().terms)).is_zero()
        assert from_named_terms(ring, []).is_zero()


def test_normalize_unknown_generator_errors():
    kk = build_ring("kk_point")
    with pytest.raises(UnknownGeneratorError):
        from_named_terms(kk, [({"chi": 1}, 1)])


def test_normalize_idempotent_random():
    rng = random.Random(2024)
    per_ring = 1000 // len(RING_NAMES) + 1
    for name in RING_NAMES:
        ring = build_ring(name)
        for _ in range(per_ring):
            element = random_element(rng, ring)
            again = ring.element(dict(element.terms))
            assert again == element


def test_mul_examples():
    hh = build_ring("hh_circle_flip")
    assert hh.gen("chi") * hh.gen("chi") == hh.gen("t12") * hh.gen("chi")
    kk = build_ring("kk_circle_flip")
    assert kk.gen("chi") * kk.gen("chi") == kk.gen("sigma") * kk.gen("chi")
    kp = build_ring("kk_point")
    assert kp.gen("sigma") * kp.gen("sigma") == 1 - kp.gen("t")


def test_mul_exhaustive_associative_commutative():
    for name in RING_NAMES:
        ring = build_ring(name)
        monomials = [ring.element({m: 1}) for m in normal_monomials(ring, 4)]
        for a in monomials:
            for b in monomials:
                ab = a * b
                assert ab == b * a
                for c in monomials:
                    assert ab * c == a * (b * c)


def test_mul_distributive_random():
    rng = random.Random(77)
    for name in RING_NAMES:
        ring = build_ring(name)
        for _ in range(120):
            a = random_element(rng, ring)
            b = random_element(rng, ring)
            c = random_element(rng, ring)
            assert a * (b + c) == a * b + a * c


def test_graded_unit():
    rng = random.Random(5)
    for name in RING_NAMES:
        ring = build_ring(name)
        for _ in range(50):
            a = random_element(rng, ring)
            assert ring.one() * a == a


def _raw_sum(*scaled):
    """The raw terms of a sum of (element, integer multiplier) pairs."""
    raw = {}
    for element, k in scaled:
        for exps, coeff in element.terms:
            raw[exps] = raw.get(exps, 0) + k * coeff
    return raw


def test_sums_negations_and_integer_multiples_match_the_full_normalizer():
    # these skip the rule search, since no rule can fire on normal monomials
    rng = random.Random(27)
    for name in RING_NAMES:
        ring = build_ring(name)
        one = ring.one()
        for _ in range(30):
            a, b = random_element(rng, ring), random_element(rng, ring)
            for value, raw in ((a + b, _raw_sum((a, 1), (b, 1))),
                               (a - b, _raw_sum((a, 1), (b, -1))),
                               (-a, _raw_sum((a, -1))),
                               (3 * a, _raw_sum((a, 3))),
                               (a * -2, _raw_sum((a, -2))),
                               (5 - a, _raw_sum((one, 5), (a, -1))),
                               (a + 2, _raw_sum((a, 1), (one, 2)))):
                assert value.terms == ring.element(raw).terms, (name, a, b)


def test_generators_and_the_unit_are_built_once_per_ring():
    for name in RING_NAMES:
        ring = build_ring(name)
        n = len(ring.generators)
        assert ring.one() is ring.one()
        assert ring.one().terms == ring.element({(0,) * n: 1}).terms
        for k, g in enumerate(ring.generators):
            assert ring.gen(g.name) is ring.gen(g.name)
            exps = tuple(int(i == k) for i in range(n))
            assert ring.gen(g.name).terms == ring.element({exps: 1}).terms
        with pytest.raises(UnknownGeneratorError, match=f"{name} has no generator 'nope'"):
            ring.gen("nope")


def test_the_zero_ring():
    # the rule 1 -> 0 rewrites every monomial, so every element is 0 and no
    # monomial is normal
    z = PresentedRing.define("z", [("x", 1, EQ, 0)], [({}, [])])
    assert z.one().is_zero() and z.one() == 0
    assert (3 * z.one()).is_zero()
    assert z.gen("x").is_zero()
    assert parse_expression(z, "2 + x").is_zero()
    assert normal_monomials(z, 5) == []
    # no monomial has a negative total exponent, not even 1 in a ring
    # without generators
    for ring in [*map(build_ring, RING_NAMES), nonequivariant_ring("h_point")]:
        assert normal_monomials(ring, -1) == []


def test_element_operators_with_integers_and_other_types():
    kk = build_ring("kk_circle_flip")
    chi = kk.gen("chi")
    assert chi - chi == 0 and not chi == 0 and 2 * kk.one() == 2
    assert parse_expression(kk, "chi^0") == kk.one() == 1
    first = parse_expression(kk, "sigma*chi + 2")
    second = chi * chi + 2
    assert first is not second
    assert first == second and hash(first) == hash(second) and len({first, second}) == 1
    for operation in (lambda: chi + "1", lambda: "1" - chi, lambda: chi - None,
                      lambda: chi * 1.5, lambda: 1.5 * chi):
        with pytest.raises(TypeError):
            operation()


def test_homogeneity_flags():
    kk = build_ring("kk_circle_flip")
    assert kk.gen("chi").is_homogeneous(Degree(1, PM))
    mixed = kk.one() + kk.gen("chi")
    assert mixed.degree() is None
    assert not mixed.is_homogeneous()
    assert kk.zero().is_homogeneous(Degree(5, PM))


# --- degree slices ---------------------------------------------------------------


def test_degree_component_flip_circle():
    hh = build_ring("hh_circle_flip")
    slice_ = degree_component(hh, Degree(2, EQ))
    assert slice_.group == FGAbelianGroup((2, 2))
    assert set(slice_.labels) == {"t12*chi", "t12^2"}


def test_degree_component_point():
    hh = build_ring("hh_point")
    slice_ = degree_component(hh, Degree(1, PM))
    assert slice_.group == FGAbelianGroup((2,))
    assert slice_.labels == ("t12",)


def test_degree_component_classifying_space():
    hh = build_ring("hh_cp_infty")
    slice_ = degree_component(hh, Degree(2, PM))
    assert slice_.group == FGAbelianGroup((0,))
    assert slice_.labels == ("c",)


def test_degree_component_instability():
    # a free generator of level 0 puts every power of it in degree (0, eq),
    # and no rule caps those powers
    ring = PresentedRing.define("free_level_0", [("c", 0, EQ, 0)])
    with pytest.raises(UnboundedSliceError,
                       match="free_level_0: no rule caps the powers of 'c', "
                             r"so the slice at \(0, eq\) need not be finite"):
        degree_component(ring, Degree(0, EQ))
    stable = degree_component(build_ring("hh_cp_infty"), Degree(8, EQ))
    assert set(stable.labels) == {"c^4", "t12^4*c^2", "t12^8"}
    assert stable.group == FGAbelianGroup((2, 2, 0))


def test_negative_level_needs_a_period():
    generators = [("c", 1, EQ, 0), ("ell", -1, EQ, 0)]
    with pytest.raises(ValueError, match="generator 'ell' has negative level -1"):
        PresentedRing.define("neg", generators)
    # periodic rings reduce levels, so a negative one is allowed there
    ring = PresentedRing.define("neg", generators, [({"c": 2}, []), ({"ell": 2}, [])], 2)
    assert degree_component(ring, Degree(0, EQ)).labels == ("1", "c*ell")


def test_slices_of_odd_generators_in_a_period_two_ring_are_unbounded():
    # every (0, eq) monomial has even total exponent, so c^(2i)*ell^(2j) are
    # infinitely many normal monomials there
    ring = PresentedRing.define("p", [("c", 1, EQ, 0), ("ell", 1, EQ, 0)], period=2)
    with pytest.raises(UnboundedSliceError, match="p: no rule caps the powers of 'c'"):
        degree_component(ring, Degree(0, EQ))
    with pytest.raises(UnboundedSliceError):
        degree_component(ring, Degree(1, PM))


def test_a_capped_level_0_generator_bounds_its_slices():
    # x^2 -> 0 caps x; y has positive level, so it needs no cap
    ring = PresentedRing.define("z", [("x", 0, EQ, 0), ("y", 1, EQ, 0)], [({"x": 2}, [])])
    assert degree_component(ring, Degree(1, EQ)).labels == ("y", "x*y")
    assert degree_component(ring, Degree(0, EQ)).labels == ("1", "x")
    assert degree_component(ring, Degree(2, EQ)).labels == ("y^2", "x*y^2")


def _brute_force_monomials(ring, bound):
    """Every irreducible exponent tuple of total at most bound, by
    filtering all tuples, in monomial order."""
    from itertools import product
    return sorted((exps for exps in product(range(bound + 1), repeat=len(ring.generators))
                   if sum(exps) <= bound and ring.monomial_is_normal(exps)),
                  key=ring.monomial_key)


def test_normal_monomials_match_brute_force():
    for name in RING_NAMES:
        ring = build_ring(name)
        for bound in range(5):
            assert normal_monomials(ring, bound) == _brute_force_monomials(ring, bound), \
                (name, bound)


def test_degree_component_leaves_no_reference_cycle():
    # cyclic garbage waits for the collector; a slice leaves none behind
    ring = build_ring("kk_torus2")
    degree_component(ring, Degree(0, EQ))
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            degree_component(ring, Degree(0, EQ))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_degree_component_matches_brute_force():
    # brute force at total exponent 8, which is past every slice's proved
    # bound here and does not depend on the proof
    limit = 8
    for name in RING_NAMES:
        ring = build_ring(name)
        monomials = _brute_force_monomials(ring, limit)
        for level in range(2 if ring.period else 8):
            for variant in (EQ, PM):
                degree = Degree(level, variant)
                bound = ring._slice_slack + (0 if ring.period else level)
                assert bound < limit, (name, degree)
                target = ring.reduce_degree(degree)
                found = [m for m in monomials if ring.monomial_degree(m) == target]
                assert all(sum(m) <= bound for m in found), (name, degree)
                slice_ = degree_component(ring, degree)
                assert slice_.monomials == tuple(found), (name, degree)
                assert slice_.degree == target
                assert slice_.orders == tuple(ring.monomial_additive_order(m) for m in found)


def test_periodic_slices_agree_modulo_period():
    kk = build_ring("kk_torus2")
    for variant in (EQ, PM):
        reduced = degree_component(kk, Degree(0, variant))
        shifted = degree_component(kk, Degree(2, variant))
        negative = degree_component(kk, Degree(-2, variant))
        assert shifted.monomials == reduced.monomials
        assert negative.monomials == reduced.monomials


def test_random_parenthesization_agrees():
    rng = random.Random(404)
    for name in RING_NAMES:
        ring = build_ring(name)
        for _ in range(40):
            factors = [random_element(rng, ring, max_terms=2, max_exp=2)
                       for _ in range(4)]
            left = ((factors[0] * factors[1]) * factors[2]) * factors[3]
            right = factors[0] * (factors[1] * (factors[2] * factors[3]))
            middle = (factors[0] * factors[1]) * (factors[2] * factors[3])
            assert left == right == middle


def test_kk_point_slices():
    kk = build_ring("kk_point")
    even = degree_component(kk, Degree(0, EQ))
    assert even.labels == ("1", "t")
    assert even.group == FGAbelianGroup((0, 0))
    odd = degree_component(kk, Degree(1, PM))
    assert odd.labels == ("sigma",)
    assert odd.group == FGAbelianGroup((0,))


def test_slice_matrix_between_two_slices():
    hh = build_ring("hh_circle_trivial")
    source = degree_component(hh, Degree(1, PM))
    target = degree_component(hh, Degree(3, EQ))
    assert (source.labels, target.labels) == (("t12",), ("t12^2*e",))
    cup = parse_expression(hh, "t12*e")
    assert source.matrix(lambda x: cup * x, target) == IntegerMatrix.from_rows([[1]])

    base = build_ring("hh_universal_base")
    source = degree_component(base, Degree(2, PM))
    target = degree_component(base, Degree(4, EQ))
    assert (source.labels, target.labels) == (("c", "chat"), ("c^2", "chat^2", "t12^4"))
    cup = parse_expression(base, "c - chat")
    assert source.matrix(lambda x: cup * x, target) == IntegerMatrix.from_rows(
        [[1, 0], [0, -1], [0, 0]])
    with pytest.raises(ValueError, match="outside the slice"):
        source.matrix(lambda x: cup * x)


def test_slice_matrix_defaults_to_an_operator_on_the_slice():
    kk = build_ring("kk_circle_flip")
    even = degree_component(kk, Degree(0, EQ))
    assert even.labels == ("1", "t", "sigma*chi")
    t = kk.gen("t")
    assert even.matrix(lambda x: t * x) == IntegerMatrix.from_rows(
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]])


# --- ring homomorphisms -------------------------------------------------------------


def test_forgetful_map_flip_circle():
    source = build_ring("hh_circle_flip")
    target, images = forgetful_images("hh_circle_flip")
    assert verify_ring_hom(source, target, images, forget_variant_degree)


def test_pullback_circle_to_torus_is_hom():
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    images = {"t": torus.gen("t"), "sigma": torus.gen("sigma"), "chi": torus.gen("chi1")}
    assert verify_ring_hom(circle, torus, images)


def test_bogus_map_rejected():
    kk = build_ring("kk_point")
    images = {"t": kk.gen("t"), "sigma": kk.one()}
    assert not verify_ring_hom(kk, kk, images)


def test_image_in_another_ring_rejected():
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    images = {"t": circle.gen("t"), "sigma": circle.gen("sigma"), "chi": circle.gen("chi")}
    assert verify_ring_hom(circle, circle, images)
    assert not verify_ring_hom(circle, torus, images)


def test_rule_with_nonzero_image_rejected():
    # t -> -t keeps every degree, but the rule t*sigma -> -sigma maps to
    # sigma - (-sigma) = 2*sigma; the left side is taken as a raw monomial,
    # since in normal form it is its right side and the check would pass
    kk = build_ring("kk_circle_flip")
    images = {"t": -kk.gen("t"), "sigma": kk.gen("sigma"), "chi": kk.gen("chi")}
    assert all(img.is_homogeneous(g.degree) for g, img in zip(kk.generators, images.values()))
    assert not verify_ring_hom(kk, kk, images)


def test_wrong_torsion_rejected():
    hh = build_ring("hh_point")
    target = nonequivariant_ring("h_circle")
    # t12 has order two; e does not, so t12 -> e violates the coefficient order
    assert not verify_ring_hom(hh, target, {"t12": target.gen("e")},
                               forget_variant_degree)


def test_apply_hom_is_multiplicative():
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    images = {"t": torus.gen("t"), "sigma": torus.gen("sigma"), "chi": torus.gen("chi1")}
    rng = random.Random(8)
    for _ in range(40):
        a = random_element(rng, circle, max_exp=2)
        b = random_element(rng, circle, max_exp=2)
        assert (apply_ring_hom(circle, torus, images, a * b)
                == apply_ring_hom(circle, torus, images, a)
                * apply_ring_hom(circle, torus, images, b))


def test_apply_hom_rejects_an_image_in_another_ring():
    circle = build_ring("kk_circle_flip")
    torus = build_ring("kk_torus2")
    images = {"t": torus.gen("t"), "sigma": circle.gen("sigma"), "chi": torus.gen("chi1")}
    with pytest.raises(ValueError, match="image of 'sigma' is an element of a different ring"):
        apply_ring_hom(circle, torus, images, circle.gen("t"))


# --- parsing and serialization ---------------------------------------------------


def test_parse_expression_examples():
    kk = build_ring("kk_circle_flip")
    assert parse_expression(kk, "chi^2") == kk.gen("sigma") * kk.gen("chi")
    assert parse_expression(kk, "0").is_zero()
    torus = build_ring("kk_torus2")
    kernel = parse_expression(torus, "(1 + t*chi1*chi2)")
    assert kernel == torus.one() + torus.gen("t") * torus.gen("chi1") * torus.gen("chi2")


def test_parse_accepts_t_alias_in_h_rings():
    hh = build_ring("hh_circle_trivial")
    assert parse_expression(hh, "t*e") == hh.gen("t12") ** 2 * hh.gen("e")


def test_parse_error_position():
    kk = build_ring("kk_point")
    with pytest.raises(ParseError) as err:
        parse_expression(kk, "sigma + ")
    assert err.value.position == 8
    with pytest.raises(ParseError):
        parse_expression(kk, "nope")
    with pytest.raises(ParseError, match="unknown generator 'nope'") as err:
        parse_expression(kk, "1 + nope")
    assert err.value.position == 4
    for text, message, position in (("(sigma", "expected ')'", 6),
                                    ("sigma^x", "exponent must be an integer literal", 6),
                                    ("sigma)", "trailing input", 5)):
        with pytest.raises(ParseError) as err:
            parse_expression(kk, text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


@pytest.mark.parametrize("text, position",
                         (("2\u00b2", 1), ("chi^\u00b2", 4), ("chi\u00b2", 3)))
def test_superscript_digit_is_a_parse_error(text, position):
    # str.isdigit and str.isalnum accept a superscript two, but int() does not
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_expression(build_ring("kk_circle_flip"), text)
    assert err.value.position == position


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.position


def test_tokenizer_matches_the_character_by_character_reference():
    # below U+3000 lie spaces, decimal digits of many scripts, letters, and
    # numerals that are not decimal (superscripts, fractions), which a
    # regular expression's \w accepts; past it, an ideographic space, a
    # fullwidth digit, a mathematical digit and a Roman numeral
    for cp in [*range(0x3000), 0x3000, 0xFF10, 0x1D7CE, 0x2160]:
        ch = chr(cp)
        for text in (ch, "a" + ch, ch + "1", f" {ch} "):
            assert (_tokens_or_error(_tokenize, text)
                    == _tokens_or_error(reference_tokenize, text)), (hex(cp), text)


def test_element_serialization_round_trip():
    rng = random.Random(13)
    for name in RING_NAMES:
        ring = build_ring(name)
        for _ in range(25):
            element = random_element(rng, ring)
            data = element.to_json()
            assert data["ring"] == ring.name
            assert from_named_terms(
                ring, ((term["mono"], term["coeff"]) for term in data["terms"])) == element


def test_rule_orientation_is_checked():
    with pytest.raises(ValueError):
        PresentedRing.define("bad", [("x", 1, EQ, 0)],
                             [({"x": 1}, [({"x": 2}, 1)])])


def test_the_presentation_fixes_the_generator_order():
    # listed as y, x, the order ranks x above y, so x^2 -> x*y decreases it
    generators = [("y", 1, EQ, 0), ("x", 1, EQ, 0)]
    rules = [({"x": 2}, [({"x": 1, "y": 1}, 1)])]
    ring = PresentedRing.define("r", generators, rules)
    assert [g.name for g in ring.generators] == ["y", "x"]
    assert str(ring.gen("x") * ring.gen("y")) == "y*x"
    with pytest.raises(ValueError, match="does not decrease the order"):
        PresentedRing.define("r", generators[::-1], rules)


def test_rules_must_be_homogeneous():
    with pytest.raises(ValueError):
        PresentedRing.define("bad2", [("x", 1, EQ, 0), ("y", 2, EQ, 0)],
                             [({"y": 1}, [({"x": 1}, 1)])])


# --- confluence --------------------------------------------------------------------


def test_confluence_rejects_rule_overlap():
    # x*y^2 reduces to x^3 by the first rule and to 0 by the second
    with pytest.raises(ConfluenceError, match=r"overlap x\*y\^2 to x\^3 and to 0"):
        PresentedRing.define("overlap", [("x", 1, EQ, 0), ("y", 1, EQ, 0)],
                             [({"y": 2}, [({"x": 2}, 1)]), ({"x": 1, "y": 1}, [])])


def test_confluence_rejects_torsion_overlap():
    # 2*y = 0 forces 2*x^2 = 2*y^2 = 0, but x^2 is a free normal monomial
    with pytest.raises(ConfluenceError, match=r"2\*y\^2 is 0 by the torsion of y"):
        PresentedRing.define("torsion", [("x", 1, EQ, 0), ("y", 1, EQ, 2)],
                             [({"y": 2}, [({"x": 2}, 1)])])


def test_shipped_presentations_are_confluent():
    for name in RING_NAMES:
        _define(name)
    for name in ("h_point", "h_circle", "h_cp_infty"):
        nonequivariant_ring(name)


def test_presentations_are_data():
    # the order is the order of the `--ring` choices on the command line
    assert RING_NAMES == tuple(PRESENTATIONS) == (
        "hh_point", "hh_circle_trivial", "hh_circle_flip", "hh_cp_infty",
        "hh_universal_base", "kk_point", "kk_circle_flip", "kk_torus2",
        "k0_equiv_circle")
    for name, (generators, rules, period) in PRESENTATIONS.items():
        ring = _define(name)
        assert (ring.name, ring.period) == (name, period)
        specs = [GeneratorSpec(n, Degree(lvl, var), order) for n, lvl, var, order in generators]
        assert len(ring.generators) == len(specs) and set(ring.generators) == set(specs)
        assert len(ring.rules) == len(rules)
    with pytest.raises(ValueError, match="unknown ring name"):
        _define("hh_nowhere")


def test_built_in_rings_keep_the_generator_order_of_their_presentations():
    for name, (generators, _, _) in PRESENTATIONS.items():
        assert [g.name for g in build_ring(name).generators] == [g[0] for g in generators]
    for name, (generators, _) in NONEQUIVARIANT_PRESENTATIONS.items():
        assert [g.name for g in nonequivariant_ring(name).generators] == [g[0] for g in generators]


# --- ring identity --------------------------------------------------------------------


def test_rings_compare_by_structure():
    generators = [("t", 0, EQ, 0), ("sigma", 1, PM, 0)]
    one = PresentedRing.define("x", generators, [({"t": 2}, [({}, 1)])], 2)
    other = PresentedRing.define("x", generators, [({"t": 2}, [])], 2)
    same = PresentedRing.define("x", generators, [({"t": 2}, [({}, 1)])], 2)
    assert one != other and not one == other
    assert one == same and hash(one) == hash(same)
    assert one.gen("t") * one.gen("sigma") == same.gen("t") * same.gen("sigma")
    with pytest.raises(ValueError, match="different rings"):
        one.gen("t") + other.gen("t")
    with pytest.raises(ValueError, match="different rings"):
        one.gen("t") * other.gen("t")
    assert one != PresentedRing.define("y", generators, [({"t": 2}, [({}, 1)])], 2)
    assert one != PresentedRing.define("x", generators, [({"t": 2}, [({}, 1)])], None)
