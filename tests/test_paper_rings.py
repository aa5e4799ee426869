import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from kdual.expressions import parse_expression
from kdual.graded_algebra import Degree, EQ, apply_ring_hom, degree_component, verify_ring_hom
from kdual.paper_rings import (
    GOLDEN_DIR_ENV,
    CertificationError,
    DICTIONARIES,
    Dictionary,
    EVEN_EMBEDDING_2,
    ExteriorKClass,
    ODD_EMBEDDING_2,
    ORACLE_BASES,
    RElt,
    RING_NAMES,
    SUSPENSION_EMBEDDINGS,
    SUSPENSION_THOM,
    TABLES_SHA256,
    _DICTIONARY_FOR_RING,
    build_ring,
    dictionary,
    dictionary_failure,
    embed_in_oracle,
    f_oracle,
    f_oracle_unit,
    golden_path,
    kk_flip_substitution,
    nu_substitution,
    oracle_table,
    tables_raw_bytes,
    verify_f_injective,
    verify_kk_flip_via_oracle,
    verify_relation_via_oracle,
    verify_tables_checksum,
)


# --- golden data integrity -----------------------------------------------------


def test_tables_checksum():
    assert hashlib.sha256(tables_raw_bytes()).hexdigest() == TABLES_SHA256
    assert verify_tables_checksum()


def test_tables_products_are_consistent():
    # rows that are products of other rows must multiply out exactly
    assert f_oracle(2, "C1H") == f_oracle(2, "C1*H")
    assert f_oracle(3, "C1H12") == f_oracle(3, "C1*H12")
    assert f_oracle(3, "C1H23") == f_oracle(3, "C1*H23")
    assert f_oracle(3, "C1H13") == f_oracle(3, "C1*H13")
    assert f_oracle(3, "H12L3") == f_oracle(3, "H12*L3")


def test_table_row_values():
    row = f_oracle(1, "L")
    assert row.fixed_points == (RElt(0, 1), RElt(1, 0))
    row = f_oracle(2, "H")
    assert row.fixed_points == (RElt(0, 1), RElt(1, 0), RElt(1, 0), RElt(1, 0))
    assert row.forgetful == ExteriorKClass.build(2, {(): 1, (1, 2): -1})
    row = f_oracle(3, "H12L3")
    assert row.fixed_points == (RElt(1, 0), RElt(0, 1), RElt(0, 1), RElt(0, 1),
                                RElt(0, 1), RElt(1, 0), RElt(1, 0), RElt(1, 0))


def test_oracle_powers():
    line = f_oracle(1, "L")
    assert line ** 0 == f_oracle_unit(1)
    assert line ** 2 == f_oracle(1, "C0") and line ** 3 == line
    # L is its own inverse, so L^-1 must not come out as the unit
    for k in (-1, 1.0, "2"):
        with pytest.raises(ValueError, match="nonnegative integers"):
            line ** k


# --- exterior algebra ------------------------------------------------------------


def test_exterior_squares_vanish():
    x12 = ExteriorKClass.build(3, {(1, 2): 1})
    assert x12 * x12 == ExteriorKClass(3, ())
    x13 = ExteriorKClass.build(3, {(1, 3): 1})
    assert x12 * x13 == ExteriorKClass(3, ())  # shares x1


def test_exterior_signs():
    x2 = ExteriorKClass.build(2, {(2,): 1})
    x1 = ExteriorKClass.build(2, {(1,): 1})
    assert x2 * x1 == ExteriorKClass.build(2, {(1, 2): -1})
    assert x1 * x2 == ExteriorKClass.build(2, {(1, 2): 1})


def test_flat_torus_relation_holds_automatically():
    one = ExteriorKClass.unit(3)
    h12 = one - ExteriorKClass.build(3, {(1, 2): 1})
    h23 = one - ExteriorKClass.build(3, {(2, 3): 1})
    assert (one - h12) * (one - h23) == ExteriorKClass(3, ())
    # the degree-one part of the 2-torus: (1 - H)^2 = 0
    one2 = ExteriorKClass.unit(2)
    h = one2 - ExteriorKClass.build(2, {(1, 2): 1})
    assert (one2 - h) * (one2 - h) == ExteriorKClass(2, ())


def _exterior_basis(n):
    return [ExteriorKClass.build(n, {indices: 1}) for size in range(n + 1)
            for indices in combinations(range(1, n + 1), size)]


def _random_exterior(rng, n):
    # up to four terms on index words of any order, repeats included
    return ExteriorKClass.build(n, [
        (tuple(rng.randint(1, n) for _ in range(rng.randint(0, n))), rng.randint(-3, 3))
        for _ in range(rng.randint(0, 4))])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_arithmetic_is_build_of_the_raw_terms(n):
    # `build` sorts each index word by adjacent swaps, flipping the sign at
    # each, so it is the definition the operations are checked against
    rng = random.Random(2500 + n)
    basis = _exterior_basis(n)
    elements = basis + [_random_exterior(rng, n) for _ in range(300)]
    pairs = [(a, b) for a in basis for b in basis]
    pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    for a, b in pairs:
        assert a * b == ExteriorKClass.build(
            n, [(k1 + k2, v1 * v2) for k1, v1 in a.terms for k2, v2 in b.terms])
        assert a + b == ExteriorKClass.build(n, a.terms + b.terms)
        assert a - b == ExteriorKClass.build(n, a.terms + tuple((k, -v) for k, v in b.terms))
    for a in elements:
        for k in (-2, -1, 0, 1, 3):
            assert k * a == a * k == ExteriorKClass.build(n, [(i, k * v) for i, v in a.terms])


def test_oracle_coefficients_coerce_an_int():
    x = RElt(1, 2)
    assert x + 3 == 3 + x == RElt(4, 2)
    assert x * 3 == 3 * x == RElt(3, 6)
    assert x * RElt(0, 1) == RElt(2, 1)
    with pytest.raises(TypeError, match="non-integers"):
        x + 1.5
    with pytest.raises(TypeError, match="non-integers"):
        x * "t"


# every (torus dimension, ring, embedding) that the certification embeds through
ORACLE_EMBEDDINGS = {
    **{name: (d.torus_dim, d.ring_name, d.as_dict()) for name, d in DICTIONARIES.items()},
    **{name: (3, "kk_circle_flip", e) for name, e in SUSPENSION_EMBEDDINGS.items()},
    "even-3": (3, "kk_circle_flip", EVEN_EMBEDDING_2),
    "even-2": (2, "kk_circle_flip", EVEN_EMBEDDING_2),
    "odd-2": (2, "kk_circle_flip", ODD_EMBEDDING_2),
}


@pytest.mark.parametrize("n, ring_name, embedding", ORACLE_EMBEDDINGS.values(),
                         ids=ORACLE_EMBEDDINGS)
def test_embedding_is_the_sum_of_coefficient_times_image(n, ring_name, embedding):
    ring = build_ring(ring_name)
    labels = [parse_expression(ring, label) for label in embedding]
    rng = random.Random(2600 + n)
    elements = [ring.zero(), *labels]
    elements += [sum((rng.randint(-4, 4) * u for u in labels), ring.zero()) for _ in range(100)]
    for element in elements:
        fold = f_oracle_unit(n) * 0
        for exps, coeff in element.terms:
            fold = fold + coeff * f_oracle(n, embedding[ring.monomial_str(exps)])
        assert embed_in_oracle(n, embedding, element) == fold


# --- rings build and certify ------------------------------------------------------


def test_all_rings_certify():
    for name in RING_NAMES:
        build_ring(name)


def test_golden_dir_switch_reaches_every_cache(tmp_path, monkeypatch):
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    tables["2"]["rows"]["H"]["fixed"][1] = [0, 0]  # H is no longer a unit there
    (tmp_path / "tables.json").write_text(json.dumps(tables))

    shipped_ring = build_ring("kk_torus2")
    shipped_h = oracle_table(2)["rows"]["H"]
    volume = shipped_ring.gen("chi1") * shipped_ring.gen("chi2")
    shipped_push = dictionary("torus2").push(volume)
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    with pytest.raises(CertificationError):
        build_ring("kk_torus2")
    assert oracle_table(2)["rows"]["H"] != shipped_h
    assert dictionary("torus2").push(volume) == f_oracle(2, "C0 - H") != shipped_push
    monkeypatch.delenv(GOLDEN_DIR_ENV)
    assert build_ring("kk_torus2") is shipped_ring
    assert oracle_table(2)["rows"]["H"] == shipped_h
    assert dictionary("torus2").push(volume) == shipped_push


def test_golden_dirs_with_the_same_tables_build_equal_rings(tmp_path, monkeypatch):
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    shipped = {name: build_ring(name) for name in RING_NAMES}
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    for name, ring in shipped.items():
        copy = build_ring(name)
        assert copy is not ring
        assert copy == ring and hash(copy) == hash(ring)
        assert copy.one() + ring.one() == 2 * ring.one()


def test_presentations():
    kk = build_ring("kk_point")
    sigma, t = kk.gen("sigma"), kk.gen("t")
    assert sigma ** 3 == 2 * sigma and sigma ** 2 == 1 - t and ((1 + t) * sigma).is_zero()
    circle = build_ring("kk_circle_flip")
    assert circle.gen("chi") ** 2 == circle.gen("sigma") * circle.gen("chi")
    torus = build_ring("kk_torus2")
    for name in ("chi1", "chi2"):
        assert torus.gen(name) ** 2 == torus.gen("sigma") * torus.gen(name)
    k0 = build_ring("k0_equiv_circle")
    ell, t0 = k0.gen("ell"), k0.gen("t")
    assert ell ** 2 == 2 * ell and ((1 + t0) * ell).is_zero()
    ub = build_ring("hh_universal_base")
    assert (ub.gen("c") * ub.gen("chat")).is_zero()


# --- the restriction oracle -------------------------------------------------------


def test_circle_relations():
    assert verify_relation_via_oracle(1, "L^2", "C0")
    assert verify_relation_via_oracle(1, "C1*L", "-L + C0 + C1")
    assert not verify_relation_via_oracle(1, "L", "C0")


def test_torus_relations():
    relations = [
        ("(C0 + C1)*(C0 - L1)", "0"),
        ("(C0 + C1)*(C0 - L2)", "0"),
        ("(C0 - H)*(C1 - L1)", "0"),
        ("(C0 - H)*(C1 - L2)", "0"),
        ("(C0 - H)*(C1 - H)", "0"),
        ("(C0 - L1)*(C0 - L2)", "(C0 - C1)*(C0 - H)"),
    ]
    for lhs, rhs in relations:
        assert verify_relation_via_oracle(2, lhs, rhs), (lhs, rhs)


def test_injectivity():
    for n in (1, 2, 3):
        assert verify_f_injective(n)


def test_injectivity_fails_on_a_dependent_basis(monkeypatch):
    # six expressions, one of them repeated under another spelling: rank 5
    monkeypatch.setitem(ORACLE_BASES, 2, ORACLE_BASES[2][:5] + ("C0-L1",))
    assert verify_f_injective(2) is False


def test_injectivity_needs_a_recorded_basis():
    for n in (0, 4):
        with pytest.raises(ValueError, match="no additive basis in this dimension"):
            verify_f_injective(n)


def test_dictionaries_are_multiplicative():
    for name in ("circle", "torus2", "equiv_circle"):
        d = dictionary(name)
        ring = build_ring(d.ring_name)
        basis = degree_component(ring, Degree(0, EQ))
        assert set(basis.labels) == set(d.as_dict())
        for m1 in basis.monomials:
            for m2 in basis.monomials:
                u, v = ring.element({m1: 1}), ring.element({m2: 1})
                assert d.push(u * v) == d.push(u) * d.push(v)


def test_dictionary_products_are_decided_once_per_ring():
    # a cold process: certification evaluates each product table, and the
    # three dictionary-* checks of the oracle suite read the cached answers
    import kdual
    code = ("from kdual.paper_rings import dictionary_failure\n"
            "from kdual.suites import run_suite\n"
            "report = run_suite('all')\n"
            "info = dictionary_failure.cache_info()\n"
            "print(report.exit_code, info.misses, info.hits, info.currsize)")
    env = {k: v for k, v in os.environ.items() if k != GOLDEN_DIR_ENV}
    env["PYTHONPATH"] = str(Path(kdual.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "3", "3", "3"]


@pytest.mark.parametrize("dim,row,point,message", [
    ("3", "H23", 2, r"^kk_circle_flip: odd product chi \* chi fails the 3-torus check$"),
    ("2", "H", 1, r"^kk_circle_flip: mixed product sigma\*chi \* chi fails the 2-torus check$"),
], ids=["odd", "mixed"])
def test_odd_product_certification_fails_on_a_changed_table(tmp_path, monkeypatch,
                                                            dim, row, point, message):
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    tables[dim]["rows"][row]["fixed"][point] = [5, 0]
    (tmp_path / "tables.json").write_text(json.dumps(tables))
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    with pytest.raises(CertificationError, match=message):
        build_ring("kk_circle_flip")


def test_dictionary_failure_names_the_product(tmp_path, monkeypatch):
    ring = build_ring("kk_circle_flip")
    assert dictionary_failure(ring) is None
    with pytest.raises(ValueError, match="no dictionary for 'kk_point'"):
        dictionary_failure(build_ring("kk_point"))
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    tables["1"]["rows"]["L"]["fixed"][1] = [0, 0]
    (tmp_path / "tables.json").write_text(json.dumps(tables))
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    # the switch reaches the cached answer, and certification raises on it
    assert dictionary_failure(ring) == "oracle mismatch on t * sigma*chi"
    with pytest.raises(CertificationError,
                       match=r"^kk_circle_flip: oracle mismatch on t \* sigma\*chi$"):
        build_ring("kk_circle_flip")
    monkeypatch.delenv(GOLDEN_DIR_ENV)
    assert dictionary_failure(ring) is None


def test_dictionary_failure_names_a_basis_mismatch(tmp_path, monkeypatch):
    ring = build_ring("kk_circle_flip")
    circle = dictionary("circle")
    # a golden dir of its own, so that no cached answer is read or left
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    monkeypatch.setitem(DICTIONARIES, "circle", Dictionary(
        circle.ring_name, circle.torus_dim, circle.entries[:2]))
    assert dictionary_failure(ring) == (
        "degree-zero basis ['1', 'sigma*chi', 't'] does not match the dictionary")
    with pytest.raises(CertificationError, match="^kk_circle_flip: degree-zero basis"):
        build_ring("kk_circle_flip")


def test_embedding_images_are_cached_per_embedding():
    from kdual.paper_rings import _embedding_images
    ring = build_ring("kk_circle_flip")
    chi = ring.gen("chi")
    _embedding_images.cache_clear()
    assert embed_in_oracle(2, ODD_EMBEDDING_2, 3 * chi) == 3 * f_oracle(2, "C0 - H")
    # an equal embedding shares the entry: the cache is keyed by the items
    assert embed_in_oracle(2, dict(ODD_EMBEDDING_2), chi) == f_oracle(2, "C0 - H")
    assert _embedding_images.cache_info()[:2] == (1, 1)  # hits, misses
    assert embed_in_oracle(2, {"chi": "C0 - L1"}, 3 * chi) == 3 * f_oracle(2, "C0 - L1")
    assert _embedding_images.cache_info().currsize == 2
    with pytest.raises(ValueError, match="not in the embedded basis"):
        embed_in_oracle(2, ODD_EMBEDDING_2, ring.one())


def test_dictionary_values():
    d = dictionary("circle")
    table = d.as_dict()
    assert table["sigma*chi"] == "C0 - L"
    assert table["1"] == "C0"
    d2 = dictionary("torus2")
    assert d2.as_dict()["sigma*chi1"] == "C0 - L1"


def test_dictionaries_are_data():
    assert _DICTIONARY_FOR_RING == {"kk_circle_flip": "circle", "kk_torus2": "torus2",
                                    "k0_equiv_circle": "equiv_circle"}
    with pytest.raises(ValueError, match="no dictionary named"):
        dictionary("sphere")
    circle = dictionary("circle")
    with pytest.raises(ValueError, match="chi is not in the embedded basis"):
        circle.push(build_ring("kk_circle_flip").gen("chi"))
    with pytest.raises(ValueError, match="dictionary is for kk_circle_flip"):
        circle.push(build_ring("kk_point").one())


def _embed_odd(ring, embedding, n, element):
    out = f_oracle_unit(n) * 0
    for exps, coeff in element.terms:
        out = out + coeff * f_oracle(n, embedding[ring.monomial_str(exps)])
    return out


def test_odd_products_match_suspension_oracle():
    """Products of two odd classes of the flip circle, certified on the
    3-torus table: multiply the two suspension embeddings and compare with
    the ring product embedded along the first factor times the suspension
    class of the remaining two coordinates."""
    ring = build_ring("kk_circle_flip")
    even_embed = {"1": "C0", "t": "C1", "sigma*chi": "C0 - L1"}
    thom = f_oracle(3, SUSPENSION_THOM)
    for u_label in ("chi", "t*chi", "sigma"):
        for v_label in ("chi", "t*chi", "sigma"):
            u = parse_expression(ring, u_label)
            v = parse_expression(ring, v_label)
            lhs = (_embed_odd(ring, SUSPENSION_EMBEDDINGS["j12"], 3, u)
                   * _embed_odd(ring, SUSPENSION_EMBEDDINGS["j13"], 3, v))
            product = u * v
            rhs = f_oracle_unit(3) * 0
            for exps, coeff in product.terms:
                rhs = rhs + coeff * f_oracle(3, even_embed[ring.monomial_str(exps)])
            assert lhs == rhs * thom, (u_label, v_label)


def test_mixed_products_match_torus_oracle():
    """Products (even class) * (odd class) of the flip circle, certified on
    the 2-torus table through the suspension embedding of the odd part."""
    ring = build_ring("kk_circle_flip")
    for u_label in ("1", "t", "sigma*chi"):
        for v_label in ("chi", "t*chi", "sigma"):
            u = parse_expression(ring, u_label)
            v = parse_expression(ring, v_label)
            lhs = (f_oracle(2, EVEN_EMBEDDING_2[u_label])
                   * _embed_odd(ring, ODD_EMBEDDING_2, 2, v))
            rhs = _embed_odd(ring, ODD_EMBEDDING_2, 2, u * v)
            assert lhs == rhs, (u_label, v_label)


def test_flip_substitution_certified():
    ring = build_ring("kk_circle_flip")
    images = kk_flip_substitution()
    assert verify_ring_hom(ring, ring, images)
    for name, image in images.items():
        assert apply_ring_hom(ring, ring, images, image) == ring.gen(name)
    assert verify_kk_flip_via_oracle()


def test_flip_substitution_check_fails_for_the_identity(monkeypatch):
    # the identity fixes every class, so it cannot swap the fixed points
    from kdual import paper_rings
    from kdual.suites import run_suite
    ring = build_ring("kk_circle_flip")
    monkeypatch.setattr(paper_rings, "kk_flip_substitution",
                        lambda: {g.name: ring.gen(g.name) for g in ring.generators})
    assert not verify_kk_flip_via_oracle()
    failed = [c.id for c in run_suite("oracle").checks if c.status == "fail"]
    assert failed == ["flip-substitution"]


def test_nu_substitution_certified():
    ring = build_ring("hh_circle_flip")
    images = nu_substitution()
    assert verify_ring_hom(ring, ring, images)
    for name, image in images.items():
        assert apply_ring_hom(ring, ring, images, image) == ring.gen(name)


# --- consequences reproduced as ring facts -----------------------------------------


def test_degree_zero_basis_sizes_match_tables():
    for ring_name, n in (("kk_circle_flip", 1), ("kk_torus2", 2)):
        ring = build_ring(ring_name)
        basis = degree_component(ring, Degree(0, EQ))
        table = oracle_table(n)
        # even part: the table generators span; the ring basis counts agree
        # with the number of independent products recorded in the table
        assert basis.dim == 3 * 2 ** (n - 1)


def _oracle_action_module(n, basis_exprs):
    """Module on the given oracle basis, with the involution acting by
    multiplication by C1; coordinates are solved exactly from the image
    vectors of the restriction map."""
    from kdual.exact_abelian import IntegerMatrix, RModule, solve
    from kdual.paper_rings import _image_vector
    images = [f_oracle(n, b) for b in basis_exprs]
    vectors = [_image_vector(img) for img in images]
    span = IntegerMatrix.from_columns(vectors, rows=len(vectors[0]))
    t_row = f_oracle(n, "C1")
    columns = []
    for img in images:
        coords = solve(span, _image_vector(t_row * img))
        assert coords is not None, "C1-multiple left the basis span"
        columns.append(coords)
    action = IntegerMatrix.from_columns(columns, rows=len(basis_exprs))
    return RModule(len(basis_exprs), IntegerMatrix.zeros(len(basis_exprs), 0), action)


def test_geometric_basis_classification():
    """The equivariant K-groups of the torus, classified directly from the
    restriction tables: multiplication by C1 on the recorded additive
    bases decomposes as (R + R/J)^(2^(n-1))."""
    from collections import Counter
    from kdual.exact_abelian import rmodule_classify
    from kdual.paper_rings import _oracle_basis
    for n in (1, 2, 3):
        module = _oracle_action_module(n, _oracle_basis(n))
        expected = Counter({"R": 2 ** (n - 1), "R/J": 2 ** (n - 1)})
        assert rmodule_classify(module) == expected, n


def test_oracle_unknown_generator():
    from kdual.expressions import ParseError
    with pytest.raises(ParseError):
        f_oracle(1, "H12")
    with pytest.raises(ParseError, match="unknown generator 'H12' on the 1-torus") as err:
        f_oracle(1, "C0 + H12")
    assert err.value.position == 5


def test_oracle_tables_shape():
    for n in (1, 2, 3):
        table = oracle_table(n)
        assert len(table["fixed_points"]) == 2 ** n
        for row in table["rows"].values():
            assert row.n == n
