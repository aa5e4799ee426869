import json
import random
import shutil

import pytest

from kdual.exact_abelian import InvariantError, cokernel
from kdual.expressions import parse_expression
from kdual.graded_algebra import (
    Degree,
    EQ,
    PM,
    RingElement,
    Slice,
    degree_component,
    normal_monomials,
    verify_ring_hom,
)
from kdual.paper_rings import GOLDEN_DIR_ENV, CertificationError, build_ring, golden_path
from kdual import transforms
from kdual.transforms import (
    ExtensionError,
    group_cohomology_z2,
    gysin_cohomology,
    h_table_of_ring,
    k_table_of_ring,
    kunneth_split,
    pullback_circle_to_torus,
    pushforward_torus2,
    split_table,
    suspension_section,
    t_basis,
    t_power_table,
    t_transform,
)

from helpers import from_named_terms


# --- push-forwards -----------------------------------------------------------------


def test_pushforward_kills_pullbacks():
    torus = build_ring("kk_torus2")
    for label in ("1", "t", "sigma", "chi2", "t*chi2", "sigma*chi2"):
        element = parse_expression(torus, label)
        assert pushforward_torus2(2, element).is_zero(), label


def test_pushforward_fiber_class_is_one():
    torus = build_ring("kk_torus2")
    assert pushforward_torus2(2, torus.gen("chi1")) == build_ring("kk_circle_flip").one()


def test_pushforward_rejects_a_square_of_the_fiber_class():
    torus = build_ring("kk_torus2")
    exps = tuple(2 if g.name == "chi1" else 0 for g in torus.generators)
    raw = RingElement(torus, ((exps, 1),))  # not normalized: chi1^2 -> sigma*chi1
    with pytest.raises(InvariantError, match="square of a circle class"):
        pushforward_torus2(2, raw)


def test_pushforward_of_volume_class():
    torus = build_ring("kk_torus2")
    circle = build_ring("kk_circle_flip")
    volume = torus.gen("chi1") * torus.gen("chi2")
    # both projections integrate the volume class to the circle class
    assert pushforward_torus2(2, volume) == circle.gen("chi")
    assert pushforward_torus2(1, volume) == circle.gen("chi")


def test_pushforward_projection_formula():
    torus = build_ring("kk_torus2")
    circle = build_ring("kk_circle_flip")
    rng = random.Random(31)
    for _ in range(60):
        exps_b = tuple(rng.randint(0, 1) for _ in range(3))
        b = circle.element({exps_b: 1})
        pulled = pullback_circle_to_torus(2, b)
        assert pushforward_torus2(2, torus.gen("chi1") * pulled) == b


def test_section_splits_pushforward():
    basis = t_basis()
    for label in ("chi", "t*chi", "sigma"):
        element = basis[label]
        assert pushforward_torus2(1, suspension_section(element)) == element


# The maps above once renamed generators monomial by monomial and rebuilt
# each term from names; these copies of that route pin the ring-map route.


def _renamed_pullback(axis, element):
    rename = {"t": "t", "sigma": "sigma", "chi": f"chi{axis}"}
    return from_named_terms(build_ring("kk_torus2"), (
        ({rename[g.name]: e for g, e in zip(element.ring.generators, exps) if e}, coeff)
        for exps, coeff in element.terms))


def _renamed_pushforward(axis, element):
    fiber, keep = f"chi{3 - axis}", f"chi{axis}"
    terms = []
    for exps, coeff in element.terms:
        mono = {g.name: e for g, e in zip(element.ring.generators, exps) if e}
        if mono.pop(fiber, 0):
            terms.append(({"chi" if name == keep else name: e for name, e in mono.items()},
                          coeff))
    return from_named_terms(build_ring("kk_circle_flip"), terms)


def _random_elements(ring, seed, count=200):
    rng = random.Random(seed)
    n = len(ring.generators)
    return [ring.element({tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                          for _ in range(rng.randint(0, 4))})
            for _ in range(count)]


@pytest.mark.parametrize("axis", (1, 2))
def test_circle_maps_equal_the_renaming_routes(axis):
    for ring, ring_map, renamed in (
            (build_ring("kk_circle_flip"), pullback_circle_to_torus, _renamed_pullback),
            (build_ring("kk_torus2"), pushforward_torus2, _renamed_pushforward)):
        monomials = [ring.element({m: 1}) for m in normal_monomials(ring, 4)]
        for element in monomials + _random_elements(ring, seed=40 + axis):
            assert ring_map(axis, element) == renamed(axis, element), element


@pytest.mark.parametrize("axis", (1, 2))
def test_pushforward_renaming_is_a_ring_map(axis):
    circle = build_ring("kk_circle_flip")
    images = {"t": circle.gen("t"), "sigma": circle.gen("sigma"),
              f"chi{axis}": circle.gen("chi"), f"chi{3 - axis}": circle.zero()}
    assert verify_ring_hom(build_ring("kk_torus2"), circle, images)


def test_circle_maps_reject_a_bad_axis_and_a_foreign_element():
    point = build_ring("kk_point")
    for ring_map, ring in ((pullback_circle_to_torus, build_ring("kk_circle_flip")),
                           (pushforward_torus2, build_ring("kk_torus2"))):
        with pytest.raises(ValueError, match="axis must be 1 or 2"):
            ring_map(3, ring.one())
        with pytest.raises(ValueError, match="element must live in the"):
            ring_map(1, point.one())


# --- the duality transform -----------------------------------------------------------


T_VALUES = {
    "1": "t*chi", "t": "chi", "sigma*chi": "sigma - (1 - t)*chi",
    "chi": "1 - sigma*chi", "t*chi": "t + sigma*chi", "sigma": "-sigma*chi",
}
T2_VALUES = {
    "1": "t + sigma*chi", "t": "1 - sigma*chi", "sigma*chi": "-1 + t + sigma*chi",
    "chi": "chi - sigma", "t*chi": "t*chi + sigma", "sigma": "chi - t*chi - sigma",
}


def test_transform_values():
    ring = build_ring("kk_circle_flip")
    for label, elem in t_basis().items():
        assert t_transform(elem) == parse_expression(ring, T_VALUES[label]), label


def test_transform_powers():
    ring = build_ring("kk_circle_flip")
    basis = t_basis()
    table2 = t_power_table(2)
    for label in basis:
        assert table2[label] == parse_expression(ring, T2_VALUES[label]), label
    t = ring.gen("t")
    table4 = t_power_table(4)
    table8 = t_power_table(8)
    assert all(table4[label] == t * basis[label] for label in basis)
    assert all(table8[label] == basis[label] for label in basis)
    assert any(table2[label] != basis[label] for label in basis)


def test_transform_is_module_linear():
    ring = build_ring("kk_circle_flip")
    t = ring.gen("t")
    for elem in t_basis().values():
        assert t_transform(t * elem) == t * t_transform(elem)


def test_transform_additive():
    basis = t_basis()
    a, b = basis["chi"], basis["sigma"]
    assert t_transform(a + b) == t_transform(a) + t_transform(b)


def _composite(element):
    """The transform by its geometric definition, through the 2-torus."""
    torus = build_ring("kk_torus2")
    kernel = 1 + torus.gen("t") * torus.gen("chi1") * torus.gen("chi2")
    return pushforward_torus2(2, kernel * pullback_circle_to_torus(1, element))


def _six_monomials():
    ring = build_ring("kk_circle_flip")
    return [m for d in (Degree(0, EQ), Degree(1, PM))
            for m in degree_component(ring, d).monomials]


def test_matrix_transform_equals_geometric_composite():
    ring = build_ring("kk_circle_flip")
    basis = _six_monomials()
    assert len(basis) == 6
    for m in basis:
        b = ring.element({m: 1})
        assert t_transform(b) == _composite(b), b
    rng = random.Random(55)
    for _ in range(200):
        element = ring.element({m: rng.randint(-5, 5) for m in basis})
        assert t_transform(element) == _composite(element), element


def test_transform_matrix_is_block_anti_diagonal_on_the_slices():
    _, even, odd = transforms.flip_circle_slices()
    _, basis, _, _, matrix = transforms._transform()
    assert basis == even.monomials + odd.monomials
    assert matrix.rows == matrix.cols == 6
    for i in range(6):
        for j in range(6):
            if (i < even.dim) == (j < even.dim):
                assert matrix.entry(i, j) == 0, (i, j)
    # each off-diagonal block is invertible over Z: T carries each slice
    # onto the other
    for block in (odd.matrix(t_transform, even), even.matrix(t_transform, odd)):
        assert cokernel(block).is_trivial()


def test_power_table_equals_iterated_transform():
    basis = t_basis()
    for k in range(1, 17):
        table = t_power_table(k)
        assert list(table) == list(basis)
        for label, element in basis.items():
            value = element
            for _ in range(k):
                value = t_transform(value)
            assert table[label] == value, (k, label)


def test_transform_rejects_terms_outside_its_basis():
    ring = build_ring("kk_circle_flip")
    exps = tuple(2 if g.name == "chi" else 0 for g in ring.generators)
    raw = RingElement(ring, ((exps, 1),))  # not normalized: chi^2 -> sigma*chi
    with pytest.raises(InvariantError, match="outside the transform's basis"):
        t_transform(raw)
    with pytest.raises(ValueError, match="flip-circle ring"):
        t_transform(build_ring("kk_torus2").gen("chi1"))


def test_transform_refuses_a_basis_with_a_torsion_monomial(monkeypatch):
    ring, even, odd = transforms.flip_circle_slices()
    torsion = Slice(ring, odd.degree, odd.monomials, (2,) + odd.orders[1:])
    monkeypatch.setattr(transforms, "flip_circle_slices", lambda: (ring, even, torsion))
    # the undecorated function, so that the cached transform is left alone
    with pytest.raises(InvariantError, match="the transform's basis has a torsion monomial"):
        transforms._transform.__wrapped__()


def test_golden_dir_switch_reaches_the_transform(tmp_path, monkeypatch):
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    tables["1"]["rows"]["L"]["fixed"][1] = [0, 0]  # L is no longer a unit there
    (tmp_path / "tables.json").write_text(json.dumps(tables))

    chi = build_ring("kk_circle_flip").gen("chi")
    shipped = t_transform(chi)
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    with pytest.raises(CertificationError):
        t_transform(chi)
    with pytest.raises(CertificationError):
        t_power_table(2)
    monkeypatch.delenv(GOLDEN_DIR_ENV)
    assert t_transform(chi) == shipped


def test_basis_is_a_fresh_dict_per_golden_dir(tmp_path, monkeypatch):
    shipped = t_basis()
    assert t_basis() is not shipped  # a fresh dict, so callers may change it
    assert t_basis() == shipped
    assert tuple(shipped) == transforms.T_BASIS_LABELS
    shipped.clear()
    assert len(t_basis()) == 6
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    ring = build_ring("kk_circle_flip")
    switched = t_basis()
    assert all(elem.ring is ring for elem in switched.values())
    monkeypatch.delenv(GOLDEN_DIR_ENV)
    shipped_ring = build_ring("kk_circle_flip")
    assert shipped_ring is not ring
    assert all(elem.ring is shipped_ring for elem in t_basis().values())


def test_power_table_bounds():
    with pytest.raises(ValueError):
        t_power_table(0)
    with pytest.raises(ValueError):
        t_power_table(17)


def test_pushforward_section_check_fails_without_chi2(monkeypatch):
    # without the chi2 factor the push-forward kills the pulled-back class
    from kdual.suites import run_suite
    monkeypatch.setattr(transforms, "suspension_section",
                        lambda element: pullback_circle_to_torus(1, element))
    failed = [c.id for c in run_suite("transform").checks if c.status == "fail"]
    assert failed == ["pushforward-section"]


# --- Künneth splitting ----------------------------------------------------------------


def test_point_k_table():
    table = k_table_of_ring("kk_point")
    assert table(0, EQ) == {"R": 1}
    assert table(1, PM) == {"R/J": 1}
    assert not table(1, EQ) and not table(0, PM)


def test_kunneth_reproduces_torus_groups():
    table = kunneth_split("K")
    assert table(0, EQ) == {"R": 1, "R/J": 1}
    assert table(1, PM) == {"R": 1, "R/J": 1}
    assert not table(1, EQ)
    n = table
    for power in (2, 3):
        n = split_table(n)
        assert n(0, EQ) == {"R": 2 ** (power - 1), "R/J": 2 ** (power - 1)}
        assert not n(1, EQ) and not n(0, PM)


def test_kunneth_split_matches_ring_slices():
    # the split table of the point must agree with the slice table of the
    # flip-circle ring itself
    split = kunneth_split("K")
    direct = k_table_of_ring("kk_circle_flip")
    for level in (0, 1):
        for variant in (EQ, PM):
            assert split(level, variant) == direct(level, variant)


def test_kunneth_h_theory():
    table = kunneth_split("H")
    assert str(table(1, PM)) == "Z/2 x Z"
    assert str(table(2, EQ)) == "Z/2 x Z/2"
    assert table(3, EQ).is_trivial()
    # matches the slice table of the flip-circle ring
    direct = h_table_of_ring("hh_circle_flip")
    for level in range(9):
        for variant in (EQ, PM):
            assert table(level, variant) == direct(level, variant)


def test_kunneth_split_rejects_an_unknown_theory():
    for theory in ("k", "h", "KO", ""):
        with pytest.raises(ValueError, match="unknown theory"):
            kunneth_split(theory)


# --- group cohomology --------------------------------------------------------------------


def test_group_cohomology_formulas():
    for n in range(11):
        expected0 = "Z" if n == 0 else ("Z/2" if n % 2 == 0 else "0")
        expected1 = "Z/2" if n % 2 == 1 else "0"
        assert str(group_cohomology_z2(0, n)) == expected0
        assert str(group_cohomology_z2(1, n)) == expected1
    # no cochains below degree 0
    for m in (0, 1):
        assert group_cohomology_z2(m, -1).is_trivial() and group_cohomology_z2(m, -2).is_trivial()


def test_group_cohomology_period_two():
    for m in (0, 1):
        for n in range(1, 9):
            assert group_cohomology_z2(m, n) == group_cohomology_z2(m, n + 2)


def test_group_cohomology_bad_twist():
    with pytest.raises(ValueError):
        group_cohomology_z2(2, 0)


# --- total-space assembly ------------------------------------------------------------------


def test_gysin_trivial_bundle_over_circle():
    ring = build_ring("hh_circle_trivial")
    table = gysin_cohomology(ring, ring.zero())
    assert str(table(3, EQ)) == "Z/2 x Z/2"
    # cross-check: the same total space through the split product table;
    # the zero Euler class splits the sequence, so no entry raises
    split = split_table(h_table_of_ring("hh_circle_trivial"))
    for level in range(9):
        for variant in (EQ, PM):
            assert table(level, variant) == split(level, variant)


def test_gysin_twisted_bundle_over_circle():
    ring = build_ring("hh_circle_trivial")
    euler = parse_expression(ring, "t12*e")
    table = gysin_cohomology(ring, euler)
    assert str(table(3, EQ)) == "Z/2"
    assert str(table(0, EQ)) == "Z"


def test_gysin_over_point_gives_flip_circle():
    ring = build_ring("hh_point")
    table = gysin_cohomology(ring, ring.zero())
    flip = build_ring("hh_circle_flip")
    for level in range(9):
        for variant in (EQ, PM):
            expected = degree_component(flip, Degree(level, variant)).group
            assert table(level, variant) == expected


def test_gysin_universal_total_space():
    ring = build_ring("hh_universal_base")
    table = gysin_cohomology(ring, ring.gen("c"))
    expected = {
        (0, EQ): "Z", (1, EQ): "0", (2, EQ): "Z/2", (3, EQ): "Z/2 x Z", (4, EQ): "Z/2 x Z",
        (0, PM): "0", (1, PM): "Z/2", (2, PM): "Z", (3, PM): "Z/2",
    }
    for key, value in expected.items():
        assert str(table(*key)) == value, key
    # the first undetermined extension, Z/2 by Z/2, is never resolved;
    # (3, eq) above reads fine, since its kernel part Z is free
    for _ in range(2):
        with pytest.raises(ExtensionError, match=r"Z/2 by Z/2 in degree \(4, pm\)"):
            table(4, PM)


def test_tables_read_past_the_levels_of_their_callers():
    # a degree is worked out when it is read, so there is no window past
    # which a table reads 0
    flip = build_ring("hh_circle_flip")
    for level in (7, 8, 12):
        for variant in (EQ, PM):
            expected = degree_component(flip, Degree(level, variant)).group
            assert kunneth_split("H")(level, variant) == expected
    assert str(kunneth_split("H")(7, PM)) == "Z/2 x Z/2"
    ring = build_ring("hh_circle_trivial")
    twisted = gysin_cohomology(ring, parse_expression(ring, "t12*e"))
    assert str(twisted(5, EQ)) == "Z/2"
    # the base is Z/2 in every degree from 2 on, and the total space
    # repeats with period 2 from degree 3 on
    for level in range(5, 11):
        for variant in (EQ, PM):
            assert twisted(level, variant) == twisted(level - 2, variant)


def test_each_entry_is_worked_out_once_per_table(monkeypatch):
    # a K-table classifies each slice of its ring once, when it is first
    # read; its levels count modulo the ring's period
    classified = []
    classify = transforms.rmodule_classify
    monkeypatch.setattr(transforms, "rmodule_classify",
                        lambda module: classified.append(module.rank) or classify(module))
    point = k_table_of_ring("kk_point")
    assert classified == []
    for level in (0, 1, 2, 3, -1, 0):
        for variant in (EQ, PM):
            point(level, variant)
    # the ranks of the four slices: (1, eq) and (0, pm) are 0, R/J and R
    assert sorted(classified) == [0, 0, 1, 2]
    # a split table reads the table under it, which works nothing out again
    split = split_table(point)
    for _ in range(2):
        for level in range(4):
            split(level, EQ)
            split(level, PM)
    assert len(classified) == 4
    # a fresh table works its slices out again
    k_table_of_ring("kk_point")(0, EQ)
    assert len(classified) == 5

    # a Gysin table builds each degree's data when it is first read, once
    built = []
    degree_data = transforms.gysin_degree_data
    monkeypatch.setattr(transforms, "gysin_degree_data",
                        lambda ring, euler, level, variant: built.append((level, variant))
                        or degree_data(ring, euler, level, variant))
    ring = build_ring("hh_circle_trivial")
    twisted = gysin_cohomology(ring, parse_expression(ring, "t12*e"))
    assert built == []
    for _ in range(3):
        for level in range(6):
            twisted(level, EQ)
    assert built == [(level, EQ) for level in range(6)]
    # an open extension raises on every read, from data built once
    universal = build_ring("hh_universal_base")
    table = gysin_cohomology(universal, universal.gen("c"))
    for _ in range(2):
        with pytest.raises(ExtensionError):
            table(4, PM)
    assert built[6:] == [(4, PM)]


def test_a_k_table_entry_is_the_callers_own():
    table = kunneth_split("K")
    table(0, EQ)["R"] += 5
    table(1, EQ)["R/J"] = 1
    for read in (table, kunneth_split("K")):
        assert read(0, EQ) == {"R": 1, "R/J": 1}
        assert not read(1, EQ)
    point = k_table_of_ring("kk_point")
    point(0, EQ).clear()
    assert point(0, EQ) == point(2, EQ) == {"R": 1}


def test_gysin_rejects_bad_euler_class():
    ring = build_ring("hh_circle_trivial")
    with pytest.raises(ValueError):
        gysin_cohomology(ring, ring.gen("e"))


# --- connecting maps -------------------------------------------------------------------------


def test_delta_squared_laws():
    ring = build_ring("kk_circle_flip")
    t = ring.gen("t")
    sigma = ring.gen("sigma")
    for elem in t_basis().values():
        assert elem * sigma * sigma == (1 - t) * elem
    hh = build_ring("hh_circle_flip")
    t12 = hh.gen("t12")
    borel = t12 ** 2
    for mono in normal_monomials(hh, 3):
        elem = hh.element({mono: 1})
        assert elem * t12 * t12 == borel * elem


def test_w3_equals_delta_of_chern_class():
    ring = build_ring("hh_circle_trivial")
    chern = parse_expression(ring, "t12*e")
    assert ring.gen("t12") * chern == parse_expression(ring, "t12^2*e")
    assert not (ring.gen("t12") * chern).is_zero()
