import json
import shutil
from collections import Counter
from itertools import product
from math import prod

import pytest

from kdual.exact_abelian import (
    IntegerMatrix,
    RModule,
    multiset_group,
    relation_lattice,
    rmodule_classify,
)
from kdual.expressions import parse_expression
from kdual.graded_algebra import EQ, PM, Degree, degree_component
from kdual import tduality, transforms
from kdual.paper_rings import GOLDEN_DIR_ENV, CertificationError, build_ring, golden_path
from kdual.tduality import (
    PRINTED_MV_TABLES,
    AmbiguityError,
    BaseSpace,
    DualityTable,
    InvariantError,
    Pair,
    RealCircleBundle,
    TwistedKTable,
    canonical_pair,
    clutching_multiplier,
    dual_pair_report,
    enumerate_bundles,
    enumerate_pair_classes,
    gauge_orbit,
    get_base,
    mv_k_groups,
    mv_status,
    NoCandidateError,
    NoSolutionError,
    pair_from_expressions,
    search_clutchings,
    tdual,
    twisted_k_mv,
    TDualResult,
    TotalSpaceH3,
    _kernel_module,
    _slice_coordinates,
    _total_space,
    _twist_invariants,
)
from kdual.transforms import flip_circle_slices, gysin_degree_data


# --- bundles and total spaces -----------------------------------------------------


def test_bundles_over_builtin_bases():
    assert len(enumerate_bundles(get_base("point"))) == 1
    circle_bundles = enumerate_bundles(get_base("circle_trivial"))
    assert len(circle_bundles) == 2
    assert sum(1 for b in circle_bundles if b.is_trivial()) == 1


def test_an_unknown_base_is_named_by_the_base_space():
    message = r"^base must be one of \('point', 'circle_trivial'\)$"
    with pytest.raises(ValueError, match=message):
        BaseSpace("torus")
    with pytest.raises(ValueError, match=message):
        DualityTable("torus")


def test_a_chern_class_of_the_wrong_degree_is_refused():
    base = get_base("circle_trivial")
    with pytest.raises(ValueError, match=r"must be homogeneous of degree \(2, pm\)"):
        RealCircleBundle.from_chern(base, base.ring.gen("e"))
    assert RealCircleBundle.from_chern(base, base.ring.zero()).is_trivial()


def test_total_space_class_counts():
    base = get_base("circle_trivial")
    trivial, twisted = sorted(enumerate_bundles(base), key=lambda b: b.chern_coords)
    assert len(_total_space(trivial).elements()) == 4
    assert len(_total_space(twisted).elements()) == 2
    point_bundle = enumerate_bundles(get_base("point"))[0]
    assert len(_total_space(point_bundle).elements()) == 1


def test_a_pair_is_its_bundle_and_two_coordinate_vectors():
    assert Pair.__slots__ == ("bundle", "q", "k")
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    same = Pair(pair.bundle, pair.q, pair.k)
    assert same == pair and hash(same) == hash(pair)
    twisted = pair_from_expressions("circle_trivial", "t12*e").bundle
    assert Pair(twisted, pair.q, pair.k) != pair


def test_pushforward_and_pullback_parts():
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    assert str(pair.pushforward()) == "t12*e"
    pulled = pair_from_expressions("circle_trivial", "0", "t12^2*e", "0")
    assert pulled.pushforward().is_zero()


def _slice_vectors(slice_):
    return list(product(*(range(order) for order in slice_.orders)))


@pytest.mark.parametrize("base_name", tduality.BASE_NAMES)
def test_total_space_coordinates_are_base_slice_coordinates(base_name):
    base = get_base(base_name)
    for bundle in enumerate_bundles(base):
        total = _total_space(bundle)
        chern = bundle.chern()
        data = gysin_degree_data(base.ring, chern, 3, EQ)
        orders = data.cokernel_group().invariant_factors + data.kernel_group().invariant_factors
        assert 0 not in orders
        elements = total.elements()
        assert len(set(elements)) == len(elements) == prod(orders)
        for h in elements:
            down = h.pushforward()
            assert (chern * down).is_zero()
            assert h.k == total.kernel_slice.reduce_coords(total.kernel_slice.coords(down))
            # the coset of q, by cup products in the ring
            pulled = total.base_slice.element(h.q)
            coset = {base.h3eq.coords(pulled + chern * base.h1pm.element(a))
                     for a in _slice_vectors(base.h1pm)}
            assert h.q == min(coset), (bundle, h)


def test_section_class_rejects_a_class_that_is_not_a_push_forward():
    total = TotalSpaceH3(pair_from_expressions("circle_trivial", "t12*e").bundle)
    fiber = total.kernel_slice.element((1,))
    assert total.section_class(fiber).pushforward() == fiber
    # over the built-in bases every degree-(2, pm) class is a push-forward,
    # so shrink the kernel to the relations of the slice
    total._kernel_vectors = relation_lattice(total.kernel_slice.orders)
    with pytest.raises(NoSolutionError, match="t12\\*e is not a push-forward over E1"):
        total.section_class(fiber)
    assert total.section_class(fiber.ring.zero()) == total.zero()


def test_listing_the_classes_of_a_free_slice_is_an_error():
    # Z.c has infinitely many classes; listing none would read as "no class"
    free = degree_component(build_ring("hh_cp_infty"), Degree(2, PM))
    with pytest.raises(ValueError, match=r"hh_cp_infty: the slice at \(2, pm\) has a free "
                                         "monomial"):
        _slice_coordinates(free)
    torsion = degree_component(build_ring("hh_cp_infty"), Degree(2, EQ))
    assert _slice_coordinates(torsion) == [(0,), (1,)]


def test_adding_a_pulled_back_class_moves_only_q():
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    eta = parse_expression(pair.bundle.base.ring, "t12^2*e")
    shifted = pair.add_pullback(eta)
    assert shifted.bundle == pair.bundle
    assert shifted.k == pair.k and shifted.q != pair.q
    assert shifted == pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    assert shifted.add_pullback(eta) == pair


# --- gauge orbits -------------------------------------------------------------------


def test_orbit_is_singleton_when_pushforward_vanishes():
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "0")
    assert len(gauge_orbit(pair)) == 1
    zero_pair = pair_from_expressions("circle_trivial", "0", "0", "0")
    assert len(gauge_orbit(zero_pair)) == 1


def test_orbit_of_fiber_class_has_two_elements():
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    orbit = gauge_orbit(pair)
    assert len(orbit) == 2
    shifted = pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    assert shifted in orbit
    assert canonical_pair(shifted) == canonical_pair(pair)


def test_orbits_over_point_are_singletons():
    bundle = enumerate_bundles(get_base("point"))[0]
    for pair in _total_space(bundle).elements():
        assert gauge_orbit(pair) == {pair}


# --- the dual -------------------------------------------------------------------------


def test_trivial_pair_is_self_dual():
    pair = pair_from_expressions("circle_trivial", "0", "0", "0")
    result = tdual(pair)
    assert result.dual == pair
    cert = dict(result.certificate)
    assert cert["correspondence"] == "base-parts-agree"
    assert cert["cup_product"] == "0"


def test_pulled_back_twist_is_self_dual():
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "0")
    result = tdual(pair)
    assert canonical_pair(result.dual) == canonical_pair(pair)


def test_several_orbits_over_a_nontrivial_bundle_are_ambiguous(monkeypatch):
    # with every gauge orbit cut down to one class, the two candidate duals
    # of (E1[t12*e], 0) stay apart, and only trivial bundles have a rule
    # that chooses between orbits
    monkeypatch.setattr(tduality, "gauge_orbit", lambda pair: frozenset({pair}))
    with pytest.raises(AmbiguityError, match="several gauge orbits"):
        tdual(pair_from_expressions("circle_trivial", "t12*e"))


def test_fiber_twist_dualizes_to_twisted_bundle():
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    result = tdual(pair)
    assert not result.dual.bundle.is_trivial()
    assert result.dual.pushforward().is_zero()
    cert = dict(result.certificate)
    assert cert["chern_of_dual"] == "t12*e"
    assert cert["correspondence"] == "gauge-orbit-unique"


def test_twisted_bundle_with_class_is_self_dual():
    pair = pair_from_expressions("circle_trivial", "t12*e", "0", "t12*e")
    result = tdual(pair)
    assert canonical_pair(result.dual) == canonical_pair(pair)


def test_certificate_identities():
    for base_name in ("point", "circle_trivial"):
        for cls in enumerate_pair_classes(base_name):
            pair = cls.representative
            result = tdual(pair)
            cert = dict(result.certificate)
            assert cert["cup_product"] == "0"
            assert str(result.dual.pushforward()) == str(pair.bundle.chern())
            assert str(pair.pushforward()) == cert["chern_of_dual"]


# --- invariant checks (named errors, so that they survive python -O) --------------


def test_tdual_checks_pushforward_of_the_dual_class(monkeypatch):
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    original = Pair.pushforward

    def skewed(element):
        # the dual bundle is twisted, so only the final check sees this
        pushed = original(element)
        return pushed if element.bundle == pair.bundle else pushed + element.bundle.chern()

    monkeypatch.setattr(Pair, "pushforward", skewed)
    with pytest.raises(InvariantError, match="not to the Chern class"):
        tdual(pair)


def test_tdual_checks_the_chern_classes_cup_to_zero(monkeypatch):
    # every offered class pushes forward into ker(e cup -), so the cup is
    # zero unless the source's Chern class is forged: here it becomes 1
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    assert dict(tdual(pair).certificate)["cup_product"] == "0"
    monkeypatch.setattr(RealCircleBundle, "chern", lambda bundle: bundle.base.ring.one())
    with pytest.raises(InvariantError, match="^the two Chern classes do not cup to zero$"):
        tdual(pair)


def test_kernel_module_checks_action_preserves_kernel():
    # the kernel of [1, -1] is spanned by (1, 1), which the action sends to (1, 0)
    op = IntegerMatrix.from_rows([[1, -1]])
    action = IntegerMatrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(InvariantError, match="does not preserve the kernel"):
        _kernel_module(op, action)


def test_mv_k_groups_checks_the_clutching_commutes_with_t(monkeypatch):
    g_even, g_odd, t_even, t_odd = tduality._clutching_matrices(False, "1")
    swap = IntegerMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert swap @ t_odd != t_odd @ swap
    monkeypatch.setattr(tduality, "_clutching_matrices",
                        lambda flip, multiplier: (g_even, swap, t_even, t_odd))
    with pytest.raises(InvariantError, match="does not commute with t"):
        tduality._mv_k_groups.__wrapped__(False, "1")


def test_enumeration_checks_duality_is_an_involution(monkeypatch):
    zero = pair_from_expressions("circle_trivial", "0")
    monkeypatch.setattr(tduality, "tdual", lambda pair: TDualResult(zero, ()))
    with pytest.raises(InvariantError, match="not an involution"):
        enumerate_pair_classes("circle_trivial")


def test_enumeration_and_involution():
    classes = enumerate_pair_classes("circle_trivial")
    assert len(classes) == 5
    for cls in classes:
        assert classes[cls.dual_index].dual_index == cls.index
    point_classes = enumerate_pair_classes("point")
    assert len(point_classes) == 1
    assert point_classes[0].dual_index == 0


def test_duality_table_agrees_with_the_pairwise_functions():
    table = tduality.DualityTable("circle_trivial")
    assert len(table.pairs) == 6
    assert set(table._canonical) == set(table.pairs)
    for pair in table.pairs:
        assert table.canonical(pair) == canonical_pair(pair)
        assert table.dual(pair) == tdual(pair).dual
    assert table.classes == enumerate_pair_classes("circle_trivial")
    assert table.report() == dual_pair_report("circle_trivial")


@pytest.mark.parametrize("base_name", tduality.BASE_NAMES)
def test_every_dual_and_table_entry_is_its_canonical_pair(base_name):
    # `canonical_pair` is the one choice of representative: `tdual` returns
    # it, and the table's memo holds it for every raw pair
    table = DualityTable(base_name)
    for pair in table.pairs:
        dual = tdual(pair).dual
        assert dual == canonical_pair(dual)
        assert table.canonical(pair) == canonical_pair(pair)
        assert table.canonical(dual) == dual


def test_one_verify_all_dualizes_each_raw_pair_once(monkeypatch):
    from kdual.suites import run_suite
    calls = []
    original = tduality.tdual

    def counting(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(tduality, "tdual", counting)
    report = run_suite("all")
    assert not report.failed
    assert 0 < len(calls) <= 7
    assert len(set(calls)) == len(calls)


def test_five_line_report():
    report = dual_pair_report("circle_trivial")
    lines = [(line["pair"], line["dual"]) for line in report["relations"]]
    assert lines == [
        ("(E0, 0)", "(E0, 0)"),
        ("(E0, h(t12*e))", "(E1[t12*e], 0)"),
        ("(E0, pi*(t12^2*e))", "(E0, pi*(t12^2*e))"),
        ("(E0, pi*(t12^2*e) + h(t12*e))", "(E1[t12*e], 0)"),
        ("(E1[t12*e], h(t12*e))", "(E1[t12*e], h(t12*e))"),
    ]


def test_report_is_deterministic():
    first = json.dumps(dual_pair_report("circle_trivial"), sort_keys=True)
    second = json.dumps(dual_pair_report("circle_trivial"), sort_keys=True)
    assert first == second


def test_shift_equivariance():
    assert DualityTable("circle_trivial").shift_equivariant()
    assert DualityTable("point").shift_equivariant()


# --- twisted K-groups -------------------------------------------------------------------


def _modules(table: TwistedKTable, degree, side):
    return dict(table.derived[degree, side])


def test_untwisted_product_groups():
    pair = pair_from_expressions("circle_trivial", "0", "0", "0")
    table = twisted_k_mv(pair)
    for degree in (0, 1):
        for side in (EQ, PM):
            assert _modules(table, degree, side) == {"R": 1, "R/J": 1}
            assert table.status(degree, side) == "derived"


def test_fiber_twisted_groups():
    pair = pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    table = twisted_k_mv(pair)
    assert _modules(table, 0, EQ) == {"R/I": 1, "R/J": 1}
    assert _modules(table, 1, EQ) == {"R": 1}
    assert _modules(table, 0, PM) == {"R/I": 1, "R/J": 1}
    assert _modules(table, 1, PM) == {"R": 1}
    assert all(table.status(*slot) == "derived" for slot in table.derived)
    # gauge-equivalent twist gives the same table
    shifted = pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    shifted_table = twisted_k_mv(shifted)
    assert (shifted_table.derived, shifted_table.printed) == (table.derived, table.printed)


def test_base_twisted_groups_and_statuses():
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "0")
    table = twisted_k_mv(pair)
    assert _modules(table, 0, EQ) == {"R/I": 1}
    assert _modules(table, 1, PM) == {"R/I": 1}
    assert table.status(0, EQ) == "derived"
    assert table.status(1, PM) == "derived"
    # the difference map derives R/I + I/2I where the recorded table says
    # R/J + I/2I; underlying groups agree, so the record is carried as an
    # assertion rather than a derivation
    assert _modules(table, 1, EQ) == {"R/I": 1, "I/2I": 1}
    assert _modules(table, 0, PM) == {"R/I": 1, "I/2I": 1}
    assert table.status(1, EQ) == "paper-asserted"
    assert table.status(0, PM) == "paper-asserted"


def test_twisted_bundle_groups():
    untwisted = pair_from_expressions("circle_trivial", "t12*e", "0", "0")
    table = twisted_k_mv(untwisted)
    assert _modules(table, 0, EQ) == {"R": 1}
    assert _modules(table, 1, EQ) == {"R/I": 1, "R/J": 1}
    twisted = pair_from_expressions("circle_trivial", "t12*e", "0", "t12*e")
    table = twisted_k_mv(twisted)
    for degree in (0, 1):
        for side in (EQ, PM):
            assert _modules(table, degree, side) == {"R/I": 1}
            assert table.status(degree, side) == "derived"


def test_mv_requires_circle_base():
    bundle = enumerate_bundles(get_base("point"))[0]
    with pytest.raises(ValueError, match="for the circle base"):
        twisted_k_mv(_total_space(bundle).zero())


def test_twisted_k_tables_own_their_dicts():
    # a caller may change one table's modules without touching the cached
    # groups, the printed tables or the next table
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "0")
    key = _twist_invariants(pair)
    printed = {slot: dict(modules) for slot, modules in PRINTED_MV_TABLES[key].items()}
    table = twisted_k_mv(pair)
    before = table.to_json()
    for modules in (table.derived, table.printed):
        modules[0, EQ]["R/I"] += 1
        modules[1, PM].clear()
    assert table.to_json() != before
    assert twisted_k_mv(pair).to_json() == before
    assert PRINTED_MV_TABLES[key] == printed


def test_clutching_search_agrees_with_the_rule():
    search = search_clutchings()
    assert set(search) == set(PRINTED_MV_TABLES)
    for key in PRINTED_MV_TABLES:
        assert clutching_multiplier(key) in search[key], key
    # the trivial bundle with no twist admits exactly one clutching
    assert search[(False, 0, 0)] == ["1"]
    # the base twist is forced as well
    assert search[(False, 1, 0)] == ["t"]


PINNED_SEARCH = {
    (False, 0, 0): ["1"], (False, 1, 0): ["t"], (False, 0, 1): ["L", "t*L"],
    (False, 1, 1): ["L", "t*L"], (True, 0, 0): ["1", "t"], (True, 0, 1): ["L", "t*L"],
}


def test_clutching_search_is_pinned():
    search = search_clutchings()
    assert search == PINNED_SEARCH
    assert list(search) == list(PINNED_SEARCH)


def test_clutching_search_ranks_by_derived_slots(monkeypatch):
    # "1" agrees only at group level, "L" not at all, "t" and "t*L" exactly
    derived = {"1": {"R/I": 1, "I/2I": 1}, "t": {"R/J": 1, "I/2I": 1},
               "L": {"R": 1}, "t*L": {"R/J": 1, "I/2I": 1}}
    monkeypatch.setattr(tduality, "PRINTED_MV_TABLES",
                        {(False, 0, 0): {(0, EQ): {"R/J": 1, "I/2I": 1}}})
    monkeypatch.setattr(tduality, "mv_k_groups",
                        lambda flip, multiplier: {(0, EQ): Counter(derived[multiplier])})
    assert search_clutchings() == {(False, 0, 0): ["t", "t*L"]}


def test_mv_status_rule():
    assert mv_status({"R": 1, "R/J": 1}, Counter({"R/J": 1, "R": 1})) == "derived"
    assert mv_status({"R/J": 1, "I/2I": 1}, Counter({"R/I": 1, "I/2I": 1})) == "paper-asserted"
    assert mv_status({"R": 2}, Counter({"R": 1, "R/J": 1})) == "mismatch"


def test_mismatch_path(monkeypatch):
    # no multiplier derives (R)^2, not even at the level of groups
    monkeypatch.setitem(PRINTED_MV_TABLES[(False, 0, 0)], (0, EQ), {"R": 2})
    pair = pair_from_expressions("circle_trivial", "0")
    table = twisted_k_mv(pair)
    assert table.status(0, EQ) == "mismatch"
    assert table.printed_modules(0, EQ) == Counter({"R": 2})
    assert table.status(1, EQ) == "derived"
    with pytest.raises(NoCandidateError, match=r"\(False, 0, 0\)"):
        search_clutchings()
    monkeypatch.setattr(tduality, "search_clutchings", lambda: PINNED_SEARCH)
    from kdual.suites import run_suite
    report = run_suite("tdual")
    checks = {c.id: c for c in report.checks}
    entry = checks["K[(E0, 0)][0,eq]"]
    assert (entry.status, entry.expected, entry.actual) == ("fail", "(R)^2", "R + R/J")
    status = checks["K[(E0, 0)][0,eq]-status"]
    assert (status.status, status.actual) == ("fail", "mismatch")
    assert [c.id for c in report.failed] == ["K[(E0, 0)][0,eq]", "K[(E0, 0)][0,eq]-status"]
    assert report.exit_code == 1


def test_derived_tables_match_printed_at_group_level():
    for key, printed in PRINTED_MV_TABLES.items():
        derived = mv_k_groups(key[0], clutching_multiplier(key))
        for slot in printed:
            assert multiset_group(printed[slot]) == multiset_group(derived[slot]), (key, slot)


def test_golden_dir_switch_reaches_the_tduality_caches(tmp_path, monkeypatch):
    shutil.copy(golden_path("tables.json"), tmp_path / "tables.json")
    tables = json.loads((tmp_path / "tables.json").read_text())
    tables["1"]["rows"]["L"]["fixed"][1] = [0, 0]  # L is no longer a unit there
    (tmp_path / "tables.json").write_text(json.dumps(tables))

    shipped = mv_k_groups(False, "L")
    cached = tduality._mv_k_groups(False, "L")
    shipped_base = get_base("circle_trivial")
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
    with pytest.raises(CertificationError):
        build_ring("kk_circle_flip")
    with pytest.raises(CertificationError):
        mv_k_groups(False, "L")
    with pytest.raises(CertificationError):
        flip_circle_slices()
    # rings that the oracle does not certify are rebuilt too, and every
    # cache hands out the ring build_ring now returns
    assert get_base("circle_trivial").ring is build_ring("hh_circle_trivial")
    bundle = enumerate_bundles(get_base("circle_trivial"))[0]
    assert _total_space(bundle).base_slice.ring is build_ring("hh_circle_trivial")
    monkeypatch.delenv(GOLDEN_DIR_ENV)
    assert tduality._mv_k_groups(False, "L") is cached
    assert mv_k_groups(False, "L") == shipped
    assert mv_k_groups(flip=False, multiplier="L") == shipped
    assert get_base("circle_trivial") is shipped_base


def _clutching_matrices_by_ring_arithmetic(flip, multiplier):
    """The comparison and t on the even and odd slices, rebuilt for one
    clutching from ring arithmetic, as before the operators were derived
    once."""
    from kdual.graded_algebra import apply_ring_hom
    from kdual.paper_rings import kk_flip_substitution
    ring, even, odd = flip_circle_slices()
    t = ring.gen("t")
    line = ring.one() - ring.gen("sigma") * ring.gen("chi")
    mult = {"1": ring.one(), "t": t, "L": line, "t*L": t * line}[multiplier]

    def comparison(element):
        if flip:
            element = apply_ring_hom(ring, ring, kk_flip_substitution(), element)
        return mult * element

    return (even.matrix(comparison), odd.matrix(comparison),
            even.matrix(lambda e: t * e), odd.matrix(lambda e: t * e))


CLUTCHINGS = [(flip, m) for flip in (False, True) for m in tduality.MULTIPLIER_NAMES]


@pytest.mark.parametrize("flip,multiplier", CLUTCHINGS)
def test_clutching_operators_compose_to_the_ring_arithmetic(flip, multiplier):
    assert (tduality._clutching_matrices(flip, multiplier)
            == _clutching_matrices_by_ring_arithmetic(flip, multiplier))


def test_clutching_rejects_unknown_multiplier():
    with pytest.raises(ValueError, match="multiplier must be one of"):
        tduality._clutching_matrices(False, "sigma")


_R, _RI, _RJ, _I2I = "R", "R/I", "R/J", "I/2I"
MV_GROUPS = {
    (False, "1"): [{_R: 1, _RJ: 1}] * 4,
    (False, "t"): [{_RI: 1}, {_RI: 1, _I2I: 1}, {_RI: 1, _I2I: 1}, {_RI: 1}],
    (False, "L"): [{_RI: 1, _RJ: 1}, {_RI: 1, _RJ: 1}, {_R: 1}, {_R: 1}],
    (False, "t*L"): [{_RI: 1, _RJ: 1}, {_RI: 1, _RJ: 1}, {_R: 1}, {_R: 1}],
    (True, "1"): [{_R: 1}, {_R: 1}, {_RI: 1, _RJ: 1}, {_RI: 1, _RJ: 1}],
    (True, "t"): [{_R: 1}, {_R: 1}, {_RI: 1, _RJ: 1}, {_RI: 1, _RJ: 1}],
    (True, "L"): [{_RI: 1}] * 4,
    (True, "t*L"): [{_RI: 1}] * 4,
}


@pytest.mark.parametrize("flip,multiplier", CLUTCHINGS)
def test_mv_k_groups_of_every_clutching(flip, multiplier):
    slots = [(0, EQ), (0, PM), (1, EQ), (1, PM)]
    derived = mv_k_groups(flip, multiplier)
    assert set(derived) == set(slots)
    assert [dict(derived[slot]) for slot in slots] == MV_GROUPS[(flip, multiplier)]


def test_mv_k_groups_hands_out_copies():
    groups = mv_k_groups(False, "1")
    groups[(0, EQ)]["R"] += 5
    del groups[(1, PM)]
    again = mv_k_groups(False, "1")
    assert again[(0, EQ)] == Counter({_R: 1, _RJ: 1})
    assert set(again) == {(0, EQ), (0, PM), (1, EQ), (1, PM)}
    assert again[(0, EQ)] is not groups[(0, EQ)]


def _difference_map(g):
    """(a, b) -> (a - b, a - g(b)) on two copies of the slice."""
    ident = IntegerMatrix.identity(g.rows)
    return ident.hstack(ident.neg()).vstack(ident.hstack(g.neg()))


def _mv_k_groups_by_difference_map(flip, multiplier):
    """The four groups read off the two-arc difference map on two copies of
    each slice, with t acting on both copies."""
    g_even, g_odd, t_even, t_odd = tduality._clutching_matrices(flip, multiplier)
    out = {}
    for g, t, kernel_slot, cokernel_slot in ((g_even, t_even, (0, EQ), (1, EQ)),
                                             (g_odd, t_odd, (1, PM), (0, PM))):
        delta = _difference_map(g)
        action = IntegerMatrix.block_diagonal(t, t)
        out[kernel_slot] = _kernel_module(delta, action)
        out[cokernel_slot] = rmodule_classify(RModule(delta.rows, delta, action))
    return out


@pytest.mark.parametrize("flip,multiplier", CLUTCHINGS)
def test_mv_k_groups_match_the_difference_map(flip, multiplier):
    assert mv_k_groups(flip, multiplier) == _mv_k_groups_by_difference_map(flip, multiplier)


def test_module_count_statuses():
    derived_exact = 0
    asserted = 0
    for key, printed in PRINTED_MV_TABLES.items():
        derived = mv_k_groups(key[0], clutching_multiplier(key))
        for slot in printed:
            if Counter(printed[slot]) == derived[slot]:
                derived_exact += 1
            else:
                asserted += 1
    assert derived_exact == 22
    assert asserted == 2


def test_theorem_T():
    assert DualityTable("point").theorem_T()
    assert DualityTable("circle_trivial").theorem_T()


@pytest.mark.parametrize("base_name", tduality.BASE_NAMES)
def test_theorem_T_fails_on_a_wrong_transform(monkeypatch, base_name):
    *rest, matrix = transforms._transform()
    rows = [list(matrix.row(i)) for i in range(matrix.rows)]
    rows[0][4] = 2
    wrong = (*rest, IntegerMatrix.from_rows(rows))
    monkeypatch.setattr(transforms, "_transform", lambda: wrong)
    assert not DualityTable(base_name).theorem_T()


def test_theorem_T_witnesses_over_the_circle():
    """For each class over the circle, the powers k in 1..8 with
    T^k G = G' T^k, G the class's clutching and G' its dual's, with T^k
    formed by repeated multiplication."""
    transform = transforms._transform()[-1]
    powers = [IntegerMatrix.identity(transform.rows)]
    for _ in range(8):
        powers.append(transform @ powers[-1])
    table = DualityTable("circle_trivial")
    witnesses = {}
    for cls in table.classes:
        g = tduality._clutching(cls.representative)
        g_dual = tduality._clutching(table.dual(cls.representative))
        witnesses[cls.label] = {k for k in range(1, 9) if powers[k] @ g == g_dual @ powers[k]}
    every = set(range(1, 9))
    assert witnesses == {
        "(E0, 0)": every,
        "(E0, h(t12*e))": {1, 5},
        "(E0, pi*(t12^2*e))": every,
        "(E1[t12*e], 0)": {3, 7},
        "(E1[t12*e], h(t12*e))": every,
    }


def _pair_duals_wrongly(monkeypatch, first, second):
    """Make `tdual` send the pairs over the circle labelled `first` and
    `second` to each other, so that duality stays an involution on classes
    but pairs them wrongly."""
    pairs = {pair.label(): pair for pair in DualityTable("circle_trivial").pairs}
    wrong = {pairs[first]: pairs[second], pairs[second]: pairs[first]}
    true_tdual = tduality.tdual

    def wrong_tdual(pair):
        result = true_tdual(pair)
        return TDualResult(wrong.get(pair, result.dual), result.certificate)

    monkeypatch.setattr(tduality, "tdual", wrong_tdual)


def _tdual_checks():
    from kdual.suites import run_suite
    return {c.id: c for c in run_suite("tdual").checks}


def test_theorem_T_fails_on_a_wrong_pairing(monkeypatch):
    # the pulled-back twist is a shift, so pairing (E0, 0) with
    # (E0, pi*(t12^2*e)) keeps shift equivariance, but not theorem T
    _pair_duals_wrongly(monkeypatch, "(E0, 0)", "(E0, pi*(t12^2*e))")
    table = DualityTable("circle_trivial")
    assert [c.dual_index for c in table.classes] == [2, 3, 0, 1, 4]
    assert not table.theorem_T()
    assert table.shift_equivariant()
    checks = _tdual_checks()
    assert checks["theorem-T-circle"].status == "fail"
    assert checks["shift-equivariance"].status == "pass"


def test_shift_equivariance_fails_on_a_wrong_pairing(monkeypatch):
    # the class (E1[t12*e], h(t12*e)) has no pulled-back part to shift
    _pair_duals_wrongly(monkeypatch, "(E0, 0)", "(E1[t12*e], h(t12*e))")
    table = DualityTable("circle_trivial")
    assert [c.dual_index for c in table.classes] == [4, 3, 2, 1, 0]
    assert not table.shift_equivariant()
    assert not table.theorem_T()
    checks = _tdual_checks()
    assert checks["shift-equivariance"].status == "fail"
    assert checks["theorem-T-circle"].status == "fail"


def test_clutching_search_check_fails_when_the_rule_is_not_best(monkeypatch):
    # the search now ranks only "1" best for the base twist, where the rule
    # gives "t"
    monkeypatch.setattr(tduality, "search_clutchings",
                        lambda: {**PINNED_SEARCH, (False, 1, 0): ["1"]})
    check = _tdual_checks()["clutching-search"]
    assert (check.status, check.expected, check.actual) == ("fail", "True", "False")


def test_theorem_T_on_representatives_explicitly():
    for cls in enumerate_pair_classes("circle_trivial"):
        pair = cls.representative
        dual = tdual(pair).dual
        table = twisted_k_mv(pair)
        dual_table = twisted_k_mv(dual)
        for n in (0, 1):
            assert table.derived[n, EQ] == dual_table.derived[(n - 1) % 2, PM]
            assert table.derived[n, PM] == dual_table.derived[(n - 1) % 2, EQ]


def test_uniqueness_witness():
    """Any two classes passing every certifiable dual constraint differ by
    the pull-back of (Chern class of the source) cup (a degree-(1, pm)
    class), checked exhaustively over the finite slices."""
    base = get_base("circle_trivial")
    for cls in enumerate_pair_classes("circle_trivial"):
        pair = cls.representative
        result = tdual(pair)
        dual = result.dual
        dual_total = dual.total()
        chern = pair.bundle.chern()
        # the full set of valid duals: same push-forward, and, when both
        # bundles are trivial, equal base parts (both push-forwards are zero,
        # so the pull-backs to the correspondence space differ by
        # pi^*(q - q'))
        valid = []
        for candidate in dual_total.elements():
            if candidate.pushforward() != chern:
                continue
            if pair.bundle.is_trivial() and dual.bundle.is_trivial():
                if candidate.q != pair.q:
                    continue
            valid.append(candidate)
        assert dual in valid
        # pairwise differences lie in pi^*(chern cup H^1_pm)
        reachable = {dual}
        for coords in [(0,), (1,)]:
            a = base.h1pm.element(coords)
            reachable.add(dual.add_pullback(chern * a))
        assert set(valid) <= reachable


def test_twist_invariants():
    pair = pair_from_expressions("circle_trivial", "0", "t12^2*e", "t12*e")
    assert _twist_invariants(pair) == (False, 1, 1)
    pair = pair_from_expressions("circle_trivial", "t12*e", "0", "t12*e")
    assert _twist_invariants(pair) == (True, 0, 1)
