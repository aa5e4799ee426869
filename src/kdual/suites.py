"""Named verification suites behind the `verify` command.

Each suite runs a list of independent checks and returns a Report whose
serialization is byte-stable across runs.  A check record carries a
symbolic reference label, a status ("pass", "fail" or "paper-asserted"),
and the expected and actual values as strings.  "paper-asserted" marks a
recorded table entry that is consistent with the exact sequences at the
level of underlying groups while its finer module label is recorded
as an assertion rather than derived; it does not fail the suite.
"""

from __future__ import annotations

import json
from collections import Counter

from .exact_abelian import format_multiset
from .expressions import parse_expression
from .frozen import Frozen
from .graded_algebra import (
    EQ,
    PM,
    Degree,
    apply_ring_hom,
    degree_component,
    normal_monomials,
    verify_ring_hom,
)
from .paper_rings import (
    FORGETFUL_MAPS,
    build_ring,
    dictionary,
    dictionary_failure,
    forget_variant_degree,
    forgetful_images,
    nonequivariant_ring,
    nu_substitution,
    verify_kk_flip_via_oracle,
    f_oracle,
    verify_f_injective,
    verify_relation_via_oracle,
    verify_tables_checksum,
)
from . import transforms
from . import tduality


class Check(Frozen):
    __slots__ = ("id", "reference", "status", "expected", "actual")
    id: str
    reference: str
    status: str  # pass | fail | paper-asserted
    expected: str
    actual: str

    def to_json(self):
        return {"id": self.id, "reference": self.reference, "status": self.status,
                "expected": self.expected, "actual": self.actual}


class Report(Frozen):
    __slots__ = ("suite", "checks")
    suite: str
    checks: tuple

    @property
    def failed(self):
        return [c for c in self.checks if c.status == "fail"]

    @property
    def exit_code(self):
        return 1 if self.failed else 0

    def to_json(self):
        return {
            "suite": self.suite,
            "passed": sum(1 for c in self.checks if c.status == "pass"),
            "paper_asserted": sum(1 for c in self.checks if c.status == "paper-asserted"),
            "failed": len(self.failed),
            "checks": [c.to_json() for c in self.checks],
        }

    def to_text(self):
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            lines.append(f"  [{c.status:>14}] {c.id}  ({c.reference})")
            if c.status == "fail":
                lines.append(f"        expected: {c.expected}")
                lines.append(f"        actual:   {c.actual}")
        lines.append(f"  {len(self.checks)} checks, {len(self.failed)} failed")
        return "\n".join(lines)


def _check(checks, id_, reference, expected, actual, asserted=False):
    expected_s, actual_s = str(expected), str(actual)
    if expected_s == actual_s:
        status = "paper-asserted" if asserted else "pass"
    else:
        status = "fail"
    checks.append(Check(id_, reference, status, expected_s, actual_s))


def _slice_summary(ring, level, variant):
    s = degree_component(ring, Degree(level, variant))
    return "0" if not s.dim else " + ".join(
        f"{'Z' if o == 0 else 'Z/' + str(o)}.{label}"
        for label, o in sorted(zip(s.labels, s.orders)))


# Low-degree tables of the built-in rings, frozen as label -> order maps
# per (level, variant).  Entries are sorted alphabetically by label.
RING_TABLES = {
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
        PM: ["0", "Z/2.t12", "Z.c", "Z/2.t12^3", "Z/2.t12^2*c", "Z/2.t12*c^2 + Z/2.t12^5"],
    },
    "hh_universal_base": {
        EQ: ["Z.1", "0", "Z/2.t12^2", "Z/2.t12*c + Z/2.t12*chat",
             "Z.c^2 + Z.chat^2 + Z/2.t12^4", "Z/2.t12^3*c + Z/2.t12^3*chat"],
        PM: ["0", "Z/2.t12", "Z.c + Z.chat", "Z/2.t12^3",
             "Z/2.t12^2*c + Z/2.t12^2*chat",
             "Z/2.t12*c^2 + Z/2.t12*chat^2 + Z/2.t12^5"],
    },
}

NONEQUIVARIANT_TABLES = {
    "h_point": ["Z.1", "0", "0", "0", "0", "0"],
    "h_circle": ["Z.1", "Z.e", "0", "0", "0", "0"],
    "h_cp_infty": ["Z.1", "0", "Z.c", "0", "Z.c^2", "0"],
}

KK_TABLES = {
    "kk_point": {(0, EQ): "Z.1 + Z.t", (1, EQ): "0",
                 (0, PM): "0", (1, PM): "Z.sigma"},
    "kk_circle_flip": {(0, EQ): "Z.1 + Z.sigma*chi + Z.t", (1, EQ): "0",
                       (0, PM): "0", (1, PM): "Z.chi + Z.sigma + Z.t*chi"},
    "kk_torus2": {(0, EQ): "Z.1 + Z.chi1*chi2 + Z.sigma*chi1 + Z.sigma*chi2"
                           " + Z.t + Z.t*chi1*chi2",
                  (1, EQ): "0", (0, PM): "0",
                  (1, PM): "Z.chi1 + Z.chi2 + Z.sigma + Z.sigma*chi1*chi2"
                           " + Z.t*chi1 + Z.t*chi2"},
    "k0_equiv_circle": {(0, EQ): "Z.1 + Z.ell + Z.t", (1, EQ): "0",
                        (0, PM): "0", (1, PM): "0"},
}


def suite_tables() -> Report:
    checks = []
    _check(checks, "golden-tables-checksum", "fixed-point table file",
           True, verify_tables_checksum())
    for name, columns in RING_TABLES.items():
        ring = build_ring(name)
        for variant, column in columns.items():
            for level, expected in enumerate(column):
                _check(checks, f"{name}[{level},{variant}]",
                       f"low-degree table of {name}", expected,
                       _slice_summary(ring, level, variant))
    for name, column in NONEQUIVARIANT_TABLES.items():
        ring = nonequivariant_ring(name)
        for level, expected in enumerate(column):
            _check(checks, f"{name}[{level}]", f"low-degree table of {name}",
                   expected, _slice_summary(ring, level, EQ))
    for name, slots in KK_TABLES.items():
        ring = build_ring(name)
        for (level, variant), expected in sorted(slots.items()):
            _check(checks, f"{name}[{level},{variant}]",
                   f"periodic table of {name}", expected,
                   _slice_summary(ring, level, variant))
    # forgetful maps are ring homomorphisms hitting the non-equivariant rows
    for name in FORGETFUL_MAPS:
        source = build_ring(name)
        target, images = forgetful_images(name)
        _check(checks, f"forgetful-{name}", "map forgetting the involution",
               True, verify_ring_hom(source, target, images, forget_variant_degree))
    return Report("tables", tuple(checks))


ORACLE_RELATIONS = (
    ("circle-L-squared", 1, "L^2", "C0"),
    ("circle-C1L", 1, "C1*L", "-L + C0 + C1"),
    ("torus-rel-1", 2, "(C0 + C1)*(C0 - L1)", "0"),
    ("torus-rel-2", 2, "(C0 + C1)*(C0 - L2)", "0"),
    ("torus-rel-3", 2, "(C0 - H)*(C1 - L1)", "0"),
    ("torus-rel-4", 2, "(C0 - H)*(C1 - L2)", "0"),
    ("torus-rel-5", 2, "(C0 - H)*(C1 - H)", "0"),
    ("torus-rel-6", 2, "(C0 - L1)*(C0 - L2)", "(C0 - C1)*(C0 - H)"),
    ("torus-pulled-back-square", 2, "L1^2", "C0"),
    ("3-torus-suspension", 3, "(C0 - H12)*(C0 - H13)", "(C0 - L1)*(C0 - H23)"),
    ("3-torus-mixed", 3, "(C0 - H12)*(C0 - L3)", "(C0 - L1)*(C0 - H23)"),
)


def _fiber_str(value):
    """The fibers a + bt of an oracle value at its fixed points."""
    return "(" + ", ".join(f"{a} + {b}t" for a, b in value.fixed_points()) + ")"


def suite_oracle() -> Report:
    checks = []
    for id_, n, lhs, rhs in ORACLE_RELATIONS:
        _check(checks, id_, f"restriction table on the {n}-torus",
               True, verify_relation_via_oracle(n, lhs, rhs))
    for n in (1, 2, 3):
        _check(checks, f"injectivity-{n}", "rank of the restriction map",
               True, verify_f_injective(n))
    # the printed sample values
    img = f_oracle(1, "L")
    _check(checks, "table-row-L", "circle table row L",
           "(0 + 1t, 1 + 0t)", _fiber_str(img))
    img = f_oracle(2, "H")
    _check(checks, "table-row-H", "2-torus table row H",
           "(0 + 1t, 1 + 0t, 1 + 0t, 1 + 0t)", _fiber_str(img))
    img = f_oracle(3, "H12*L3")
    _check(checks, "table-row-H12L3", "3-torus table row H12*L3",
           True, img == f_oracle(3, "H12L3"))
    # dictionaries are ring isomorphisms onto their images
    for name in ("circle", "torus2", "equiv_circle"):
        ring = build_ring(dictionary(name).ring_name)
        _check(checks, f"dictionary-{name}", "geometric dictionary is multiplicative",
               True, dictionary_failure(ring) is None)
    _check(checks, "flip-substitution", "deck flip against the 3-torus table",
           True, verify_kk_flip_via_oracle())
    return Report("oracle", tuple(checks))


T_EXPECTED = {"1": "t*chi", "t": "chi", "sigma*chi": "sigma - (1 - t)*chi",
              "chi": "1 - sigma*chi", "t*chi": "t + sigma*chi", "sigma": "-sigma*chi"}
T2_EXPECTED = {"1": "t + sigma*chi", "t": "1 - sigma*chi",
               "sigma*chi": "-1 + t + sigma*chi", "chi": "chi - sigma",
               "t*chi": "t*chi + sigma", "sigma": "chi - t*chi - sigma"}


def suite_transform() -> Report:
    checks = []
    ring = build_ring("kk_circle_flip")
    basis = transforms.t_basis()
    for label, elem in sorted(basis.items()):
        _check(checks, f"T({label})", "duality transform value",
               str(parse_expression(ring, T_EXPECTED[label])),
               str(transforms.t_transform(elem)))
    table2 = transforms.t_power_table(2)
    for label in sorted(basis):
        _check(checks, f"T^2({label})", "second power of the transform",
               str(parse_expression(ring, T2_EXPECTED[label])), str(table2[label]))
    t = ring.gen("t")
    table4 = transforms.t_power_table(4)
    table8 = transforms.t_power_table(8)
    _check(checks, "T^4-is-t", "fourth power is multiplication by t",
           True, all(table4[l] == t * basis[l] for l in basis))
    _check(checks, "T^8-is-identity", "eighth power is the identity",
           True, all(table8[l] == basis[l] for l in basis))
    _check(checks, "T^2-not-identity", "second power is not the identity",
           True, any(table2[l] != basis[l] for l in basis))
    _check(checks, "T-linearity", "transform is linear over Z[t]/(t^2-1)",
           True, all(transforms.t_transform(t * basis[l]) == t * transforms.t_transform(basis[l])
                     for l in basis))
    # push-forward values
    torus = build_ring("kk_torus2")
    _check(checks, "pushforward-chi1", "push-forward of chi1 along the second factor",
           "1", str(transforms.pushforward_torus2(2, torus.gen("chi1"))))
    _check(checks, "pushforward-chi1chi2", "push-forward of chi1*chi2",
           "chi", str(transforms.pushforward_torus2(2, torus.gen("chi1") * torus.gen("chi2"))))
    _check(checks, "pushforward-unit", "push-forward kills pulled-back units",
           "0", str(transforms.pushforward_torus2(2, torus.one())))
    # section property, on the odd slice
    _, _, odd = transforms.flip_circle_slices()
    _check(checks, "pushforward-section", "push-forward after the section is the identity",
           True, all(transforms.pushforward_torus2(1, transforms.suspension_section(e)) == e
                     for e in (ring.element({m: 1}) for m in odd.monomials)))
    # group cohomology from the periodic resolution
    expected0 = ["Z"] + ["Z/2" if n % 2 == 0 else "0" for n in range(1, 11)]
    expected1 = ["0"] + ["Z/2" if n % 2 == 1 else "0" for n in range(1, 11)]
    got0 = [str(transforms.group_cohomology_z2(0, n)) for n in range(11)]
    got1 = [str(transforms.group_cohomology_z2(1, n)) for n in range(11)]
    _check(checks, "group-cohomology-trivial", "cohomology of the order-2 group, untwisted",
           " ".join(expected0), " ".join(got0))
    _check(checks, "group-cohomology-twisted", "cohomology of the order-2 group, sign twist",
           " ".join(expected1), " ".join(got1))
    period_ok = all(
        str(transforms.group_cohomology_z2(m, n)) == str(transforms.group_cohomology_z2(m, n + 2))
        for m in (0, 1) for n in range(1, 9))
    _check(checks, "group-cohomology-period", "period two above degree zero",
           True, period_ok)
    # Kunneth split tables
    kt = transforms.kunneth_split("K")
    _check(checks, "kunneth-point-K", "split K-table of the flip circle",
           "R + R/J", format_multiset(Counter(dict(kt.entry(0, EQ).modules))))
    n2 = transforms.split_table(kt)
    n3 = transforms.split_table(n2)
    _check(checks, "kunneth-torus2", "split K-table of the 2-torus",
           "(R)^2 + (R/J)^2", format_multiset(Counter(dict(n2.entry(0, EQ).modules))))
    _check(checks, "kunneth-torus3", "split K-table of the 3-torus",
           "(R)^4 + (R/J)^4", format_multiset(Counter(dict(n3.entry(0, EQ).modules))))
    _check(checks, "kunneth-odd-vanishing", "odd equivariant K-groups vanish",
           "0 0 0", " ".join(str(tbl.entry(1, EQ).group) for tbl in (kt, n2, n3)))
    ht = transforms.kunneth_split("H")
    _check(checks, "kunneth-point-H", "split cohomology of the flip circle",
           "Z/2 x Z", str(ht.entry(1, PM).group))
    # connecting maps: cup product with the degree-(1, pm) class
    sigma = ring.gen("sigma")
    _check(checks, "delta-squared-K", "double connecting map is 1 - t",
           True, all(e * sigma * sigma == (1 - t) * e for e in basis.values()))
    hh = build_ring("hh_circle_flip")
    t12 = hh.gen("t12")
    _check(checks, "delta-squared-H", "double connecting map is t",
           True, all(hh.element({m: 1}) * t12 * t12 == t12 ** 2 * hh.element({m: 1})
                     for m in normal_monomials(hh, 3)))
    # the gauge substitution on the flip circle
    _check(checks, "nu-involution", "antipodal substitution is an involutive map",
           True, verify_ring_hom(hh, hh, nu_substitution()) and
           apply_ring_hom(hh, hh, nu_substitution(),
                          nu_substitution()["chi"]) == hh.gen("chi"))
    # obstruction class check over the circle with trivial involution
    hhc = build_ring("hh_circle_trivial")
    euler = parse_expression(hhc, "t12*e")
    _check(checks, "obstruction-is-delta", "degree-3 obstruction of the twisting bundle",
           str(parse_expression(hhc, "t12^2*e")), str(hhc.gen("t12") * euler))
    # circle-bundle tables over the trivial circle
    tab0 = transforms.gysin_cohomology(hhc, hhc.zero())
    _check(checks, "total-space-trivial", "degree-3 classes on the product bundle",
           "Z/2 x Z/2", str(tab0.entry(3, EQ).group))
    tab1 = transforms.gysin_cohomology(hhc, euler)
    _check(checks, "total-space-twisted", "degree-3 classes on the flip bundle",
           "Z/2", str(tab1.entry(3, EQ).group))
    return Report("transform", tuple(checks))


def suite_tdual() -> Report:
    checks = []
    circle = tduality.DualityTable("circle_trivial")
    report = circle.report()
    expected_lines = [
        ("(E0, 0)", "(E0, 0)"),
        ("(E0, h(t12*e))", "(E1[t12*e], 0)"),
        ("(E0, pi*(t12^2*e))", "(E0, pi*(t12^2*e))"),
        ("(E0, pi*(t12^2*e) + h(t12*e))", "(E1[t12*e], 0)"),
        ("(E1[t12*e], h(t12*e))", "(E1[t12*e], h(t12*e))"),
    ]
    actual_lines = [(line["pair"], line["dual"]) for line in report["relations"]]
    _check(checks, "dual-relations", "five duality relations over the circle",
           json.dumps(expected_lines), json.dumps(actual_lines))
    classes = circle.classes
    _check(checks, "class-count", "isomorphism classes over the circle",
           5, len(classes))
    _check(checks, "involution", "duality is an involution on classes",
           True, all(classes[c.dual_index].dual_index == c.index for c in classes))
    point_classes = tduality.DualityTable("point").classes
    _check(checks, "point-classes", "single self-dual class over the point",
           "1 0", f"{len(point_classes)} {point_classes[0].dual_index}")
    # the two gauge-equivalent representatives
    pair = tduality.pair_from_expressions("circle_trivial", "0", "0", "t12*e")
    orbit = tduality.gauge_orbit(pair)
    _check(checks, "gauge-orbit", "gauge orbit of the fiber class has two members",
           2, len(orbit))
    _check(checks, "shift-equivariance", "duality commutes with pulled-back shifts",
           True, circle.shift_equivariant())
    # twisted K-groups: compare the difference-map output with the recorded tables
    for cls in classes:
        table = tduality.twisted_k_mv(cls.representative)
        for degree, side in sorted(table.derived):
            actual = format_multiset(table.derived[degree, side])
            status = table.status(degree, side)
            asserted = status == "paper-asserted"
            _check(checks, f"K[{cls.label}][{degree},{side}]",
                   "twisted K-group over the circle",
                   actual if asserted else format_multiset(table.printed_modules(degree, side)),
                   actual, asserted=asserted)
            if status == "mismatch":
                checks.append(Check(f"K[{cls.label}][{degree},{side}]-status",
                                    "twisted K-group status", "fail",
                                    "derived-or-asserted", status))
    try:
        search = tduality.search_clutchings()
        actual = all(tduality.clutching_multiplier(key) in search[key]
                     for key in tduality.PRINTED_MV_TABLES)
    except tduality.NoCandidateError as err:
        actual = err  # the check fails and shows why
    _check(checks, "clutching-search", "search agrees with the recorded clutchings",
           True, actual)
    _check(checks, "theorem-T-point", "module duality over the point",
           True, tduality.verify_theorem_T("point"))
    _check(checks, "theorem-T-circle", "module duality over the circle",
           True, circle.theorem_T())
    return Report("tdual", tuple(checks))


SUITES = {"tables": suite_tables, "oracle": suite_oracle,
          "transform": suite_transform, "tdual": suite_tdual}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name) -> Report:
    if name == "all":
        return Report("all", tuple(c for sub in SUITES for c in run_suite(sub).checks))
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()
