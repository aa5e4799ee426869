"""Value semantics of kdual's value classes, the checks their
constructors make, and the checks on input that no other test reaches."""

from unittest.mock import ANY

import pytest

from kdual.exact_abelian import (
    DimensionMismatchError,
    FGAbelianGroup,
    IntegerMatrix,
    RModule,
    SmithDecomposition,
    indecomposable,
    smith_normal_form,
)
from kdual.frozen import Frozen
from kdual.graded_algebra import (
    EQ,
    PM,
    Degree,
    GeneratorSpec,
    PresentedRing,
    Slice,
    UnknownGeneratorError,
    apply_ring_hom,
    degree_component,
    verify_ring_hom,
)
from kdual.paper_rings import (
    Dictionary,
    OracleValue,
    build_ring,
    f_oracle_unit,
    forgetful_images,
    nonequivariant_ring,
    oracle_table,
)
from kdual.suites import Check, Report, run_suite
from kdual.tduality import (
    Pair,
    PairClass,
    RealCircleBundle,
    TDualResult,
    TwistedKTable,
    pair_from_expressions,
    tdual,
    twisted_k_mv,
)
from kdual.transforms import GysinDegreeData, gysin_cohomology, gysin_degree_data


def _twisted_pair():
    return Pair(RealCircleBundle("circle_trivial", (1,)), (0,), (1,))


def _gysin_data():
    ring = build_ring("hh_circle_trivial")
    return gysin_degree_data(ring, ring.zero(), 3, EQ)


# each value class with a function that builds a fresh instance of it;
# two calls give instances built from equal fields
BUILDERS = {
    IntegerMatrix: lambda: IntegerMatrix(2, 1, (1, 2)),
    SmithDecomposition: lambda: smith_normal_form(IntegerMatrix(1, 1, (2,))),
    FGAbelianGroup: lambda: FGAbelianGroup((2, 0)),
    RModule: lambda: indecomposable("I/2I"),
    Degree: lambda: Degree(1, PM),
    GeneratorSpec: lambda: GeneratorSpec("t12", Degree(1, PM), 2),
    Slice: lambda: degree_component(build_ring("hh_point"), Degree(2, EQ)),
    OracleValue: lambda: f_oracle_unit(1),
    Dictionary: lambda: Dictionary("kk_circle_flip", 1, (("1", "C0"), ("t", "C1"))),
    Check: lambda: Check("id", "reference", "pass", "1", "1"),
    Report: lambda: Report("suite", ()),
    RealCircleBundle: lambda: RealCircleBundle("circle_trivial", (1,)),
    Pair: _twisted_pair,
    TDualResult: lambda: tdual(pair_from_expressions("point", "0")),
    PairClass: lambda: PairClass(0, _twisted_pair(), 0, "label"),
    TwistedKTable: lambda: twisted_k_mv(pair_from_expressions("circle_trivial", "0")),
    GysinDegreeData: _gysin_data,
}
# the one class with a field that cannot be hashed (its dicts)
UNHASHABLE = (TwistedKTable,)


def _name(cls):
    return cls.__name__


def test_every_value_class_is_pinned():
    assert set(Frozen.__subclasses__()) == set(BUILDERS)
    assert len(BUILDERS) == 17


@pytest.mark.parametrize("cls", BUILDERS, ids=_name)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = BUILDERS[cls]()
    assert type(value) is cls
    fields = cls.__annotations__
    assert fields
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("cls", BUILDERS, ids=_name)
def test_values_built_from_equal_fields_are_equal(cls):
    first, second = BUILDERS[cls](), BUILDERS[cls]()
    assert first is not second
    assert first == second and not first != second
    # another class is never equal, whatever its fields, but may decide
    # the comparison itself (ANY equals everything)
    assert first != object() and object() != first
    assert first == ANY
    fields = [getattr(first, name) for name in cls._fields]
    # every field takes part: replacing any one gives an unequal value
    for i in range(len(fields)):
        changed = object.__new__(cls)
        Frozen.__init__(changed, *fields[:i], object(), *fields[i + 1:])
        assert first != changed and changed != first
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("cls", [cls for cls in BUILDERS if cls not in UNHASHABLE], ids=_name)
def test_keys_built_from_equal_fields_are_equal(cls):
    first, second = BUILDERS[cls](), BUILDERS[cls]()
    assert first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1 and {first: 1}[second] == 1


@pytest.mark.parametrize("cls", BUILDERS, ids=_name)
def test_a_wrong_field_count_raises_type_error(cls):
    fields = [getattr(BUILDERS[cls](), name) for name in cls._fields]
    with pytest.raises(TypeError):
        cls(*fields, None)


def test_the_shared_constructor_names_the_fields():
    with pytest.raises(TypeError, match=r"Report takes 2 fields \('suite', 'checks'\), not 1"):
        Report("suite")
    with pytest.raises(TypeError, match="Report takes 2 fields"):
        Report("suite", (), None)


def test_a_cache_slot_is_not_part_of_the_value():
    for slot, value in (("_smith_diagonal", (5,)), ("_smith_u", IntegerMatrix.identity(3))):
        first, second = indecomposable("R"), indecomposable("R")
        object.__setattr__(second, slot, value)
        assert getattr(first, slot) != getattr(second, slot)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and slot not in repr(first)


def test_repr_names_each_field():
    assert repr(Degree(3, PM)) == "Degree(level=3, variant='pm')"
    assert repr(IntegerMatrix(1, 2, (1, 2))) == "IntegerMatrix(rows=1, cols=2, entries=(1, 2))"
    assert repr(indecomposable("I/2I")) == (
        "RModule(rank=1, relations=IntegerMatrix(rows=1, cols=1, entries=(2,)), "
        "action=IntegerMatrix(rows=1, cols=1, entries=(-1,)))")


@pytest.mark.parametrize("build, error, message", [
    (lambda: IntegerMatrix(-1, 0, ()), ValueError, "dimensions must be nonnegative"),
    (lambda: IntegerMatrix(2, 2, (1, 2, 3)), ValueError, "entry count does not match"),
    (lambda: FGAbelianGroup((0, 2)), ValueError, "torsion factors must come before free"),
    (lambda: FGAbelianGroup((1, 0)), ValueError, "torsion orders must be > 1"),
    (lambda: FGAbelianGroup((4, 6)), ValueError, "each torsion order must divide the next"),
    (lambda: Degree(1, "up"), ValueError, "variant must be 'eq' or 'pm'"),
    (lambda: GeneratorSpec("x", Degree(0), 3), ValueError, "additive orders other than 0 and 2"),
    (lambda: RModule(2, IntegerMatrix.zeros(1, 0), IntegerMatrix.identity(2)),
     DimensionMismatchError, "relations live in the wrong rank"),
    (lambda: RModule(1, IntegerMatrix.zeros(1, 0), IntegerMatrix.identity(2)),
     DimensionMismatchError, "action matrix must be square of the rank"),
], ids=["matrix-dimensions", "matrix-entry-count", "group-order", "group-torsion",
        "group-divisibility", "degree-variant", "generator-order", "module-rank",
        "module-square"])
def test_constructors_refuse_bad_fields(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _circle_ring():
    return build_ring("kk_circle_flip")


@pytest.mark.parametrize("call, error, message", [
    (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: IntegerMatrix.from_rows([[1, 2]], cols=3), ValueError,
     "explicit cols disagrees with row width"),
    (lambda: IntegerMatrix.from_columns([[1, 2], [3]]), ValueError, "ragged columns"),
    (lambda: IntegerMatrix.from_columns([[1, 2]], rows=3), ValueError,
     "explicit rows disagrees with column height"),
    (lambda: IntegerMatrix.zeros(1, 2).hstack(IntegerMatrix.zeros(2, 2)),
     DimensionMismatchError, "hstack needs equal row counts"),
    (lambda: IntegerMatrix.zeros(2, 1).vstack(IntegerMatrix.zeros(2, 2)),
     DimensionMismatchError, "vstack needs equal column counts"),
    (lambda: nonequivariant_ring("no_such_ring"), ValueError, "unknown ring name 'no_such_ring'"),
    (lambda: forgetful_images("no_such_ring"), ValueError, "no forgetful map for 'no_such_ring'"),
    (lambda: run_suite("no_such_suite"), ValueError, "unknown suite 'no_such_suite'"),
    (lambda: f_oracle_unit(1) + f_oracle_unit(2), ValueError, "oracle images of different tori"),
    (lambda: f_oracle_unit(1) * f_oracle_unit(2), ValueError, "oracle images of different tori"),
    (lambda: oracle_table(4), ValueError,
     "oracle tables exist for the torus in dimensions 1, 2, 3"),
    (lambda: PresentedRing.define("w", [("x", 0, EQ, 0)], [({"x": -1}, [])]), ValueError,
     "exponents must be nonnegative$"),
    (lambda: PresentedRing.define("w", [("x", 1, EQ, 0), ("x", 1, PM, 2)], [({"x": 2}, [])]),
     ValueError, "^w: generator 'x' is given more than once$"),
    (lambda: _circle_ring().gen("t") ** -1, ValueError, "exponents must be nonnegative integers"),
    (lambda: degree_component(build_ring("hh_point"), Degree(2, EQ)).coords(
        build_ring("hh_circle_trivial").one()), ValueError, "element of a different ring"),
    (lambda: gysin_cohomology(build_ring("hh_point"), build_ring("hh_circle_trivial").zero()),
     ValueError, "Euler class must live in the base ring"),
    (lambda: apply_ring_hom(_circle_ring(), _circle_ring(), {}, _circle_ring().one()),
     UnknownGeneratorError, "no image given for generator 't'"),
    (lambda: verify_ring_hom(_circle_ring(), _circle_ring(), {}),
     UnknownGeneratorError, "no image given for generator 't'"),
], ids=["from-rows-ragged", "from-rows-width", "from-columns-ragged", "from-columns-height",
        "hstack", "vstack", "nonequivariant-ring-name", "forgetful-map-name", "suite-name",
        "oracle-tori", "oracle-tori-product", "oracle-table-dimension", "rule-exponent",
        "duplicate-generator", "element-power", "slice-coords-ring", "euler-class-ring",
        "apply-ring-hom", "verify-ring-hom"])
def test_input_checks_refuse_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
