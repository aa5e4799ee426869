"""Value semantics of kdual's value classes, and the checks their
constructors make."""

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
from kdual.graded_algebra import EQ, PM, Degree, GeneratorSpec, Slice, degree_component
from kdual.paper_rings import (
    Dictionary,
    ExteriorKClass,
    FOracleImage,
    RElt,
    build_ring,
    dictionary,
    f_oracle_unit,
)
from kdual.suites import Check, Report
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
from kdual.transforms import GysinDegreeData, TableEntry, gysin_degree_data


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
    ExteriorKClass: lambda: ExteriorKClass.unit(2),
    RElt: lambda: RElt(1, 2),
    FOracleImage: lambda: f_oracle_unit(1),
    Dictionary: lambda: dictionary("circle"),
    Check: lambda: Check("id", "reference", "pass", "1", "1"),
    Report: lambda: Report("suite", ()),
    RealCircleBundle: lambda: RealCircleBundle("circle_trivial", (1,)),
    Pair: _twisted_pair,
    TDualResult: lambda: tdual(pair_from_expressions("point", "0")),
    PairClass: lambda: PairClass(0, _twisted_pair(), 0, "label"),
    TwistedKTable: lambda: twisted_k_mv(pair_from_expressions("circle_trivial", "0")),
    TableEntry: lambda: TableEntry(FGAbelianGroup((2,))),
    GysinDegreeData: _gysin_data,
}
# the classes whose instances are dict keys or set members
KEY_CLASSES = (Degree, GeneratorSpec, IntegerMatrix, FGAbelianGroup, RModule,
               RealCircleBundle, Pair)


def _name(cls):
    return cls.__name__


def test_every_value_class_is_pinned():
    assert set(Frozen.__subclasses__()) == set(BUILDERS)
    assert len(BUILDERS) == 20


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


@pytest.mark.parametrize("cls", KEY_CLASSES, ids=_name)
def test_keys_built_from_equal_fields_are_equal(cls):
    first, second = BUILDERS[cls](), BUILDERS[cls]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != object()


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
