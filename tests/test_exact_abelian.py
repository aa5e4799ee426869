import hashlib
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from kdual.exact_abelian import (
    ClassificationError,
    DimensionMismatchError,
    FGAbelianGroup,
    IntegerMatrix,
    INDECOMPOSABLES,
    InvariantError,
    RModule,
    cokernel,
    indecomposable,
    kernel_basis,
    multiset_group,
    preimage_lattice,
    relation_lattice,
    rmodule_classify,
    smith_normal_form,
    solve,
    subquotient_group,
)
from kdual.exact_abelian import _f2_inverse, _f2_rank, _mod2_mask, _smith

from helpers import inverse_unimodular, reference_classify, rmodule_from_multiset


# --- independent oracle: invariant factors via gcds of minors --------------


def minor_gcd_invariant_factors(matrix: IntegerMatrix):
    """Invariant factors computed from determinantal divisors only."""

    def minor_det(rows, cols):
        sub = [[matrix.entry(i, j) for j in cols] for i in rows]
        n = len(sub)
        if n == 0:
            return 1
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            sign = (-1) ** j
            rest = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += sign * sub[0][j] * _det(rest)
        return total

    def _det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            rest = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(rest)
        return total

    divisors = [1]
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        g = 0
        for rows in combinations(range(matrix.rows), k):
            for cols in combinations(range(matrix.cols), k):
                g = gcd(g, minor_det(rows, cols))
        if g == 0:
            break
        divisors.append(abs(g))
    factors = [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]
    rank = len(factors)
    free = matrix.rows - rank
    torsion = sorted(f for f in factors if f > 1)
    return tuple(torsion) + (0,) * free


def random_matrix(rng, rows, cols, bound=9):
    return IntegerMatrix(rows, cols,
                         tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def random_unimodular(rng, n, steps=12):
    return random_unimodular_pair(rng, n, steps)[0]


def random_unimodular_pair(rng, n, steps=12):
    """A product of up to `steps` drawn row operations, row i += q * row j,
    on the identity, and its inverse, on which each is column j -= q *
    column i."""
    rows, inverse = IntegerMatrix.identity(n).to_rows(), IntegerMatrix.identity(n).to_rows()
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        for r in inverse:
            r[j] -= q * r[i]
    return IntegerMatrix.from_rows(rows), IntegerMatrix.from_rows(inverse)


# --- Smith normal form -------------------------------------------------------


def test_snf_identity():
    m = IntegerMatrix.identity(3)
    s = smith_normal_form(m)
    assert s.d == m
    assert s.u @ m @ s.v == s.d


def test_snf_reorders_divisibility():
    m = IntegerMatrix.diagonal([4, 2])
    s = smith_normal_form(m)
    assert s.diagonal() == [2, 4]
    assert s.u @ m @ s.v == s.d


def test_snf_worked_example():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    # independent determinantal check: gcd of entries 2, determinant -8
    assert minor_gcd_invariant_factors(m) == (2, 4)
    s = smith_normal_form(m)
    assert s.diagonal() == [2, 4]
    assert s.u @ m @ s.v == s.d


def test_snf_round_trip_random():
    rng = random.Random(20260808)
    for _ in range(1000):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = random_matrix(rng, rows, cols)
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == s.d
        diag = s.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # unimodularity via the decomposition of the transforms themselves
        assert smith_normal_form(s.u).diagonal() == [1] * rows
        assert smith_normal_form(s.v).diagonal() == [1] * cols


def test_snf_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=6)
        diag = smith_normal_form(m).diagonal()
        factors = tuple(sorted(d for d in diag if d > 1)) + \
            (0,) * (m.rows - sum(1 for d in diag if d))
        assert factors == minor_gcd_invariant_factors(m)


def test_snf_deterministic():
    rng = random.Random(7)
    m = random_matrix(rng, 4, 4)
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_snf_large_entries():
    rng = random.Random(271828)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=10 ** 6)
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == s.d
        diag = [d for d in s.diagonal() if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert smith_normal_form(s.u).diagonal() == [1] * m.rows


# SHA-256 of every U, D and V and every solve() result over golden_batch().
# Kernel spans and solve() results are read off U and V, so an elimination
# change that moves this digest can change report bytes; the pinned report
# tests of tests/test_cli.py (`verify all`, `tdual k-groups`, `tdual
# enumerate`, `transform t`) are what guard those bytes.
GOLDEN_TRANSFORMS_SHA256 = "db011a7e33d355ff6acd91f24daac123b1020ff8ef0419bf26ea4c1e84e90db1"


def golden_batch():
    """Every shape from 0x0 to 12x12 with entries in {+-1, +-2, +-9}, about a
    third with a zero row and a third with a zero column, each paired with a
    solvable right-hand side and a random one."""
    rng = random.Random(1979)
    for rows in range(13):
        for cols in range(13):
            entries = [[rng.choice((-9, -2, -1, 1, 2, 9)) for _ in range(cols)]
                       for _ in range(rows)]
            if rows and rng.random() < 0.3:
                entries[rng.randrange(rows)] = [0] * cols
            if cols and rng.random() < 0.3:
                j = rng.randrange(cols)
                for row in entries:
                    row[j] = 0
            m = IntegerMatrix.from_rows(entries, cols=cols)
            x = [rng.randint(-3, 3) for _ in range(cols)]
            b = [rng.randint(-3, 3) for _ in range(rows)]
            yield m, (m.apply(x), b)


def golden_transforms_digest():
    digest = hashlib.sha256()
    for m, rhs in golden_batch():
        s = smith_normal_form(m)
        for part in (s.u, s.d, s.v):
            digest.update(repr((part.rows, part.cols, part.entries)).encode())
        for b in rhs:
            digest.update(repr(solve(m, b)).encode())
    return digest.hexdigest()


def test_snf_and_solve_golden_digest():
    assert golden_transforms_digest() == GOLDEN_TRANSFORMS_SHA256


# --- the log-and-replay elimination against forward tracking ---------------


def forward_smith(m: IntegerMatrix, track_u=False, track_v=False):
    """`_smith` as it was before U and V were built from a log: every row
    and column operation is mirrored on the full rows of U and columns of V
    as it happens.  Same pivot rule and the same least-absolute remainders,
    so the same (diag, U rows, V columns)."""
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if track_u else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if track_v else None
    diag = []

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            if track_u:
                u[k + i], u[k + j] = u[k + j], u[k + i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            if track_v:
                v[k + i], v[k + j] = v[k + j], v[k + i]

    def add_row(dst, src, q):  # row dst += q * row src
        if q:
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
            if track_u:
                u[k + dst] = [x + q * y for x, y in zip(u[k + dst], u[k + src])]

    def negate_pivot_row():
        a[0] = [-x for x in a[0]]
        if track_u:
            u[k] = [-x for x in u[k]]

    def pick_pivot():
        best = 0
        for i, r in enumerate(a):
            low = min(map(abs, filter(None, r)), default=0)
            if low and (not best or low < best):
                best, row = low, i
        if not best:
            return None
        return row, next(j for j, x in enumerate(a[row]) if abs(x) == best)

    def first_smallest(values):
        cand = None
        for i, x in enumerate(values):
            if i and x and (cand is None or abs(x) < abs(values[cand])):
                cand = i
        return cand

    k = 0
    while k < min(rows, cols):
        best = pick_pivot()
        if best is None:
            break
        swap_rows(0, best[0])
        swap_cols(0, best[1])
        if a[0][0] < 0:
            negate_pivot_row()
        while True:
            p = a[0][0]
            h = p >> 1
            for i in range(1, len(a)):
                add_row(i, 0, -((a[i][0] + h) // p))
            cand = first_smallest([r[0] for r in a])
            if cand is not None:
                swap_rows(0, cand)
                if a[0][0] < 0:
                    negate_pivot_row()
                continue
            pivot_row = a[0]
            for j in range(1, len(pivot_row)):
                q = -((pivot_row[j] + h) // p)
                if q:
                    pivot_row[j] += q * p
                    if track_v:
                        v[k + j] = [x + q * y for x, y in zip(v[k + j], v[k])]
            cand = first_smallest(pivot_row)
            if cand is not None:
                swap_cols(0, cand)
                if a[0][0] < 0:
                    negate_pivot_row()
                continue
            bad = None if p == 1 else next(
                (i for i in range(1, len(a)) if any(map(p.__rmod__, a[i]))), None)
            if bad is None:
                break
            add_row(0, bad, 1)
        diag.append(a[0][0])
        a = [r[1:] for r in a[1:]]
        k += 1
    return diag, u, v


def assert_matches_forward_smith(m):
    for track_u, track_v in product((False, True), repeat=2):
        assert _smith(m, track_u, track_v) == forward_smith(m, track_u, track_v), \
            (m, track_u, track_v)


def test_smith_matches_forward_tracking_on_drawn_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices_with_zero_lines(draw):
        rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
        a = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
             for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
            a[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
            for r in a:
                r[j] = 0
        return IntegerMatrix.from_rows(a, cols=cols)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @hypothesis.given(matrices_with_zero_lines())
    def check(m):
        assert_matches_forward_smith(m)

    check()


# The first row's smallest entry is 2; row 1 reaches 1 in its second
# column, and row 2 holds -1 in an earlier column.  The pivot scan may stop
# at row 1, which the full scan picks too: lowest row, then lowest column.
PIVOT_STOP_MATRIX = IntegerMatrix.from_rows([
    [2, 4, 6, 8],
    [2, 1, 3, -5],
    [-1, 5, 7, 2],
    [3, -7, 2, 9],
])


# Remainders on the tie p/2 are taken as -p/2.  In the first matrix 6 is
# left as -2 by the row sweep, swapped into the pivot and negated; in the
# second, 6 is left as -2 by the column sweep, swapped in and negated.
TIE_MATRICES = [IntegerMatrix.from_rows([[4, 5], [6, 7]]), IntegerMatrix.from_rows([[4, 6]])]


def test_smith_matches_forward_tracking_on_the_golden_batch():
    for m, _ in golden_batch():
        assert_matches_forward_smith(m)
    for m in [PIVOT_STOP_MATRIX] + TIE_MATRICES:
        assert_matches_forward_smith(m)


def test_smith_on_remainder_ties():
    expected = [
        ([[-2, 1], [5, -3]], [1, 2], [[-2, -3], [1, 2]]),
        ([[-1]], [2], [[-2, -3], [1, 2]]),
    ]
    for m, (u, diag, v) in zip(TIE_MATRICES, expected):
        s = smith_normal_form(m)
        assert (s.u.to_rows(), s.diagonal(), s.v.to_rows()) == (u, diag, v)
        assert s.u @ m @ s.v == s.d
        factors = tuple(d for d in diag if d > 1) + (0,) * (m.rows - len(diag))
        assert factors == minor_gcd_invariant_factors(m)


def test_smith_matches_forward_tracking_at_the_largest_lattice_size():
    rng = random.Random(48)
    assert_matches_forward_smith(random_matrix(rng, 48, 48))


def test_smith_transform_bits_at_the_largest_lattice_size():
    # least-absolute remainders keep V's entries at 2,875 bits here
    # (3,265 with floored ones); U's grew, from 559 to 577, so only V is
    # pinned
    v = smith_normal_form(random_matrix(random.Random(48), 48, 48)).v
    assert max(abs(x).bit_length() for x in v.entries) == 2875


# --- cokernels ---------------------------------------------------------------


def test_cokernel_zero_matrix_is_free():
    assert cokernel(IntegerMatrix.zeros(1, 1)) == FGAbelianGroup((0,))


def test_cokernel_single_relation():
    group = cokernel(IntegerMatrix.from_rows([[2]]))
    assert group == FGAbelianGroup((2,))
    # coset enumeration oracle: representatives 0 and 1 are distinct, 2 ~ 0
    lattice = IntegerMatrix.from_rows([[2]])
    assert solve(lattice, (1,)) is None
    assert solve(lattice, (2,)) is not None


def test_cokernel_of_sign_representation_quotient():
    # generators 1, t with the relations of Z[t]/(t^2 - 1, 1 + t)
    m = IntegerMatrix.from_rows([[1, 1], [1, 1]])
    assert cokernel(m) == FGAbelianGroup((0,))
    # coset enumeration: (x, y) ~ (x - y, 0), difference is a bijection to Z
    lattice = m
    rng = random.Random(5)
    for _ in range(50):
        x, y = rng.randint(-8, 8), rng.randint(-8, 8)
        rep = (x - y, 0)
        diff = (x - rep[0], y - rep[1])
        assert solve(lattice, diff) is not None
    assert minor_gcd_invariant_factors(m) == (0,)


def test_cokernel_invariant_under_unimodular_changes():
    rng = random.Random(99)
    for _ in range(60):
        m = random_matrix(rng, 3, 3, bound=5)
        u = random_unimodular(rng, 3)
        v = random_unimodular(rng, 3)
        assert cokernel(m) == cokernel(u @ m @ v)


def test_cokernel_reads_the_smith_diagonal():
    rng = random.Random(404)
    batch = [m for m, _ in golden_batch()]
    batch += [random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(100)]
    for m in batch:
        diag = smith_normal_form(m).diagonal()
        rank = sum(1 for d in diag if d)
        # the untracked elimination behind `cokernel` finds the same pivots
        assert _smith(m)[0] == diag[:rank]
        expected = tuple(d for d in diag if d > 1) + (0,) * (m.rows - rank)
        assert cokernel(m) == FGAbelianGroup(expected)


def test_cokernel_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(1987)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        factors = [abs(int(f)) for f in invariant_factors(
            sympy.Matrix(m.rows, m.cols, list(m.entries)), domain=sympy.ZZ)]
        rank = sum(1 for f in factors if f)
        expected = tuple(sorted(f for f in factors if f > 1)) + (0,) * (m.rows - rank)
        assert cokernel(m) == FGAbelianGroup(expected), m


@pytest.mark.parametrize("rows,cols", [(16, 16), (24, 24), (32, 32),
                                       (20, 27), (30, 37), (40, 47)])
def test_smith_matches_sympy_at_lattice_sizes(rows, cols):
    # the wide shapes stand for the stacked matrices that
    # `preimage_lattice` and `rmodule_classify` eliminate; sympy's time
    # grows steeply with the square size (0.9 s at 36x36), so no larger
    # square is drawn
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    m = random_matrix(random.Random(rows * 100 + cols), rows, cols)
    factors = [abs(int(f)) for f in invariant_factors(
        sympy.Matrix(m.rows, m.cols, list(m.entries)), domain=sympy.ZZ)]
    assert smith_normal_form(m).diagonal() == factors
    rank = sum(1 for f in factors if f)
    expected = tuple(f for f in factors if f > 1) + (0,) * (m.rows - rank)
    assert cokernel(m) == FGAbelianGroup(expected)


def test_group_canonicalization():
    assert FGAbelianGroup.from_orders([4, 2, 0]) == FGAbelianGroup((2, 4, 0))
    assert FGAbelianGroup.from_orders([2, 3]) == FGAbelianGroup((6,))
    assert FGAbelianGroup.from_orders([1, 1]) == FGAbelianGroup(())
    with pytest.raises(ValueError):
        FGAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup((0, 2))


def test_groups_reject_orders_that_are_not_plain_ints():
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="orders must be plain ints"):
            FGAbelianGroup.from_orders([3, bad])
        with pytest.raises(ValueError, match="invariant factors must be plain ints"):
            FGAbelianGroup((bad,))


def test_solver_and_kernels():
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, (4, 9)) == (2, 3)
    assert solve(m, (1, 0)) is None
    # rank 2 in Z^3: b must be divisible below the rank and zero past it
    m = IntegerMatrix.from_rows([[2, 0], [0, 6], [0, 0]])
    assert solve(m, (4, 18, 0)) == (2, 3)
    assert solve(m, (4, 18, 1)) is None
    assert solve(m, (4, 9, 0)) is None
    assert solve(IntegerMatrix.zeros(2, 3), (0, 0)) == (0, 0, 0)
    with pytest.raises(DimensionMismatchError):
        solve(m, (4, 18))
    k = kernel_basis(IntegerMatrix.from_rows([[1, 1]]))
    assert k.cols == 1
    x = k.column(0)
    assert x[0] + x[1] == 0 and x != (0, 0)


def test_inverse_unimodular():
    rng = random.Random(3)
    for _ in range(25):
        u = random_unimodular(rng, 3)
        assert u @ inverse_unimodular(u) == IntegerMatrix.identity(3)


# --- module classification ----------------------------------------------------


def block_sum(first, second):
    """The direct sum of two modules, with the summands in the given order."""
    return RModule(first.rank + second.rank,
                   IntegerMatrix.block_diagonal(first.relations, second.relations),
                   IntegerMatrix.block_diagonal(first.action, second.action))


def test_classify_the_four_indecomposables():
    for name in INDECOMPOSABLES:
        assert rmodule_classify(indecomposable(name)) == Counter({name: 1})


def test_indecomposable_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown indecomposable 'Z'"):
        indecomposable("Z")


def test_classify_swap_is_regular():
    module = RModule(2, relation_lattice((0, 0)), IntegerMatrix.from_rows([[0, 1], [1, 0]]))
    assert rmodule_classify(module) == Counter({"R": 1})


def test_classify_sign_action():
    module = RModule(1, relation_lattice((0,)), IntegerMatrix.from_rows([[-1]]))
    assert rmodule_classify(module) == Counter({"R/J": 1})


def test_action_must_be_involution():
    with pytest.raises(ValueError):
        RModule(1, relation_lattice((0,)), IntegerMatrix.from_rows([[2]]))
    # preserves the relation (2, 0) but squares to diag(1, 4)
    with pytest.raises(ValueError, match="not an involution"):
        RModule(2, IntegerMatrix.from_rows([[2], [0]]), IntegerMatrix.from_rows([[1, 0], [0, 2]]))


def test_action_must_preserve_relations():
    # the swap sends the relation (2, 0) to (0, 2), outside span{(2, 0)}
    with pytest.raises(ValueError, match="does not preserve"):
        RModule(2, IntegerMatrix.from_rows([[2], [0]]), IntegerMatrix.from_rows([[0, 1], [1, 0]]))


def rmodule_checks(relations, action):
    """Whether A preserves the relations and whether A^2 - I maps into
    them, found by solving for each column on its own."""
    square = triple_loop(action, action)
    return (all(solve(relations, action.apply(column)) is not None
                for column in relations.columns()),
            all(solve(relations, tuple(x - (i == j) for i, x in enumerate(square.column(j))))
                is not None for j in range(action.rows)))


def test_rmodule_checks_match_solving_column_by_column():
    rng = random.Random(71)
    # A (2, 0) = (0, 4) leaves span{(2, 0)}, and A^2 - I = I: both checks fail
    cases = [(IntegerMatrix.from_rows([[2], [0]]), IntegerMatrix.from_rows([[0, 1], [2, 0]]))]
    for _ in range(150):
        rank = rng.randint(1, 5)
        cases.append((random_matrix(rng, rank, rng.randint(0, 3), bound=3),
                      random_matrix(rng, rank, rank, bound=2)))
    for _ in range(40):
        module = rmodule_from_multiset(
            Counter({name: rng.randint(0, 2) for name in INDECOMPOSABLES}))
        if module.rank == 0:
            continue
        u = random_unimodular(rng, module.rank)
        relations, action = u @ module.relations, u @ module.action @ inverse_unimodular(u)
        cases.append((relations, action))
        # one entry off by 1 or 2 may break either check, or both
        entries = list(action.entries)
        entries[rng.randrange(len(entries))] += rng.choice((1, 2))
        cases.append((relations, IntegerMatrix(module.rank, module.rank, tuple(entries))))
    seen = Counter()
    for relations, action in cases:
        checks = rmodule_checks(relations, action)
        seen[checks] += 1
        if checks == (True, True):
            RModule(action.rows, relations, action)
        else:
            # a failed preservation check wins over a failed involution check
            message = "not an involution" if checks[0] else "does not preserve"
            with pytest.raises(ValueError, match=message):
                RModule(action.rows, relations, action)
    assert len(seen) == 4 and seen[False, False] > 1, seen


def test_rank_30_planted_module():
    rng = random.Random(30)
    multiset = Counter({"R": 6, "R/I": 5, "R/J": 6, "I/2I": 7})
    summed = rmodule_from_multiset(multiset)
    u = random_unimodular(rng, 30, steps=90)
    relations, action = u @ summed.relations, u @ summed.action @ inverse_unimodular(u)
    assert max(map(abs, relations.entries)) > 2
    module = RModule(30, relations, action)
    assert rmodule_classify(module) == multiset
    assert module.underlying_group() == cokernel(relations) == multiset_group(multiset)
    twin = RModule(30, IntegerMatrix.from_rows(relations.to_rows()), action)
    assert twin == module and hash(twin) == hash(module)
    assert repr(twin) == repr(module)


def test_classification_failure_detected(shared_route_matches):
    # Z/4 is not a sum of the four indecomposables
    module = RModule(1, relation_lattice((4,)), IntegerMatrix.from_rows([[1]]))
    shared_route_matches(module)
    with pytest.raises(ClassificationError):
        rmodule_classify(module)


def test_classification_rejects_r_mod_2r(shared_route_matches):
    # R/2R: Z^2 modulo 2, t swapping the coordinates; its torsion is
    # elementary, but no sum of the four indecomposables has its invariants
    module = RModule(2, IntegerMatrix.from_rows([[2, 0], [0, 2]]),
                     IntegerMatrix.from_rows([[0, 1], [1, 0]]))
    shared_route_matches(module)
    with pytest.raises(ClassificationError, match="invariants match no sum"):
        rmodule_classify(module)


def test_classification_rejects_a_kernel_mismatch(shared_route_matches):
    # R/2R + R/I + R/J: the group and both quotients match R + (I/2I)^2,
    # so the guard passes; only the kernels' 2-torsion, one Z/2 each where
    # that sum has two, tells the modules apart
    module = RModule(4, IntegerMatrix.from_rows([[2, 0], [0, 2], [0, 0], [0, 0]]),
                     IntegerMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                                              [0, 0, 1, 0], [0, 0, 0, -1]]))
    shared_route_matches(module)
    with pytest.raises(ClassificationError,
                       match=r"fingerprint mismatch: .*computed .*'k_minus': \(1, 1\)"):
        rmodule_classify(module)


def test_classify_with_dependent_relation_columns(shared_route_matches):
    # (I/2I)^2 + R/I with six relation columns spanning 2Z + 2Z + 0
    relations = IntegerMatrix.from_columns(
        [(2, 0, 0), (0, 2, 0), (2, 2, 0), (4, -2, 0), (0, 0, 0), (-6, 4, 0)])
    module = RModule(3, relations, IntegerMatrix.diagonal([-1, -1, 1]))
    shared_route_matches(module)
    assert rmodule_classify(module) == Counter({"I/2I": 2, "R/I": 1})


def test_twisted_z_plus_z2_is_rejected_by_its_quotient():
    # Z + Z/2 with t(x, y) = (-x, x + y): its own torsion is elementary, so
    # only M/(1 - t)M = Z/4 shows that it is no sum of the four
    module = RModule(2, IntegerMatrix.from_rows([[0], [2]]),
                     IntegerMatrix.from_rows([[-1, 0], [1, 1]]))
    assert module.underlying_group() == FGAbelianGroup((2, 0))
    one_minus = IntegerMatrix.from_rows([[2, 0], [-1, 0]])
    assert cokernel(one_minus.hstack(module.relations)) == FGAbelianGroup((4,))
    with pytest.raises(ClassificationError, match="^torsion is not elementary 2-torsion$"):
        rmodule_classify(module)


# blocks that are no sum of the four indecomposables, as (relation rows,
# action rows): R/2R, Z/4 with t = 1 and t = -1, Z/3, and Z + Z/2 with
# t(x, y) = (-x, x + y)
EXOTIC_BLOCKS = (
    ([[2, 0], [0, 2]], [[0, 1], [1, 0]]),
    ([[4]], [[1]]),
    ([[4]], [[-1]]),
    ([[3]], [[1]]),
    ([[0], [2]], [[-1, 0], [1, 1]]),
)


def test_classification_matches_the_reference_on_exotic_sums():
    # sums of the indecomposables and up to two exotic blocks, in a drawn
    # order and base: the same multiset, or the same ClassificationError
    # message, as the route that builds every group of the fingerprint
    rng = random.Random(2808)
    standard = [indecomposable(name) for name in INDECOMPOSABLES]
    exotic = [RModule(len(action), IntegerMatrix.from_rows(relations),
                      IntegerMatrix.from_rows(action)) for relations, action in EXOTIC_BLOCKS]
    outcomes = Counter()
    for _ in range(400):
        blocks = [m for m in standard for _ in range(rng.randint(0, 2))]
        blocks += [rng.choice(exotic) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
        if not blocks:
            continue
        rng.shuffle(blocks)
        n = sum(m.rank for m in blocks)
        u, u_inv = random_unimodular_pair(rng, n)
        module = RModule(n, u @ IntegerMatrix.block_diagonal(*(m.relations for m in blocks)),
                         u @ IntegerMatrix.block_diagonal(*(m.action for m in blocks)) @ u_inv)
        results = []
        for classify in (rmodule_classify, reference_classify):
            try:
                results.append(classify(module))
            except ClassificationError as err:
                results.append(str(err))
        assert results[0] == results[1], module
        outcomes[results[0].partition(":")[0] if isinstance(results[0], str) else "sum"] += 1
    assert set(outcomes) == {"sum", "torsion is not elementary 2-torsion",
                             "invariants match no sum of the four indecomposables",
                             "fingerprint mismatch"}, outcomes
    assert min(outcomes.values()) >= 10, outcomes


def test_f2_rank_counts_the_odd_smith_diagonal_entries():
    rng = random.Random(2)
    for _ in range(200):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m = random_matrix(rng, rows, cols, bound=1)
        m = IntegerMatrix(rows, cols, tuple(map(abs, m.entries)))
        odd = sum(d % 2 for d in _smith(m)[0])
        assert _f2_rank([_mod2_mask(r) for r in m.to_rows()]) == odd, m


def test_f2_inverse_of_a_unimodular_matrix():
    rng = random.Random(5)
    for n in list(range(1, 9)) * 4:
        u, u_inv = random_unimodular_pair(rng, n, steps=4 * n)
        assert (_f2_inverse([_mod2_mask(r) for r in u.to_rows()], n)
                == [_mod2_mask(r) for r in u_inv.to_rows()]), u
    # rows 1 + 2 = 3 over F2
    with pytest.raises(InvariantError, match="singular modulo 2"):
        _f2_inverse([0b011, 0b101, 0b110], 3)


def test_classify_exhaustive_up_to_eight_summands():
    for size in range(0, 9):
        for combo in combinations_with_replacement(INDECOMPOSABLES, size):
            multiset = Counter(combo)
            module = rmodule_from_multiset(multiset)
            assert rmodule_classify(module) == +multiset, multiset


def test_classify_direct_sum_is_multiset_union():
    rng = random.Random(42)
    for _ in range(60):
        left = Counter({name: rng.randint(0, 2) for name in INDECOMPOSABLES})
        right = Counter({name: rng.randint(0, 2) for name in INDECOMPOSABLES})
        total = block_sum(rmodule_from_multiset(left), rmodule_from_multiset(right))
        assert rmodule_classify(total) == +(left + right)


def test_multiset_module_is_the_sum_of_its_summands():
    for mults in product(range(3), repeat=len(INDECOMPOSABLES)):
        multiset = Counter(dict(zip(INDECOMPOSABLES, mults)))
        module = rmodule_from_multiset(multiset)
        chained = RModule(0, IntegerMatrix.zeros(0, 0), IntegerMatrix.zeros(0, 0))
        for name in INDECOMPOSABLES:
            for _ in range(multiset[name]):
                chained = block_sum(chained, indecomposable(name))
        assert module == chained, multiset
        assert rmodule_classify(module) == +multiset, multiset


def test_multiset_group_is_the_underlying_group_of_the_module():
    multisets = [Counter()] + [Counter(dict(zip(INDECOMPOSABLES, mults)))
                               for mults in product(range(3), repeat=len(INDECOMPOSABLES))]
    assert len(multisets) == 82
    for multiset in multisets:
        expected = rmodule_from_multiset(multiset).underlying_group()
        assert multiset_group(multiset) == expected, multiset
        assert multiset_group(dict(multiset)) == expected, multiset
    assert str(multiset_group({"R": 1, "I/2I": 2, "R/J": 1})) == "Z/2 x Z/2 x Z x Z x Z"


def test_classify_invariant_under_base_change(shared_route_matches):
    rng = random.Random(17)
    for _ in range(40):
        multiset = Counter({name: rng.randint(0, 2) for name in INDECOMPOSABLES})
        module = rmodule_from_multiset(multiset)
        if module.rank == 0:
            continue
        u = random_unimodular(rng, module.rank)
        u_inv = inverse_unimodular(u)
        changed = RModule(module.rank, u @ module.relations,
                          u @ module.action @ u_inv)
        shared_route_matches(changed)
        assert rmodule_classify(changed) == +multiset


def _subquotient_via_span_basis(big, small):
    """(span big) / (span small) by the route that first picks an independent
    basis of span(big), the first rank columns of big @ V (which
    U @ big @ V = D makes d_i * (column i of U^-1)), and solves for each
    column of small against it."""
    s = smith_normal_form(big)
    basis = IntegerMatrix.from_columns(
        [big.apply(s.v.column(i)) for i in range(sum(map(bool, s.diagonal())))], rows=big.rows)
    coords = []
    for column in small.columns():
        x = solve(basis, column)
        if x is None:
            raise ValueError("small lattice is not contained in the big one")
        coords.append(x)
    return cokernel(IntegerMatrix.from_columns(coords, rows=basis.cols))


def test_subquotient_matches_span_basis_route():
    rng = random.Random(8446)
    for _ in range(150):
        rows, cols, sub = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 5)
        big = random_matrix(rng, rows, cols, bound=4)
        small = big @ random_matrix(rng, cols, sub, bound=3)
        assert subquotient_group(big, small) == _subquotient_via_span_basis(big, small)


def test_subquotient_rejects_small_outside_big():
    big = IntegerMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    for column in ((1, 0, 0), (0, 3, 1), (2, 1, 0)):
        small = IntegerMatrix.from_columns([(4, 0, 0), column])
        with pytest.raises(ValueError):
            _subquotient_via_span_basis(big, small)
        with pytest.raises(ValueError, match="not contained"):
            subquotient_group(big, small)


def kernel_and_cokernel_of_multiplication(factor, order):
    """Kernel and cokernel of multiplication by `factor` on Z/order (0 meaning Z)."""
    op = IntegerMatrix.from_rows([[factor]])
    lattice = relation_lattice((order,))
    pre = preimage_lattice(op, lattice)
    return subquotient_group(pre, lattice), cokernel(lattice.hstack(op))


def test_subquotient_and_preimage():
    # multiplication by 2 on Z/4: kernel 2Z/4 = Z/2, cokernel Z/2
    assert kernel_and_cokernel_of_multiplication(2, 4) == (
        FGAbelianGroup((2,)), FGAbelianGroup((2,)))


def test_kernel_and_cokernel_groups():
    # multiplication by 6 on Z: injective, cokernel Z/6
    assert kernel_and_cokernel_of_multiplication(6, 0) == (
        FGAbelianGroup(()), FGAbelianGroup((6,)))


def triple_loop(a, b):
    return IntegerMatrix(a.rows, b.cols, tuple(
        sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def test_products_match_triple_loop():
    rng = random.Random(31)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (6, 6, 6), (7, 7, 7),
              (40, 40, 1), (40, 40, 4), (2, 2, 40), (40, 40, 52), (48, 48, 48)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    shapes += [(rng.randint(1, 48), rng.randint(1, 48), rng.randint(1, 48)) for _ in range(12)]
    # entries up to 9 take the packed kernel past the crossover, entries up
    # to 10^12 the scalar loop (their products pass _PACKED_LIMIT)
    for (n, k, p), bound in product(shapes, (9, 10 ** 12)):
        a = random_matrix(rng, n, k, bound=bound)
        b = random_matrix(rng, k, p, bound=bound)
        naive = triple_loop(a, b)
        assert a.mul(b) == naive
        for j in range(p):
            assert a.apply(b.column(j)) == naive.column(j)
    with pytest.raises(DimensionMismatchError):
        IntegerMatrix.zeros(2, 3).mul(IntegerMatrix.zeros(2, 3))
    with pytest.raises(DimensionMismatchError):
        IntegerMatrix.zeros(2, 3).apply((1, 2))


def test_products_of_big_and_extreme_entries():
    rng = random.Random(32)
    big = 2 ** 3000
    for n, k, p in ((12, 12, 12), (3, 3, 3), (9, 30, 5)):
        small = random_matrix(rng, n, k, bound=9)
        huge_right = random_matrix(rng, k, p, bound=big)
        huge_left = random_matrix(rng, n, k, bound=big)
        other = random_matrix(rng, k, p, bound=big)
        assert max(map(abs, huge_right.entries)).bit_length() > 2990
        assert min(huge_right.entries) < 0 < max(huge_right.entries)
        for a, b in ((small, huge_right), (huge_left, random_matrix(rng, k, p, bound=9)),
                     (huge_left, other), (random_matrix(rng, n, k, bound=2 ** 200), other)):
            assert a.mul(b) == triple_loop(a, b)
        # a zero factor against a large one
        zero_left, zero_right = IntegerMatrix.zeros(n, k), IntegerMatrix.zeros(k, p)
        assert zero_left.mul(huge_right) == IntegerMatrix.zeros(n, p)
        assert huge_left.mul(zero_right) == IntegerMatrix.zeros(n, p)
        assert zero_left.mul(zero_right) == IntegerMatrix.zeros(n, p)
    # every entry of the product at the largest value the entries allow,
    # 8 * top^2, with both signs: each pair of tops sits on either side of
    # the largest value that slots of 1, 2, 4 and 8 bytes hold, the last
    # of them on either side of _PACKED_LIMIT
    for top in (1, 3, 4, 63, 64, 16383, 16384, 2 ** 30 - 1, 2 ** 30, 2 ** 62):
        # the slots must also hold the right factor when the left one is 0
        assert IntegerMatrix.zeros(8, 8).mul(IntegerMatrix(8, 9, (top,) * 72)) == \
            IntegerMatrix.zeros(8, 9), top
        for sign in (1, -1):
            a = IntegerMatrix(8, 8, (sign * top,) * 64)
            assert a.mul(IntegerMatrix(8, 9, (top,) * 72)) == \
                IntegerMatrix(8, 9, (sign * 8 * top * top,) * 72), (top, sign)
            b = IntegerMatrix(8, 9, tuple(rng.choice((top, -top)) for _ in range(72)))
            assert a.mul(b) == triple_loop(a, b), (top, sign)


def test_public_construction_rejects_non_int_entries():
    for bad in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="plain ints"):
            IntegerMatrix(1, 2, (1, bad))
        with pytest.raises(ValueError, match="plain ints"):
            IntegerMatrix.from_rows([[1, bad]])
        with pytest.raises(ValueError, match="plain ints"):
            IntegerMatrix.from_columns([[1], [bad]])


def test_a_list_field_is_stored_as_a_tuple():
    for value, twin in ((IntegerMatrix(2, 1, [1, 2]), IntegerMatrix(2, 1, (1, 2))),
                        (FGAbelianGroup([2]), FGAbelianGroup((2,)))):
        assert value == twin
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1


def test_diagonal_entries_must_fit_the_shape():
    assert IntegerMatrix.diagonal([1, 2], 2, 3) == IntegerMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
    with pytest.raises(ValueError, match="3 diagonal entries do not fit a 2x2 matrix"):
        IntegerMatrix.diagonal([1, 2, 3], 2, 2)
    with pytest.raises(ValueError, match="do not fit a 3x1 matrix"):
        IntegerMatrix.diagonal([1, 2], 3, 1)


def test_explicit_shape_must_agree_with_the_data():
    with pytest.raises(ValueError, match="explicit rows disagrees"):
        IntegerMatrix.from_columns([[1, 2]], rows=3)
    with pytest.raises(ValueError, match="explicit cols disagrees"):
        IntegerMatrix.from_rows([[1, 2]], cols=3)
    assert IntegerMatrix.from_columns([[1, 2]], rows=2) == IntegerMatrix.from_rows([[1], [2]])
    assert IntegerMatrix.from_rows([[1, 2]], cols=2) == IntegerMatrix.from_columns([[1], [2]])
    # with no data the explicit extent is the shape
    assert IntegerMatrix.from_columns([], rows=3) == IntegerMatrix.zeros(3, 0)
    assert IntegerMatrix.from_rows([], cols=3) == IntegerMatrix.zeros(0, 3)


def test_kernel_basis_is_the_snf_kernel_columns():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols=cols)
        s = smith_normal_form(m)
        expected = [s.v.column(j) for j in range(sum(map(bool, s.diagonal())), m.cols)]
        assert kernel_basis(m) == IntegerMatrix.from_columns(expected, rows=m.cols)


def test_block_diagonal():
    assert IntegerMatrix.block_diagonal() == IntegerMatrix.zeros(0, 0)
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[5], [6], [7]])
    assert IntegerMatrix.block_diagonal(a, b) == IntegerMatrix.from_rows(
        [[1, 2, 0], [3, 4, 0], [0, 0, 5], [0, 0, 6], [0, 0, 7]])
    # a 0xk block adds k zero columns, a kx0 block k zero rows
    blocks = (IntegerMatrix.zeros(0, 2), a, IntegerMatrix.zeros(2, 0), IntegerMatrix.zeros(0, 1))
    assert IntegerMatrix.block_diagonal(*blocks) == IntegerMatrix.from_rows(
        [[0, 0, 1, 2, 0], [0, 0, 3, 4, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
    assert IntegerMatrix.block_diagonal(IntegerMatrix.zeros(0, 3)) == IntegerMatrix.zeros(0, 3)
    assert IntegerMatrix.block_diagonal(IntegerMatrix.zeros(3, 0)) == IntegerMatrix.zeros(3, 0)


def test_relation_lattice():
    assert relation_lattice(()) == IntegerMatrix.zeros(0, 0)
    assert relation_lattice((0, 0)) == IntegerMatrix.zeros(2, 0)
    assert relation_lattice((2, 0, 3, 0)) == IntegerMatrix.from_columns(
        [(2, 0, 0, 0), (0, 0, 3, 0)], rows=4)
    orders = (0, 4, 0, 2)
    assert cokernel(relation_lattice(orders)) == FGAbelianGroup.from_orders(orders)
