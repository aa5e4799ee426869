"""Exact linear algebra over the integers.

The Smith normal form is the one primitive everything else here is built
on: finitely generated abelian groups in invariant-factor form, kernels,
preimages and subquotients of lattices, and the classification of modules
over R = Z[t]/(t^2 - 1) into direct sums of the four indecomposables

    R,  R/I,  R/J,  I/2I        (I = (1 - t), J = (1 + t))

which is how every structural answer in this package is reported.

All arithmetic uses Python's arbitrary-precision integers; there is no
floating point anywhere.  Values are immutable and operations are pure
functions, so everything is safe to evaluate in parallel.
"""

from __future__ import annotations

import operator
import struct
from collections import Counter

from .frozen import Frozen


class DimensionMismatchError(ValueError):
    """Shapes of composed maps do not line up."""


class ClassificationError(ValueError):
    """Module invariants match no direct sum of R, R/I, R/J, I/2I."""


class InvariantError(RuntimeError):
    """A computed object fails a property its construction guarantees."""


# ---------------------------------------------------------------------------
# integer matrices


def _require_plain_ints(values, what):
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} must be plain ints")


class IntegerMatrix(Frozen):
    """Dense integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows, cols, entries):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        self._check_shape()
        _require_plain_ints(self.entries, "entries")

    def _check_shape(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """Matrix of a tuple of ints that this module computed itself from
        checked matrices: the shape is checked, the type of each entry is
        not.  Entries that come from a caller go through the public
        constructor, `from_rows` or `from_columns`."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "entries", entries)
        matrix._check_shape()
        return matrix

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and rows and width != cols:
            raise ValueError("explicit cols disagrees with row width")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [list(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("ragged columns")
        else:
            height = 0 if rows is None else rows
        if rows is not None and columns and height != rows:
            raise ValueError("explicit rows disagrees with column height")
        return cls(height, len(columns),
                   tuple(columns[j][i] for i in range(height) for j in range(len(columns))))

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        diag = list(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        if len(diag) > min(rows, cols):
            raise ValueError(f"{len(diag)} diagonal entries do not fit a {rows}x{cols} matrix")
        return cls(rows, cols, tuple(
            diag[i] if i == j and i < len(diag) else 0
            for i in range(rows) for j in range(cols)))

    @classmethod
    def block_diagonal(cls, *blocks):
        """The blocks down the diagonal, in order, and zeros elsewhere."""
        width = sum(b.cols for b in blocks)
        entries, left = [], 0
        for b in blocks:
            for i in range(b.rows):
                entries.extend((0,) * left)
                entries.extend(b.row(i))
                entries.extend((0,) * (width - left - b.cols))
            left += b.cols
        return cls._trusted(sum(b.rows for b in blocks), width, tuple(entries))

    # -- access --------------------------------------------------------------

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra -------------------------------------------------------------

    def mul(self, other):
        """The product self @ other.

        Past the size crossover `_PACKED_CROSSOVER`, and when the entries
        of other and of the product stay below `_PACKED_LIMIT` in absolute
        value, the rows of other are packed into big ints
        (`_packed_product`); otherwise each entry is one dot product.
        """
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, p = self.rows, self.cols, other.cols
        if n * k * p > _PACKED_CROSSOVER * (n * k + k * p + n * p):
            # bounds every entry of other and of the product
            bound = max(map(abs, other.entries)) * max(1, k * max(map(abs, self.entries)))
            if bound < _PACKED_LIMIT:
                return IntegerMatrix._trusted(
                    n, p, _packed_product(self.entries, other.entries, n, k, p, bound))
        columns = [other.entries[j::p] for j in range(p)]
        return IntegerMatrix._trusted(n, p, tuple(
            sum(map(operator.mul, self.row(i), column))
            for i in range(n) for column in columns))

    __matmul__ = mul

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        vector = tuple(vector)
        if len(vector) != self.cols:
            raise DimensionMismatchError("vector length does not match columns")
        return tuple(sum(map(operator.mul, self.row(i), vector)) for i in range(self.rows))

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return IntegerMatrix._trusted(self.rows, self.cols + other.cols, tuple(out))

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack needs equal column counts")
        return IntegerMatrix._trusted(self.rows + other.rows, self.cols,
                                      self.entries + other.entries)

    def neg(self):
        return IntegerMatrix._trusted(self.rows, self.cols, tuple(-e for e in self.entries))


# Kernel choice for an n x k by k x p product.  The scalar loop takes one
# interpreter step per multiply-add (n*k*p), the packed kernel about one
# per entry of the three matrices (n*k + k*p + n*p).  So it runs once the
# first count is more than twice the second, which keeps every product of
# `kdual verify all` (at most 6x6x6) on the scalar loop.
_PACKED_CROSSOVER = 2
# The widest slot `struct` reads is 8 bytes, one bit of them the sign.
_PACKED_LIMIT = 1 << 63


def _packed_product(left, right, n, k, p, bound):
    """Row-major entries of the product of an n x k and a k x p matrix,
    given row-major, by Kronecker substitution; `bound` is at least the
    absolute value of every entry of the right factor and of the product,
    and below `_PACKED_LIMIT`.

    Row t of the right factor becomes one int, the sum of its entries
    b_tj * 2^(w*j) for a slot width w of 8, 16, 32 or 64 bits that holds
    every entry with its sign.  Then row i of the product packs into the
    sum of a_it times packed row t, one big-int multiply-add per nonzero
    a_it, and is read back by one `struct` unpack: adding the bias
    constant 2^(w-1) in every slot makes each slot hold its entry plus
    2^(w-1), in [0, 2^w).
    """
    size = 1 << ((bound.bit_length() + 8) // 8 - 1).bit_length()  # bytes per slot
    slots = struct.Struct(f"<{p}{'BHIQ'[size.bit_length() - 1]}")
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(slots.pack(*[half] * p), "little")
    rows = [int.from_bytes(slots.pack(*[x + half for x in right[t * p:(t + 1) * p]]), "little")
            - bias for t in range(k)]
    out = []
    for i in range(n):
        acc = bias
        for c, row in zip(left[i * k:(i + 1) * k], rows):
            if c:
                acc += c * row
        out.extend([x - half for x in slots.unpack(acc.to_bytes(size * p, "little"))])
    return tuple(out)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithDecomposition(Frozen):
    """U @ M @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    __slots__ = ("u", "d", "v")
    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix

    def diagonal(self):
        n = min(self.d.rows, self.d.cols)
        return [self.d.entry(i, i) for i in range(n)]

    def solve(self, b) -> tuple | None:
        """One integer solution x of M @ x = b, or None."""
        diag = [d for d in self.diagonal() if d]
        coords = self.u @ IntegerMatrix.from_columns([b])
        if not _columns_in_lattice(coords, diag):
            return None
        y = [t // d for t, d in zip(coords.entries, diag)]
        return self.v.apply(y + [0] * (self.v.rows - len(y)))


def _columns_in_lattice(coords, diag, columns=slice(None)):
    """Whether the given columns of x lie in a lattice, where coords is
    U @ x and U and the nonzero diagonal `diag` come from the lattice's
    Smith form: row i of coords must be divisible by diag[i] below the rank
    and zero past it."""
    for i in range(coords.rows):
        row = coords.row(i)[columns]
        if i >= len(diag):
            if any(row):
                return False
        elif diag[i] != 1 and any(map(diag[i].__rmod__, row)):
            return False
    return True


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rows_matrix(rows, cols):
    """IntegerMatrix of int rows computed here (see IntegerMatrix._trusted)."""
    return IntegerMatrix._trusted(len(rows), cols, tuple(x for r in rows for x in r))


def _columns_matrix(columns, rows):
    """IntegerMatrix of int columns computed here (see IntegerMatrix._trusted)."""
    return IntegerMatrix._trusted(rows, len(columns),
                                  tuple(x for r in zip(*columns) for x in r))


# operations in a pivot step's log (see _replay)
_SWEEP, _SWAP, _NEGATE, _ADD_TO_PIVOT = "sweep", "swap", "negate", "add to pivot"


def _replay(logs, n):
    """Rows of E'_{K-1} ... E'_0, where E'_k = diag(I_k, E_k) and E_k is
    the product of the row operations in `logs[k]` on an (n - k)-row block,
    in order.  An operation is one of

        (_SWEEP, q)          row i += q[i] * row 0 for every i (q[0] = 0)
        (_SWAP, (i, j))      swap rows i and j
        (_NEGATE, None)      row 0 = -row 0
        (_ADD_TO_PIVOT, i)   row 0 += row i

    Going from the last pivot back, the product so far P is replaced by
    diag(1, P) @ E_k.  Multiplying by an operation on the right is a column
    operation, so the log is read last operation first, and a sweep adds to
    entry 0 of each row its dot product with q.  `logs` is emptied as it is
    read.
    """
    width = n - len(logs)
    block = _identity_rows(width)
    while logs:
        log = logs.pop()
        block = [[1] + [0] * width] + [[0] + r for r in block]
        width += 1
        while log:
            kind, arg = log.pop()
            if kind == _SWEEP:
                for r in block:
                    r[0] += sum(map(operator.mul, arg, r))
            elif kind == _SWAP:
                i, j = arg
                for r in block:
                    r[i], r[j] = r[j], r[i]
            elif kind == _NEGATE:
                for r in block:
                    r[0] = -r[0]
            else:
                for r in block:
                    r[arg] += r[0]
    return block


def _smith(m: IntegerMatrix, track_u=False, track_v=False):
    """The elimination behind every Smith normal form in this module.

    Returns the nonzero diagonal entries, the rows of U with `track_u` and
    the columns of V with `track_v` (None without).  Tracking changes no
    step: the pivot rule is the one `smith_normal_form` documents, so U and
    V are the same whether they are built together or apart.

    `a` holds only the active block, rows and columns k.. of the work
    matrix: everything outside it is zero except the diagonal found so far.

    U and V are not updated as the elimination runs.  Pivot step k logs its
    row operations on the block, in order, as E_k, and its column
    operations, transposed, as F_k (see `_replay` for the operations).
    Then U = E'_{K-1} ... E'_0 and V^T = F'_{K-1} ... F'_0 with
    E'_k = diag(I_k, E_k), and `_replay` multiplies them out from the last
    pivot back, so that each operation touches only the n - k entries of
    the block in each row, and a whole Euclid pass (all its multipliers
    use row 0 as the source) costs one dot product per row.  Untracked
    calls log nothing.  Mirroring each operation on the full rows of U and
    V as it happens gives the same integers, but took 68 ms instead of
    50 ms for a 48x48 matrix with entries in [-9, 9], and 0.19 s instead
    of 0.14 s at 64x64 (2-vCPU VM, Python 3.11.7).
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    row_logs = [] if track_u else None
    col_logs = [] if track_v else None
    diag = []

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            if track_u:
                row_log.append((_SWAP, (i, j)))

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            if track_v:
                col_log.append((_SWAP, (i, j)))

    def negate_pivot_row():
        a[0] = [-x for x in a[0]]
        if track_u:
            row_log.append((_NEGATE, None))

    def pick_pivot():
        best = 0
        for i, r in enumerate(a):
            low = min(map(abs, filter(None, r)), default=0)
            if low and (not best or low < best):
                best, row = low, i
                if low == 1:
                    # no later row can beat it, and ties go to the lower row
                    break
        if not best:
            return None
        return row, next(j for j, x in enumerate(a[row]) if abs(x) == best)

    def first_smallest(values):
        cand = None
        for i, x in enumerate(values):
            if i and x and (cand is None or abs(x) < abs(values[cand])):
                cand = i
        return cand

    for _ in range(min(rows, cols)):
        best = pick_pivot()
        if best is None:
            break
        row_log, col_log = [], []
        swap_rows(0, best[0])
        swap_cols(0, best[1])
        while True:
            if a[0][0] < 0:
                negate_pivot_row()
            # row i += q_i * row 0 for every i > 0, logged as one sweep;
            # q_i rounds to the nearest multiple, so the remainders lie in
            # [-h, p - h)
            pivot_row = a[0]
            p = pivot_row[0]
            h = p >> 1
            qs = [-((r[0] + h) // p) for r in a]
            qs[0] = 0
            for i, q in enumerate(qs):
                if q:
                    a[i] = [x + q * y for x, y in zip(a[i], pivot_row)]
            if track_u and any(qs):
                row_log.append((_SWEEP, qs))
            cand = first_smallest([r[0] for r in a])
            if cand is not None:
                swap_rows(0, cand)
                continue
            # column 0 is now zero below the pivot, so the column sweep
            # col j += q_j * col 0 changes only the pivot row of the block
            qs = [-((x + h) // p) for x in pivot_row]
            qs[0] = 0
            if track_v and any(qs):
                col_log.append((_SWEEP, qs))
            pivot_row[1:] = [x + q * p for x, q in zip(pivot_row[1:], qs[1:])]
            cand = first_smallest(pivot_row)
            if cand is not None:
                swap_cols(0, cand)
                continue
            # pivot must divide the remaining block for the divisor chain
            bad = None if p == 1 else next(
                (i for i in range(1, len(a)) if any(map(p.__rmod__, a[i]))), None)
            if bad is None:
                break
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            if track_u:
                row_log.append((_ADD_TO_PIVOT, bad))
        if track_u:
            row_logs.append(row_log)
        if track_v:
            col_logs.append(col_log)
        diag.append(a[0][0])
        a = [r[1:] for r in a[1:]]
    u = _replay(row_logs, rows) if track_u else None
    v = _replay(col_logs, cols) if track_v else None
    return diag, u, v


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize by unimodular row and column operations.

    Deterministic: the pivot is the entry of smallest nonzero absolute
    value in the remaining block, ties broken by lowest (row, col).  Each
    Euclid pass leaves least-absolute remainders: x becomes x + q*p with
    q = -((x + h) // p) and h = p >> 1, in [-h, p - h), so a tie p/2
    becomes -p/2; a negative entry swapped into the pivot is negated with
    its row.  Diagonal entries come out nonnegative with each dividing the
    next.
    """
    diag, u, v = _smith(m, track_u=True, track_v=True)
    return SmithDecomposition(
        _rows_matrix(u, m.rows),
        IntegerMatrix.diagonal(diag, m.rows, m.cols),
        _columns_matrix(v, m.cols),
    )


# ---------------------------------------------------------------------------
# lattices (subgroups of Z^n, given by spanning columns)


def solve(m: IntegerMatrix, b) -> tuple | None:
    """One integer solution x of m @ x = b, or None."""
    return smith_normal_form(m).solve(b)


def kernel_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Columns spanning {x : m @ x = 0}: those of V past the rank."""
    diag, _, v = _smith(m, track_v=True)
    return _columns_matrix(v[len(diag):], m.cols)


def preimage_lattice(m: IntegerMatrix, lattice: IntegerMatrix) -> IntegerMatrix:
    """Columns spanning {x : m @ x lies in the span of lattice}."""
    stacked = m.hstack(lattice.neg())
    ker = kernel_basis(stacked)
    cols = [ker.column(j)[:m.cols] for j in range(ker.cols)]
    return _columns_matrix(cols, m.cols)


def subquotient_group(big: IntegerMatrix, small: IntegerMatrix) -> "FGAbelianGroup":
    """Isomorphism class of (span big) / (span small); small must lie in big."""
    diag, u, _ = _smith(big, track_u=True)
    coords = _rows_matrix(u, big.rows) @ small
    if not _columns_in_lattice(coords, diag):
        raise ValueError("small lattice is not contained in the big one")
    return cokernel(_rows_matrix(
        [[x // d for x in coords.row(i)] for i, d in enumerate(diag)], small.cols))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FGAbelianGroup(Frozen):
    """Invariant factors: torsion orders (each > 1, each dividing the next)
    followed by one 0 per free summand."""

    __slots__ = ("invariant_factors",)
    invariant_factors: tuple

    def __init__(self, invariant_factors=()):
        invariant_factors = tuple(invariant_factors)
        _require_plain_ints(invariant_factors, "invariant factors")
        tors = [f for f in invariant_factors if f != 0]
        zeros = [f for f in invariant_factors if f == 0]
        if list(invariant_factors) != tors + zeros:
            raise ValueError("torsion factors must come before free factors")
        for f in tors:
            if f <= 1:
                raise ValueError("torsion orders must be > 1")
        for prev, nxt in zip(tors, tors[1:]):
            if nxt % prev:
                raise ValueError("each torsion order must divide the next")
        super().__init__(invariant_factors)

    @classmethod
    def from_orders(cls, orders):
        """Canonicalize an arbitrary list of cyclic orders (0 meaning Z)."""
        orders = list(orders)
        _require_plain_ints(orders, "orders")
        if not orders:
            return cls(())
        return cokernel(IntegerMatrix.diagonal(orders))

    @property
    def free_rank(self):
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def torsion_orders(self):
        return tuple(f for f in self.invariant_factors if f != 0)

    def is_trivial(self):
        return not self.invariant_factors

    def direct_sum(self, *others):
        orders = list(self.invariant_factors)
        for g in others:
            orders.extend(g.invariant_factors)
        return FGAbelianGroup.from_orders(orders)

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join("Z" if f == 0 else f"Z/{f}" for f in self.invariant_factors)

    def to_json(self):
        return {"invariant_factors": list(self.invariant_factors)}


def cokernel(m: IntegerMatrix) -> FGAbelianGroup:
    """Z^rows modulo the column span of m, in canonical invariant-factor form."""
    diag, _, _ = _smith(m)
    return _group_of_diagonal(diag, m.rows)


def _group_of_diagonal(diag, rows):
    """Z^rows modulo a lattice whose Smith diagonal has the nonzero entries
    `diag`."""
    return FGAbelianGroup(tuple(d for d in diag if d != 1) + (0,) * (rows - len(diag)))


def relation_lattice(orders) -> IntegerMatrix:
    """Relations of the product of cyclic groups Z/order (0 meaning Z): one
    column order * e_i per nonzero order, in Z^len(orders)."""
    orders = tuple(orders)
    n = len(orders)
    return IntegerMatrix.from_columns(
        [tuple(f if i == j else 0 for j in range(n)) for i, f in enumerate(orders) if f],
        rows=n)


# ---------------------------------------------------------------------------
# modules over Z[t]/(t^2 - 1)


R_NAME = "R"
RI_NAME = "R/I"
RJ_NAME = "R/J"
I2I_NAME = "I/2I"
# the four building blocks, in a fixed order, presented on their minimal
# generators: name -> (rows of the relation matrix, rows of the matrix of t)
INDECOMPOSABLE_PRESENTATIONS = {
    R_NAME: ([[], []], [[0, 1], [1, 0]]),
    RI_NAME: ([[]], [[1]]),
    RJ_NAME: ([[]], [[-1]]),
    I2I_NAME: ([[2]], [[-1]]),
}
INDECOMPOSABLES = tuple(INDECOMPOSABLE_PRESENTATIONS)


class RModule(Frozen):
    """Z^rank modulo the column span of `relations`, with an involution.

    The action matrix must preserve the relation lattice and square to the
    identity modulo it.
    """

    __slots__ = ("rank", "relations", "action", "_smith_diagonal", "_smith_u")
    rank: int
    relations: IntegerMatrix
    action: IntegerMatrix

    def __init__(self, rank, relations, action):
        if relations.rows != rank:
            raise DimensionMismatchError("relations live in the wrong rank")
        if (action.rows, action.cols) != (rank, rank):
            raise DimensionMismatchError("action matrix must be square of the rank")
        super().__init__(rank, relations, action)
        # both conditions are membership in the relation lattice of the
        # columns of [A @ relations | A^2 - I], which U and the diagonal of
        # its Smith form decide from one product U @ [...]
        diag, u_rows, _ = _smith(relations, track_u=True)
        u = _rows_matrix(u_rows, rank)
        images = list((action @ relations.hstack(action)).entries)
        width = relations.cols + rank
        for i in range(rank):
            images[i * width + relations.cols + i] -= 1
        coords = u @ IntegerMatrix._trusted(rank, width, tuple(images))
        if not _columns_in_lattice(coords, diag, slice(relations.cols)):
            raise ValueError("action does not preserve the relations")
        if not _columns_in_lattice(coords, diag, slice(relations.cols, None)):
            raise ValueError("action is not an involution modulo the relations")
        # not annotated, so equality, hashing and repr see only the presentation
        object.__setattr__(self, "_smith_diagonal", tuple(diag))
        object.__setattr__(self, "_smith_u", u)

    def underlying_group(self) -> FGAbelianGroup:
        return _group_of_diagonal(self._smith_diagonal, self.rank)


def indecomposable(name: str) -> RModule:
    """One of the four building blocks, read off INDECOMPOSABLE_PRESENTATIONS."""
    if name not in INDECOMPOSABLE_PRESENTATIONS:
        raise ValueError(f"unknown indecomposable {name!r}")
    relations, action = INDECOMPOSABLE_PRESENTATIONS[name]
    return RModule(len(action), IntegerMatrix.from_rows(relations),
                   IntegerMatrix.from_rows(action))


def multiset_group(multiset) -> FGAbelianGroup:
    """The underlying group of the sum of indecomposables in a multiset,
    (Z/2)^#(I/2I) x Z^(2*#R + #R/I + #R/J), read off without building
    the module."""
    counts = +Counter(multiset)
    return FGAbelianGroup((2,) * counts[I2I_NAME]
                          + (0,) * (2 * counts[R_NAME] + counts[RI_NAME] + counts[RJ_NAME]))


def _two_torsion_count(group: FGAbelianGroup):
    """Number of Z/2 factors, or None if other torsion is present."""
    count = 0
    for f in group.torsion_orders:
        if f != 2:
            return None
        count += 1
    return count


def _mod2_mask(values):
    """The int whose bit j is values[j] mod 2."""
    return sum(1 << j for j, x in enumerate(values) if x & 1)


def _f2_rank(rows):
    """Rank over F2 of the rows given as int bitmasks.  Each row is reduced
    by the basis so far, in order; a basis row lacks the leading bits of
    those before it, so x ^ b < x exactly when x has b's leading bit."""
    basis = []
    for x in rows:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def _f2_inverse(rows, n):
    """Rows, as int bitmasks, of the inverse over F2 of the n x n matrix
    with the given bitmask rows (bit j is column j), by Gauss-Jordan
    elimination on [rows | I]."""
    aug = [r | (1 << (n + i)) for i, r in enumerate(rows)]
    for j in range(n):
        bit = 1 << j
        pivot = next((i for i in range(j, n) if aug[i] & bit), None)
        if pivot is None:
            raise InvariantError("a unimodular matrix is singular modulo 2")
        aug[j], aug[pivot] = aug[pivot], aug[j]
        p = aug[j]
        aug = [r ^ p if r & bit and i != j else r for i, r in enumerate(aug)]
    return [r >> n for r in aug]


def _kernel_two_torsion(module: RModule, d):
    """Number of Z/2 factors of the kernel of 1 - t, and of 1 + t, on a
    module whose torsion T is (Z/2)^d.

    The torsion of ker(op) is the kernel of op on T, and on T, where 2 = 0,
    both operators act as 1 + t, so both counts are d - rank_F2(B) with B
    the matrix of 1 + t on T.  In the coordinates y = U x of the Smith form
    U @ relations @ V = D, T is spanned by the e_i with d_i = 2 and t acts
    by U A U^-1, so B is U (1 + A) U^-1 modulo 2 on those rows and columns.
    U is unimodular, so it is invertible modulo 2.  U and the diagonal are
    the ones the module kept from its own Smith form.
    """
    if not d:
        return 0
    u = module._smith_u.to_rows()
    torsion = [i for i, x in enumerate(module._smith_diagonal) if x == 2]
    # column i of U^-1 mod 2 is row i of the inverse of U^T mod 2
    u_inv_columns = _f2_inverse([_mod2_mask(c) for c in zip(*u)], module.rank)
    one_plus = [_mod2_mask(r) ^ (1 << i) for i, r in enumerate(module.action.to_rows())]
    u_rows = [_mod2_mask(u[i]) for i in torsion]
    # column j of B: bit k is entry (torsion[k], j) of U (1 + A) U^-1 mod 2
    columns = []
    for j in torsion:
        image = _mod2_mask([(r & u_inv_columns[j]).bit_count() for r in one_plus])
        columns.append(_mod2_mask([(r & image).bit_count() for r in u_rows]))
    return d - _f2_rank(columns)


def rmodule_classify(module: RModule) -> Counter:
    """Multiplicities of R, R/I, R/J and I/2I in a decomposable module.

    The fingerprint used is: the underlying group, the quotients by the
    images of (1 - t) and (1 + t), and the kernels of both operators.
    These separate all sums of the four indecomposables; a mismatch on any
    of them raises ClassificationError.  Each quotient M/op(M) is the
    cokernel of [op | relations].  A kernel's free rank always equals its
    quotient's (rank-nullity over Q), so the kernels' 2-torsion is the only
    evidence they add: it is what tells R/2R + R/I + R/J from
    R + (I/2I)^2.  Once M's torsion is known to be elementary 2-torsion,
    that count is one rank over F2 (see `_kernel_two_torsion`).
    """
    ident = IntegerMatrix.identity(module.rank).entries
    one_minus = IntegerMatrix._trusted(module.rank, module.rank, tuple(
        map(operator.sub, ident, module.action.entries)))
    one_plus = IntegerMatrix._trusted(module.rank, module.rank, tuple(
        map(operator.add, ident, module.action.entries)))

    under = module.underlying_group()
    q_minus = cokernel(one_minus.hstack(module.relations))
    q_plus = cokernel(one_plus.hstack(module.relations))

    d = _two_torsion_count(under)
    t_minus = _two_torsion_count(q_minus)
    t_plus = _two_torsion_count(q_plus)
    if d is None or t_minus is None or t_plus is None:
        raise ClassificationError("torsion is not elementary 2-torsion")
    # M/(1-t)M carries one Z/2 per R/J or I/2I summand, M/(1+t)M one per
    # R/I or I/2I; what remains of the free rank is paired into copies of R.
    b = t_plus - d
    c = t_minus - d
    twice_a = under.free_rank - b - c
    if b < 0 or c < 0 or twice_a < 0 or twice_a % 2:
        raise ClassificationError("invariants match no sum of the four indecomposables")
    a = twice_a // 2

    expected = {
        "under": (2 * a + b + c, d),
        "q_minus": (a + b, c + d),
        "q_plus": (a + c, b + d),
        "k_minus": (a + b, d),
        "k_plus": (a + c, d),
    }
    # each kernel has its quotient's free rank and the same 2-torsion count
    kernel_torsion = _kernel_two_torsion(module, d)
    actual = {key: (grp.free_rank, _two_torsion_count(grp))
              for key, grp in (("under", under), ("q_minus", q_minus), ("q_plus", q_plus))}
    actual["k_minus"] = (q_minus.free_rank, kernel_torsion)
    actual["k_plus"] = (q_plus.free_rank, kernel_torsion)
    if expected != actual:
        raise ClassificationError(
            f"fingerprint mismatch: expected {expected}, computed {actual}")

    out = Counter()
    for name, mult in zip(INDECOMPOSABLES, (a, b, c, d)):
        if mult:
            out[name] = mult
    return out


def format_multiset(multiset: Counter) -> str:
    if not +Counter(multiset):
        return "0"
    parts = []
    for name in INDECOMPOSABLES:
        mult = Counter(multiset)[name]
        if mult == 1:
            parts.append(name)
        elif mult > 1:
            parts.append(f"({name})^{mult}")
    return " + ".join(parts)

