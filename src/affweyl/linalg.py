"""Exact integer and rational linear algebra.

Everything here works over Python ints and fractions.Fraction; no floats
ever enter the computations.  Matrices are tuples of row tuples, vectors
are tuples.  Matrix products and covector actions are linear
combinations of rows that skip zero coefficients, so a product of Weyl
matrices (one non-zero entry per row on GL_n) takes or adds whole rows
instead of forming a dense n^3 sum.  The Smith normal form returns both
unimodular transforms; its row transform is what lattice-quotient
presentations read.  Finite partial orders, given as down-set bitmasks,
are reduced to their Hasse diagrams here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, mul
from typing import Optional, Sequence

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def identity_matrix(n: int) -> Mat:
    """The n x n identity, one shared tuple per size."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _row_combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> Vec:
    """sum_k coeffs[k] * rows[k], skipping the zero coefficients.

    A row with coefficient 1 is taken as it is, so a Weyl matrix row (one
    entry +-1) costs one row copy at most.
    """
    out = None
    for c, row in zip(coeffs, rows):
        if c:
            if out is None:
                out = row if c == 1 else [c * x for x in row]
            elif c == 1:
                out = [x + y for x, y in zip(out, row)]
            else:
                out = [x + c * y for x, y in zip(out, row)]
    return (0,) * width if out is None else tuple(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Row i of ab is the combination of the rows of b by row i of a."""
    width = len(b[0]) if b else 0
    return tuple([_row_combination(row, b, width) for row in a])


def mat_vec(a: Mat, v: Sequence[int]) -> Vec:
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_mat(v: Sequence[int], a: Mat) -> Vec:
    """Row vector times matrix; the dual action on covectors."""
    return _row_combination(v, a, len(a[0]) if a else 0)


def scaled_inverse(a: Mat) -> tuple[int, Mat]:
    """(d, d * a^-1) for an integer matrix a, with d = |det a|.

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer, every division is exact, and the left block ends as +-det a
    times the identity.  Raises ValueError if the matrix is singular.
    """
    n = len(a)
    rows = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[k], rows[piv] = rows[piv], rows[k]
        row_k = rows[k]
        pk = row_k[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(x * pk - f * y) // prev for x, y in zip(rows[i], row_k)]
        prev = pk
    sign = 1 if prev > 0 else -1
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)


def mat_inverse(a: Mat) -> Mat:
    """Inverse of an integer matrix that is invertible over the integers.

    Raises ValueError if the matrix is singular or the inverse is not
    integral.
    """
    d, inv = scaled_inverse(a)
    if d != 1:
        raise ValueError("matrix is not invertible over the integers")
    return inv


def solve_rational(columns: Sequence[Sequence[int]], target: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Solve sum_k c_k * columns[k] = target exactly over the rationals.

    The columns must be linearly independent; returns None when the target
    is outside their span, otherwise the unique coefficient tuple.
    """
    m = len(target)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None
    return tuple(aug[i][k] for i in range(k))


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == D with U, V unimodular; diag(D) in divisibility order."""

    u: Mat
    d: Mat
    v: Mat

    @property
    def diagonal(self) -> Vec:
        m, n = len(self.d), len(self.d[0]) if self.d else 0
        return tuple(self.d[i][i] for i in range(min(m, n)))


def smith_normal_form(a: Mat) -> SmithForm:
    """Smith normal form U A V = D with both unimodular transforms.

    Pure integer row/column reduction; U A V = D holds at every step, and
    U and V change only by swaps, negations and integer row or column
    additions, so they stay unimodular.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(m)]
    v = [list(row) for row in identity_matrix(n)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in range(m):
            d[r][i] += c * d[r][j]
        for r in range(n):
            v[r][i] += c * v[r][j]

    def col_neg(i):
        for r in range(m):
            d[r][i] = -d[r][i]
        for r in range(n):
            v[r][i] = -v[r][i]

    def pivot_pos(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pivot_pos(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if d[t][t] < 0:
            row_neg(t)
        # clear row and column t; restarts when a division leaves a remainder
        dirty = True
        while dirty:
            dirty = False
            for r in range(t + 1, m):
                if d[r][t] != 0:
                    q = d[r][t] // d[t][t]
                    row_add(r, t, -q)
                    if d[r][t] != 0:
                        row_swap(t, r)
                        if d[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for c in range(t + 1, n):
                if d[t][c] != 0:
                    q = d[t][c] // d[t][t]
                    col_add(c, t, -q)
                    if d[t][c] != 0:
                        col_swap(t, c)
                        if d[t][t] < 0:
                            col_neg(t)
                        dirty = True
        # enforce divisibility of the remaining block by d[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            row_add(t, offender[0], 1)
            continue
        t += 1

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SmithForm(freeze(u), freeze(d), freeze(v))


def integer_kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis (as columns) of the lattice of integer solutions of A x = 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return ()
    sf = smith_normal_form(a)
    diag = sf.diagonal
    free = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    return tuple(tuple(sf.v[i][j] for i in range(n)) for j in free)


def hermite_row_form(rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Row-style Hermite normal form of the row span (zero rows dropped).

    Pivots are positive and entries above each pivot are reduced to the
    range [0, pivot).  Canonical for a given row lattice.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    out: list[list[int]] = []
    col = 0
    while work and col < ncols:
        cand = [r for r in work if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                for k in range(ncols):
                    r[k] -= q * piv[k]
                if r[col] != 0:
                    done = False
            cand = [piv] + [r for r in cand[1:] if r[col] != 0]
            if done or len(cand) == 1:
                break
        if piv[col] < 0:
            for k in range(ncols):
                piv[k] = -piv[k]
        out.append(piv)
        work = [r for r in work if r is not piv and any(r)]
        col += 1
    # reduce entries above pivots, top pivot first: row i is zero left of its
    # pivot, so reducing by it keeps the columns of the pivots above it
    for i in range(len(out)):
        pcol = next(k for k in range(ncols) if out[i][k] != 0)
        for j in range(i):
            q = out[j][pcol] // out[i][pcol]
            if q:
                for k in range(ncols):
                    out[j][k] -= q * out[i][k]
    return tuple(tuple(r) for r in out)


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def hasse_diagram(
    down: Sequence[int],
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Cover edges and bottoms of a finite partial order, from down-sets.

    Bit i of down[j] says whether element i is below element j, and bit j
    is set.  The lower covers of j are its strict down-set minus the
    strict down-sets of the elements in it, walked from the highest index;
    an element already removed is skipped, as its strict down-set lies in
    that of the one that removed it, so any index order works.  Returns
    the pairs (i, j) with i < j and nothing strictly between, in row-major
    order, and the indices of the elements below every element.
    """
    strict = [d & ~(1 << j) for j, d in enumerate(down)]
    edges = []
    for j, below in enumerate(strict):
        covers = rest = below
        while rest:
            i = rest.bit_length() - 1
            covers &= ~strict[i]
            rest = covers & ((1 << i) - 1)
        edges += [(i, j) for i in _bits(covers)]
    bottoms = tuple(_bits(reduce(and_, down, (1 << len(down)) - 1)))
    return tuple(sorted(edges)), bottoms
