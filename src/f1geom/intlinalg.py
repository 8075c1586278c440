"""Exact integer and rational linear algebra.

Matrices are plain lists of lists of Python ints, so everything is
arbitrary precision and there is no floating point anywhere.  This is the
arithmetic bedrock for lattice computations: Smith normal form, integer
kernels and solves, and invariant factors of subgroups and quotients of
finitely generated abelian groups.

Rational rank, rational solves and unimodular inverses share one
elimination kernel, `_eliminate`: fraction-free Gauss-Jordan over Python
ints that keeps every row primitive by dividing out its gcd.  Fraction
inputs are scaled row by row to ints first; the only Fractions built are
the entries of a `rat_solve` solution, one per pivot.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in A]


def transpose(A):
    if not A:
        return []
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def smith_normal_form(A: list[list[int]]):
    """Compute U, D, V with U @ A @ V = D diagonal and d1 | d2 | ... .

    U and V are unimodular; the diagonal entries are normalized to be
    nonnegative.  Row/column pivoting picks the smallest nonzero entry,
    which keeps intermediate entries small at the scales we work at.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        D[dst] = [a + c * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    k = 0
    while k < min(m, n):
        # locate smallest nonzero pivot in the trailing block
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            # clear column k below the pivot
            done = True
            for i in range(k + 1, m):
                if D[i][k] != 0:
                    q = D[i][k] // D[k][k]
                    add_row(i, k, -q)
                    if D[i][k] != 0:
                        swap_rows(i, k)
                        done = False
            for j in range(k + 1, n):
                if D[k][j] != 0:
                    q = D[k][j] // D[k][k]
                    add_col(j, k, -q)
                    if D[k][j] != 0:
                        swap_cols(j, k)
                        done = False
            if done:
                break
        if D[k][k] < 0:
            negate_row(k)
        k += 1

    # enforce the divisibility chain d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold row i+1 into the 2x2 block and rediagonalize
                add_col(i, i + 1, 1)
                while True:
                    if D[i][i] != 0:
                        q = D[i + 1][i] // D[i][i]
                        add_row(i + 1, i, -q)
                    if D[i + 1][i] == 0:
                        break
                    swap_rows(i, i + 1)
                # row ops may have reintroduced an off-diagonal entry
                if D[i][i + 1] != 0:
                    q = D[i][i + 1] // D[i][i]
                    add_col(i + 1, i, -q)
                if D[i][i] < 0:
                    negate_row(i)
                if D[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return U, D, V


def diagonal_of(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def kernel_basis(A: list[list[int]]) -> list[list[int]]:
    """Integer basis of {x : A x = 0}.  The returned lattice is saturated."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity_matrix(n)
    _, D, V = smith_normal_form(A)
    diag = diagonal_of(D)
    return [[row[j] for row in V] for j in range(n) if j >= len(diag) or diag[j] == 0]


def unimodular_inverse(U: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    n = len(U)
    M = [_integral(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(U)]
    if len(_eliminate(M, n)) < n:
        raise ValueError("matrix is singular")
    if any(x % row[i] for i, row in enumerate(M) for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return [[x // row[i] for x in row[n:]] for i, row in enumerate(M)]


def integer_solver(A: list[list[int]]):
    """The map b -> one integer solution x of A x = b, or None if none
    exists, computing A's Smith form once.

    With U A V = D, A x = b has an integer solution iff U b is divisible
    entrywise by the diagonal of D (and zero where it is zero).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return lambda b: [0] * n
    U, D, V = smith_normal_form(A)
    diag = diagonal_of(D) + [0] * (m - min(m, n))

    def solve(b):
        c = mat_vec(U, b)
        if any(x % d if d else x for x, d in zip(c, diag)):
            return None
        y = [x // d if d else 0 for x, d in zip(c, diag)] + [0] * n
        return mat_vec(V, y[:n])

    return solve


def column_lattice_basis(A: list[list[int]]) -> list[list[int]]:
    """Basis (as column vectors) of the lattice spanned by the columns of A."""
    m = len(A)
    if m == 0 or not A[0]:
        return []
    U, D, _ = smith_normal_form(A)
    Uinv = unimodular_inverse(U)
    return [[row[i] * d for row in Uinv] for i, d in enumerate(diagonal_of(D)) if d != 0]


def subgroup_invariants(vectors: list[list[int]], free_rank: int, torsion: list[int]):
    """Isomorphism type of the subgroup of Z^r (+) Z/d_1 (+) ... generated
    by the given vectors (length r + len(torsion) each).

    Returns (rank, factors) with factors in divisibility order, 1s dropped.
    The subgroup is (L + K)/K for L the lattice of lifts and K the torsion
    relation lattice, computed by expressing K in a basis of L + K.
    """
    r, t = free_rank, len(torsion)
    if not vectors and t == 0:
        return 0, []
    krels = [[d if i == r + j else 0 for i in range(r + t)] for j, d in enumerate(torsion)]
    basis = column_lattice_basis(transpose([list(v) for v in vectors] + krels))  # of L + K
    if not basis:
        return 0, []
    solve = integer_solver(transpose(basis))  # K lies in L + K: every relation solves
    return quotient_invariants(len(basis), [solve(rel) for rel in krels])


def quotient_invariants(ambient_rank: int, sub_basis: list[list[int]]):
    """Isomorphism type of Z^n / (lattice spanned by sub_basis vectors)."""
    if not sub_basis:
        return ambient_rank, []
    _, D, _ = smith_normal_form(transpose([list(v) for v in sub_basis]))
    nonzero = [d for d in diagonal_of(D) if d != 0]
    return ambient_rank - len(nonzero), [d for d in nonzero if d > 1]


# --- rational helpers --------------------------------------------------------

def _integral(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators (int rows as is)."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    denom = lcm(*[f.denominator for f in fracs])
    return [f.numerator * (denom // f.denominator) for f in fracs]


def _eliminate(M: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of the int rows of M in
    place over their first ncols columns.

    A row r is cleared against the pivot row p by r <- p_col r - r_col p,
    then divided by the gcd of its entries; being primitive, it stays
    bounded by minors of the input.  Afterwards the pivot rows come first,
    row r has its nonzero pivot in column pivots[r] and the rest of that
    column is 0; trailing columns (a right-hand side or an identity block)
    are carried along.  Returns the pivot columns.
    """
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(M):
            break
        piv = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        prow = M[row]
        p = prow[col]
        for r in range(len(M)):
            f = M[r][col]
            if r != row and f != 0:
                new = [p * a - f * b for a, b in zip(M[r], prow)]
                g = gcd(*new)
                M[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return pivots


def rat_rank(rows: list[list]) -> int:
    M = [_integral(row) for row in rows]
    return len(_eliminate(M, len(M[0]) if M else 0))


def rat_solve(cols: list[list], b: list):
    """Solve sum_j x_j cols[j] = b exactly; None if inconsistent.

    The columns need not be independent; one solution is returned, as
    Fractions.
    """
    n = len(cols)
    M = [_integral([c[i] for c in cols] + [b[i]]) for i in range(len(b))]
    pivots = _eliminate(M, n)
    if any(M[r][n] != 0 for r in range(len(pivots), len(b))):
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = Fraction(M[r][n], M[r][col])
    return x


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector (same ray)."""
    ints = _integral(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))
