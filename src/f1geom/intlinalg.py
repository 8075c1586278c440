"""Exact integer and rational linear algebra.

Matrices are plain lists of lists of Python ints: arbitrary precision and
no floating point anywhere.  Two eliminations carry every result.
`smith_normal_form`, one pivot loop giving U A V = D with d1 | d2 | ...,
serves the lattice work: integer kernels, column lattices and invariant
factors (`subgroup_invariants` is a column lattice and a quotient, two
Smith forms).  `_eliminate`, fraction-free Gauss-Jordan over Python ints
that keeps every row primitive by dividing out its gcd, serves rational
rank, greedy independent subsets and scaled inverses (D, D M^-1), hence
unimodular inverses, in one pass each.  Fraction rows are scaled to ints
first, so every result is in ints.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    if not A:
        return []
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def smith_normal_form(A: list[list[int]]):
    """Compute U, D, V with U @ A @ V = D diagonal, U and V unimodular,
    d1 | d2 | ... and every d_i >= 0.

    One pivot loop: the smallest nonzero entry of the trailing block moves
    to (k, k) and clears its column and row by floor division.  A nonzero
    remainder is smaller than the pivot, so it is the next pivot; once row
    and column k are clear, a trailing row with an entry the pivot does not
    divide is added to row k, whose reduction then leaves a remainder.
    Each round shrinks |d_k|, so the loop ends, and d_k divides every entry
    left when k moves on.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)
    k = 0
    while k < min(m, n):
        entries = [(abs(D[i][j]), i, j) for i in range(k, m) for j in range(k, n) if D[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        D[k], D[i], U[k], U[i] = D[i], D[k], U[i], U[k]
        if j != k:
            for M in (D, V):
                for row in M:
                    row[k], row[j] = row[j], row[k]
        p = D[k][k]
        for i in range(k + 1, m):
            q = D[i][k] // p
            if q:
                D[i] = [a - q * b for a, b in zip(D[i], D[k])]
                U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        for j in range(k + 1, n):
            q = D[k][j] // p
            if q:
                for M in (D, V):
                    for row in M:
                        row[j] -= q * row[k]
        if any(D[i][k] for i in range(k + 1, m)) or any(D[k][k + 1:]):
            continue  # a remainder is left: it is the next, smaller pivot
        # a row the pivot does not divide is added to row k, to pivot again
        i = abs(p) > 1 and next(
            (i for i in range(k + 1, m) if any(x % p for x in D[i][k + 1:])), 0)
        if i:
            D[k] = [a + b for a, b in zip(D[k], D[i])]
            U[k] = [a + b for a, b in zip(U[k], U[i])]
            continue
        if p < 0:
            D[k] = [-a for a in D[k]]
            U[k] = [-a for a in U[k]]
        k += 1
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


def scaled_inverse(M: list[list]) -> tuple[int, list[list[int]]]:
    """(D, P) with P = D M^-1 integral and D >= 1 least, for a nonsingular
    square int or Fraction matrix M.

    One fraction-free elimination of [M | I] leaves rows (p_i e_i | F_i)
    with F = diag(p) M^-1, so row i of M^-1 is F_i / p_i; its entries need
    the denominator |p_i| / gcd(p_i, F_i), and D is the lcm of those.
    """
    n = len(M)
    A = [_integral(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(M)]
    if len(_eliminate(A, n)) < n:
        raise ValueError("matrix is singular")
    D = lcm(*(abs(row[i]) // gcd(row[i], *row[n:]) for i, row in enumerate(A)))
    return D, [[D * x // row[i] for x in row[n:]] for i, row in enumerate(A)]


def unimodular_inverse(U: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    D, P = scaled_inverse(U)
    if D != 1:
        raise ValueError("matrix is not unimodular")
    return P


def column_lattice_basis(A: list[list[int]]) -> list[list[int]]:
    """Basis (as column vectors) of the lattice spanned by the columns of A:
    with U A V = D, A V = U^-1 D, whose nonzero columns d_i (U^-1)_i are one."""
    m = len(A)
    if m == 0 or not A[0]:
        return []
    _, D, V = smith_normal_form(A)
    return [[dot(row, col) for row in A]
            for col, d in zip(transpose(V), diagonal_of(D)) if d != 0]


def subgroup_invariants(vectors: list[list[int]], free_rank: int, torsion: list[int]):
    """Isomorphism type of the subgroup H of Z^r (+) Z/d_1 (+) ... generated
    by the given vectors v_1, ..., v_m (length r + len(torsion) each).

    Returns (rank, factors) with factors in divisibility order, 1s dropped.
    With L the lattice the lifts span and K the torsion relations d_j e_{r+j},
    H = (L + K)/K.  Over a basis of L + K (s <= r + t vectors), K is
    spanned by the relations' coordinates, read through s independent rows,
    so H is Z^s modulo at most t vectors.
    """
    r, t = free_rank, len(torsion)
    relations = [[d if i == r + j else 0 for i in range(r + t)] for j, d in enumerate(torsion)]
    basis = column_lattice_basis(transpose([list(v) for v in vectors] + relations))
    rows = independent_indices(transpose(basis))
    D, P = scaled_inverse([[b[i] for b in basis] for i in rows])
    return quotient_invariants(len(basis), [[dot(p, [k[i] for i in rows]) // D for p in P]
                                            for k in relations])


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


def independent_indices(rows: list[list]) -> list[int]:
    """Indices of the rows a greedy pass keeps, each rationally independent
    of the kept rows before it: the pivot columns of one elimination of
    the transpose."""
    return _eliminate([_integral(col) for col in transpose(rows)], len(rows))


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector (same ray)."""
    ints = _integral(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))
