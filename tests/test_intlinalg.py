from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mat_mul, subgroup_invariants_by_kernel, subgroup_order_counts
from f1geom.intlinalg import (
    column_lattice_basis,
    diagonal_of,
    identity_matrix,
    independent_indices,
    kernel_basis,
    primitive_vector,
    quotient_invariants,
    rat_rank,
    scaled_inverse,
    smith_normal_form,
    subgroup_invariants,
    transpose,
    unimodular_inverse,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


# 0 rows or 0 columns, tall shapes up to 8 x 4, and some entries up to +-10^6
snf_matrices = st.integers(0, 8).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9) | st.integers(-10**6, 10**6), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(snf_matrices)
def test_snf_reconstruction_and_divisibility(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    U, D, V = smith_normal_form(A)
    assert sympy.Matrix(U) * sympy.Matrix(A) * sympy.Matrix(V) == sympy.Matrix(D)
    diag = diagonal_of(D)
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # the diagonal against sympy's invariant factors, zeros last
    expected = [abs(int(f)) for f in invariant_factors(sympy.Matrix(A)) if f]
    assert diag == expected + [0] * (len(diag) - len(expected))
    for M in (U, V):
        assert abs(sympy.Matrix(M).det()) == 1


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_members_are_killed(A):
    for v in kernel_basis(A):
        assert mat_mul(A, [[x] for x in v]) == [[0]] * len(A)
    assert rat_rank(A) + len(kernel_basis(A)) == len(A[0])


def test_unimodular_inverse_round_trip():
    U = [[2, 1], [1, 1]]
    Uinv = unimodular_inverse(U)
    assert mat_mul(U, Uinv) == [[1, 0], [0, 1]]


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_unimodular_inverse_inverts_smith_transforms(A):
    U, _, V = smith_normal_form(A)
    for M in (U, V):
        assert mat_mul(unimodular_inverse(M), M) == identity_matrix(len(M))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rat_rank_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    assert rat_rank(A) == sympy.Matrix(A).rank()


# --- the elimination kernel against sympy, on int and Fraction inputs ----------

def _as_fractions(A, data):
    """A with every row scaled by its own random nonzero Fraction."""
    scales = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        min_size=len(A), max_size=len(A)))
    return [[s * x for x in row] for s, row in zip(scales, A)]


def _sympy(A):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in A])


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.data())
def test_rat_rank_matches_sympy_on_fractions(A, data):
    assert rat_rank(_as_fractions(A, data)) == _sympy(A).rank()


def _apply_row_ops(U, ops):
    for i, j, c in ops:
        U[i] = [a + c * b for a, b in zip(U[i], U[j])] if i != j else [-a for a in U[i]]
    return U


square_matrices = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
# row operations r_i += c r_j (i != j) and r_i = -r_i (i == j) on the identity
unimodular_matrices = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)),
    max_size=8).map(lambda ops: _apply_row_ops(identity_matrix(n), ops)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(square_matrices, unimodular_matrices), st.booleans())
def test_unimodular_inverse_matches_sympy(U, fractions):
    M = [[Fraction(x) for x in row] for row in U] if fractions else U
    det = _sympy(U).det()
    if abs(det) != 1:
        with pytest.raises(ValueError, match="singular" if det == 0 else "unimodular"):
            unimodular_inverse(M)
        return
    inverse = unimodular_inverse(M)
    assert _sympy(inverse) == _sympy(U).inv()
    assert all(type(x) is int for row in inverse for x in row)


@settings(max_examples=150, deadline=None)
@given(st.one_of(square_matrices, unimodular_matrices), st.booleans(), st.data())
def test_scaled_inverse_matches_sympy(U, fractions, data):
    M = _as_fractions(U, data) if fractions else U
    if _sympy(U).det() == 0:
        with pytest.raises(ValueError, match="singular"):
            scaled_inverse(M)
        return
    D, P = scaled_inverse(M)
    assert all(type(x) is int for row in P for x in row)
    assert _sympy(P) == D * _sympy(M).inv()  # P = D M^-1
    assert D >= 1 and gcd(D, *(x for row in P for x in row)) == 1  # D is least


def test_column_lattice_basis_spans():
    basis = column_lattice_basis(transpose([[2, 0], [0, 1], [2, 1]]))
    # lattice spanned by (2,0),(0,1),(2,1) is 2Z x Z
    assert len(basis) == 2
    # a basis of index 2 in Z^2, as 2Z x Z is; a point lies in its lattice
    # iff its rational coordinates over the basis are integers
    B = _sympy(transpose(basis))
    assert abs(B.det()) == 2
    for target, inside in (([2, 0], True), ([0, 1], True), ([2, 3], True), ([1, 0], False)):
        coords = B.inv() * _sympy([[x] for x in target])
        assert all(c.is_integer for c in coords) == inside, target


def test_subgroup_invariants_examples():
    assert subgroup_invariants([[2], [3]], 1, []) == (1, [])
    assert subgroup_invariants([[2, 0], [0, 1]], 2, []) == (2, [])
    # subgroup of Z/3 x Z generated by the torsion generator alone
    assert subgroup_invariants([[0, 1]], 1, [3]) == (0, [3])
    # generated by (1, 1bar) in Z x Z/2: infinite cyclic
    assert subgroup_invariants([[1, 1]], 1, [2]) == (1, [])
    assert subgroup_invariants([], 1, []) == (0, [])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(
    lambda torsion: st.tuples(st.just(torsion), st.lists(
        st.lists(st.integers(0, 5), min_size=len(torsion), max_size=len(torsion)),
        max_size=3))))
def test_subgroup_invariants_match_enumeration(case):
    torsion, vectors = case
    rank, factors = subgroup_invariants(vectors, 0, torsion)
    assert rank == 0
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    generators = [[int(i == j) for j in range(len(factors))] for i in range(len(factors))]
    assert subgroup_order_counts(generators, factors) == subgroup_order_counts(vectors, torsion)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(1, 6), max_size=2), st.data())
def test_subgroup_invariants_rank_is_the_free_parts_rank(free_rank, torsion, data):
    width = free_rank + len(torsion)
    vectors = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width),
                                 max_size=4))
    rank, _ = subgroup_invariants(vectors, free_rank, torsion)
    assert rank == rat_rank([v[:free_rank] for v in vectors])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(2, 6), max_size=2), st.data())
def test_subgroup_invariants_equal_the_kernel_route(free_rank, torsion, data):
    width = free_rank + len(torsion)
    vectors = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width),
                                 max_size=5))
    expected = subgroup_invariants_by_kernel(vectors, free_rank, torsion)
    assert subgroup_invariants(vectors, free_rank, torsion) == expected


def test_quotient_invariants_examples():
    assert quotient_invariants(2, [[2, 0], [0, 1]]) == (0, [2])
    assert quotient_invariants(2, [[1, 0]]) == (1, [])
    assert quotient_invariants(3, []) == (3, [])


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_independent_indices_match_greedy_ranks(A):
    kept = []
    for i, row in enumerate(A):
        if rat_rank([A[j] for j in kept] + [row]) > len(kept):
            kept.append(i)
    assert independent_indices(A) == kept


def test_rational_helpers():
    assert rat_rank([[1, 2], [2, 4]]) == 1
    assert independent_indices([[0, 0], [1, 2], [2, 4], [1, 1]]) == [1, 3]
    assert primitive_vector([4, -6]) == (2, -3)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])
