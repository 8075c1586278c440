import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1geom.intlinalg import (
    column_lattice_basis,
    diagonal_of,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_rank,
    primitive_vector,
    quotient_invariants,
    rat_rank,
    rat_solve,
    smith_normal_form,
    solve_integer,
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


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_reconstruction_and_divisibility(A):
    U, D, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == D
    diag = diagonal_of(D)
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # U and V unimodular: their SNFs are identity-like
    for M in (U, V):
        _, DM, _ = smith_normal_form(M)
        assert all(d == 1 for d in diagonal_of(DM))


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_members_are_killed(A):
    for v in kernel_basis(A):
        assert all(x == 0 for x in mat_vec(A, v))
    assert matrix_rank(A) + len(kernel_basis(A)) == len(A[0])


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_solve_integer_solutions_check_out(A, x):
    x = (x * 4)[: len(A[0])]
    b = mat_vec(A, x)
    sol = solve_integer(A, b)
    assert sol is not None
    assert mat_vec(A, sol) == b


def test_solve_integer_detects_unsolvable():
    assert solve_integer([[2]], [3]) is None
    assert solve_integer([[1, 0], [0, 0]], [1, 1]) is None


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


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_rat_solve_solves_or_reports_inconsistency(A, b):
    sympy = pytest.importorskip("sympy")
    b = b[: len(A)]
    x = rat_solve(transpose(A), b)  # the columns of A
    augmented = sympy.Matrix(A).row_join(sympy.Matrix(b))
    if augmented.rank() > sympy.Matrix(A).rank():
        assert x is None
    else:
        assert mat_vec(A, x) == b


def test_column_lattice_basis_spans():
    basis = column_lattice_basis(transpose([[2, 0], [0, 1], [2, 1]]))
    # lattice spanned by (2,0),(0,1),(2,1) is 2Z x Z
    assert len(basis) == 2
    for target in ([2, 0], [0, 1], [2, 3]):
        cols = transpose(basis)
        assert solve_integer(cols, target) is not None
    assert solve_integer(transpose(basis), [1, 0]) is None


def test_subgroup_invariants_examples():
    assert subgroup_invariants([[2], [3]], 1, []) == (1, [])
    assert subgroup_invariants([[2, 0], [0, 1]], 2, []) == (2, [])
    # subgroup of Z/3 x Z generated by the torsion generator alone
    assert subgroup_invariants([[0, 1]], 1, [3]) == (0, [3])
    # generated by (1, 1bar) in Z x Z/2: infinite cyclic
    assert subgroup_invariants([[1, 1]], 1, [2]) == (1, [])
    assert subgroup_invariants([], 1, []) == (0, [])


def test_quotient_invariants_examples():
    assert quotient_invariants(2, [[2, 0], [0, 1]]) == (0, [2])
    assert quotient_invariants(2, [[1, 0]]) == (1, [])
    assert quotient_invariants(3, []) == (3, [])


def test_rational_helpers():
    assert rat_rank([[1, 2], [2, 4]]) == 1
    assert rat_solve([[2, 0], [0, 2]], [1, 1]) is not None
    assert rat_solve([[1, 0]], [0, 1]) is None
    assert primitive_vector([4, -6]) == (2, -3)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])
