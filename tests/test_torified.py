import pytest

from oracles import count_matrices, count_subspaces
from f1geom.torified import (
    bruhat_torification,
    f1_points,
    is_torified_cc,
    schubert_torification,
    triple_from_torification,
    weyl_group_order,
)


def torus_sum(T, p):
    return sum((p - 1) ** d for d in T.ranks)


@pytest.mark.parametrize("group", ["SL2", "GL2"])
def test_tits_check_on_bruhat_triples(group):
    # #G(F_1) = |W|: the minimal-rank points of the torified scheme side
    t = triple_from_torification(*bruhat_torification(group))
    assert is_torified_cc(t)
    assert f1_points(t) == weyl_group_order(group) == 2


@pytest.mark.parametrize("group", ["SL2", "GL2"])
@pytest.mark.parametrize("p", [2, 3])
def test_bruhat_counts_match_matrix_enumeration(group, p):
    T, N = bruhat_torification(group)
    assert N(p) == count_matrices(group, p) == torus_sum(T, p)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 5) for k in range(0, min(n, 2) + 1)])
@pytest.mark.parametrize("p", [2, 3])
def test_schubert_counts_match_subspace_enumeration(k, n, p):
    T, N = schubert_torification(k, n)
    assert N(p) == count_subspaces(k, n, p) == torus_sum(T, p)
