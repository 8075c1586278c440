from itertools import combinations
from math import comb

import pytest

import f1geom.spectrum as spectrum
from oracles import count_matrices, count_subspaces
from f1geom.torified import (
    Torification,
    TorifyError,
    bruhat_torification,
    f1_points,
    is_affinely_torified,
    is_torified_cc,
    schubert_torification,
    to_cc,
    torify_cells,
    triple_from_torification,
    weyl_group_order,
)
from f1geom.zeta import q_poly


def torus_sum(T, p):
    return sum((p - 1) ** d for d in T.ranks)


@pytest.mark.parametrize("group", ["SL2", "GL2"])
def test_tits_check_on_bruhat_triples(group):
    # #G(F_1) = |W|: the minimal-rank points of the torified scheme side
    t = triple_from_torification(*bruhat_torification(group))
    assert is_torified_cc(t)
    assert f1_points(t) == weyl_group_order(group) == 2


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 6) for k in range(n + 1)])
def test_schubert_triples_are_disjoint_tori(k, n, monkeypatch):
    calls = []
    build = spectrum._build_scheme_data
    monkeypatch.setattr(spectrum, "_build_scheme_data",
                        lambda *args: calls.append(1) or build(*args))
    T, N = schubert_torification(k, n)
    t = triple_from_torification(T, N)
    assert calls == [1]  # the pointed tori are glued once
    assert is_torified_cc(t)
    assert f1_points(t) == comb(n, k)
    assert len(t.mscheme.connected_components) == len(T.ranks)
    assert to_cc(t).verified


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


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 7) for k in range(n + 1)])
def test_pivot_charts_leave_the_ranks_alone(k, n):
    T, N = schubert_torification(k, n)
    charted, charted_N = schubert_torification(k, n, with_pivot_charts=True)
    assert charted.ranks == T.ranks and charted_N == N
    assert T.labels == () and len(charted.labels) == len(T.ranks)
    assert sorted(t for tori in charted.charts.values() for t in tori) == sorted(charted.labels)


def test_cell_ranks_match_subset_enumeration():
    cells = [(0, 0), (1, 2), (3, 0), (4, 1), (2, 2)]
    subsets = sorted(base + k for d, base in cells
                     for k in range(d + 1) for _ in combinations(range(d), k))
    assert torify_cells(cells) == subsets


def test_unlabeled_make_stores_no_labels():
    T = Torification.make([2, 0, 1, 1])
    assert T.ranks == (0, 1, 1, 2) and T.labels == ()


def test_charts_without_labels_use_torus_indices():
    T = Torification.make([1, 0], charts={"c": [0, 1]}, chart_counts={"c": q_poly(1, 0)})
    assert T.labels == (1, 0) and is_affinely_torified(T) == (True, [])


@pytest.mark.parametrize("charts, chart_counts, message", [
    ({0: ["c"]}, {0: q_poly(1)}, "charts[0] names torus 'c'"),
    ({0: ["a"], "x": ["b"]}, {0: q_poly(1)}, "charts[x]"),
    ({0: ["a"]}, None, "charts[0]"),
])
def test_make_refuses_charts_it_cannot_check(charts, chart_counts, message):
    with pytest.raises(TorifyError) as err:
        Torification.make([0, 1], labels=["a", "b"], charts=charts, chart_counts=chart_counts)
    assert message in str(err.value)
