from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import f1geom.spectrum as spectrum
from f1geom.io import parse_input
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

DATA = Path(__file__).resolve().parent.parent / "data"


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
    assert sorted(t for tori, _ in charted.charts.values() for t in tori) == \
        sorted(charted.labels)


def test_cell_ranks_match_subset_enumeration():
    cells = [(0, 0), (1, 2), (3, 0), (4, 1), (2, 2)]
    subsets = sorted(base + k for d, base in cells
                     for k in range(d + 1) for _ in combinations(range(d), k))
    # the multiplicities, in ascending rank order, and never a per-torus list
    assert torify_cells(cells) == dict(Counter(subsets))
    assert list(torify_cells(cells)) == sorted(set(subsets))


def test_unlabeled_make_stores_no_labels():
    T = Torification.make([2, 0, 1, 1])
    assert T.ranks == (0, 1, 1, 2) and T.labels == ()


def test_charts_without_labels_use_torus_indices():
    T = Torification.make([1, 0], charts={"c": ([0, 1], q_poly(1, 0))})
    assert T.labels == (1, 0) and is_affinely_torified(T) == (True, [])


def test_labels_of_equal_rank_keep_the_callers_order():
    assert Torification.make([0, 0], labels=[2, 10]).labels == (2, 10)
    assert Torification.make([1, 0, 1], labels=["b", "c", "a"]).labels == ("c", "b", "a")


def test_make_refuses_a_chart_naming_an_unlabeled_torus():
    with pytest.raises(TorifyError, match=r"charts\[0\] names torus 'c'"):
        Torification.make([0, 1], labels=["a", "b"], charts={0: (["c"], q_poly(1))})


def _shifted_coefficients(N):
    """Coefficients of N(t + 1) in powers of t.  Since N(q) = sum_r m_r (q-1)^r
    for a torification with m_r tori of rank r, these are the m_r."""
    out = [0] * len(N.coefficients)
    for k, c in enumerate(N.coefficients):
        for r in range(k + 1):
            out[r] += c * comb(k, r)
    return [(r, m) for r, m in enumerate(out) if m]


def _cell_torification(path):
    cells = parse_input(path)
    return cells.torification(), cells.count_polynomial()


TORIFICATIONS = {
    **{f"Gr({k},{n})": (schubert_torification, k, n) for n in range(9) for k in range(n + 1)},
    "SL2": (bruhat_torification, "SL2"),
    "GL2": (bruhat_torification, "GL2"),
    **{path.name: (_cell_torification, path) for path in sorted(DATA.glob("*.cells.json"))},
}


@pytest.mark.parametrize("case", TORIFICATIONS)
def test_rank_multiplicities_are_the_coefficients_of_n_at_t_plus_one(case):
    build, *args = TORIFICATIONS[case]
    T, N = build(*args)
    assert list(T.rank_counts) == _shifted_coefficients(N)


@given(st.lists(st.integers(0, 6), max_size=30))
def test_make_reads_a_rank_list_and_its_multiplicities_alike(ranks):
    T = Torification.make(ranks)
    assert T == Torification.make(Counter(ranks)) == Torification.make(dict(Counter(ranks)))
    assert T.labels == () and T.ranks == tuple(sorted(ranks))
    assert all(m > 0 for _, m in T.rank_counts)


@pytest.mark.parametrize("ranks", [[0, -1], {2: 1, -1: 3}, {1: -2}])
def test_make_refuses_negative_ranks_and_multiplicities(ranks):
    with pytest.raises(TorifyError, match="nonnegative"):
        Torification.make(ranks)
