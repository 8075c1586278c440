"""emit then parse_input is the identity on every emittable kind."""
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from f1geom.io import ValidationError, emit, object_from_dict, parse_input
from f1geom.monoid import AffineMonoid, TableMonoid
from f1geom.torified import bruhat_torification, schubert_torification

DATA = Path(__file__).resolve().parent.parent / "data"
FAN_FILES = sorted(DATA.glob("*.fan.json"))
CELL_FILES = sorted(DATA.glob("*.cells.json"))
ROUND_TRIP = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def affine_monoids(draw):
    rank = draw(st.integers(0, 3))
    torsion = draw(st.lists(st.integers(2, 6), max_size=2))
    width = rank + len(torsion)
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                         max_size=4))
    return AffineMonoid.make(rank, gens, torsion=torsion, pointed=draw(st.booleans()))


def round_trip(obj, tmp_path, counting=None):
    path = tmp_path / "obj.json"
    emit(obj, path, counting=counting)
    return parse_input(path)


@ROUND_TRIP
@given(affine_monoids())
def test_affine_monoid_round_trip(tmp_path, A):
    assert round_trip(A, tmp_path) == A


@ROUND_TRIP
@given(st.integers(1, 6))
def test_cyclic_group_with_zero_round_trip(tmp_path, n):
    M = TableMonoid.cyclic_group_with_zero(n)
    back = round_trip(M, tmp_path)
    assert back == M and back.table == M.table


@pytest.mark.parametrize("path", FAN_FILES, ids=lambda p: p.name)
def test_fan_round_trip(tmp_path, path):
    fan = parse_input(path)
    assert round_trip(fan, tmp_path) == fan


@pytest.mark.parametrize("group", ["SL2", "GL2"])
def test_torification_round_trip_keeps_the_counting_polynomial(tmp_path, group):
    T, N = bruhat_torification(group)
    assert round_trip(T, tmp_path, counting=N) == (T, N)


@pytest.mark.parametrize("charts", [False, True], ids=["plain", "pivot-charts"])
@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 6) for k in range(n + 1)])
def test_schubert_torification_round_trip(tmp_path, k, n, charts):
    T, N = schubert_torification(k, n, with_pivot_charts=charts)
    back, back_N = round_trip(T, tmp_path, counting=N)
    assert (back, back_N) == (T, N) and back.labels == T.labels
    data = json.loads((tmp_path / "obj.json").read_text())
    # labels and charts need the per-torus list; without them, multiplicities
    assert [key in data for key in ("labels", "ranks", "rank_counts")] == \
        [charts, charts, not charts]
    assert back.charts == T.charts


def test_largest_schubert_torification_round_trip(tmp_path):
    # Gr(4, 8): 200,787 tori in 17 ranks, written as one line of 17
    # [rank, multiplicity] pairs
    T, N = schubert_torification(4, 8)
    assert round_trip(T, tmp_path, counting=N) == (T, N)
    text = (tmp_path / "obj.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n") and len(text) < 400
    data = json.loads(text)
    assert data["rank_counts"] == [list(pair) for pair in T.rank_counts] and "ranks" not in data
    assert len(T.rank_counts) == 17 and sum(m for _, m in T.rank_counts) == 200_787


def test_a_per_torus_file_parses_to_the_same_torification(tmp_path):
    # the one-rank-per-torus form that earlier versions wrote for Gr(4, 8)
    T, N = schubert_torification(4, 8)
    path = tmp_path / "gr48.torification.json"
    path.write_text(json.dumps({"counting": list(N.coefficients), "kind": "torification",
                                "ranks": list(T.ranks)}, sort_keys=True) + "\n")
    assert parse_input(path) == (T, N)


def _torification(**entries):
    return object_from_dict({"kind": "torification", "counting": [1], **entries})


@pytest.mark.parametrize("rank_counts, expected", [
    ({"0": 1}, r"'rank_counts' must be a list"),
    ([[0, 1], [1]], r"rank_counts\[1\] must be a \[rank, multiplicity\] pair"),
    ([[0, 1, 2]], r"rank_counts\[0\] must be a \[rank, multiplicity\] pair"),
    ([5], r"rank_counts\[0\] must be a list of integers"),
    ([[True, 1]], r"rank_counts\[0\] must be a list of integers"),
    ([[0, False]], r"rank_counts\[0\] must be a list of integers"),
    ([[0, 1.0]], r"rank_counts\[0\] must be a list of integers"),
    ([[0, 2], [-1, 1]], r"rank_counts\[1\] is \[-1, 1\]: ranks must be nonnegative"),
    ([[0, 2], [1, 0]], r"rank_counts\[1\] is \[1, 0\]: .* multiplicities positive"),
    ([[0, 2], [3, -4]], r"rank_counts\[1\] is \[3, -4\]: .* multiplicities positive"),
    ([[1, 2], [0, 1]], r"rank_counts\[1\] has rank 0, not above .* strictly ascending"),
    ([[0, 1], [2, 2], [2, 1]], r"rank_counts\[2\] has rank 2, not above .* strictly ascending"),
], ids=["not-a-list", "short-pair", "long-pair", "bare-number", "bool-rank",
        "bool-multiplicity", "float", "negative-rank", "zero-multiplicity",
        "negative-multiplicity", "unsorted", "repeated"])
def test_malformed_rank_counts_name_the_entry(rank_counts, expected):
    with pytest.raises(ValidationError, match=expected):
        _torification(rank_counts=rank_counts)


@pytest.mark.parametrize("entries", [{"ranks": [0]}, {"labels": ["a"]},
                                     {"charts": {"c": {"tori": ["a"], "counting": [1]}}},
                                     {"ranks": [0], "labels": ["a"]}],
                         ids=["ranks", "labels", "charts", "ranks-and-labels"])
def test_rank_counts_next_to_a_per_torus_entry_is_refused(entries):
    with pytest.raises(ValidationError, match=r"'rank_counts' cannot be combined with \["):
        _torification(rank_counts=[[0, 1]], **entries)


def test_rank_counts_file_parses_to_its_multiplicities():
    T, N = _torification(rank_counts=[[0, 1], [2, 10 ** 30]])
    assert T.rank_counts == ((0, 1), (2, 10 ** 30)) and T.labels == () and N.coefficients == (1,)
    assert _torification(rank_counts=[])[0].rank_counts == ()


@pytest.mark.parametrize("path", CELL_FILES, ids=lambda p: p.name)
def test_cell_torification_round_trip(tmp_path, path):
    cells = parse_input(path)
    T, N = cells.torification(), cells.count_polynomial()
    assert T.labels == () and round_trip(T, tmp_path, counting=N) == (T, N)


def test_labeled_torification_file_keeps_its_labels(tmp_path):
    T, N = parse_input(DATA / "sl2.torification.json")
    back, back_N = round_trip(T, tmp_path, counting=N)
    assert len(T.labels) == len(T.ranks) > 0
    assert back.labels == T.labels and back.ranks == T.ranks and back_N == N


@pytest.mark.parametrize("value", ["no", 1, None])
def test_pointed_must_be_a_json_boolean(value):
    data = {"kind": "monoid", "ambient_rank": 1, "generators": [[1]], "pointed": value}
    with pytest.raises(ValidationError, match="'pointed'"):
        object_from_dict(data)
