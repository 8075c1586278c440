import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fan_reference import (
    cone_of_point,
    fan_monoids,
    incomplete_fan_in_zn,
    meets_in_common_face,
)
from f1geom.counting import orbit_count_polynomial
from f1geom.fans import (
    Fan,
    FanError,
    fan_in_zn,
    kato,
    make_fan,
    product_fan,
    standard_fans,
)
from f1geom.intlinalg import kernel_basis, primitive_vector, rat_rank, transpose
from f1geom.monoid import AffineMonoid, group_monoid
from f1geom.spectrum import classify

FAN_CORPUS = {
    "A1": standard_fans("affine_space", 1),
    "A2": standard_fans("affine_space", 2),
    "A3": standard_fans("affine_space", 3),
    "P1": standard_fans("projective_space", 1),
    "P2": standard_fans("projective_space", 2),
    "H1": standard_fans("hirzebruch", 1),
    "P1xP1": standard_fans("product", standard_fans("projective_space", 1),
                           standard_fans("projective_space", 1)),
    "torus2": standard_fans("torus", 2),
    "A1quadric": make_fan(2, [[1, 0], [1, 2]], [[0, 1]]),
}


def test_standard_fan_cone_counts():
    assert len(FAN_CORPUS["P1"].cones) == 3
    assert len(FAN_CORPUS["P2"].cones) == 7
    assert len(FAN_CORPUS["H1"].cones) == 9
    assert len(FAN_CORPUS["H1"].maximal_cones) == 4
    assert len(FAN_CORPUS["A2"].cones) == 4
    assert len(FAN_CORPUS["P1xP1"].cones) == 9


def test_unknown_standard_fan():
    with pytest.raises(FanError):
        standard_fans("weighted_projective", 1, 2, 3)


def test_make_fan_validation():
    with pytest.raises(FanError):
        make_fan(2, [[1, 0], [2, 0]], [[0], [1]])       # duplicate ray direction
    with pytest.raises(FanError):
        make_fan(2, [[1, 0], [-1, 0]], [[0, 1]])        # dependent rays in a cone
    with pytest.raises(FanError):
        make_fan(2, [[1, 0], [0, 0]], [[0]])            # zero ray
    for listed in ([0, 0], [1, 0, 1]):                  # a repeated ray is no smaller cone
        with pytest.raises(FanError, match=re.escape(f"cone {listed} repeats a ray")):
            make_fan(2, [[1, 0], [0, 1]], [listed])
    with pytest.raises(FanError):
        # cone((1,0),(0,1)) and cone((1,1)) overlap without a common face
        make_fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2]])
    # listing the maximal cones is enough: their faces are added
    assert len(make_fan(2, [[1, 0], [0, 1]], [[0, 1]]).cones) == 4


# --- cones meeting in a common face: the relation check against double description

def _closure(rank, rays, cones):
    """The collection with every face of every listed cone, unchecked."""
    faces = {frozenset(f) for c in cones
             for k in range(len(c) + 1) for f in itertools.combinations(c, k)}
    return Fan(rank, tuple(primitive_vector(r) for r in rays), tuple(faces))


def _first_bad_pair(rank, rays, cones):
    """The first pair of maximal cones whose double-description intersection
    leaves their common face, or None."""
    fan = _closure(rank, rays, cones)
    return next(((a, b) for a, b in itertools.combinations(fan.maximal_cones, 2)
                 if not meets_in_common_face(fan, a, b)), None)


def _assert_make_fan_agrees(rank, rays, cones):
    bad = _first_bad_pair(rank, rays, cones)
    if bad is None:
        assert make_fan(rank, rays, cones).cones == _closure(rank, rays, cones).sorted_cones()
    else:
        a, b = bad
        message = f"cones {sorted(a)} and {sorted(b)} do not meet in a common face"
        with pytest.raises(FanError, match=re.escape(message)):
            make_fan(rank, rays, cones)
    return bad is None


E3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
PINNED = {
    # (rank, rays, cones, relations among the rays of the first two cones, accepted)
    "independent union": (3, E3, [[0], [1, 2]], 0, True),
    "P^2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]], 1, True),
    "opposite orthants": (3, E3 + [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                          [[0, 1, 2], [3, 4, 5]], 3, True),
    "diagonal inside the orthant": (3, E3 + [[1, 1, 1], [-1, 0, 0], [0, -1, 0]],
                                    [[0, 1, 2], [3, 4, 5]], 3, False),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_cone_pairs_meet_as_double_description_says(name):
    rank, rays, cones, relations, accepted = PINNED[name]
    union = sorted(set(cones[0]) | set(cones[1]))
    assert len(kernel_basis(transpose([rays[i] for i in union]))) == relations
    assert _assert_make_fan_agrees(rank, rays, cones) == accepted


@st.composite
def simplicial_collections(draw):
    """Two to four simplicial cones in rank 2-4 on distinct primitive rays
    with entries in [-2, 2]; the cones may overlap anywhere."""
    n = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    rays = draw(st.lists(vector, min_size=2, max_size=n + 3, unique_by=primitive_vector))
    cone = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=n, unique=True)
    independent = cone.filter(lambda c: rat_rank([list(rays[i]) for i in c]) == len(c))
    return n, rays, draw(st.lists(independent, min_size=2, max_size=4))


@settings(max_examples=150, deadline=None)
@given(simplicial_collections())
def test_make_fan_rejects_exactly_the_collections_double_description_rejects(case):
    _assert_make_fan_agrees(*case)


def test_kato_point_counts():
    expected = {"A1": 2, "A2": 4, "A3": 8, "P1": 3, "P2": 7, "H1": 9,
                "P1xP1": 9, "torus2": 1, "A1quadric": 4}
    for name, fan in FAN_CORPUS.items():
        X = kato(fan)
        assert len(X.points) == len(fan.cones) == expected[name], name


def test_kato_point_order_matches_cone_inclusion():
    for name in ("P2", "H1", "A2"):
        X = kato(FAN_CORPUS[name])
        for a in X.points:
            for b in X.points:
                ca, cb = cone_of_point(X, a), cone_of_point(X, b)
                assert X.le(a, b) == (ca <= cb), (name, a, b)


def test_kato_ranks_are_codimensions():
    for name, fan in FAN_CORPUS.items():
        X = kato(fan)
        for pt in X.points:
            assert pt.rank == fan.rank - len(cone_of_point(X, pt))


def test_kato_classification_all_true():
    for name, fan in FAN_CORPUS.items():
        flags = classify(kato(fan))
        assert flags == {"connected": True, "integral": True,
                         "finite_type": True, "exponent_one": True}, name


def test_kato_torus_chart():
    X = kato(standard_fans("torus", 2))
    assert len(X.points) == 1
    assert X.charts[0].same_submonoid(group_monoid(2))


def test_complete_fans_give_monic_counting():
    for name in ("P1", "P2", "P1xP1", "H1"):
        fan = FAN_CORPUS[name]
        poly = orbit_count_polynomial(fan)
        assert poly.degree == fan.rank
        assert poly.coefficients[-1] == 1, name


def test_fan_in_zn_p1():
    assert fan_in_zn(FAN_CORPUS["P1"]).ok
    members, charts, violations = fan_monoids(FAN_CORPUS["P1"])
    assert not violations
    charts = sorted(tuple(m.generators) for m in charts.values())
    assert charts == [((-1,),), ((-1,), (1,)), ((1,),)]  # N reversed, Z, N
    members = sorted(tuple(m.generators) for m in members.values())
    assert members == [(), ((-1,),), ((1,),)]


def test_fan_in_zn_quadric_cone_saturated():
    assert fan_in_zn(FAN_CORPUS["A1quadric"]).ok
    _, charts, violations = fan_monoids(FAN_CORPUS["A1quadric"])
    assert not violations
    top = charts[frozenset({0, 1})]
    assert top.same_submonoid(AffineMonoid.make(2, [[0, 1], [1, 0], [2, -1]]))


def test_face_closure_violation_reported():
    broken = incomplete_fan_in_zn(2, [[1, 0], [0, 1]], [[0, 1]])
    assert not broken.ok
    assert any(v[0] == 2 for v in broken.violations)


def test_product_fan_counts():
    f = product_fan(FAN_CORPUS["P1"], FAN_CORPUS["A1"])
    assert len(f.cones) == 6
    assert len(kato(f).points) == 6
