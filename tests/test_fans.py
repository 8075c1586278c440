import pytest

from fan_reference import incomplete_fan_in_zn
from f1geom.counting import orbit_count_polynomial
from f1geom.fans import (
    FanError,
    fan_in_zn,
    kato,
    make_fan,
    product_fan,
    standard_fans,
)
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
    with pytest.raises(FanError):
        # cone((1,0),(0,1)) and cone((1,1)) overlap without a common face
        make_fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2]])
    # listing the maximal cones is enough: their faces are added
    assert len(make_fan(2, [[1, 0], [0, 1]], [[0, 1]]).cones) == 4


def test_kato_point_counts():
    expected = {"A1": 2, "A2": 4, "A3": 8, "P1": 3, "P2": 7, "H1": 9,
                "P1xP1": 9, "torus2": 1, "A1quadric": 4}
    for name, fan in FAN_CORPUS.items():
        X = kato(fan)
        assert len(X.points) == len(fan.cones) == expected[name], name


def test_kato_point_order_matches_cone_inclusion():
    for name in ("P2", "H1", "A2"):
        X = kato(FAN_CORPUS[name])
        fd = X.fan_data
        for a in X.points:
            for b in X.points:
                ca, cb = fd.cone_of_point[a.key], fd.cone_of_point[b.key]
                assert X.le(a, b) == (ca <= cb), (name, a, b)


def test_kato_ranks_are_codimensions():
    for name, fan in FAN_CORPUS.items():
        X = kato(fan)
        for pt in X.points:
            c = X.fan_data.cone_of_point[pt.key]
            assert pt.rank == fan.rank - fan.cone_dim(c)


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
    fz = fan_in_zn(FAN_CORPUS["P1"])
    assert fz.ok
    charts = sorted(tuple(m.generators) for m in fz.chart_monoids.values())
    assert charts == [((-1,),), ((-1,), (1,)), ((1,),)]  # N reversed, Z, N
    members = sorted(tuple(m.generators) for m in fz.members.values())
    assert members == [(), ((-1,),), ((1,),)]


def test_fan_in_zn_quadric_cone_saturated():
    fz = fan_in_zn(FAN_CORPUS["A1quadric"])
    assert fz.ok
    top = fz.chart_monoids[frozenset({0, 1})]
    assert top.same_submonoid(AffineMonoid.make(2, [[0, 1], [1, 0], [2, -1]]))


def test_face_closure_violation_reported():
    broken = incomplete_fan_in_zn(2, [[1, 0], [0, 1]], [[0, 1]])
    assert not broken.ok
    assert any(v[0] == 2 for v in broken.violations)


def test_product_fan_counts():
    f = product_fan(FAN_CORPUS["P1"], FAN_CORPUS["A1"])
    assert len(f.cones) == 6
    assert len(kato(f).points) == 6
