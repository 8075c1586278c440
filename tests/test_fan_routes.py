"""The fan scheme and the fan conditions, each by two routes.

`kato` reads the points, order, stalks and stalk unit groups of a fan
scheme off the fan (orbit-cone correspondence); `glue` derives them from
the charts' primes and localizations along the same records, each unit
group by Smith form.  `plus_zero` carries a scheme's point data over to
its charts with zero; `glue` derives it again from those charts.
`fan_in_zn` reads conditions (2) and (3) off ray-index sets and takes
(1) as given by construction; `incomplete_fan_in_zn` checks all three by
monoid searches.  Both pairs must agree on every shipped fan, on the
toric size ladder, on a few fans with lower-dimensional or singular cones,
on GL_n(Z) images of all of these, and on random complete rank-2 fans
that are not smooth.
"""
import itertools
import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fan_reference import fan_monoids, incomplete_fan_in_zn
import f1geom.cones as cones
import f1geom.monoid as monoid
import f1geom.spectrum as spectrum
from f1geom.cones import (
    RationalCone,
    dual_cone,
    dual_monoid_generators,
    lattice_monoid_generators,
)
from f1geom.counting import count_points, counting_polynomial
from f1geom.fans import (
    Fan,
    FanError,
    fan_in_zn,
    kato,
    make_fan,
    product_fan,
    standard_fans,
)
from f1geom.intlinalg import dot
from f1geom.io import parse_input
from f1geom.monoid import (
    AffineMonoid,
    TableMonoid,
    free_monoid,
)
from f1geom.spectrum import GluingData, MScheme, classify, glue, plus_zero
from f1geom.torified import orbit_torification

DATA = Path(__file__).resolve().parent.parent / "data"


def _ladder():
    P = {n: standard_fans("projective_space", n) for n in range(1, 5)}
    A = {n: standard_fans("affine_space", n) for n in range(2, 5)}
    fans = {f"P^{n}": P[n] for n in range(1, 5)}
    fans["(P^1)^2"] = product_fan(P[1], P[1])
    fans["(P^1)^3"] = product_fan(fans["(P^1)^2"], P[1])
    fans["P^2xP^1"] = product_fan(P[2], P[1])
    fans.update({f"A^{n}": A[n] for n in range(2, 5)})
    fans.update({f"H_{a}": standard_fans("hirzebruch", a) for a in range(1, 16)})
    # maximal cones below full dimension, and a singular cone
    fans["T^2"] = standard_fans("torus", 2)
    fans["ray in Z^2"] = make_fan(2, [[1, 0]], [[0]])
    fans["P^1xT^1"] = product_fan(P[1], standard_fans("torus", 1))
    fans["A^1xP^1"] = product_fan(standard_fans("affine_space", 1), P[1])
    fans["quadric cone"] = make_fan(3, [[1, 0, 0], [0, 1, 0], [1, 1, 2]], [[0, 1, 2]])
    for path in sorted(DATA.glob("*.fan.json")):
        fans[path.name] = parse_input(path)
    return fans


LADDER = _ladder()


def _unimodular(n, rng):
    """A random matrix in GL_n(Z): a signed permutation times a few
    elementary row operations with multipliers +-1, +-2."""
    M = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        M[i][j] = rng.choice((1, -1))
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((1, -1, 2, -2))
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
    return M


def _gl_image(fan, rng):
    U = _unimodular(fan.rank, rng)
    rays = [[dot(row, r) for row in U] for r in fan.rays]
    return make_fan(fan.rank, rays, fan.maximal_cones)


def _random_rank2_fan(rng):
    """A complete rank-2 fan on 3-6 rays sorted by angle, with a singular
    cone; consecutive rays are less than a half-turn apart."""
    while True:
        rays = set()
        for _ in range(rng.randint(3, 6)):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if any(v):
                g = math.gcd(*v)
                rays.add((v[0] // g, v[1] // g))
        rays = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
        k = len(rays)
        pairs = [(i, (i + 1) % k) for i in range(k)]
        dets = [rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] for i, j in pairs]
        if k >= 3 and all(d > 0 for d in dets) and any(d > 1 for d in dets):
            return make_fan(2, rays, pairs)


def _corpus():
    rng = random.Random(20261018)
    fans = dict(LADDER)
    for name, fan in LADDER.items():
        fans[f"GL({name})"] = _gl_image(fan, rng)
    for i in range(12):
        fans[f"rank2-singular-{i}"] = _random_rank2_fan(rng)
    return fans


CORPUS = _corpus()


def _kato_by_glue(fan):
    """The fan scheme the generic way: the dual-cone charts, identity
    records at the primes of the common faces, and glue()."""
    charts = [AffineMonoid.make(fan.rank, lattice_monoid_generators(dual_cone(fan.cone_obj(c))))
              for c in fan.maximal_cones]

    def prime_of(ci, tau):
        A = charts[ci]
        face = tuple(i for i, g in enumerate(A.generators)
                     if all(dot(g, fan.rays[r]) == 0 for r in tau))
        return next(p for p in A.primes() if p.face == face)

    ident = tuple(tuple(int(a == b) for a in range(fan.rank)) for b in range(fan.rank))
    records = []
    for i, j in itertools.combinations(range(len(charts)), 2):
        common = fan.maximal_cones[i] & fan.maximal_cones[j]
        records.append(GluingData(i, prime_of(i, common), j, prime_of(j, common), ident))
    X = glue(charts, records)
    cone_of_point = {}
    for c in fan.cones:
        ci = next(k for k, mc in enumerate(fan.maximal_cones) if c <= mc)
        cone_of_point[X.class_of[ci, prime_of(ci, c)].key] = c
    return X, cone_of_point


def assert_same_scheme(X, Y):
    """X and Y have the same charts, records, points with their stalk unit
    groups, order, stalks and (chart, prime) -> point map."""
    assert X.charts == Y.charts
    assert X.gluings == Y.gluings
    assert [(p.key, p.units) for p in X.points] == [(p.key, p.units) for p in Y.points]
    assert X.points == Y.points
    assert {(a.key, b.key): X.le(a, b) for a in X.points for b in X.points} == \
        {(a.key, b.key): Y.le(a, b) for a in Y.points for b in Y.points}
    for pt in Y.points:
        assert X.stalk(pt) == Y.stalk(pt), pt
    for ci, chart in enumerate(Y.charts):
        for p in chart.primes():
            assert X.class_of[ci, p] == Y.class_of[ci, p], (ci, p.key)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kato_equals_the_glue_route(name):
    fan = CORPUS[name]
    X = kato(fan)
    Y, cone_of_point = _kato_by_glue(fan)
    assert_same_scheme(X, Y)
    assert X.fan_data.cone_of_point == cone_of_point
    assert len(cone_of_point) == len(fan.cones)


def _plus_zero_by_glue(X):
    """plus_zero the generic way: glue the charts with zero along the same
    records, each prime looked up among the primes of its pointed chart."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        charts = [c.adjoin_zero() for c in X.charts]

    def pointed(ci, p):
        return next(q for q in charts[ci].primes() if q.face == p.face)

    return glue(charts, [GluingData(r.chart_a, pointed(r.chart_a, r.prime_a),
                                    r.chart_b, pointed(r.chart_b, r.prime_b), r.iso)
                         for r in X.gluings])


def _idempotents(letters):
    """The unpointed table monoid of subsets of ``letters`` under union."""
    elements = ["1"] + ["".join(c) for k in range(1, len(letters) + 1)
                        for c in itertools.combinations(letters, k)]
    table = {(x, y): "".join(sorted(set(x + y) - {"1"})) or "1"
             for x in elements for y in elements}
    return TableMonoid.make(elements, table, identity="1")


def _non_fan_schemes():
    N = free_monoid(1)
    generic = N.primes()[0]
    # Z/2 named so that its least label is not the identity
    z2 = TableMonoid.make(("e", "a"), {("e", "e"): "e", ("e", "a"): "a", ("a", "a"): "e"},
                          identity="e")
    return {
        "P^1 by hand": glue([N, N], [GluingData(0, generic, 1, generic, ((-1,),))]),
        "table {1,a,b,ab}": MScheme.affine(_idempotents("ab")),
        # "#" sorts before the zero "0", so the prime keys change order
        "table {1,#}": MScheme.affine(_idempotents("#")),
        "table Z/2": MScheme.affine(z2),
        "table and affine": glue([_idempotents("a"), N], []),
        "pointed table": MScheme.affine(TableMonoid.cyclic_group_with_zero(3)),
    }


NON_FAN = _non_fan_schemes()


@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(NON_FAN))
def test_plus_zero_equals_the_glue_route(name):
    X = kato(CORPUS[name]) if name in CORPUS else NON_FAN[name]
    Z = plus_zero(X)
    assert_same_scheme(Z, _plus_zero_by_glue(X))
    assert Z.pointed and Z.fan_data == X.fan_data


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fan_in_zn_equals_the_search_route(name):
    fan = CORPUS[name]
    fast = fan_in_zn(fan)
    slow = incomplete_fan_in_zn(fan.rank, fan.rays, fan.cones)
    assert fast.violations == slow.violations == ()


@pytest.fixture
def no_gluing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the fan scheme went through the gluing route")

    monkeypatch.setattr(spectrum, "_build_scheme_data", forbidden)


def test_kato_never_reaches_the_gluing_route(no_gluing):
    X = kato(standard_fans("projective_space", 3))
    assert count_points(X, 2).count == 15
    assert counting_polynomial(X).as_polynomial().coefficients == (1, 1, 1, 1)
    assert all(classify(X).values())
    assert sorted(orbit_torification(X).ranks) == sorted(3 - len(c) for c in X.fan_data.fan.cones)


def test_plus_zero_of_a_fan_scheme_never_reaches_the_gluing_route(no_gluing):
    X = kato(standard_fans("projective_space", 3))
    Z = plus_zero(X)
    assert count_points(Z, 2).count == 15
    assert counting_polynomial(Z).as_polynomial().coefficients == (1, 1, 1, 1)
    assert classify(Z) == classify(X)


@pytest.fixture
def no_saturation_generators(monkeypatch):
    def forbidden(*args):
        raise AssertionError("condition (1) rebuilt a monoid or saturation generators")

    monkeypatch.setattr(monoid, "saturation_generators", forbidden)
    monkeypatch.setattr("f1geom.fans.dual_monoid_generators", forbidden)
    monkeypatch.setattr(cones, "lattice_monoid_generators", forbidden)


@pytest.mark.parametrize("name", ["P^4", "(P^1)^3", "A^4", "H_3"])
def test_fan_in_zn_decides_smooth_saturation_by_rank(name, no_saturation_generators):
    assert fan_in_zn(LADDER[name]).violations == ()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fan_monoids_equal_the_double_description_route(name):
    # every chart `kato` could build, against the reference's
    fan = CORPUS[name]
    _, charts, _ = fan_monoids(fan)
    for c in fan.cones:
        assert charts[c] == AffineMonoid.make(fan.rank, dual_monoid_generators(fan.cone_obj(c)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.randoms(use_true_random=False))))
def test_smooth_cone_monoids_equal_the_general_route(case):
    # the GL_n(Z) image of the coordinate cone on e_1..e_k: the first k columns of U
    n, k, rng = case
    U = _unimodular(n, rng)
    sigma = RationalCone.make([[row[j] for row in U] for j in range(k)], rank=n)
    assert dual_monoid_generators(sigma) == lattice_monoid_generators(dual_cone(sigma))


@pytest.fixture
def no_double_description(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a smooth cone went through double description or a Hilbert basis")

    monkeypatch.setattr(cones, "double_description", forbidden)
    monkeypatch.setattr(cones, "_hilbert_vectors", forbidden)


SMOOTH = ["P^4", "(P^1)^3", "A^4", "H_3"]


@pytest.mark.parametrize("name", SMOOTH + [f"GL({name})" for name in SMOOTH])
def test_smooth_fans_skip_double_description(name, no_double_description):
    fan = CORPUS[name]
    assert fan_in_zn(fan).violations == ()
    assert len(kato(fan).points) == len(fan.cones)


@pytest.fixture
def no_cone_intersection(monkeypatch):
    def forbidden(*args):
        raise AssertionError("make_fan intersected cones or took a cone's dual")

    monkeypatch.setattr(cones, "intersection", forbidden)
    monkeypatch.setattr(RationalCone, "inequalities", property(forbidden))


@pytest.mark.parametrize("name", ["P^4", "(P^1)^3", "P^2xP^1", "H_1", "H_15"])
def test_make_fan_checks_common_faces_without_intersecting_cones(name, no_cone_intersection):
    fan = LADDER[name]
    assert make_fan(fan.rank, fan.rays, fan.maximal_cones) == fan


def test_fan_in_zn_reads_conditions_2_and_3_off_the_ray_sets():
    # two quadrants of a collection that lacks their common ray and the origin
    fan = Fan(2, ((1, 0), (0, 1), (-1, 0)), (frozenset({0, 1}), frozenset({1, 2})))
    fast = fan_in_zn(fan).violations
    slow = incomplete_fan_in_zn(fan.rank, fan.rays, fan.cones).violations
    assert sorted(v for v in fast if v[0] == 2) == sorted(v for v in slow if v[0] == 2)
    assert len(slow) == 6 and all(v[0] == 2 for v in slow)
    assert [v for v in fast if v[0] == 3] == [
        (3, ((0, 1), (1, 2)), "intersection is not a common prime complement")]


def test_condition_3_tests_the_geometric_intersection():
    # cone((1,0),(0,1)) and cone((1,1)) share no ray but meet along (1,1)
    fz = incomplete_fan_in_zn(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2], [0], [1], []])
    assert fz.violations == (
        (3, ((2,), (0, 1)), "intersection is not a common prime complement"),)
    with pytest.raises(FanError, match="do not meet in a common face"):
        make_fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2]])
