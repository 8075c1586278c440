import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import itertools
import time
from math import gcd, prod

import sympy

from oracles import (
    generated_lattice_points,
    in_rational_cone,
    is_saturated,
    minimal_lattice_points,
    parallelepiped_points,
)
from f1geom import cones
from f1geom.cones import (
    DD_MEMO_SIZE,
    ConeError,
    RationalCone,
    _double_description,
    _parallelepiped_points,
    _simplices,
    cone,
    double_description,
    dual_cone,
    dual_monoid_generators,
    faces,
    hilbert_basis,
    intersection,
    lattice_monoid_generators,
    signed_rows,
)
from f1geom.intlinalg import diagonal_of, quotient_invariants, smith_normal_form, transpose
from f1geom.monoid import AbelianGroup, AffineMonoid


def test_dual_orthant_is_self_dual():
    c = cone((1, 0), (0, 1))
    d = dual_cone(c)
    assert d.rays == ((0, 1), (1, 0)) and d.lineality == ()


def test_dual_of_single_ray_is_a_halfplane():
    d = dual_cone(cone((1, 0)))
    assert d.rays == ((1, 0),)
    assert len(d.lineality) == 1 and d.lineality[0][0] == 0


def test_dual_of_a1_cone():
    d = dual_cone(cone((1, 0), (1, 2)))
    assert set(d.rays) == {(0, 1), (2, -1)}


def test_dual_of_dual_returns_original():
    for rays in [((1, 0), (0, 1)), ((1, 0), (1, 2)), ((2, 1), (1, 3)),
                 ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0),)]:
        c = cone(*rays)
        dd = dual_cone(dual_cone(c))
        assert dd.rays == c.rays
        assert not dd.effective_lineality


def test_faces_counts():
    assert len(faces(cone((1, 0), (0, 1)))) == 4
    assert len(faces(cone((1, 0)))) == 2
    # non-simplicial handling path via the dual of the A_1 cone
    assert len(faces(dual_cone(cone((1, 0), (1, 2))))) == 4


def test_faces_of_nonsimplicial_cone():
    c = RationalCone.make([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], rank=3)
    fs = faces(c)
    dims = sorted(f.dim for f in fs)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]  # square cone face lattice


def test_hilbert_basis_examples():
    assert hilbert_basis(cone((1, 0), (0, 1))).vectors == ((0, 1), (1, 0))
    assert set(hilbert_basis(cone((0, 1), (2, -1))).vectors) == \
        {(0, 1), (1, 0), (2, -1)}
    assert set(hilbert_basis(cone((1, 0), (1, 2))).vectors) == \
        {(1, 0), (1, 1), (1, 2)}


def test_hilbert_basis_generates_all_lattice_points():
    # every lattice point of the cone with coordinate sum <= 10 must be a
    # nonnegative combination of the basis (checked by DP enumeration)
    for rays in [((0, 1), (2, -1)), ((1, 0), (1, 2)), ((1, 0), (1, 3)),
                 ((2, 1), (1, 2))]:
        c = cone(*rays)
        hb = hilbert_basis(c).vectors
        generated = generated_lattice_points(list(hb), 10)
        for x0 in range(-10, 11):
            for x1 in range(-10, 11):
                if abs(x0) + abs(x1) > 10:
                    continue
                pt = (x0, x1)
                if c.contains(pt):
                    assert pt in generated, (rays, pt)


def _box_size(vectors):
    size = 1
    for coordinate in zip(*vectors):
        size *= sum(abs(x) for x in coordinate) + 1
    return size


@st.composite
def independent_vectors(draw):
    """k <= n <= 4 independent integer vectors whose parallelepiped's
    bounding box stays small enough to scan."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    bound = 3 if n <= 3 else 2
    vectors = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * n),
                            min_size=k, max_size=k))
    assume(sympy.Matrix(vectors).rank() == k and _box_size(vectors) <= 1500)
    return vectors


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(independent_vectors())
def test_parallelepiped_points_match_the_box_scan(vectors):
    _, D, W = smith_normal_form(transpose([list(v) for v in vectors]))
    points = _parallelepiped_points(vectors, diagonal_of(D), W)
    assert set(points) == parallelepiped_points(vectors)
    # one point per coset of V Z^k in its saturation: the product of the
    # Smith invariants, which is the gcd of the k x k minors of V
    V = sympy.Matrix(vectors).T
    k = len(vectors)
    minors = [int(V.extract(list(rows), list(range(k))).det())
              for rows in itertools.combinations(range(V.rows), k)]
    assert len(points) == gcd(*minors)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_hilbert_basis_is_the_set_of_minimal_lattice_points(data):
    # 2 to n + 1 nonnegative rays in Z^2 and Z^3 and 2 or 3 in Z^4, so cones
    # of lower dimension embedded in Z^3 and Z^4 come up as well; or k <= n
    # independent rays of any signs, a simplicial cone off the orthant
    if data.draw(st.booleans()):
        rays = data.draw(independent_vectors())
        n = len(rays[0])
        assume(_box_size(rays) <= 250)
    else:
        n = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(2, 3)) if n == 4 else data.draw(st.integers(2, n + 1))
        rays = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                                  min_size=k, max_size=k))
        assume(all(any(r) for r in rays) and _box_size(rays) <= 400)
    sigma = RationalCone.make(rays, rank=n)
    assert set(hilbert_basis(sigma).vectors) == minimal_lattice_points(rays)


# --- the pulling subdivision ---------------------------------------------------

@st.composite
def pointed_cones(draw):
    """A pointed cone of rank 3 or 4 listing 4 to 8 rays: first coordinates
    are positive, so e_1* is positive on the cone.  Some listed rays are
    sums of others, not extremal; some cones lie in a hyperplane."""
    n = draw(st.integers(3, 4))
    k = draw(st.integers(4, 8))
    rays = draw(st.lists(st.tuples(st.integers(1, 3), *[st.integers(-2, 2)] * (n - 1)),
                         min_size=2, max_size=k))
    pairs = st.tuples(st.integers(0, len(rays) - 1), st.integers(0, len(rays) - 1))
    for i, j in draw(st.lists(pairs, min_size=k - len(rays), max_size=k - len(rays))):
        rays.append(tuple(a + b for a, b in zip(rays[i], rays[j])))
    if draw(st.booleans()):  # into the hyperplane x_n = x_1 - x_2
        rays = [r[:-1] + (r[0] - r[1],) for r in rays]
    return RationalCone.make(rays, rank=n)


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_simplices_cover_the_cone_by_independent_cones_of_its_dimension(sigma):
    simplices = _simplices(sigma)
    for S in simplices:
        assert len(S) == sigma.dim == sympy.Matrix([sigma.rays[i] for i in S]).rank()
    box = itertools.product(*[range(-1, 3)] + [range(-2, 3)] * (sigma.rank - 1))
    sums = (tuple(map(sum, zip(*pair))) for pair in itertools.combinations(sigma.rays, 2))
    for x in itertools.chain(box, sums, [tuple(map(sum, zip(*sigma.rays)))]):
        if sigma.contains(x):
            assert any(in_rational_cone([sigma.rays[i] for i in S], x) for S in simplices), x


@pytest.mark.parametrize("rays, inner", [
    # over a pentagon in rank 3, and over the 0/1 points of weight 1 or 2 in rank 4
    ([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], {(0, 0, 1)}),
    ([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)],
     set()),
])
def test_hilbert_basis_of_a_non_simplicial_cone_takes_only_its_own_dual(
        rays, inner, monkeypatch):
    calls = []
    take = cones.double_description
    monkeypatch.setattr(cones, "double_description",
                        lambda rows, n: calls.append(rows) or take(rows, n))
    _double_description.cache_clear()
    sigma = RationalCone.make(rays)
    assert set(hilbert_basis(sigma).vectors) == set(rays) | inner
    assert len(calls) == 1 and _double_description.cache_info().misses == 1
    assert not sigma.simplicial and len(_simplices(sigma)) > 1


@st.composite
def pointed_plane_rays(draw):
    """Two or three rays with entries in [-12, 12] spanning a pointed
    two-dimensional cone in Z^2."""
    rays = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any),
                         min_size=2, max_size=3))
    sigma = RationalCone.make(rays, rank=2)
    assume(sigma.dim == 2 and sigma.pointed)
    return rays


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pointed_plane_rays(), st.integers(-3, 3), st.integers(-3, 3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@example([(1, 0), (1, 5)], 0, 0, [0, 0, 0])  # det(u, v) > 0 as the facets list them
@example([(1, 0), (1, -5)], 2, -1, [1, -2, 0])  # det(u, v) < 0
@example([(2, -1), (-3, 2)], 1, 1, [0, 3, 0])  # det 1: the basis is the two rays
@example([(5, -3), (1, 1), (-2, 7)], -1, 2, [2, 0, -3])  # (1, 1) is not extremal
def test_plane_hilbert_basis_matches_the_signed_oracle(rays, a, b, heights):
    expected = minimal_lattice_points(rays)
    assert set(hilbert_basis(RationalCone.make(rays, rank=2)).vectors) == expected
    # the same monoid as the pointed quotient of a rank-3 cone with lineality
    # (a, b, 1), which (x, y, z) -> (x - a z, y - b z) maps onto Z^2 and kills
    lifted = [(x + a * z, y + b * z, z) for (x, y), z in zip(rays, heights)]
    gens = lattice_monoid_generators(
        RationalCone.make(lifted, rank=3, lineality=((a, b, 1),)))
    assert (a, b, 1) in gens and (-a, -b, -1) in gens
    assert {(x - a * z, y - b * z) for x, y, z in gens} == expected | {(0, 0)}


def test_hilbert_basis_of_a_huge_determinant_plane_cone_skips_the_cosets():
    # det 10^6 + 1: a walk over the cosets would list every one of them
    start = time.perf_counter()
    basis = hilbert_basis(cone((1, 0), (1000002, 1000003))).vectors
    assert basis == ((1, 0), (1, 1), (1000002, 1000003))
    assert time.perf_counter() - start < 1.0


def test_hilbert_basis_of_a_large_determinant_cone():
    basis = hilbert_basis(cone((1, 0), (1, 400))).vectors
    assert basis == tuple((1, k) for k in range(401))


def test_hilbert_rejects_non_pointed():
    with pytest.raises(ConeError):
        hilbert_basis(RationalCone.make([(1, 0)], rank=2, lineality=((0, 1),)))
    with pytest.raises(ConeError):
        hilbert_basis(cone((1,), (-1,)))


def test_cones_past_rank_4_take_the_same_routes():
    # no rank is capped: the rank-5 orthant is self-dual, a rank-5 simplex of
    # determinant 2 adds its one parallelepiped point, and the cone over the
    # 5-cube, a normal polytope, has its 32 vertices as its Hilbert basis
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    orthant = RationalCone.make(units, rank=5)
    assert dual_cone(orthant).rays == hilbert_basis(orthant).vectors == orthant.rays
    simplex = RationalCone.make(units[:4] + [(1, 1, 1, 1, 2)], rank=5)
    assert set(hilbert_basis(simplex).vectors) == set(simplex.rays) | {(1, 1, 1, 1, 1)}
    cube = [v + (1,) for v in itertools.product((0, 1), repeat=5)]
    assert hilbert_basis(RationalCone.make(cube, rank=6)).vectors == tuple(sorted(cube))


@st.composite
def simplicial_cones(draw):
    """k <= n <= 4 independent rays whose parallelepiped holds P <= 10^3
    lattice points (P = |det| when k = n).  The dual's holds up to
    P^(n - 1), so in ranks 3 and 4 P^(n - 1) <= 10^4 keeps it quick."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    bound = {1: 5, 2: 40, 3: 3, 4: 2}[n]
    rays = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * n),
                         min_size=k, max_size=k))
    assume(sympy.Matrix(rays).rank() == k)
    sigma = RationalCone.make(rays, rank=n)
    _, D, _ = smith_normal_form(transpose([list(r) for r in sigma.rays]))
    size = prod(diagonal_of(D))
    assume(size <= 1000 and size ** (n - 1) <= (10_000 if n > 2 else 1000))
    return sigma


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(simplicial_cones())
def test_both_lattice_monoids_of_a_simplicial_cone_are_saturated(sigma):
    # what `fans.fan_in_zn` takes as given for condition (1): sigma cap Z^n
    # and sigma^dual cap Z^n are saturated, and the member has trivial units
    # and a torsion-free Z^n / Quot
    n = sigma.rank
    member = AffineMonoid.make(n, lattice_monoid_generators(sigma))
    chart = AffineMonoid.make(n, dual_monoid_generators(sigma))
    assert is_saturated(member) and is_saturated(chart)
    assert member.units() == AbelianGroup(0)
    assert quotient_invariants(n, [list(g) for g in member.generators])[1] == []


def test_lattice_monoid_generators_with_lineality():
    gens = lattice_monoid_generators(
        RationalCone.make([], rank=2, lineality=((1, 0), (0, 1))))
    assert set(gens) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    halfplane = RationalCone.make([(1, 0), (-1, 0), (0, 1)], rank=2)
    gens2 = lattice_monoid_generators(halfplane)
    assert (0, 1) in gens2 and (1, 0) in gens2 and (-1, 0) in gens2
    assert all(v[1] >= 0 for v in gens2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1, max_size=4))
def test_membership_agrees_with_nonneg_solver(rays):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    from oracles import in_rational_cone

    c = RationalCone.make(rays, rank=2)
    for x0 in range(-4, 5):
        for x1 in range(-4, 5):
            assert c.contains((x0, x1)) == in_rational_cone(rays, (x0, x1))


rays_of_rank = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *[st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                   .filter(any), min_size=1, max_size=3) for _ in range(2)],
    )
)


@settings(max_examples=60, deadline=None)
@given(rays_of_rank)
def test_intersection_agrees_with_brute_force_membership(data):
    n, rays_a, rays_b = data
    inter = intersection((cone(*rays_a), cone(*rays_b)), n)
    for x in itertools.product(range(-2, 3), repeat=n):
        assert inter.contains(x) == (in_rational_cone(rays_a, x)
                                     and in_rational_cone(rays_b, x)), x


def test_intersection_of_no_cones_is_everything():
    inter = intersection((), 2)
    assert inter.rays == () and len(inter.lineality) == 2
    assert all(inter.contains(x) for x in itertools.product(range(-2, 3), repeat=2))


# --- the double-description memo ----------------------------------------------

cones_with_lineality = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *[st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                   max_size=size) for size in (5, 2)],
    )
)


@settings(max_examples=100, deadline=None)
@given(cones_with_lineality)
def test_memoized_double_description_matches_the_uncached_helper(data):
    n, rays, lineality = data
    rows = signed_rows(rays, lineality)
    expected = _double_description.__wrapped__(tuple(map(tuple, rows)), n)
    assert double_description(rows, n) == expected  # a miss or a hit
    assert double_description([tuple(r) for r in rows], n) == expected  # a hit


def test_double_description_memo_is_bounded():
    assert _double_description.cache_info().maxsize == DD_MEMO_SIZE
    for k in range(DD_MEMO_SIZE + 40):
        double_description([[1, k], [0, 1]], 2)
        assert _double_description.cache_info().currsize <= DD_MEMO_SIZE
    assert _double_description.cache_info().currsize == DD_MEMO_SIZE
