import itertools
import sys
import warnings
from fractions import Fraction
from functools import cached_property
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    count_group_homs,
    generated_lattice_points,
    integral_by_stalks,
    is_saturated,
    truncated_primes_of_free_monoid,
)
from f1geom.monoid import (
    AbelianGroup,
    AffineMonoid,
    MonoidError,
    PrimeIdeal,
    TableMonoid,
    free_monoid,
    group_monoid,
    hom_count_to_cyclic,
    saturate,
)
from f1geom.intlinalg import dot
from f1geom.spectrum import MScheme, classify, plus_zero


# --- primes ---------------------------------------------------------------------

def test_primes_of_free_rank_one():
    ps = free_monoid(1).primes()
    assert len(ps) == 2
    faces = sorted(p.face for p in ps)
    assert faces == [(), (0,)]  # maximal prime (empty face) and the empty prime


def test_primes_of_trivial_monoid():
    assert len(AffineMonoid.make(0, []).primes()) == 1


def test_primes_of_n2_match_truncated_enumeration():
    ps = free_monoid(2).primes()
    assert len(ps) == 4
    # independent oracle: prime truncations of the degree-2 window
    assert len(truncated_primes_of_free_monoid(2)) == 4


def test_primes_count_matches_faces_for_corpus():
    corpus = [
        free_monoid(3),
        AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]]),
        AffineMonoid.make(1, [[2], [3]]),
        group_monoid(2),
        AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]]),
    ]
    for A in corpus:
        from f1geom.cones import face_index_sets

        assert len(A.primes()) == len(face_index_sets(A.recession_cone))


def test_prime_list_order_and_extremes():
    A = free_monoid(2)
    ps = A.primes()
    # generic first (in every prime), closed point last (holds every prime)
    assert all(ps[0].is_subset_of(p) and p.is_subset_of(ps[-1]) for p in ps)
    assert ps[0].face == (0, 1)
    assert ps[-1].face == ()


def test_table_monoid_primes_and_cap():
    M = TableMonoid.cyclic_group_with_zero(3)
    ps = M.primes()
    assert len(ps) == 1 and ps[0].elements == frozenset({"0"})
    big = TableMonoid.cyclic_group_with_zero(40)  # 41 elements, past any subset search
    assert [p.elements for p in big.primes()] == [frozenset({"0"})]


def test_pointed_table_primes_contain_zero():
    M = TableMonoid.make(
        ("1", "x", "0"),
        {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
         ("x", "x"): "x", ("x", "0"): "0", ("0", "0"): "0"},
        identity="1", zero="0")
    ps = M.primes()
    assert sorted(sorted(p.elements) for p in ps) == [["0"], ["0", "x"]]
    assert all("0" in p.elements for p in ps)


# --- localization -----------------------------------------------------------------

def test_localize_at_maximal_prime_is_identity():
    for A in (free_monoid(1), free_monoid(2),
              AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]])):
        loc, hom = A.localize(A.primes()[-1])
        assert loc.same_submonoid(A)
        for g in A.generators:
            assert hom.apply(g) == g
        with pytest.raises(MonoidError, match="not in the source"):
            hom.apply((-1,) * A.width)


def test_localize_at_minimal_prime_is_group_completion():
    A = free_monoid(2)
    loc, _ = A.localize(A.primes()[0])
    assert loc.is_group
    assert loc.units() == AbelianGroup(2)


def test_localize_n2_at_coordinate_face():
    A = free_monoid(2)
    # generators sorted: (0,1) is index 0, (1,0) is index 1
    p = next(q for q in A.primes() if q.face == (1,))
    loc, _ = A.localize(p)
    expected = AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]])
    assert loc.same_submonoid(expected)


def test_localize_table_collapse():
    # {1, x, 0} with x idempotent: inverting x collapses it to 1
    M = TableMonoid.make(
        ("1", "x", "0"),
        {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
         ("x", "x"): "x", ("x", "0"): "0", ("0", "0"): "0"},
        identity="1", zero="0")
    p0 = next(p for p in M.primes() if p.elements == frozenset({"0"}))
    loc, hom = M.localize(p0)
    assert len(loc.elements) == 2
    assert hom.apply("x") == hom.apply("1")
    pmax = next(p for p in M.primes() if p.elements == frozenset({"x", "0"}))
    loc2, _ = M.localize(pmax)
    assert len(loc2.elements) == 3


# --- table monoids against the subset, fraction and presentation oracles -----------

def _table(names, mul, identity="1", zero=None):
    return TableMonoid.make(names, {(a, b): mul(a, b) for a in names for b in names},
                            identity=identity, zero=zero)


def cyclic_monoid(index, period):
    """<x | x^(index + period) = x^index>, on 1, x, x^2, ..."""
    names = ["1", "x"] + [f"x^{k}" for k in range(2, index + period)]
    names = names[:index + period]

    def exponent(k):
        return k if k < index else index + (k - index) % period

    return _table(names, lambda a, b: names[exponent(names.index(a) + names.index(b))])


def union_semilattice(k):
    """Subsets of k letters under union, the empty set written 1."""
    subsets = ["".join(c) for r in range(k + 1) for c in itertools.combinations("abcde"[:k], r)]
    return _table(["1"] + subsets[1:], lambda a, b: "".join(sorted(set(a + b) - {"1"})) or "1")


def truncated_plane(degree):
    """Monomials x^i y^j of N^2 with i + j <= degree, the rest sent to 0."""
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    name = {m: "".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xy", m) if e) or "1"
            for m in monomials}
    exponents = {x: m for m, x in name.items()}

    def mul(a, b):
        if "0" in (a, b):
            return "0"
        return name.get(tuple(map(add, exponents[a], exponents[b])), "0")

    return _table(list(name.values()) + ["0"], mul, zero="0")


def product(M, N):
    """M x N, pointed by (zero, zero) when both factors are pointed."""
    names = {f"({a},{b})": (a, b) for a in M.elements for b in N.elements}

    def mul(x, y):
        (a, b), (c, d) = names[x], names[y]
        return f"({M.op(a, c)},{N.op(b, d)})"

    zero = f"({M.zero},{N.zero})" if M.pointed and N.pointed else None
    return _table(list(names), mul, identity=f"({M.identity},{N.identity})", zero=zero)


TABLE_CORPUS = {
    **{f"cyclic({i},{n})": cyclic_monoid(i, n) for i in range(3) for n in range(1, 5)},
    **{f"mu{n}+0": TableMonoid.cyclic_group_with_zero(n) for n in range(1, 7)},
    **{f"union{k}": union_semilattice(k) for k in range(1, 4)},
    **{f"union{k}+0": union_semilattice(k).adjoin_zero() for k in range(1, 4)},
    **{f"plane{d}": truncated_plane(d) for d in (1, 2)},
    "Z/2xZ/2": product(cyclic_monoid(0, 2), cyclic_monoid(0, 2)),
    "Z/2xZ/3": product(cyclic_monoid(0, 2), cyclic_monoid(0, 3)),
    "cyclic(1,2)xZ/2": product(cyclic_monoid(1, 2), cyclic_monoid(0, 2)),
    "cyclic(2,1)xcyclic(1,1)": product(cyclic_monoid(2, 1), cyclic_monoid(1, 1)),
    "cyclic(2,2)xcyclic(1,2)": product(cyclic_monoid(2, 2), cyclic_monoid(1, 2)),
    "mu2+0xmu1+0": product(TableMonoid.cyclic_group_with_zero(2), TableMonoid.f1_monoid()),
    "mu3+0xunion1": product(TableMonoid.cyclic_group_with_zero(3), union_semilattice(1)),
    "union2xZ/3": product(union_semilattice(2), cyclic_monoid(0, 3)),
    "plane1xmu2+0": product(truncated_plane(1), TableMonoid.cyclic_group_with_zero(2)),
}


@pytest.mark.parametrize("name", sorted(TABLE_CORPUS))
def test_table_monoid_routes_equal_the_oracles(name):
    M = TABLE_CORPUS[name]
    ps = M.primes()
    assert [p.elements for p in ps] == oracles.table_primes_by_subsets(M)
    homs = {}
    for p in ps:
        loc, hom = M.localize(p)
        expected_loc, expected_hom = oracles.table_localization_by_fractions(M, p.elements)
        assert loc == expected_loc
        assert hom.element_map == expected_hom.element_map
        homs[p.key] = hom
    for p in ps:
        for q in ps:
            if p.is_subset_of(q):
                res = M.restriction(homs[q.key], homs[p.key])
                assert res.element_map == \
                    oracles.table_restriction_by_fractions(M, homs[q.key], homs[p.key])
    rank, factors = oracles.table_unit_invariants(M)
    assert M.units() == AbelianGroup(rank, tuple(factors))
    assert M.is_integral == oracles.table_is_cancellative(M)


@pytest.mark.parametrize("name", sorted(TABLE_CORPUS))
def test_table_scheme_integrality_equals_the_stalk_route(name):
    # plus_zero adjoins a zero to an unpointed chart and keeps a pointed one
    X = MScheme.affine(TABLE_CORPUS[name])
    for Y in (X, plus_zero(X)):
        assert classify(Y)["integral"] == integral_by_stalks(Y)


def test_table_monoid_corpus_covers_each_family():
    monoids = TABLE_CORPUS.values()
    assert len(monoids) == 35 and sum(M.pointed for M in monoids) == 13
    assert {M.is_integral for M in monoids} == {M.is_group for M in monoids} == {True, False}
    assert {len(M.primes()) for M in monoids} == {1, 2, 3, 4, 8}


def test_table_monoids_past_the_subset_search():
    assert len(union_semilattice(5).primes()) == 32  # every element is idempotent
    assert len(union_semilattice(5).adjoin_zero().primes()) == 32
    Z6xZ4 = product(cyclic_monoid(0, 6), cyclic_monoid(0, 4))
    assert Z6xZ4.units() == AbelianGroup(0, (2, 12))
    assert oracles.table_unit_invariants(Z6xZ4) == (0, [2, 12])
    assert Z6xZ4.is_group and Z6xZ4.is_integral


def test_localize_rejects_foreign_prime():
    A, B = free_monoid(1), free_monoid(2)
    with pytest.raises(MonoidError):
        B.localize(A.primes()[0])


# --- group completion, saturation, units ------------------------------------------

def test_group_completion_examples():
    """The stalk at the generic prime (listed first) is the group completion."""
    for A, group in ((free_monoid(2), AbelianGroup(2)),
                     (AffineMonoid.make(1, [[2], [3]]), AbelianGroup(1)),
                     (AffineMonoid.make(2, [[2, 0], [0, 1]]), AbelianGroup(2))):
        assert A.localize(A.primes()[0])[0].units() == group


def test_saturation_examples():
    A = AffineMonoid.make(1, [[2], [3]])
    assert not is_saturated(A)
    S = saturate(A)
    assert S.generators == ((1,),)
    assert is_saturated(S)
    assert saturate(S).same_submonoid(S)  # idempotent
    assert is_saturated(free_monoid(2))
    assert saturate(free_monoid(2)).same_submonoid(free_monoid(2))
    quadric = AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]])
    assert is_saturated(quadric)


def test_saturate_with_torsion_ambient():
    # submonoid of Z x Z/2 generated by (1, 1bar): already saturated
    A = AffineMonoid.make(1, [[1, 1]], torsion=[2])
    assert is_saturated(A)
    # index-2 subgroup direction: <(2, 0)> inside Z x Z/2 misses (1, ...) entirely
    B = AffineMonoid.make(1, [[2, 0]], torsion=[2])
    assert is_saturated(B)


def _saturated_by_saturating(A):
    """The second route: A is its own saturation."""
    return saturate(A).same_submonoid(A)


NOT_SATURATED = {
    "<2,3> in Z": AffineMonoid.make(1, [[2], [3]]),
    "<(1,0),(1,1),(0,2)>": AffineMonoid.make(2, [[1, 0], [1, 1], [0, 2]]),
    "<+-(1,0),(0,2),(0,3)>": AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 2], [0, 3]]),
    # (0,2) and (1,3) are independent, but not modulo the units' span
    "<+-(1,0),(0,2),(1,3)>": AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 2], [1, 3]]),
    # (1,1bar) = (3,0) - (2,1) is in Quot and in the cone, but not in A
    "<(2,1),(3,0)> in Z x Z/2": AffineMonoid.make(1, [[2, 1], [3, 0]], torsion=[2]),
}

SATURATED = {
    "<(1,0),(1,2)>": AffineMonoid.make(2, [[1, 0], [1, 2]]),
    "<+-(1,0),(1,2)>": AffineMonoid.make(2, [[1, 0], [-1, 0], [1, 2]]),
    "quadric": AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]]),
    "Z^2": group_monoid(2),
    "N^3": free_monoid(3),
    "<(1,1)> in Z x Z/2": AffineMonoid.make(1, [[1, 1]], torsion=[2]),
}


@pytest.mark.parametrize("name, expected",
                         [(n, False) for n in NOT_SATURATED] + [(n, True) for n in SATURATED])
def test_is_saturated_examples_by_both_routes(name, expected):
    A = {**NOT_SATURATED, **SATURATED}[name]
    assert is_saturated(A) == expected
    assert _saturated_by_saturating(A) == expected


def test_is_saturated_agrees_with_the_general_route_on_the_fan_corpus():
    # both monoids of every fan cone are saturated by construction, which
    # `fans.fan_in_zn` takes as given
    from fan_reference import fan_monoids
    from test_fan_routes import CORPUS

    monoids = set()
    for fan in CORPUS.values():
        members, charts, _ = fan_monoids(fan)
        monoids.update(members.values())
        monoids.update(charts.values())
    for A in monoids:
        assert is_saturated(A) and _saturated_by_saturating(A), A


@st.composite
def small_monoids(draw):
    """Submonoids of Z^2 or Z (+) Z/2 on 1-4 small generators, with the
    negative of a generator added half the time so that units occur."""
    rank, torsion = draw(st.sampled_from([(2, ()), (1, (2,))]))
    vec = st.tuples(*[st.integers(-3, 3)] * (rank + len(torsion)))
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in gens[0]))
    return AffineMonoid.make(rank, gens, torsion=torsion)


@settings(max_examples=80, deadline=None)
@given(small_monoids())
def test_is_saturated_agrees_with_the_general_route(A):
    # the generator route of `oracles.is_saturated` against saturate(A) == A
    assert is_saturated(A) == _saturated_by_saturating(A)


def test_units_examples():
    assert free_monoid(2).units() == AbelianGroup(0)
    assert AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]]).units() == AbelianGroup(1)
    A = AffineMonoid.make(1, [[1, 0], [0, 1]], torsion=[3])
    assert A.units() == AbelianGroup(0, (3,))
    assert group_monoid(3).units() == AbelianGroup(3)


def test_units_found_through_combinations():
    # no single generator is reversible, but the lineality is the x-axis
    A = AffineMonoid.make(2, [[1, 1], [-1, 1], [0, -1]])
    # cone(A) is the whole plane: everything is a unit
    assert A.units().free_rank == 2


@st.composite
def unit_monoids(draw):
    """Generator sets in Z^r (+) torsion, r = 1..3, with torsion coordinates
    on some, negated free parts (+- pairs), pure-torsion generators, and as
    many as five free generators, so dependent sets are common."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    free = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    tors = st.tuples(*[st.integers(0, d - 1) for d in torsion])
    gens = [f + list(t) for f, t in draw(st.lists(st.tuples(free, tors), max_size=5))]
    for i in draw(st.lists(st.integers(0, 4), max_size=2)):
        if i < len(gens):
            gens.append([-x for x in gens[i][:rank]] + list(draw(tors)))
    if torsion and draw(st.booleans()):
        gens.append([0] * rank + list(draw(tors)))
    return AffineMonoid.make(rank, gens, torsion=torsion)


@settings(max_examples=150, deadline=None)
@given(unit_monoids())
def test_unit_generators_equal_the_recession_cone_route(A):
    assert A.unit_generator_indices == oracles.unit_generator_indices(A)


@pytest.mark.parametrize("gens, torsion, units", [
    ([[1, 0], [0, 1]], (), []),
    ([[1, 0], [-1, 0], [1, 2]], (), [[1, 0], [-1, 0]]),
    ([[1, 0], [0, 1], [0, 3]], (4,), [[0, 1], [0, 3]]),     # pure torsion
    ([[1, 0, 1], [-1, 0, 0], [0, 1, 1]], (2,), [[1, 0, 1], [-1, 0, 0]]),
    ([[1, 0], [0, 1], [-1, -1]], (), [[1, 0], [0, 1], [-1, -1]]),  # no +- pair
    ([[1, 0], [-2, 0]], (), [[1, 0], [-2, 0]]),          # a line, no +- pair
    ([[1, 0], [2, 0]], (), []),                           # one ray, twice
    ([[1], [-1], [2]], (), [[1], [-1], [2]]),
])
def test_unit_generators_fall_back_to_the_cone_only_when_dependent(gens, torsion, units):
    A = AffineMonoid.make(len(gens[0]) - len(torsion), gens, torsion=torsion)
    assert A.unit_generator_indices == oracles.unit_generator_indices(A)
    assert {A.generators[i] for i in A.unit_generator_indices} == set(map(tuple, units))


def test_adjoin_zero():
    A = free_monoid(1)
    Az = A.adjoin_zero()
    assert Az.pointed
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        again = Az.adjoin_zero()
        assert again is Az
        assert any("no-op" in str(x.message) for x in w)
    assert [p.face for p in A.primes()] == [p.face for p in Az.primes()]
    # table variant grows by one absorbing element
    M = TableMonoid.cyclic_group_with_zero(2)
    N = TableMonoid.make(("1", "g"), {("1", "1"): "1", ("1", "g"): "g",
                                      ("g", "g"): "1"}, identity="1")
    Nz = N.adjoin_zero()
    assert Nz.pointed and len(Nz.elements) == 3


# --- hom counting -------------------------------------------------------------------

def test_hom_count_examples():
    assert hom_count_to_cyclic(AbelianGroup(1), 6) == 6
    assert hom_count_to_cyclic(AbelianGroup(0, (6,)), 6) == 6
    assert hom_count_to_cyclic(AbelianGroup(0, (6,)), 4) == 2
    assert hom_count_to_cyclic(AbelianGroup(2, (2,)), 3) == 9


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), max_size=3),
       st.integers(1, 12))
def test_hom_count_matches_enumeration(factors, m):
    factors = sorted(factors)
    order = 1
    for d in factors:
        order *= d
    if order > 50:
        return
    chain = []
    for d in factors:  # make a divisibility chain out of the sample
        if chain and d % chain[-1] != 0:
            d = d * chain[-1]
        chain.append(d)
    if any(d > 50 for d in chain):
        return
    G = AbelianGroup(0, tuple(chain))
    assert hom_count_to_cyclic(G, m) == count_group_homs(chain, m)


# --- membership and hom validation ---------------------------------------------------

def test_membership_oracle():
    A = AffineMonoid.make(1, [[2], [3]])
    assert A.contains((5,)) and A.contains((2,)) and A.contains((0,))
    assert not A.contains((1,)) and not A.contains((-2,))
    B = AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]])
    assert B.contains((-7, 3)) and not B.contains((0, -1))


def test_contains_computes_one_smith_form_per_monoid(monkeypatch):
    import f1geom.monoid as monoid

    A = AffineMonoid.make(2, [[1, 0], [-1, 0], [1, 3], [2, 5]])
    A.recession_cone.facet_normals, A.unit_generator_indices  # warm the cone data
    calls = []
    snf = monoid.smith_normal_form
    monkeypatch.setattr(monoid, "smith_normal_form", lambda M: calls.append(1) or snf(M))
    assert A.contains((7, 9))
    # one for the class map of A/A^x, here <3, 5> in Z, one for its table
    assert len(calls) == 2
    assert not A.contains((7, 4))
    # (x, y) is in A iff y is in the numerical semigroup <3, 5>
    semigroup = {3 * a + 5 * b for a in range(5) for b in range(3)}
    for x in range(-4, 9):
        for y in range(-2, 13):
            assert A.contains((x, y)) == (y in semigroup)
    assert len(calls) == 2


def _searched(A):
    """A copy of A whose membership is always decided by the search."""
    B = AffineMonoid.make(A.ambient_rank, A.generators, torsion=A.torsion)
    B.__dict__["_membership_table"] = None
    return B


def _table_size(A):
    return sum(len(kept) for kept in A._membership_table[-1].values())


@st.composite
def pointed_monoids(draw):
    """(A, simplicial): a pointed submonoid of Z^2 or Z^3, or of that
    group (+) Z/t for t = 2 or 3, on d <= rank rays with entries in -3..3,
    independent because ray i has a nonzero entry in coordinate i and rays
    after it have 0 there (coordinates are then permuted).  Each ray
    carries generators at one or two of its multiples 1..5, and up to three
    nonnegative integer combinations of the rays are added.  With torsion,
    each generator takes a drawn torsion coordinate.  In a third of the
    draws with d = 3 a generator on r1 + r2 - r3 makes the cone a pointed
    cone over a quadrilateral, whose membership the search decides."""
    rank = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, rank))
    entry, pivot = st.integers(-3, 3), st.sampled_from([1, 2, 3, -1, -2, -3])
    rays = [tuple(0 if j < i else draw(pivot) if j == i else draw(entry)
                  for j in range(rank)) for i in range(d)]
    order = draw(st.permutations(range(rank)))
    rays = [tuple(r[j] for j in order) for r in rays]
    gens = [tuple(k * x for x in r) for r in rays
            for k in draw(st.sets(st.integers(1, 5), min_size=1, max_size=2))]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        gens.append(tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(rank)))
    square = d == 3 and draw(st.integers(0, 2)) == 0
    if square:
        gens.append(tuple(a + b - c for a, b, c in zip(*rays)))
    torsion = draw(st.sampled_from([(), (), (2,), (3,)]))
    gens = [g + tuple(draw(st.integers(0, t - 1)) for t in torsion) for g in gens if any(g)]
    return AffineMonoid.make(rank, gens, torsion=torsion), not square


def test_contains_agrees_with_the_search_and_enumeration():
    routes = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pointed_monoids())
    def check(drawn):
        A, simplicial = drawn
        routes.append((A._membership_table is not None, bool(A.torsion)))
        assert routes[-1][0] == simplicial
        searched = _searched(A)
        # the sum of the facet normals, l, is positive on the cone minus 0;
        # with c = max |free(g)|_1 / l(g), every partial sum of a
        # representation of x has a free part of L1 norm at most c l(x)
        grading = [sum(col) for col in zip(*A.recession_cone.facet_normals)]
        c = max(Fraction(sum(map(abs, A.free_part(g))), dot(grading, g))
                for g in A.generators)
        bound, side = (14, 4) if A.ambient_rank == 2 else (8, 2)
        lifted = generated_lattice_points(list(A.generators), bound, A.torsion)
        box = itertools.product(*[range(-side, side + 1)] * A.ambient_rank,
                                *[range(t) for t in A.torsion])
        steps = [tuple(s * (i == j) for j in range(A.width))
                 for i in range(A.width) for s in (1, -1)]
        near = {A.op(y, e) for y in lifted for e in steps}
        for x in lifted | near | set(box):
            assert A.contains(x) == searched.contains(x), (A, x)
            if c * dot(grading, x) <= bound:
                assert A.contains(x) == (x in lifted), (A, x)

    check()
    # only the quadrilateral draws may search: the table answers at least
    # half, torsion draws included
    assert sum(tabled for tabled, _ in routes) >= len(routes) // 2, routes
    assert (True, True) in routes and (True, False) in routes, routes


def test_apery_set_of_a_two_generator_numerical_semigroup():
    # x = k m + b is in <m, m + 1> iff b <= k; Frobenius number m^2 - m - 1
    m = 1000
    A = AffineMonoid.make(1, [[m], [m + 1]])
    assert _table_size(A) == m
    searched = _searched(A)
    for x in [k * m + b for k in range(6) for b in (0, 1, k, k + 1, m - 1)]:
        assert A.contains((x,)) == (x % m <= x // m) == searched.contains((x,)), x
    assert not A.contains((m * m - m - 1,)) and A.contains((m * m - m,))
    assert not A.contains((-m,))


def test_rank_four_monoid_with_interior_generators():
    rays = [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (1, 1, 1, 2)]
    gens = rays + [(1, 1, 1, 0), (2, 3, 1, 1), (3, 0, 0, 0), (1, 1, 1, 4)]
    A = AffineMonoid.make(4, gens)
    assert A._membership_table is not None and _table_size(A) > 1
    searched = _searched(A)
    lifted = generated_lattice_points(gens, 12)  # nonnegative: partial sums stay below x
    for x in itertools.product(range(4), range(4), range(4), range(-1, 4)):
        assert A.contains(x) == (x in lifted) == searched.contains(x), x


def test_the_search_runs_past_the_recursion_limit():
    # <(1, t) : t in Z/n> with n generators, one level of the search each
    n = sys.getrecursionlimit() + 10
    A = _searched(AffineMonoid.make(1, [[1, t] for t in range(n)], torsion=[n]))
    assert A.contains((1, n - 1)) and A.contains((1, 2 * n - 2))
    assert not A.contains((0, 1)) and not A.contains((-1, 0))
    assert A.contains((0, 0)) and not A.contains((0, n - 1))


def test_membership_table_is_built_once_per_monoid(monkeypatch):
    builds = []
    build = AffineMonoid._membership_table.func
    table = cached_property(lambda A: builds.append(A) or build(A))
    table.__set_name__(AffineMonoid, "_membership_table")
    monkeypatch.setattr(AffineMonoid, "_membership_table", table)
    A = AffineMonoid.make(2, [[2, 0], [3, 0], [0, 2], [1, 1], [-1, 4]])
    for x in itertools.product(range(-3, 7), repeat=2):
        A.contains(x), A.member(x)
    B = AffineMonoid.make(2, A.generators)
    assert B.contains((1, 1)) and not B.contains((1, 0))
    assert len(builds) == 2 and builds[0] is A and builds[1] is B
    assert A._membership_table is not None


@st.composite
def monoids_with_units_and_torsion(draw):
    """Submonoids of Z^2 (+) Z/d: nonunit generators with second coordinate
    1 or 2, optionally the units +-(1, 0) with torsion parts and a pure
    torsion generator.  Every x with |x_1| <= 3 and 0 <= x_2 <= 3 in such a
    monoid is a sum whose partial sums keep an L1 norm of at most 20 in the
    lift to Z^3, so the enumeration below decides membership exactly."""
    d = draw(st.sampled_from([None, 2, 3]))
    tors = st.integers(0, d - 1) if d else st.just(None)

    def gen(a, b):
        t = draw(tors)
        return (a, b) if d is None else (a, b, t)

    gens = [gen(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens += [gen(1, 0), gen(-1, 0)]
    if d and draw(st.booleans()):
        gens.append(gen(0, 0))
    return AffineMonoid.make(2, gens, torsion=[d] if d else [])


@settings(max_examples=30, deadline=None)
@given(monoids_with_units_and_torsion())
def test_contains_agrees_with_enumeration(A):
    # in the lift to Z^3, x lies in A iff it lies in the monoid generated by
    # A's generators and +-d e_3
    relations = [(0, 0, s * d) for d in A.torsion for s in (1, -1)]
    lifted = generated_lattice_points(list(A.generators) + relations, 20)
    for x in itertools.product(range(-3, 4), range(4), *[range(d) for d in A.torsion]):
        assert A.contains(x) == (x in lifted), (A, x)


@st.composite
def monoid_pairs(draw):
    """A monoid in Z^2 or Z (+) Z/3 and a second one: the same generators
    listed again, one generator dropped, a sum of two added, or unrelated."""
    rank, torsion = draw(st.sampled_from([(2, ()), (1, (3,))]))
    vec = st.tuples(*[st.integers(-2, 3)] * (rank + len(torsion)))
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    A = AffineMonoid.make(rank, gens, torsion=torsion)
    how = draw(st.sampled_from(["same", "drop", "sum", "other"]))
    if how == "same":
        other = list(reversed(gens))
    elif how == "drop":
        other = gens[1:]
    elif how == "sum":
        other = gens + [tuple(a + b for a, b in zip(gens[0], gens[-1]))]
    else:
        other = draw(st.lists(vec, min_size=1, max_size=4))
    return A, AffineMonoid.make(rank, other, torsion=torsion)


@settings(max_examples=80, deadline=None)
@given(monoid_pairs())
def test_same_submonoid_agrees_with_contains_both_ways(pair):
    A, B = pair
    expected = all(B.contains(g) for g in A.generators) and \
        all(A.contains(g) for g in B.generators)
    assert A.same_submonoid(B) == expected
    assert B.same_submonoid(A) == expected


def test_same_submonoid_with_different_recession_cone_rays():
    # (1, 1) is a non-extremal ray kept by B's recession cone
    A = AffineMonoid.make(2, [[1, 0], [0, 1]])
    B = AffineMonoid.make(2, [[1, 0], [0, 1], [1, 1]])
    assert A.recession_cone != B.recession_cone
    assert A.same_submonoid(B) and B.same_submonoid(A)
    C = AffineMonoid.make(2, [[1, 0], [0, 2]])
    assert not A.same_submonoid(C) and not C.same_submonoid(A)


def test_overlong_element_is_a_monoid_error():
    from f1geom.semiring import SemigroupRingElement

    A = AffineMonoid.make(1, [[1, 0], [0, 1]], torsion=[3])
    with pytest.raises(MonoidError, match="element has wrong length"):
        SemigroupRingElement.make(A, {(1, 0, 0): 1})
    with pytest.raises(MonoidError, match="element has wrong length"):
        A.contains((1,))


def test_table_monoid_validation_errors():
    with pytest.raises(MonoidError):
        TableMonoid.make(("1", "a"), {("1", "1"): "1", ("1", "a"): "a",
                                      ("a", "a"): "b"}, identity="1")
    with pytest.raises(MonoidError):        # identity law broken
        TableMonoid.make(("1", "a"), {("1", "1"): "1", ("1", "a"): "1",
                                      ("a", "a"): "a"}, identity="1")


def test_generator_canonicalization():
    A = AffineMonoid.make(2, [[1, 0], [1, 0], [0, 1]])
    assert A.generators == ((0, 1), (1, 0))  # deduped and sorted
    B = AffineMonoid.make(1, [[0, 5]], torsion=[3])
    assert B.generators == ((0, 2),)  # torsion coordinate reduced mod 3


@st.composite
def tables_on_ordered_pairs(draw):
    """(elements, table on ordered pairs, zero or None) on e0..e(n-1) with
    identity e0: a lawful table, Z/n or the truncation min(i + j, n - 1)
    with zero e(n-1); or random products, made unital, absorbing at the
    zero and symmetric where the draw says."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.product(range(n), repeat=2))
    kind = draw(st.sampled_from(["group", "truncated", "random"]))
    zero = n - 1 if kind == "truncated" else draw(st.sampled_from([None, n - 1]))
    if kind == "group":
        zero, product = None, {(i, j): (i + j) % n for i, j in pairs}
    elif kind == "truncated":
        product = {(i, j): min(i + j, n - 1) for i, j in pairs}
    else:
        product = {p: draw(st.integers(0, n - 1)) for p in pairs}
        unital, absorbing = draw(st.integers(0, 9)) > 0, draw(st.integers(0, 9)) > 0
        for i, j in pairs:
            if unital and 0 in (i, j):
                product[(i, j)] = i + j
            elif absorbing and zero in (i, j):
                product[(i, j)] = zero
        for i, j in pairs:
            if i > j and draw(st.booleans()):
                product[(i, j)] = product[(j, i)]
    e = [f"e{i}" for i in range(n)]
    return tuple(e), {(e[i], e[j]): e[k] for (i, j), k in product.items()}, \
        None if zero is None else e[zero]


@settings(max_examples=400, deadline=None)
@given(tables_on_ordered_pairs())
def test_table_monoid_reports_the_first_broken_law_like_the_triple_loop(case):
    elements, t, zero = case
    expected = oracles.table_law_failure(elements, t, "e0", zero)
    if expected is None:
        M = TableMonoid.make(elements, t, identity="e0", zero=zero)
        assert all(M.op(a, b) == c for (a, b), c in t.items())
    else:
        with pytest.raises(MonoidError) as err:
            TableMonoid.make(elements, t, identity="e0", zero=zero)
        assert str(err.value) == expected
