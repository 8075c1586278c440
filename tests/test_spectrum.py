import itertools

import pytest

from oracles import in_rational_cone
from f1geom.fans import kato, product_fan, standard_fans
from f1geom.monoid import (
    AffineMonoid,
    TableMonoid,
    free_monoid,
    group_monoid,
)
from f1geom.spectrum import (
    GluingData,
    GluingError,
    MScheme,
    SchemeError,
    classify,
    glue,
    global_sections,
    minimal_rank_points,
    plus_zero,
)

SHEAF_CORPUS = [
    free_monoid(1),
    free_monoid(2),
    free_monoid(3),
    AffineMonoid.make(0, []),
    AffineMonoid.make(1, [[2], [3]]),
    AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]]),
    group_monoid(1),
    AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]]),
    AffineMonoid.make(1, [[1, 0], [0, 1]], torsion=[3]),
    free_monoid(2).adjoin_zero(),
]


def _closed(X):
    """The closed point of a spectrum: every point lies below it."""
    return next(p for p in X.points if len(X.down[p.key]) == len(X.points))


def _generic(X):
    """The generic point of a spectrum: no other point lies below it."""
    return next(p for p in X.points if len(X.down[p.key]) == 1)


def p1_scheme():
    N = free_monoid(1)
    generic = N.primes()[0]
    return glue([N, N], [GluingData(0, generic, 1, generic, ((-1,),))])


def test_spec_of_n_is_sierpinski():
    X = MScheme.affine(free_monoid(1))
    assert len(X.points) == 2
    eta, closed = _generic(X), _closed(X)
    assert X.stalk(eta).is_group                      # Quot(N) = Z
    assert X.stalk(closed).same_submonoid(free_monoid(1))
    assert X.is_open((eta,)) and not X.is_open((closed,))


def test_spec_of_trivial_monoid():
    X = MScheme.affine(AffineMonoid.make(0, []))
    assert len(X.points) == 1
    assert X.stalk(X.points[0]).generators == ()


def test_spec_of_n2_poset_and_ranks():
    X = MScheme.affine(free_monoid(2))
    assert sorted(p.rank for p in X.points) == [0, 1, 1, 2]
    # Boolean lattice on two atoms
    by_face = {p.prime.face: p for p in X.points}
    assert X.le(by_face[(0, 1)], by_face[()])
    assert X.le(by_face[(0,)], by_face[()])
    assert not X.le(by_face[(0,)], by_face[(1,)])


def test_sheaf_axioms_on_corpus():
    for A in SHEAF_CORPUS:
        X = MScheme.affine(A)
        gs = X.sections(X.points)
        assert gs.same_submonoid(A), A
        for p in X.points:
            fresh, _ = A.localize(p.prime)
            assert X.stalk(p).same_submonoid(fresh)


def test_canonical_maps_pass_the_hom_check():
    """Localization and restriction maps of an affine monoid are inclusions:
    every source generator is a member of the target, and maps to itself."""
    for A in SHEAF_CORPUS:
        X = MScheme.affine(A)
        maps = [A.localize(p.prime)[1] for p in X.points]
        maps += [X.restriction(b, a) for a in X.points for b in X.points if X.le(a, b)]
        for hom in maps:
            assert hom.source.pointed == hom.target.pointed, A
            for g in hom.source.generators:
                assert hom.target.member(g) == hom.apply(g) == g, A


def test_sheaf_axioms_on_table_monoids():
    for M in (TableMonoid.f1_monoid(), TableMonoid.cyclic_group_with_zero(3)):
        X = MScheme.affine(M)
        gs = X.sections(X.points)
        assert gs._key == M._key or len(gs.elements) == len(M.elements)


def test_restrictions_compose_along_specialization():
    X = MScheme.affine(free_monoid(2))
    chain = sorted(X.points, key=lambda p: -len(p.prime.face))
    eta, mid, closed = chain[0], chain[1], chain[3]
    assert X.le(eta, mid) and X.le(mid, closed)
    r1 = X.restriction(closed, mid)
    r2 = X.restriction(mid, eta)
    direct = X.restriction(closed, eta)
    for g in X.stalk(closed).generators:
        assert r2.apply(r1.apply(g)) == direct.apply(g)


def two_idempotents():
    """The pointed table monoid {1, a, b, ab, 0} with a^2 = a, b^2 = b."""
    elements = ("1", "a", "b", "ab", "0")

    def mul(x, y):
        if "0" in (x, y):
            return "0"
        letters = set(x.replace("1", "")) | set(y.replace("1", ""))
        return "".join(sorted(letters)) or "1"

    table = {(x, y): mul(x, y) for x in elements for y in elements}
    return TableMonoid.make(elements, table, identity="1", zero="0")


def _inverse(M, u):
    return next(v for v in M.elements if M.op(u, v) == M.identity)


def test_table_chart_restrictions():
    M = two_idempotents()
    X = MScheme.affine(M)
    pts = X.points
    assert len(pts) == 4
    assert sum(X.le(p, q) for p in pts for q in pts) == 9
    homs = {p.key: M.localize(p.prime)[1] for p in pts}
    for p in pts:
        assert homs[p.key].target == X.stalk(p)

    def as_map(hom):
        return {x: hom.apply(x) for x in hom.source.elements}

    for q in pts:
        Aq, hom_q = X.stalk(q), homs[q.key]
        assert as_map(X.restriction(q, q)) == {x: x for x in Aq.elements}
        for p in pts:
            if not X.le(p, q):
                continue
            res = X.restriction(q, p)
            Ap, hom_p = X.stalk(p), homs[p.key]
            # the image of a/s is hom_p(a) hom_p(s)^-1, for every fraction a/s
            for s in M.elements:
                if s in q.prime.elements:
                    continue
                for a in M.elements:
                    label = Aq.op(hom_q.apply(a), _inverse(Aq, hom_q.apply(s)))
                    assert res.apply(label) == \
                        Ap.op(hom_p.apply(a), _inverse(Ap, hom_p.apply(s)))
            # restrictions compose along every chain p <= m <= q
            for m in pts:
                if X.le(p, m) and X.le(m, q):
                    first, second = as_map(X.restriction(q, m)), as_map(X.restriction(m, p))
                    assert {x: second[y] for x, y in first.items()} == as_map(res)


def test_sections_on_smaller_opens():
    A = free_monoid(2)
    X = MScheme.affine(A)
    assert X.sections([_generic(X)]).is_group
    # the union of the two coordinate-face opens: sections are N^2 again
    opens = [p for p in X.points if len(p.prime.face) >= 1]
    assert X.is_open(opens)
    assert X.sections(opens).same_submonoid(A)
    with pytest.raises(SchemeError):
        X.sections([_closed(X)])  # not an open set


def test_glue_p1():
    X = p1_scheme()
    assert len(X.points) == 3
    assert sorted(p.rank for p in X.points) == [0, 0, 1]
    flags = classify(X)
    assert flags == {"connected": True, "integral": True,
                     "finite_type": True, "exponent_one": True}
    gs = global_sections(X)
    assert gs.generators == ()  # only the constants


def test_single_chart_scheme_is_affine():
    A = free_monoid(2)
    X = MScheme.affine(A)
    assert global_sections(X).same_submonoid(A)


def test_disjoint_union():
    X = glue([free_monoid(1), free_monoid(1)], [])
    assert not classify(X)["connected"]
    gs = global_sections(X)
    # product monoid of the two charts
    assert gs.same_submonoid(AffineMonoid.make(2, [[1, 0], [0, 1]]))


def test_gluing_error_on_bad_iso():
    N = free_monoid(1)
    pmin = N.primes()[0]
    with pytest.raises(GluingError, match="not a lattice isomorphism"):
        glue([N, N], [GluingData(0, pmin, 1, pmin, ((2,),))])
    N2 = free_monoid(2)
    with pytest.raises(GluingError, match="not a lattice isomorphism"):
        glue([N2, N2], [GluingData(0, N2.primes()[0], 1, N2.primes()[0],
                                   ((1, 0), (0, 0)))])  # singular
    closed = [p for p in N.primes() if p.face == ()][0]
    with pytest.raises(GluingError):
        # identity does not map the overlap (all of N inverted) into N
        glue([N, N], [GluingData(0, pmin, 1, closed, ((1,),))])


def test_gluing_error_on_charts_of_different_rank():
    N, N2 = free_monoid(1), free_monoid(2)
    p, q = N2.primes()[0], N.primes()[0]
    with pytest.raises(GluingError, match="wrong shape"):
        glue([N2, N], [GluingData(0, p, 1, q, ((1, 0),))])
    with pytest.raises(GluingError, match="wrong shape"):
        glue([N, N2], [GluingData(0, q, 1, p, ((1,), (0,)))])


def test_classify_flags():
    assert classify(MScheme.affine(
        AffineMonoid.make(1, [[1, 0], [0, 1]], torsion=[3])))["exponent_one"] is False
    table = TableMonoid.make(
        ("1", "x", "0"),
        {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
         ("x", "x"): "0", ("x", "0"): "0", ("0", "0"): "0"},
        identity="1", zero="0")
    assert classify(MScheme.affine(table))["integral"] is False


def test_minimal_rank_points():
    Gm3 = MScheme.affine(group_monoid(3))
    pts = minimal_rank_points(Gm3)
    assert len(pts) == 1 and pts[0].rank == 3
    X = p1_scheme()
    pts = minimal_rank_points(X)
    assert len(pts) == 2 and all(p.rank == 0 for p in pts)


def test_plus_zero_preserves_structure():
    X = p1_scheme()
    Xz = plus_zero(X)
    assert Xz.pointed
    assert len(Xz.points) == len(X.points)
    assert classify(Xz) == classify(X)


def test_mixed_pointedness_rejected():
    with pytest.raises(SchemeError):
        glue([free_monoid(1), free_monoid(1).adjoin_zero()], [])


@pytest.mark.parametrize("factors", [
    (("projective_space", 1), ("affine_space", 1)),
    (("affine_space", 1), ("projective_space", 1)),
    (("projective_space", 1), ("affine_space", 2)),
])
def test_multi_chart_global_sections_match_enumeration(factors):
    """Charts of a fan scheme are glued by the identity, so a global
    section is one lattice point x, repeated in every chart, that lies in
    every chart's cone."""
    X = kato(product_fan(*(standard_fans(name, n) for name, n in factors)))
    assert len(X.charts) > 1
    gs = global_sections(X)
    n = X.charts[0].ambient_rank
    for x in itertools.product(range(-2, 3), repeat=n):
        expected = all(in_rational_cone(c.generators, x) for c in X.charts)
        assert gs.contains(x * len(X.charts)) == expected, x
