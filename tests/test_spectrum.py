import itertools

import pytest

from oracles import in_rational_cone
from f1geom.fans import kato, product_fan, standard_fans
from f1geom.monoid import (
    AffineMonoid,
    MonoidHom,
    TableMonoid,
    adjoin_zero,
    free_monoid,
    group_monoid,
    localize,
    minimal_prime,
    primes,
    trivial_monoid,
)
from f1geom.spectrum import (
    GluingError,
    MScheme,
    SchemeError,
    SpectrumMorphism,
    classify,
    glue,
    global_sections,
    induced_spectrum_morphism,
    is_local_morphism,
    minimal_rank_points,
    plus_zero,
    spec,
)

SHEAF_CORPUS = [
    free_monoid(1),
    free_monoid(2),
    free_monoid(3),
    trivial_monoid(),
    AffineMonoid.make(1, [[2], [3]]),
    AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]]),
    group_monoid(1),
    AffineMonoid.make(2, [[1, 0], [-1, 0], [0, 1]]),
    AffineMonoid.make(1, [[1, 0], [0, 1]], torsion=[3]),
    adjoin_zero(free_monoid(2)),
]


def p1_scheme():
    N = free_monoid(1)
    return glue([N, N], [(0, minimal_prime(N), 1, minimal_prime(N), ((-1,),))])


def test_spec_of_n_is_sierpinski():
    space, sheaf = spec(free_monoid(1))
    assert len(space.points) == 2
    eta, closed = space.generic_point, space.closed_point
    assert sheaf.stalk(eta).is_group                      # Quot(N) = Z
    assert sheaf.stalk(closed).same_submonoid(free_monoid(1))
    assert space.is_open((eta,)) and not space.is_open((closed,))


def test_spec_of_trivial_monoid():
    space, sheaf = spec(trivial_monoid())
    assert len(space.points) == 1
    assert sheaf.stalk(space.points[0]).generators == ()


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
        space, sheaf = spec(A)
        gs = sheaf.sections(space.points)
        assert gs.same_submonoid(A), A
        for p in space.points:
            fresh, _ = localize(A, p)
            assert sheaf.stalk(p).same_submonoid(fresh)


def test_sheaf_axioms_on_table_monoids():
    for M in (TableMonoid.f1_monoid(), TableMonoid.cyclic_group_with_zero(3)):
        space, sheaf = spec(M)
        gs = sheaf.sections(space.points)
        assert gs._key == M._key or len(gs.elements) == len(M.elements)


def test_restrictions_compose_along_specialization():
    A = free_monoid(2)
    space, sheaf = spec(A)
    chain = sorted(space.points, key=lambda p: -len(p.face))
    eta, mid, closed = chain[0], chain[1], chain[3]
    assert space.le(eta, mid) and space.le(mid, closed)
    r1 = sheaf.restriction(closed, mid)
    r2 = sheaf.restriction(mid, eta)
    direct = sheaf.restriction(closed, eta)
    for g in sheaf.stalk(closed).generators:
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
    space, sheaf = spec(M)
    pts = space.points
    assert len(pts) == 4
    assert sum(space.le(p, q) for p in pts for q in pts) == 9
    homs = {p.key: localize(M, p)[1] for p in pts}
    for p in pts:
        assert homs[p.key].target == sheaf.stalk(p)

    def as_map(hom):
        return {x: hom.apply(x) for x in hom.source.elements}

    for q in pts:
        Aq, hom_q = sheaf.stalk(q), homs[q.key]
        assert as_map(sheaf.restriction(q, q)) == {x: x for x in Aq.elements}
        for p in pts:
            if not space.le(p, q):
                continue
            res = sheaf.restriction(q, p)
            Ap, hom_p = sheaf.stalk(p), homs[p.key]
            # the image of a/s is hom_p(a) hom_p(s)^-1, for every fraction a/s
            for s in M.elements:
                if q.contains(s):
                    continue
                for a in M.elements:
                    label = Aq.op(hom_q.apply(a), _inverse(Aq, hom_q.apply(s)))
                    assert res.apply(label) == \
                        Ap.op(hom_p.apply(a), _inverse(Ap, hom_p.apply(s)))
            # restrictions compose along every chain p <= m <= q
            for m in pts:
                if space.le(p, m) and space.le(m, q):
                    two_step = sheaf.restriction(m, p).compose(sheaf.restriction(q, m))
                    assert as_map(two_step) == as_map(res)


def test_local_morphisms_on_table_stalks():
    M = two_idempotents()
    sM = spec(M)
    space, sheaf = sM
    ident = {p.key: MonoidHom.table(sheaf.stalk(p), sheaf.stalk(p),
                                    {x: x for x in sheaf.stalk(p).elements})
             for p in space.points}
    assert is_local_morphism(SpectrumMorphism(sM, sM, {p.key: p for p in space.points},
                                              ident))
    # every point to the closed point, with stalk homs the restrictions
    # M_closed -> M_x: at the generic point the non-units a, b, ab become units
    closed = space.closed_point
    to_closed = {p.key: closed for p in space.points}
    res = {p.key: sheaf.restriction(closed, p) for p in space.points}
    assert not is_local_morphism(SpectrumMorphism(sM, sM, to_closed, res))


def test_sections_on_smaller_opens():
    A = free_monoid(2)
    space, sheaf = spec(A)
    eta = space.generic_point
    assert sheaf.sections([eta]).is_group
    # the union of the two coordinate-face opens: sections are N^2 again
    opens = [p for p in space.points if len(p.face) >= 1]
    assert space.is_open(opens)
    assert sheaf.sections(opens).same_submonoid(A)
    with pytest.raises(SchemeError):
        sheaf.sections([space.closed_point])  # not an open set


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
    pmin = minimal_prime(N)
    with pytest.raises(GluingError):
        glue([N, N], [(0, pmin, 1, pmin, ((2,),))])  # not a lattice iso
    closed = [p for p in primes(N) if p.face == ()][0]
    with pytest.raises(GluingError):
        # identity does not map the overlap (all of N inverted) into N
        glue([N, N], [(0, pmin, 1, closed, ((1,),))])


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
        glue([free_monoid(1), adjoin_zero(free_monoid(1))], [])


# --- morphisms -------------------------------------------------------------------

def test_induced_morphisms_are_local_and_continuous():
    N, Z = free_monoid(1), group_monoid(1)
    cases = [
        MonoidHom.affine(N, N, [(1,)]),           # identity
        MonoidHom.affine(N, N, [(2,)]),           # t -> t^2
        MonoidHom.affine(N, Z, [(1,)]),           # inclusion N -> Z
        MonoidHom.affine(free_monoid(2), N, [(1,), (1,)]),
    ]
    for phi in cases:
        m = induced_spectrum_morphism(phi)  # constructor checks continuity
        assert is_local_morphism(m)


def test_preimage_of_prime_is_prime():
    phi = MonoidHom.affine(free_monoid(2), free_monoid(1), [(1,), (1,)])
    m = induced_spectrum_morphism(phi)
    src_space, _ = m.source
    tgt_space, _ = m.target
    for q in src_space.points:
        assert m.point_map[q.key] in tgt_space.points


def test_non_local_morphism_detected():
    N, Z = free_monoid(1), group_monoid(1)
    sZ, sN = spec(Z), spec(N)
    closed = sN[0].closed_point
    zpt = sZ[0].points[0]
    # send the point of spec(Z) to the closed point of spec(N) with the
    # stalk hom N -> Z given by inclusion: the unit t^{-1} pattern fails
    bad_hom = MonoidHom.affine(sN[1].stalk(closed), sZ[1].stalk(zpt), [(1,)])
    bad = SpectrumMorphism(sZ, sN, {zpt.key: closed}, {zpt.key: bad_hom})
    assert not is_local_morphism(bad)


def test_discontinuous_point_map_rejected():
    A = free_monoid(1)
    sA = spec(A)
    eta, closed = sA[0].generic_point, sA[0].closed_point
    ident = {p.key: MonoidHom.affine(sA[1].stalk(p), sA[1].stalk(p),
                                     sA[1].stalk(p).generators)
             for p in sA[0].points}
    with pytest.raises(SchemeError):
        SpectrumMorphism(sA, sA, {eta.key: closed, closed.key: eta}, ident)


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
