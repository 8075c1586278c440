"""Every resource cap lives in `f1geom.limits.LIMITS`; each holds at its
value, fails one step past it, and its error names its key."""
import pytest

from f1geom.cones import (PARALLELEPIPED_CAP, ResourceCapError, RationalCone, hilbert_basis,
                          lattice_monoid_generators)
from f1geom.limits import LIMITS
from f1geom.monoid import (
    MEMBERSHIP_TABLE_CAP,
    AffineMonoid,
    free_monoid,
)
from f1geom.semiring import RingError, SemigroupRingElement, ring_mul
from f1geom.torified import TorifyError, Torification, gaussian_binomial, schubert_torification
from f1geom.zeta import CountingPolynomial, ZetaError, parse_counting_polynomial


def test_the_table_holds_every_cap():
    assert LIMITS == {"parallelepiped_points": 100_000, "schubert_n": 8, "gaussian_n": 12,
                      "membership_table": 4096,
                      "field_size": 3_317_044_064_679_887_385_961_980,
                      "ring_mul_terms": 10_000, "polynomial_degree": 1000,
                      "listed_tori": 1_000_000}
    assert PARALLELEPIPED_CAP == LIMITS["parallelepiped_points"]
    assert MEMBERSHIP_TABLE_CAP == LIMITS["membership_table"]


def test_parallelepiped_points_cap():
    # cone((1,0), (N-1,N)) x cone((0,1)) has determinant N, so its one
    # parallelepiped holds N points, and a Hilbert basis of 4
    def cone(N):
        return RationalCone.make([(1, 0, 0), (N - 1, N, 0), (0, 0, 1)], rank=3)

    cap = LIMITS["parallelepiped_points"]
    assert hilbert_basis(cone(cap)).vectors == ((0, 0, 1), (1, 0, 0), (1, 1, 0),
                                                (cap - 1, cap, 0))
    # refused from the Smith form, whatever the determinant, on every path
    for N in (cap + 1, 10 ** 30):
        for op in (hilbert_basis, lattice_monoid_generators):
            with pytest.raises(ResourceCapError, match=r"LIMITS\['parallelepiped_points'\]"):
                op(cone(N))
    # in Z^2 the chain (1,0), (1,1), ..., (1,N) lists N - 1 of them
    assert len(hilbert_basis(RationalCone.make([(1, 0), (1, cap + 1)])).vectors) == cap + 2
    for N in (cap + 2, 10 ** 30):
        with pytest.raises(ResourceCapError, match=r"LIMITS\['parallelepiped_points'\]"):
            hilbert_basis(RationalCone.make([(1, 0), (1, N)]))


def test_membership_table_cap():
    # <m, m + 1> keeps exactly m vectors, one per residue mod m; past the cap
    # there is no table and the search answers: x = k m + b is in <m, m + 1>
    # iff b <= k
    cap = LIMITS["membership_table"]
    for m, tabled in ((cap, True), (cap + 1, False)):
        A = AffineMonoid.make(1, [[m], [m + 1]])
        table = A._membership_table
        assert (table is not None) == tabled
        if tabled:
            assert sum(len(kept) for kept in table[-1].values()) == m
        for x in [k * m + b for k in range(5) for b in (0, 1, k, k + 1, m - 1)]:
            assert A.contains((x,)) == (x % m <= x // m), (m, x)


def test_listed_tori_cap():
    cap = LIMITS["listed_tori"]
    assert len(Torification(((0, cap - 1), (3, 1))).ranks) == cap
    # refused before the tuple is built, however many tori are asked for
    for mult in (cap + 1, 10 ** 30):
        with pytest.raises(TorifyError, match=r"LIMITS\['listed_tori'\]"):
            Torification(((0, 1), (2, mult))).ranks
    assert schubert_torification(4, 8)[0].ranks.count(16) == 1  # 200,787 tori


def test_schubert_cap():
    n = LIMITS["schubert_n"]
    _, N = schubert_torification(1, n)
    assert N(1) == n
    with pytest.raises(TorifyError, match=r"LIMITS\['schubert_n'\]"):
        schubert_torification(1, n + 1)


def test_gaussian_cap():
    n = LIMITS["gaussian_n"]
    assert gaussian_binomial(n, 2)(1) == n * (n - 1) // 2
    with pytest.raises(TorifyError, match=r"LIMITS\['gaussian_n'\]"):
        gaussian_binomial(n + 1, 2)


def test_ring_mul_terms_cap():
    # cap = 100 * 100 and cap + 1 = 73 * 137 monomial products
    N = free_monoid(1)

    def terms(count, step=1):
        return SemigroupRingElement.make(N, {(step * i,): 1 for i in range(count)})

    assert LIMITS["ring_mul_terms"] == 100 * 100
    assert len(ring_mul(terms(100), terms(100, step=1000)).coeffs) == 100 * 100
    with pytest.raises(RingError, match=r"LIMITS\['ring_mul_terms'\]"):
        ring_mul(terms(73), terms(137, step=1000))


def test_polynomial_degree_cap():
    # the cap sits far above Gr(6, 12)'s degree 36, and is checked per term
    # before the dense coefficient list is built
    cap = LIMITS["polynomial_degree"]
    assert parse_counting_polynomial(f"q^{cap} - 1").degree == cap
    for text in (f"q^{cap + 1}", f"q^{cap + 1} - q^{cap + 1}", "q^3000000"):
        with pytest.raises(ZetaError, match=r"LIMITS\['polynomial_degree'\]"):
            parse_counting_polynomial(text)
    # and for a sum of tori, before the coefficient list is built
    assert CountingPolynomial.of_tori([0, cap]).degree == cap
    for ranks in ([cap + 1], {10 ** 9: 1}):
        with pytest.raises(ZetaError, match=r"LIMITS\['polynomial_degree'\]"):
            CountingPolynomial.of_tori(ranks)
