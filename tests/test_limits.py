"""Every resource cap lives in `f1geom.limits.LIMITS`; each holds at its
value, fails one step past it, and its error names its key."""
import pytest

from f1geom.cones import RANK_CAP, ResourceCapError, RationalCone, dual_cone, hilbert_basis
from f1geom.limits import LIMITS
from f1geom.monoid import (
    MEMBERSHIP_TABLE_CAP,
    AffineMonoid,
    free_monoid,
)
from f1geom.semiring import RingError, SemigroupRingElement, ring_mul
from f1geom.torified import TorifyError, Torification, gaussian_binomial, schubert_torification
from f1geom.zeta import ZetaError, parse_counting_polynomial


def _orthant(rank):
    return RationalCone.make([tuple(int(i == j) for j in range(rank)) for i in range(rank)])


def test_the_table_holds_every_cap():
    assert LIMITS == {"lattice_rank": 4, "schubert_n": 8, "gaussian_n": 12,
                      "membership_table": 4096,
                      "field_size": 3_317_044_064_679_887_385_961_980,
                      "ring_mul_terms": 10_000, "polynomial_degree": 1000,
                      "listed_tori": 1_000_000}
    assert RANK_CAP == LIMITS["lattice_rank"]
    assert MEMBERSHIP_TABLE_CAP == LIMITS["membership_table"]


def test_lattice_rank_cap():
    rank = LIMITS["lattice_rank"]
    assert len(dual_cone(_orthant(rank)).rays) == rank
    assert len(hilbert_basis(_orthant(rank)).vectors) == rank
    for op in (dual_cone, hilbert_basis):
        with pytest.raises(ResourceCapError, match=r"LIMITS\['lattice_rank'\]"):
            op(_orthant(rank + 1))


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
