import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1geom.monoid import AffineMonoid, TableMonoid, free_monoid
from f1geom.semiring import (
    LambdaStructure,
    RingError,
    SemigroupRingElement,
    frobenius_check,
    monomial_power_map,
    psi,
    random_ring_elements,
    ring_add,
    ring_mul,
    ring_neg,
    ring_pow,
    ring_sub,
)

N = free_monoid(1)
N2 = free_monoid(2)

elements_of_zn2 = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=5,
).map(lambda d: SemigroupRingElement.make(N2, d))


def mono(owner, key, c=1):
    return SemigroupRingElement.make(owner, {key: c})


def test_basic_products():
    one = SemigroupRingElement.one(N)
    t = mono(N, (1,))
    assert ring_mul(ring_add(one, t), ring_sub(one, t)) == \
        ring_sub(one, ring_mul(t, t))
    assert ring_mul(mono(N, (2,), 3), mono(N, (3,), -2)) == mono(N, (5,), -6)


def test_pointed_zero_absorbs():
    M = TableMonoid.make(
        ("1", "x", "0"),
        {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
         ("x", "x"): "0", ("x", "0"): "0", ("0", "0"): "0"},
        identity="1", zero="0")
    x = mono(M, "x")
    assert ring_mul(x, x) == SemigroupRingElement.zero(M)
    # the monoid zero never enters a support
    assert SemigroupRingElement.make(M, {"0": 5}) == SemigroupRingElement.zero(M)


def test_owner_mismatch_rejected():
    with pytest.raises(RingError):
        ring_add(SemigroupRingElement.one(N), SemigroupRingElement.one(N2))


@settings(max_examples=60, deadline=None)
@given(elements_of_zn2, elements_of_zn2, elements_of_zn2)
def test_ring_laws(x, y, z):
    assert ring_add(x, y) == ring_add(y, x)
    assert ring_mul(x, y) == ring_mul(y, x)
    assert ring_mul(x, ring_mul(y, z)) == ring_mul(ring_mul(x, y), z)
    assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))
    assert ring_add(x, ring_neg(x)) == SemigroupRingElement.zero(N2)


def test_psi_examples():
    one = SemigroupRingElement.one(N)
    t = mono(N, (1,))
    assert psi(ring_add(one, t), 2) == ring_add(one, mono(N, (2,)))
    el = ring_add(mono(N, (1,), 2), mono(N, (2,), 5))
    assert psi(el, 3) == ring_add(mono(N, (3,), 2), mono(N, (6,), 5))
    with pytest.raises(RingError):
        psi(t, 4)


@settings(max_examples=50, deadline=None)
@given(elements_of_zn2, elements_of_zn2, st.sampled_from([2, 3, 5]))
def test_psi_is_a_ring_homomorphism(x, y, p):
    assert psi(ring_mul(x, y), p) == ring_mul(psi(x, p), psi(y, p))
    assert psi(ring_add(x, y), p) == ring_add(psi(x, p), psi(y, p))


def test_psi_commuting_example():
    one = SemigroupRingElement.one(N)
    el = ring_add(ring_add(one, mono(N, (1,))), mono(N, (2,)))
    both = psi(psi(el, 2), 3)
    assert both == psi(psi(el, 3), 2)
    assert both == ring_add(ring_add(one, mono(N, (6,))), mono(N, (12,)))


def test_frobenius_examples():
    one = SemigroupRingElement.one(N)
    t = mono(N, (1,))
    assert frobenius_check(ring_add(one, t), 2)
    assert frobenius_check(mono(N, (1,), 3), 3)   # psi_3(3t)=3t^3 vs 27t^3


def test_corrupted_family_fails():
    one = SemigroupRingElement.one(N)
    x = ring_add(one, mono(N, (1,)))
    bad = monomial_power_map(x, 3)  # pretend power map for p = 2
    diff = ring_sub(bad, ring_pow(x, 2))
    assert any(c % 2 != 0 for _, c in diff.coeffs)


def test_seeded_frobenius_suite_is_fast_and_green():
    lam = LambdaStructure(N2)
    elements = random_ring_elements(N2, 200, seed=1729)
    assert len(elements) == 200
    start = time.monotonic()
    for x in elements:
        assert lam.check_frobenius(x, (2, 3, 5))
        assert lam.check_commuting(x, (2, 3, 5))
    assert time.monotonic() - start < 2.0


def test_seeded_elements_stay_inside_a_non_free_monoid():
    # generators (1,0), (1,1), (1,2): (0, 1) is not a member
    A = AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]])
    elements = random_ring_elements(A, 40, seed=1729)
    assert all(A.contains(k) for x in elements for k, _ in x.coeffs)
    assert all(LambdaStructure(A).check_frobenius(x, (2, 3)) for x in elements)


def test_seeded_elements_are_reproducible():
    a = random_ring_elements(N2, 5, seed=42)
    b = random_ring_elements(N2, 5, seed=42)
    assert a == b
    c = random_ring_elements(N2, 5, seed=43)
    assert a != c


def test_psi_on_pointed_table_ring():
    M = TableMonoid.make(
        ("1", "x", "0"),
        {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
         ("x", "x"): "0", ("x", "0"): "0", ("0", "0"): "0"},
        identity="1", zero="0")
    x = mono(M, "x")
    assert psi(x, 2) == SemigroupRingElement.zero(M)  # x^2 = 0 collapses
    assert frobenius_check(ring_add(SemigroupRingElement.one(M), x), 2)
