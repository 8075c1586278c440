import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f1geom.io import parse_input
from f1geom.monoid import AffineMonoid, TableMonoid, free_monoid
from oracles import (
    cyclic_product,
    frobenius_check,
    frobenius_lift_by_elements,
    monomial_power_map,
    polynomial_product,
    psi,
    ring_add,
    ring_neg,
    ring_one,
    ring_pow,
    ring_sub,
    table_convolution,
)
from f1geom.semiring import (
    RingError,
    SemigroupRingElement,
    _pow,
    frobenius_lift_run,
    random_ring_elements,
    ring_mul,
)

DATA = Path(__file__).resolve().parent.parent / "data"
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
    one = ring_one(N)
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
        ring_add(ring_one(N), ring_one(N2))


@settings(max_examples=60, deadline=None)
@given(elements_of_zn2, elements_of_zn2, elements_of_zn2)
def test_ring_laws(x, y, z):
    assert ring_add(x, y) == ring_add(y, x)
    assert ring_mul(x, y) == ring_mul(y, x)
    assert ring_mul(x, ring_mul(y, z)) == ring_mul(ring_mul(x, y), z)
    assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))
    assert ring_add(x, ring_neg(x)) == SemigroupRingElement.zero(N2)


def test_psi_examples():
    one = ring_one(N)
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
    one = ring_one(N)
    el = ring_add(ring_add(one, mono(N, (1,))), mono(N, (2,)))
    both = psi(psi(el, 2), 3)
    assert both == psi(psi(el, 3), 2)
    assert both == ring_add(ring_add(one, mono(N, (6,))), mono(N, (12,)))


def test_frobenius_examples():
    one = ring_one(N)
    t = mono(N, (1,))
    assert frobenius_check(ring_add(one, t), 2)
    assert frobenius_check(mono(N, (1,), 3), 3)   # psi_3(3t)=3t^3 vs 27t^3


def test_corrupted_family_fails():
    one = ring_one(N)
    x = ring_add(one, mono(N, (1,)))
    bad = monomial_power_map(x, 3)  # pretend power map for p = 2
    diff = ring_sub(bad, ring_pow(x, 2))
    assert any(c % 2 != 0 for _, c in diff.coeffs)


def test_seeded_frobenius_suite_is_fast_and_green():
    elements = random_ring_elements(N2, 200, seed=1729)
    assert len(elements) == 200
    start = time.monotonic()
    assert frobenius_lift_run(N2, elements, (2, 3, 5)) == (True, True, True)
    assert time.monotonic() - start < 2.0


def test_seeded_elements_stay_inside_a_non_free_monoid():
    # generators (1,0), (1,1), (1,2): (0, 1) is not a member
    A = AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]])
    elements = random_ring_elements(A, 40, seed=1729)
    assert all(A.contains(k) for x in elements for k, _ in x.coeffs)
    assert frobenius_lift_run(A, elements, (2, 3)) == (True, True, True)


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
    assert frobenius_check(ring_add(ring_one(M), x), 2)


# --- the product kernel against independent routes

N3 = free_monoid(3)
elements_of_n3 = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), max_size=5)


def _by_repeated_product(product, one, x, n):
    out = one
    for _ in range(n):
        out = product(out, x)
    return out


def _mod(d, m):
    return {k: c % m for k, c in d.items() if c % m}


def _power(X, n, m=0):
    return _pow(X.owner, X.as_dict(), n, m)


@settings(max_examples=60, deadline=None)
@given(elements_of_n3, elements_of_n3, st.integers(0, 3), st.sampled_from([2, 3, 7]))
@example({(0, 0, 0): 1, (1, 0, 0): 1}, {}, 2, 2)  # the cross term 2t cancels mod 2
@example({(1, 0, 0): 3}, {}, 2, 3)  # the square 9t^2 cancels mod 3
def test_products_on_a_free_monoid_are_sympy_polynomial_products(x, y, n, m):
    X, Y = (SemigroupRingElement.make(N3, d) for d in (x, y))
    assert ring_mul(X, Y).as_dict() == polynomial_product(x, y, 3)
    square = polynomial_product(x, x, 3)  # X * X is the unordered-pair square
    assert ring_mul(X, X).as_dict() == square
    assert ring_mul(X, X, modulus=m).as_dict() == _mod(square, m)
    power = _by_repeated_product(lambda u, v: polynomial_product(u, v, 3), {(0, 0, 0): 1}, x, n)
    assert _power(X, n) == power
    assert _power(X, n, m) == _mod(power, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.just(d),
    *[st.dictionaries(st.integers(0, d - 1), st.integers(-9, 9), max_size=d)] * 2,
    st.integers(0, 4), st.sampled_from([2, 3, 5]))))
@example((2, {0: 1, 1: 1}, {}, 2, 2))  # (1 + g)^2 = 2 + 2g cancels mod 2
def test_products_on_a_cyclic_group_reduce_mod_t_to_the_d_minus_1(case):
    d, x, y, n, m = case
    Zd = AffineMonoid.make(0, [[1]], torsion=[d])
    X, Y = (SemigroupRingElement.make(Zd, {(e,): c for e, c in z.items()}) for z in (x, y))

    def keyed(z):
        return {(e,): c for e, c in z.items()}

    assert ring_mul(X, Y).as_dict() == keyed(cyclic_product(x, y, d))
    square = cyclic_product(x, x, d)
    assert ring_mul(X, X).as_dict() == keyed(square)
    assert ring_mul(X, X, modulus=m).as_dict() == keyed(_mod(square, m))
    power = _by_repeated_product(lambda u, v: cyclic_product(u, v, d), {0: 1}, x, n)
    assert _power(X, n) == keyed(power)
    assert _power(X, n, m) == keyed(_mod(power, m))


# x^2 = 0 with zero, x^3 = 0 with zero, and Z/3 with zero adjoined, each on
# unordered pairs
TRUNCATED = ("1", "x", "0"), {("1", "1"): "1", ("1", "x"): "x", ("1", "0"): "0",
                              ("x", "x"): "0", ("x", "0"): "0", ("0", "0"): "0"}
NILPOTENT = ("1", "x", "x2", "0"), {
    ("1", "1"): "1", ("1", "x"): "x", ("1", "x2"): "x2", ("1", "0"): "0",
    ("x", "x"): "x2", ("x", "x2"): "0", ("x", "0"): "0",
    ("x2", "x2"): "0", ("x2", "0"): "0", ("0", "0"): "0"}
Z3_ZERO = ("0", "1", "g", "g2"), {
    ("0", "0"): "0", ("0", "1"): "0", ("0", "g"): "0", ("0", "g2"): "0",
    ("1", "1"): "1", ("1", "g"): "g", ("1", "g2"): "g2",
    ("g", "g"): "g2", ("g", "g2"): "1", ("g2", "g2"): "g"}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([TRUNCATED, NILPOTENT, Z3_ZERO]).flatmap(lambda t: st.tuples(
    st.just(t),
    *[st.dictionaries(st.sampled_from(t[0]), st.integers(-9, 9), max_size=4)] * 2,
    st.integers(0, 5), st.sampled_from([2, 3]))))
@example((NILPOTENT, {"x": 1, "x2": 4}, {}, 3, 2))  # x*x2, x2*x2 and x^3 are the zero
@example((NILPOTENT, {"1": 1, "x": 1}, {}, 2, 2))  # (1 + x)^2 = 1 + x2 mod 2
def test_products_on_a_table_monoid_are_table_convolutions(case):
    (elements, table), x, y, n, m = case
    M = TableMonoid.make(elements, table, identity="1", zero="0")
    X, Y = (SemigroupRingElement.make(M, d) for d in (x, y))
    x = {k: c for k, c in x.items() if k != "0"}
    y = {k: c for k, c in y.items() if k != "0"}
    assert ring_mul(X, Y).as_dict() == table_convolution(x, y, table, zero="0")
    square = table_convolution(x, x, table, zero="0")
    assert ring_mul(X, X).as_dict() == square
    assert ring_mul(X, X, modulus=m).as_dict() == _mod(square, m)
    power = _by_repeated_product(lambda u, v: table_convolution(u, v, table, zero="0"),
                                 {"1": 1}, x, n)
    assert _power(X, n) == power
    assert _power(X, n, m) == _mod(power, m)


@pytest.mark.parametrize("table", [TRUNCATED, Z3_ZERO], ids=["truncated", "z3zero"])
def test_table_power_is_the_repeated_product(table):
    M = TableMonoid.make(*table, identity="1", zero="0")
    for a in M.elements:
        assert [M.power(a, n) for n in range(12)] == \
            [_by_repeated_product(M.op, "1", a, n) for n in range(12)]


def test_table_power_takes_huge_exponents():
    M = TableMonoid.make(*Z3_ZERO, identity="1", zero="0")
    assert M.power("g", 10 ** 30 + 1) == "g2"  # 10^30 + 1 = 2 mod 3


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 8, 13, 64, 97])
def test_ring_pow_squares_and_multiplies_without_the_identity(monkeypatch, n):
    # n = 2^j has j squarings and no product; each further set bit of n
    # adds one product; x^1 is x itself, its coefficients reduced mod 5
    import f1geom.semiring as semiring

    calls = []
    kernel = semiring._mul

    def counted(A, x, y, modulus=0):
        calls.append(modulus)
        return kernel(A, x, y, modulus)

    monkeypatch.setattr(semiring, "_mul", counted)
    x = SemigroupRingElement.make(N, {(0,): 7, (1,): 5, (2,): -3})
    power = semiring._pow(N, x.as_dict(), n, 5)
    assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)
    assert set(calls) <= {5}
    want = _by_repeated_product(lambda u, v: polynomial_product(u, v, 1), {(0,): 1},
                                x.as_dict(), n)
    assert power == _mod(want, 5)


MIXED = [
    AffineMonoid.make(1, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], torsion=[2, 3]),
    AffineMonoid.make(2, [[1, 0, 1], [0, 1, 3], [1, 1, 0]], torsion=[4]),
    AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]]),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MIXED).flatmap(lambda A: st.tuples(
    st.just(A),
    *[st.lists(st.integers(0, 7), min_size=len(A.generators),
               max_size=len(A.generators))] * 2,
    st.integers(0, 10 ** 20))))
def test_affine_op_and_power_reduce_the_coordinatewise_sum_and_multiple(case):
    A, m1, m2, n = case

    def member(ms):
        return A._reduce(tuple(sum(k * g[i] for k, g in zip(ms, A.generators))
                               for i in range(A.width)))

    a, b = member(m1), member(m2)
    assert A.op(a, b) == A._reduce(tuple(x + y for x, y in zip(a, b)))
    assert A.power(a, n) == A._reduce(tuple(n * x for x in a))


# --- the Frobenius-lift run against the element-level route

class ShiftedPowers:
    """A monoid read with the power map a -> a^(n+1), so that its psi_p is
    the corrupted family a -> a^(p+1)."""

    def __init__(self, monoid):
        self.monoid = monoid

    def __getattr__(self, name):
        return getattr(self.monoid, name)

    def power(self, a, n):
        return self.monoid.power(a, n + 1)


LIFT_MONOIDS = {
    **{name: parse_input(DATA / f"{name}.mon.json") for name in ("n2", "mu3", "z3zero")},
    "free2": N2,
    **{f"mixed{i}": A for i, A in enumerate(MIXED)},
    "nilpotent": TableMonoid.make(*NILPOTENT, identity="1", zero="0"),
}


def _seeded_elements(A, seed):
    """random_ring_elements, and for a table monoid also elements with each
    nonzero element in the support: the random monomials of a nilpotent
    monoid are mostly its zero."""
    rng = random.Random(seed)
    dense = [{a: rng.randint(-9, 9) for a in A.elements if a != A.zero}
             for _ in range(30)] if hasattr(A, "elements") else []
    return random_ring_elements(A, 30, seed) + [SemigroupRingElement.make(A, d) for d in dense]


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 7)], ids=str)
@pytest.mark.parametrize("name", sorted(LIFT_MONOIDS))
def test_the_lift_run_equals_the_element_route(name, ps):
    A = LIFT_MONOIDS[name]
    for seed in (1, 1729):
        elements = _seeded_elements(A, seed)
        assert frobenius_lift_run(A, elements, ps) == frobenius_lift_by_elements(elements, ps) \
            == (True, True, True)
        wrong = ShiftedPowers(A)
        elements = _seeded_elements(wrong, seed)
        assert frobenius_lift_run(wrong, elements, ps) == \
            frobenius_lift_by_elements(elements, ps) == (False, True, True)

