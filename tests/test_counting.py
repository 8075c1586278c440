import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    affine_points,
    hirzebruch1_points,
    lines_through_origin,
    product_p1_p1_points,
    projective_points,
)
from f1geom.counting import (
    CountError,
    count_points,
    counting_polynomial,
    is_prime,
    orbit_count_polynomial,
    prime_power_base,
)
from f1geom.fans import kato, standard_fans
from f1geom.limits import LIMITS
from f1geom.monoid import AffineMonoid, group_monoid
from f1geom.spectrum import MScheme, plus_zero
from f1geom.zeta import (
    CountingPolynomial,
    InconsistentSamples,
    NonIntegralFit,
    ZetaError,
    fit_counting_polynomial,
    parse_counting_polynomial,
    q_poly,
)

SAMPLE_QS = (2, 3, 4, 5, 7, 8, 9)


def test_prime_power_validation():
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(7) == (7, 1)
    for bad in (1, 6, 12, 0):
        with pytest.raises(CountError):
            prime_power_base(bad)


def _trial_division_base(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q, e = q // p, e + 1
    return (p, e) if q == 1 else None


def test_prime_power_base_agrees_with_trial_division():
    for q in range(-2, 20_000):
        want = _trial_division_base(q) if q >= 2 else None
        if want is None:
            with pytest.raises(CountError):
                prime_power_base(q)
        else:
            assert prime_power_base(q) == want, q


@pytest.mark.parametrize("q, base", [
    (10**16 + 61, (10**16 + 61, 1)),
    (2**61, (2, 61)),
    ((10**9 + 7) ** 2, (10**9 + 7, 2)),
    (2**81, (2, 81)),
], ids=["large-prime", "2^61", "square-of-a-prime", "2^81"])
def test_prime_power_base_of_large_q(q, base):
    assert prime_power_base(q) == base


@pytest.mark.parametrize("q", [3 * (10**16 + 61), (10**9 + 7) * (10**9 + 9), 2**61 * 3,
                               3215031751, 3825123056546413051, 318665857834031151167461])
def test_large_composites_are_not_prime_powers(q):
    # the last three are strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    with pytest.raises(CountError, match="not a prime power"):
        prime_power_base(q)


def test_is_prime_agrees_with_sympy_up_to_the_cap():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    cap = LIMITS["field_size"]
    for n in [rng.randrange(2, 2**bits) for bits in range(2, cap.bit_length()) for _ in range(40)]:
        n = min(n, cap)
        assert is_prime(n) == sympy.isprime(n), n


def test_field_size_cap_names_its_key():
    cap = LIMITS["field_size"]
    largest = next(n for n in range(cap, 0, -1) if is_prime(n))
    assert cap - largest < 1000 and prime_power_base(largest) == (largest, 1)
    for q in (cap + 1, 2**82):
        with pytest.raises(CountError, match=r"LIMITS\['field_size'\]"):
            prime_power_base(q)


def test_torus_counts():
    for r in (1, 2, 3):
        for q in (2, 3, 5):
            assert count_points(MScheme.affine(group_monoid(r)), q).count == (q - 1) ** r


def test_p1_counts_match_line_enumeration():
    X = kato(standard_fans("projective_space", 1))
    for p in (2, 3, 5):
        assert count_points(X, p).count == lines_through_origin(p) == p + 1


def test_p2_counts_match_projective_enumeration():
    X = kato(standard_fans("projective_space", 2))
    assert count_points(X, 2).count == projective_points(2, 2) == 7
    assert count_points(X, 3).count == projective_points(2, 3) == 13


def test_affine_space_counts():
    for n in (1, 2, 3):
        X = kato(standard_fans("affine_space", n))
        for p in (2, 3):
            assert count_points(X, p).count == affine_points(n, p)
        assert counting_polynomial(X).as_polynomial() == \
            q_poly(1, *([0] * n))


def test_p1xp1_and_hirzebruch_counts():
    p1 = standard_fans("projective_space", 1)
    X = kato(standard_fans("product", p1, p1))
    for p in (2, 3):
        assert count_points(X, p).count == product_p1_p1_points(p)
    H = kato(standard_fans("hirzebruch", 1))
    for p in (2, 3):
        assert count_points(H, p).count == hirzebruch1_points(p)
    assert counting_polynomial(H).as_polynomial() == q_poly(1, 2, 1)


def test_counting_polynomial_of_p2():
    X = kato(standard_fans("projective_space", 2))
    cf = counting_polynomial(X)
    assert cf.is_polynomial
    assert cf.as_polynomial() == q_poly(1, 1, 1)


def test_orbit_formula_commutes_with_scheme_counts():
    fans = [standard_fans("affine_space", n) for n in (1, 2, 3)]
    fans += [standard_fans("projective_space", n) for n in (1, 2)]
    p1 = standard_fans("projective_space", 1)
    fans += [standard_fans("product", p1, p1), standard_fans("hirzebruch", 1)]
    for fan in fans:
        X = kato(fan)
        orbit = orbit_count_polynomial(fan)
        assert counting_polynomial(X).as_polynomial() == orbit
        for q in SAMPLE_QS:
            assert count_points(X, q).count == orbit(q)


def test_count_matches_polynomial_everywhere():
    X = kato(standard_fans("projective_space", 2))
    cf = counting_polynomial(X)
    for q in SAMPLE_QS:
        assert count_points(X, q).count == cf.as_polynomial()(q)


def test_pointed_scheme_counts_are_unchanged():
    X = kato(standard_fans("projective_space", 1))
    Xz = plus_zero(X)
    for q in (2, 3, 4):
        assert count_points(Xz, q).count == count_points(X, q).count


def test_torsion_chart_is_flagged():
    mu3 = MScheme.affine(AffineMonoid.make(0, [[1]], torsion=[3]))
    cf = counting_polynomial(mu3)
    assert not cf.is_polynomial
    assert cf.modulus == 3
    with pytest.raises(CountError):
        cf.as_polynomial()
    from math import gcd

    for q in SAMPLE_QS:
        assert cf.evaluate(q) == gcd(3, q - 1)
        assert count_points(mu3, q).count == gcd(3, q - 1)
    # per residue class the count is a constant polynomial
    assert cf.polynomial_on_class(7) == q_poly(3)
    assert cf.polynomial_on_class(2) == q_poly(1)


def test_count_record_shape():
    torus = MScheme.affine(group_monoid(1))
    rec = count_points(torus, 4)
    assert rec.as_dict() == {"q": 4, "count": 3, "method": "stalk-formula"}
    with pytest.raises(CountError):
        count_points(torus, 6)


# --- fitting and parsing counting polynomials ----------------------------------

coefficient_lists = st.lists(st.integers(-30, 30), max_size=7)


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, st.integers(0, 2), st.integers(0, 2))
def test_fit_recovers_the_sampled_polynomial(coeffs, slack, extra):
    poly = CountingPolynomial.make(coeffs)
    bound = max(poly.degree, 0) + slack
    samples = [(q, poly(q)) for q in range(2, bound + 3 + extra)]
    assert fit_counting_polynomial(samples, bound) == poly


@settings(max_examples=150, deadline=None)
@given(coefficient_lists)
def test_printed_polynomial_parses_back(coeffs):
    poly = CountingPolynomial.make(coeffs)
    assert parse_counting_polynomial(str(poly)) == poly


def test_fit_names_a_non_integral_interpolant_and_a_disagreeing_sample():
    with pytest.raises(NonIntegralFit, match=re.escape(
            "interpolant has non-integer coefficients: "
            "[Fraction(0, 1), Fraction(-1, 2), Fraction(1, 2)]")):
        fit_counting_polynomial([(q, q * (q - 1) // 2) for q in (2, 3, 4)], 2)
    with pytest.raises(InconsistentSamples, match=re.escape(
            "sample N(5)=7 disagrees with the fit q + 1 = 6")):
        fit_counting_polynomial([(2, 3), (3, 4), (5, 7)], 1)


@pytest.mark.usefixtures("default_int_digit_limit")
def test_digit_strings_past_the_int_limit_name_the_term():
    # each digit string is measured before int() reads it
    assert parse_counting_polynomial("q^" + "0" * 5000 + "7") == q_poly(1, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ZetaError, match=r"has degree 9{5000}, past LIMITS\['polynomial_degree'\]"):
        parse_counting_polynomial("q^" + "9" * 5000)
    with pytest.raises(ZetaError, match="has a coefficient of 5000 digits"):
        parse_counting_polynomial("9" * 5000 + "q + 1")


@pytest.mark.usefixtures("default_int_digit_limit")
def test_coefficients_summed_past_the_int_limit_name_the_degree():
    nines = "9" * 4300
    with pytest.raises(ZetaError, match="terms of degree 2 sum to a coefficient of more than "
                                        "4300 digits"):
        parse_counting_polynomial(f"q + {nines}q^2 + {nines}q^2")
    assert parse_counting_polynomial(f"{nines}q^2 - {nines}q^2 + q") == q_poly(1, 0)
    big = parse_counting_polynomial(f"{nines[1:]}q + {nines[1:]}q")  # 4,300 digits in all
    assert len(str(big.coefficients[1])) == 4300
