"""Semigroup rings Z[A] and the monomial-power endomorphism family.

Elements are sparse maps from monoid elements to nonzero integer
coefficients.  For a pointed monoid the ring is Z[A]/(zero of A ~ ring
zero), realized by never letting the monoid zero into a support.  The
endomorphisms psi_p act on monomials by a -> a^p; reduction mod p turns
psi_p into the Frobenius, which frobenius_check verifies elementwise.
The Frobenius power x^p it compares against is computed in F_p[A], its
coefficients reduced mod p after each product, so they never outgrow p.
The family {psi_p} commutes, which psi_commute verifies elementwise;
these two checks are the desk-scale content of a Frobenius-lift family.
"""
from __future__ import annotations

from dataclasses import dataclass

from .counting import is_prime
from .limits import LIMITS


class RingError(ValueError):
    pass


@dataclass(frozen=True)
class SemigroupRingElement:
    """Finite Z-linear combination of monoid elements."""

    owner: object
    coeffs: tuple  # sorted tuple of (element_key, coefficient), coefficient != 0

    @staticmethod
    def make(owner, mapping) -> "SemigroupRingElement":
        clean = {}
        for key, c in dict(mapping).items():
            k = owner.member(key)
            if k is None:
                raise RingError(f"monomial {key!r} is not in the monoid")
            if k == owner.zero:
                continue  # identified with the ring zero
            c = int(c)
            if c:
                clean[k] = clean.get(k, 0) + c
        items = tuple(sorted((k, c) for k, c in clean.items() if c != 0))
        return SemigroupRingElement(owner, items)

    @staticmethod
    def _unchecked(owner, mapping) -> "SemigroupRingElement":
        # internal: supports produced by ring operations are closed in the
        # monoid, so membership validation is skipped
        items = tuple(sorted((k, c) for k, c in mapping.items() if c != 0))
        return SemigroupRingElement(owner, items)

    @staticmethod
    def one(owner) -> "SemigroupRingElement":
        return SemigroupRingElement.make(owner, {owner.identity: 1})

    @staticmethod
    def zero(owner) -> "SemigroupRingElement":
        return SemigroupRingElement(owner, ())

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*[{k}]" for k, c in self.coeffs)


def _same_owner(x: SemigroupRingElement, y: SemigroupRingElement):
    if x.owner != y.owner:
        raise RingError("elements of different semigroup rings")


def ring_add(x: SemigroupRingElement, y: SemigroupRingElement) -> SemigroupRingElement:
    _same_owner(x, y)
    out = x.as_dict()
    for k, c in y.coeffs:
        out[k] = out.get(k, 0) + c
    return SemigroupRingElement._unchecked(x.owner, out)


def ring_neg(x: SemigroupRingElement) -> SemigroupRingElement:
    return SemigroupRingElement._unchecked(x.owner, {k: -c for k, c in x.coeffs})


def ring_sub(x, y):
    return ring_add(x, ring_neg(y))


def ring_mul(x: SemigroupRingElement, y: SemigroupRingElement,
             modulus: int = 0) -> SemigroupRingElement:
    """Convolution product, in (Z/modulus)[A] when a modulus is given; a pointed
    monoid's zero is absorbed into 0.  More than LIMITS['ring_mul_terms']
    monomial products are refused."""
    _same_owner(x, y)
    if len(x.coeffs) * len(y.coeffs) > LIMITS["ring_mul_terms"]:
        raise RingError(f"a product of {len(x.coeffs)} by {len(y.coeffs)} terms exceeds "
                        f"{LIMITS['ring_mul_terms']} monomial products "
                        "(LIMITS['ring_mul_terms'])")
    A = x.owner
    out: dict = {}
    op, zero, get = A.op, A.zero, out.get
    for k1, c1 in x.coeffs:
        for k2, c2 in y.coeffs:
            k = op(k1, k2)
            if k != zero:
                out[k] = get(k, 0) + c1 * c2
    if modulus:
        out = {k: c % modulus for k, c in out.items()}
    return SemigroupRingElement._unchecked(A, out)


def ring_pow(x: SemigroupRingElement, n: int, modulus: int = 0) -> SemigroupRingElement:
    """x^n by repeated squaring, in (Z/modulus)[A] when a modulus is given.
    The product starts from the square x^(2^j) of the lowest set bit j of
    n, not from the identity."""
    if n < 0:
        raise RingError("negative powers are not defined")
    if n == 0:
        return SemigroupRingElement.one(x.owner)
    base = x
    while not n & 1:
        base = ring_mul(base, base, modulus)
        n >>= 1
    out = base
    if out is x and modulus:  # x^1, reduced as every product is
        out = SemigroupRingElement._unchecked(x.owner, {k: c % modulus for k, c in x.coeffs})
    while n := n >> 1:
        base = ring_mul(base, base, modulus)
        if n & 1:
            out = ring_mul(out, base, modulus)
    return out


def monomial_power_map(x: SemigroupRingElement, k: int) -> SemigroupRingElement:
    """Coefficients kept, every support element raised to the k-th power."""
    A = x.owner
    out: dict = {}
    for key, c in x.coeffs:
        nk = A.power(key, k)
        if nk != A.zero:
            out[nk] = out.get(nk, 0) + c
    return SemigroupRingElement._unchecked(A, out)


def psi(x: SemigroupRingElement, p: int) -> SemigroupRingElement:
    """psi_p, the lift of Frobenius: monomials a -> a^p."""
    if not is_prime(p):
        raise RingError(f"{p} is not prime")
    return monomial_power_map(x, p)


def is_frobenius_image(y: SemigroupRingElement, x: SemigroupRingElement, p: int) -> bool:
    """y == x^p coefficientwise mod p, with x^p taken in F_p[A]."""
    return all(c % p == 0 for _, c in ring_sub(y, ring_pow(x, p, modulus=p)).coeffs)


def frobenius_check(x: SemigroupRingElement, p: int) -> bool:
    """psi_p(x) == x^p coefficientwise mod p (the Frobenius square)."""
    return is_frobenius_image(psi(x, p), x, p)


def psi_commute(x: SemigroupRingElement, ps) -> bool:
    """psi_p o psi_q == psi_q o psi_p on x for every pair of ps."""
    ps = list(ps)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            if psi(psi(x, p), q) != psi(psi(x, q), p):
                return False
    return True


MAX_EXPONENT, COEFF_BOUND, MAX_TERMS = 4, 9, 6  # random_ring_elements' draws


def random_ring_elements(A, count: int, seed: int):
    """Seeded pseudo-random sparse elements with small support, for the
    reproducible property runs: 1 to MAX_TERMS terms, coefficients in
    [-COEFF_BOUND, COEFF_BOUND] (0 drawn becomes 1), and each monomial a
    product of powers g^e, 0 <= e <= MAX_EXPONENT, of the nonzero generators."""
    import random

    rng = random.Random(seed)
    out = []

    def random_key():
        key = A.identity
        for g in A.generators:
            if g != A.zero:
                key = A.op(key, A.power(g, rng.randint(0, MAX_EXPONENT)))
        return key

    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, MAX_TERMS)):
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c == 0:
                c = 1
            terms[random_key()] = c
        out.append(SemigroupRingElement.make(A, terms))
    return out
