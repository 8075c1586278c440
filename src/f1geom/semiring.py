"""Semigroup rings Z[A] and the monomial-power endomorphism family.

Elements are sparse maps from monoid elements to nonzero integer
coefficients.  For a pointed monoid the ring is Z[A]/(zero of A ~ ring
zero), realized by never letting the monoid zero into a support.  The
endomorphisms psi_p act on monomials by a -> a^p; reduction mod p turns
psi_p into the Frobenius, and the family {psi_p} commutes.  One driver,
frobenius_lift_run, checks both on seeded elements, against a corrupted
family as negative control.  It checks its primes before any product,
makes each psi_p(x) once and reads each a^k from a memo that lives for
the run.  The arithmetic runs on plain {monomial: coefficient} dicts;
as A is commutative, a square forms each unordered pair of terms once.
x^p is computed in F_p[A], reduced mod p after each product.  ring_mul
is the one product on sorted SemigroupRingElements.  Seeded monomials
are products of generator powers, members of A by construction, so
random_ring_elements does not re-check them.
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
        # internal: supports made by ring operations or drawn as products of
        # generator powers lie in the monoid, so membership is not re-checked
        items = tuple(sorted((k, c) for k, c in mapping.items() if c != 0))
        return SemigroupRingElement(owner, items)

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


def _mod(x: dict, m: int) -> dict:
    return {k: r for k, c in x.items() if (r := c % m)}


def _mul(A, x: dict, y: dict, modulus: int = 0) -> dict:
    """The product of {monomial: coefficient} dicts in (Z/modulus)[A]; a
    square (y is x) forms each unordered pair of terms once."""
    if len(x) * len(y) > LIMITS["ring_mul_terms"]:
        raise RingError(f"a product of {len(x)} by {len(y)} terms exceeds "
                        f"{LIMITS['ring_mul_terms']} monomial products "
                        "(LIMITS['ring_mul_terms'])")
    out: dict = {}
    op, get, square, items = A.op, out.get, y is x, list(x.items())
    for i, (k1, c1) in enumerate(items):
        if square:  # c1^2 on the diagonal, 2 c1 c2 off it
            k = op(k1, k1)
            out[k] = get(k, 0) + c1 * c1
            c1 += c1
        for k2, c2 in items[i + 1:] if square else y.items():
            k = op(k1, k2)
            out[k] = get(k, 0) + c1 * c2
    out.pop(A.zero, None)  # a pointed monoid's zero is the ring zero
    return _mod(out, modulus) if modulus else {k: c for k, c in out.items() if c}


def _pow(A, x: dict, n: int, modulus: int = 0) -> dict:
    """x^n by repeated squaring; for n >= 1 it starts from the square
    x^(2^j) of the lowest set bit j of n, not from the identity."""
    if not n:
        return {a: 1 for a in (A.identity,) if a != A.zero}
    base = x
    while not n & 1:
        base = _mul(A, base, base, modulus)
        n >>= 1
    out = _mod(x, modulus) if base is x and modulus else base  # x^1 is reduced too
    while n := n >> 1:
        base = _mul(A, base, base, modulus)
        if n & 1:
            out = _mul(A, out, base, modulus)
    return out


def _power_map(A, x: dict, k: int, known: dict) -> dict:
    """Every monomial a of x raised to a^k, coefficients kept; `known`
    memoizes a -> a^k."""
    out: dict = {}
    get = out.get
    for a, c in x.items():
        if (ak := known.get(a)) is None:
            ak = known[a] = A.power(a, k)
        out[ak] = get(ak, 0) + c
    out.pop(A.zero, None)
    return {a: c for a, c in out.items() if c}


def ring_mul(x: SemigroupRingElement, y: SemigroupRingElement,
             modulus: int = 0) -> SemigroupRingElement:
    """Convolution product, in (Z/modulus)[A] when a modulus is given; a pointed
    monoid's zero is absorbed into 0.  More than LIMITS['ring_mul_terms']
    monomial products are refused."""
    _same_owner(x, y)
    dx = x.as_dict()
    return SemigroupRingElement._unchecked(
        x.owner, _mul(x.owner, dx, dx if y is x else y.as_dict(), modulus))


def frobenius_lift_run(A, elements, ps) -> tuple[bool, bool, bool]:
    """(frobenius, commuting, control_failed) on the elements of Z[A]: psi_p(x)
    == x^p mod p for all x and p of ps; psi_q(psi_p(x)) == psi_p(psi_q(x)) for
    all x and pairs of ps; whether the corrupted family a -> a^(p+1) fails the
    first check at some (x, p).  Each check stops at its first failure."""
    for p in ps:
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
    known: dict = {}  # k -> {a: a^k}, for this run only
    frobenius, commuting, control_failed = True, True, False
    for x in elements:
        x = x.as_dict()
        image = {p: _power_map(A, x, p, known.setdefault(p, {})) for p in ps}
        power: dict = {}  # p -> x^p in F_p[A], made once for both checks that need it

        def is_frobenius_image(y, p):
            if p not in power:
                power[p] = _pow(A, x, p, p)
            return _mod(y, p) == power[p]

        frobenius = frobenius and all(is_frobenius_image(image[p], p) for p in ps)
        commuting = commuting and all(
            _power_map(A, image[p], q, known[q]) == _power_map(A, image[q], p, known[p])
            for i, p in enumerate(ps) for q in ps[i + 1:])
        control_failed = control_failed or not all(
            is_frobenius_image(_power_map(A, x, p + 1, known.setdefault(p + 1, {})), p)
            for p in ps)
    return frobenius, commuting, control_failed


MAX_EXPONENT, COEFF_BOUND, MAX_TERMS = 4, 9, 6  # random_ring_elements' draws


def random_ring_elements(A, count: int, seed: int):
    """Seeded pseudo-random sparse elements with small support, for the
    reproducible property runs: 1 to MAX_TERMS terms, coefficients in
    [-COEFF_BOUND, COEFF_BOUND] (0 drawn becomes 1), and each monomial a
    product of powers g^e, 0 <= e <= MAX_EXPONENT, of the nonzero generators.
    Such a product lies in A by construction, so no membership is checked;
    a pointed monoid's zero, which nilpotents reach, is dropped."""
    import random

    rng = random.Random(seed)
    powers = [[A.power(g, e) for e in range(MAX_EXPONENT + 1)]
              for g in A.generators if g != A.zero]
    out = []

    def random_key():
        key = A.identity
        for g_to_the in powers:
            key = A.op(key, g_to_the[rng.randint(0, MAX_EXPONENT)])
        return key

    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, MAX_TERMS)):
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND) or 1
            terms[random_key()] = c
        terms.pop(A.zero, None)
        out.append(SemigroupRingElement._unchecked(A, terms))
    return out
