"""Point counts of monoid schemes over finite fields.

Ring homomorphisms Z[A] -> F_q correspond to monoid homomorphisms from A
into the multiplicative monoid of F_q, stratified over the primes of A;
on each stratum the count is the number of homs from the stalk unit
group into the cyclic group of order q - 1.  Counts are therefore sums
of hom counts computed by Smith normal form, never by enumeration --
enumeration lives in the test oracles.  Every count takes a scheme; a
monoid A is counted as its spectrum ``MScheme.affine(A)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .fans import Fan
from .limits import LIMITS
from .monoid import hom_count_to_cyclic
from .spectrum import MScheme
from .zeta import CountingPolynomial


class CountError(ValueError):
    pass


# Miller-Rabin with these bases is exact for n < 3,317,044,064,679,887,385,961,981
# (Sorenson and Webster 2015); LIMITS["field_size"] is that bound less one
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n <= LIMITS['field_size'];
    larger n are refused."""
    if n > LIMITS["field_size"]:
        raise CountError(f"{n} exceeds the largest field size {LIMITS['field_size']} "
                         "(LIMITS['field_size']) for which primality is decided exactly")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by Newton's iteration from above."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power_base(q: int):
    """(p, e) with q = p^e, or raise.  For composite q, the largest e > 1
    with q a perfect e-th power gives the only candidate p, which must
    then be prime."""
    if q < 2:
        raise CountError(f"{q} is not a prime power")
    if is_prime(q):
        return q, 1
    for e in range(q.bit_length() - 1, 1, -1):
        p = _integer_root(q, e)
        if p ** e == q:
            if is_prime(p):
                return p, e
            break
    raise CountError(f"{q} is not a prime power")


@dataclass(frozen=True)
class CountRecord:
    q: int
    count: int
    method: str = "stalk-formula"

    def as_dict(self):
        return {"q": self.q, "count": self.count, "method": self.method}


def count_points(X: MScheme, q: int) -> CountRecord:
    """#X(F_q) = sum over points of #Hom(units of stalk, Z/(q-1))."""
    prime_power_base(q)
    total = 0
    for pt in X.points:
        total += hom_count_to_cyclic(pt.units, q - 1)
    return CountRecord(q, total)


@dataclass(frozen=True)
class CountingFunction:
    """Symbolic count sum over points: (q-1)^rank * prod gcd(d_i, q-1).

    Polynomial in q exactly when every stalk unit group is torsion-free;
    otherwise the value is constant on residue classes of q mod the lcm
    of the torsion orders and the function is flagged non-polynomial.
    """

    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (rank, torsion factors)

    @staticmethod
    def of_scheme(X: MScheme) -> "CountingFunction":
        terms = ((pt.units.free_rank, pt.units.invariant_factors)
                 for pt in X.points)
        return CountingFunction(tuple(sorted(terms)))

    @property
    def is_polynomial(self) -> bool:
        return all(not t for _, t in self.terms)

    @property
    def modulus(self) -> int:
        """All gcd factors are determined by q mod this."""
        m = 1
        for _, tors in self.terms:
            for d in tors:
                m = lcm(m, d)
        return m

    def as_polynomial(self) -> CountingPolynomial:
        if not self.is_polynomial:
            raise CountError(
                "torsion in a stalk unit group: the count is not a polynomial in q"
            )
        return CountingPolynomial.of_tori(r for r, _ in self.terms)

    def polynomial_on_class(self, residue: int) -> CountingPolynomial:
        """The polynomial valid for q = residue (mod modulus)."""
        m = self.modulus
        out = CountingPolynomial.make([])
        for r, tors in self.terms:
            c = 1
            for d in tors:
                c *= gcd(d, (residue - 1) % m)
            out = out + CountingPolynomial.of_tori([r]) * c
        return out

    def evaluate(self, q: int) -> int:
        prime_power_base(q)
        total = 0
        for r, tors in self.terms:
            v = (q - 1) ** r
            for d in tors:
                v *= gcd(d, q - 1)
            total += v
        return total


def counting_polynomial(X: MScheme) -> CountingFunction:
    """The symbolic counting function of a scheme (flagged if torsion)."""
    return CountingFunction.of_scheme(X)


def orbit_count_polynomial(fan: Fan) -> CountingPolynomial:
    """Fan-side count: sum over cones of (q-1)^(n - dim), via the orbit
    decomposition; the independent route against the stalk formula."""
    return CountingPolynomial.of_tori(fan.rank - len(c) for c in fan.cones)
