"""Point counts of monoid schemes over finite fields.

Ring homomorphisms Z[A] -> F_q correspond to monoid homomorphisms from A
into the multiplicative monoid of F_q, stratified over the primes of A;
on each stratum the count is the number of homs from the stalk unit
group into the cyclic group of order q - 1.  Counts are therefore sums
of hom counts computed by Smith normal form, never by enumeration --
enumeration lives in the test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .fans import Fan
from .monoid import hom_count_to_cyclic
from .spectrum import MScheme
from .zeta import CountingPolynomial


class CountError(ValueError):
    pass


def prime_power_base(q: int):
    """(p, e) with q = p^e, or raise."""
    if q < 2:
        raise CountError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise CountError(f"{q} is not a prime power")
    return p, e


@dataclass(frozen=True)
class CountRecord:
    q: int
    count: int
    method: str = "stalk-formula"

    def as_dict(self):
        return {"q": self.q, "count": self.count, "method": self.method}


def _scheme_of(X) -> MScheme:
    return X if isinstance(X, MScheme) else MScheme.affine(X)


def count_points(X, q: int) -> CountRecord:
    """#X(F_q) = sum over points of #Hom(units of stalk, Z/(q-1))."""
    prime_power_base(q)
    scheme = _scheme_of(X)
    total = 0
    for pt in scheme.points:
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
    def of_scheme(X) -> "CountingFunction":
        terms = ((pt.units.free_rank, pt.units.invariant_factors)
                 for pt in _scheme_of(X).points)
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


def counting_polynomial(X) -> CountingFunction:
    """The symbolic counting function of a scheme (flagged if torsion)."""
    return CountingFunction.of_scheme(X)


def orbit_count_polynomial(fan: Fan) -> CountingPolynomial:
    """Fan-side count: sum over cones of (q-1)^(n - dim), via the orbit
    decomposition; the independent route against the stalk formula."""
    return CountingPolynomial.of_tori(fan.rank - fan.cone_dim(c) for c in fan.cones)
