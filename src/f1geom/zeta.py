"""Counting polynomials N(q) and their zeta root data.

A counting polynomial N(q) = sum a_k q^k with integer coefficients turns
into the zeta function prod_k (s - k)^{a_k}, stored as the multiset of
(root, multiplicity) pairs.  The classical 2*pi normalization factor is
dropped throughout and only the root data is kept, so equality testing
is exact.
"""
from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .intlinalg import dot, scaled_inverse
from .limits import LIMITS


class ZetaError(ValueError):
    pass


class NonIntegralFit(ZetaError):
    pass


class InconsistentSamples(ZetaError):
    pass


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q, coefficients stored ascending by degree."""

    coefficients: tuple[int, ...]

    @staticmethod
    def make(coefficients) -> "CountingPolynomial":
        cs = [int(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        return CountingPolynomial(tuple(cs))

    @staticmethod
    def of_tori(ranks) -> "CountingPolynomial":
        """sum over the ranks r of (q-1)^r, in powers of q: the count of a
        disjoint union of split tori.  A rank past LIMITS['polynomial_degree']
        is refused before the coefficient list is built."""
        tori = Counter(ranks)
        top = max(tori, default=0)
        if top > LIMITS["polynomial_degree"]:
            raise ZetaError(f"a torus of rank {top} gives a degree past "
                            "LIMITS['polynomial_degree']")
        out = [0] * (top + 1)
        for r, c in tori.items():
            for k in range(r + 1):
                out[k] += c * comb(r, k) * (-1) ** (r - k)
        return CountingPolynomial.make(out)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * q + c
        return acc

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return CountingPolynomial.make(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return CountingPolynomial.make([other * c for c in self.coefficients])
        out = [0] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return CountingPolynomial.make(out)

    def __sub__(self, other):
        return self + (other * -1)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                qpow = "q" if k == 1 else f"q^{k}"
                term = qpow if abs(c) == 1 else f"{abs(c)}{qpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def q_poly(*coeffs_desc) -> CountingPolynomial:
    """Convenience: q_poly(1, 1, 1) = q^2 + q + 1 (descending)."""
    return CountingPolynomial.make(list(reversed(coeffs_desc)))


def parse_counting_polynomial(text: str) -> CountingPolynomial:
    """Parse a canonical polynomial string like 'q^3 - q' or '2q+1'."""
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ZetaError("empty polynomial")
    coeffs: dict[int, int] = {}
    cap = LIMITS["polynomial_degree"]
    for tok in re.split(r"(?!^)(?=[+-])", s):  # a sign opens a term
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        elif tok.startswith("+"):
            tok = tok[1:]
        if not tok:
            raise ZetaError(f"cannot parse {text!r}")
        head, q, tail = tok.partition("q")
        bad_head = head and not head.isdecimal()
        bad_tail = tail and not (tail[0] == "^" and tail[1:].isdecimal())
        if bad_head or bad_tail:
            raise ZetaError(f"cannot parse term {tok!r} in {text!r}")
        k = ((tail[1:] if tail else "1") if q else "0").lstrip("0") or "0"
        if len(k) > len(str(cap)) or int(k) > cap:  # no int() of a long digit string
            raise ZetaError(f"term {tok!r} has degree {k}, past LIMITS['polynomial_degree']")
        try:
            c = int(head) if head else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ZetaError(f"term {tok!r} has a coefficient of {len(head)} digits, "
                            "too many to read") from None
        coeffs[int(k)] = coeffs.get(int(k), 0) + sign * c
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        if digits and abs(c) >= 10 ** digits:  # str(c) would raise
            raise ZetaError(f"the terms of degree {k} sum to a coefficient of more than "
                            f"{digits} digits, too many to print")
        out[k] = c
    return CountingPolynomial.make(out)


def fit_counting_polynomial(samples, degree_bound: int) -> CountingPolynomial:
    """Interpolation through (q, N(q)) samples, by solving the Vandermonde
    system, with an integrality check; extra samples beyond degree_bound + 1
    must agree exactly."""
    pts = sorted(dict(samples).items())
    if len(pts) < degree_bound + 1:
        raise ZetaError(
            f"need at least {degree_bound + 1} samples for degree {degree_bound}")
    base = pts[: degree_bound + 1]
    D, P = scaled_inverse([[q ** k for k in range(degree_bound + 1)] for q, _ in base])
    coeffs = [Fraction(dot(row, [n for _, n in base]), D) for row in P]
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegralFit(f"interpolant has non-integer coefficients: {coeffs}")
    poly = CountingPolynomial.make([int(c) for c in coeffs])
    for q, n in pts:
        if poly(q) != n:
            raise InconsistentSamples(
                f"sample N({q})={n} disagrees with the fit {poly} = {poly(q)}")
    return poly


@dataclass(frozen=True)
class ZetaFunction:
    """Root data: prod over (root k, multiplicity a_k), exponents may be
    negative (denominator roots)."""

    roots: tuple[tuple[int, int], ...]

    @staticmethod
    def make(root_multiplicities) -> "ZetaFunction":
        agg: dict[int, int] = {}
        for k, m in dict(root_multiplicities).items():
            if m:
                agg[int(k)] = agg.get(int(k), 0) + int(m)
        return ZetaFunction(tuple(sorted((k, m) for k, m in agg.items() if m)))

    def canonical(self) -> str:
        """Machine-canonical product string, every factor spelled out."""
        if not self.roots:
            return "1"
        parts = []
        for k, m in self.roots:
            factor = f"(s-{k})"
            parts.append(factor if m == 1 else f"{factor}^{m}")
        return "".join(parts)

    def __str__(self):
        """Pretty form: s(s-1) style, with s-0 shortened to s."""
        if not self.roots:
            return "1"

        def fmt(k, m, solo):
            base = "s" if k == 0 else f"s-{k}"
            if abs(m) == 1:
                if k == 0:
                    return "s"
                return base if solo else f"({base})"
            return f"s^{abs(m)}" if k == 0 else f"({base})^{abs(m)}"

        num = [(k, m) for k, m in self.roots if m > 0]
        den = [(k, m) for k, m in self.roots if m < 0]
        solo_ok = len(num) == 1 and not den
        top = "".join(fmt(k, m, solo_ok) for k, m in num) if num else "1"
        if not den:
            return top
        return f"{top}/" + "".join(fmt(k, m, False) for k, m in den)


def zeta(N: CountingPolynomial) -> ZetaFunction:
    """Zeta of a counting polynomial: roots k with multiplicity a_k."""
    return ZetaFunction.make({k: a for k, a in enumerate(N.coefficients)})
