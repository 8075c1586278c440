"""Small-instance models of the matrix category over a pointed monoid and
of the set monad (M x X)/(0,x ~ pt), with exhaustive law checking.

Matrices over a pointed monoid M with at most one nonzero entry per row
and per column compose by matrix multiplication; every sum that occurs
ranges over at most one term, so no addition on M is needed.  Index sets
are ranges [n] = {0..n-1}.  Only genuinely finite pointed monoids are
accepted: the whole point of this module is exhaustive verification.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monoid import TableMonoid


class FZooError(ValueError):
    pass


def _require_finite_pointed(M) -> TableMonoid:
    if M.zero is None:  # no zero element; an AffineMonoid's zero is formal
        raise FZooError("only genuine finite pointed monoids are accepted here")
    return M


@dataclass(frozen=True)
class FMatrix:
    """A target x source matrix over a pointed monoid, at most one nonzero
    entry in every row and every column."""

    monoid: TableMonoid
    source: int
    target: int
    entries: tuple  # sorted ((row, col), value) with value != 0

    @staticmethod
    def make(M: TableMonoid, source: int, target: int, entries) -> "FMatrix":
        M = _require_finite_pointed(M)
        clean = {}
        for (y, x), v in dict(entries).items():
            if not (0 <= y < target and 0 <= x < source):
                raise FZooError(f"entry position {(y, x)} out of range")
            if v not in M.elements:
                raise FZooError(f"entry value {v!r} not in the monoid")
            if v != M.zero:
                clean[(y, x)] = v
        rows = [y for (y, _) in clean]
        cols = [x for (_, x) in clean]
        if len(rows) != len(set(rows)) or len(cols) != len(set(cols)):
            raise FZooError("more than one nonzero entry in a row or column")
        return FMatrix(M, source, target, tuple(sorted(clean.items())))

    @staticmethod
    def identity(M: TableMonoid, n: int) -> "FMatrix":
        return FMatrix.make(M, n, n, {(i, i): M.identity for i in range(n)})

    def entry(self, y: int, x: int):
        for (r, c), v in self.entries:
            if (r, c) == (y, x):
                return v
        return self.monoid.zero

    def as_partial_map(self) -> dict:
        """col -> (row, value); total on the support, injective on rows."""
        return {x: (y, v) for (y, x), v in self.entries}


def compose(f: FMatrix, g: FMatrix) -> FMatrix:
    """g o f by matrix multiplication: (g f)(z, x) = sum_y g(z,y) f(y,x),
    where each sum ranges over at most one nonzero term."""
    if f.monoid != g.monoid:
        raise FZooError("matrices over different monoids")
    if f.target != g.source:
        raise FZooError("dimension mismatch in composition")
    M = f.monoid
    out = {}
    fmap = f.as_partial_map()
    gmap = g.as_partial_map()
    for x, (y, v) in fmap.items():
        if y in gmap:
            z, w = gmap[y]
            prod = M.op(w, v)
            if prod != M.zero:
                out[(z, x)] = prod
    # a product of valid matrices is valid: no re-validation
    return FMatrix(M, f.source, g.target, tuple(sorted(out.items())))


def all_fmatrices(M: TableMonoid, source: int, target: int):
    """Every valid matrix; exhaustive-law-check fuel, keep sizes <= 3."""
    M = _require_finite_pointed(M)
    nonzero = [v for v in M.elements if v != M.zero]
    positions = list(itertools.product(range(target), range(source)))
    for k in range(min(source, target) + 1):
        for rows in itertools.combinations(range(target), k):
            for cols in itertools.permutations(range(source), k):
                for values in itertools.product(nonzero, repeat=k):
                    yield FMatrix.make(
                        M, source, target,
                        {(rows[i], cols[i]): values[i] for i in range(k)})


def underlying_monoid(M: TableMonoid) -> TableMonoid:
    """The 1x1-matrix monoid over M: recovers M itself (the two one-object
    views, matrices and monad values, agree)."""
    M = _require_finite_pointed(M)
    mats = {v: FMatrix.make(M, 1, 1, {(0, 0): v}) for v in M.elements}
    table = {}
    for a in M.elements:
        for b in M.elements:
            prod = compose(mats[a], mats[b])
            table[(a, b)] = prod.entry(0, 0)
    return TableMonoid.make(M.elements, table, identity=M.identity, zero=M.zero)


# --- the set monad of a pointed monoid ------------------------------------------

ZERO_CLASS = "*"


def tm_apply(M: TableMonoid, X) -> tuple:
    """(M x X)/(0,x ~ pt) as a finite set: pairs (m, x) with m nonzero,
    plus the single collapsed class; the empty set gives the one-element
    quotient."""
    M = _require_finite_pointed(M)
    out = [ZERO_CLASS]
    for m in M.elements:
        if m == M.zero:
            continue
        for x in X:
            out.append((m, x))
    return tuple(out)


def tm_unit(M: TableMonoid, X):
    """x -> class of (1, x)."""
    M = _require_finite_pointed(M)
    return {x: (M.identity, x) for x in X}


def tm_mult(M: TableMonoid, X):
    """T(T(X)) -> T(X): (m, (m', x)) -> (m m', x), zero classes absorbed."""
    M = _require_finite_pointed(M)
    tx = tm_apply(M, X)
    out = {}
    for xi in tm_apply(M, tx):
        if xi == ZERO_CLASS:
            out[xi] = ZERO_CLASS
            continue
        m, inner = xi
        if inner == ZERO_CLASS:
            out[xi] = ZERO_CLASS
            continue
        mp, x = inner
        prod = M.op(m, mp)
        out[xi] = ZERO_CLASS if prod == M.zero else (prod, x)
    return out


def monad_laws(M: TableMonoid, sizes=(0, 1, 2, 3)) -> dict:
    """Exhaustive unit and associativity laws on sets [n] for n in sizes.

    Returns a per-law report with a minimal counterexample on failure.
    """
    M = _require_finite_pointed(M)
    report = {}

    def record(law, failure):
        entry = report.setdefault(law, {"ok": True, "counterexample": None})
        if failure is not None and entry["ok"]:
            entry["ok"] = False
            entry["counterexample"] = failure

    for n in sizes:
        X = tuple(range(n))
        tx = tm_apply(M, X)
        unit_x = tm_unit(M, X)
        mu_x = tm_mult(M, X)

        # left unit: mu o eta_{T X} = id
        fail = None
        for xi in tx:
            if mu_x[(M.identity, xi)] != xi:
                fail = {"n": n, "element": repr(xi)}
                break
        record("left_unit", fail)

        # right unit: mu o T(eta) = id
        fail = None
        for xi in tx:
            image = xi if xi == ZERO_CLASS else (xi[0], unit_x[xi[1]])
            if mu_x[image] != xi:
                fail = {"n": n, "element": repr(xi)}
                break
        record("right_unit", fail)

        # associativity: mu o T(mu) = mu o mu_{T X} as maps T^3 X -> T X
        fail = None
        mu_tx = tm_mult(M, tx)
        for chi in tm_apply(M, tm_apply(M, tx)):
            t_of_mu = ZERO_CLASS if chi == ZERO_CLASS else (chi[0], mu_x[chi[1]])
            if mu_x[t_of_mu] != mu_x[mu_tx[chi]]:
                fail = {"n": n, "element": repr(chi)}
                break
        record("associativity", fail)

        # cardinality: |T(X)| = (|M| - 1)|X| + 1
        expected = (len(M.elements) - 1) * n + 1
        fail = None if len(tx) == expected else {"n": n, "got": len(tx)}
        record("cardinality", fail)
    return report
