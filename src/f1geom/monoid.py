"""Finitely generated commutative monoids, plain, pointed and tabulated.

Two concrete representations are used throughout:

* ``AffineMonoid`` -- a submonoid of an ambient group Z^r (+) Z/d_1 (+) ...
  given by a finite generator list.  Always cancellative; an absorbing
  zero can be formally adjoined via a flag.
* ``TableMonoid`` -- a finite monoid given by its full multiplication
  table, optionally with a distinguished zero.

Both carry one method set, so other modules never ask which they hold:
``identity``, ``zero`` (None on ``AffineMonoid``, whose zero is formal),
``pointed``, ``generators`` (all elements on ``TableMonoid``), ``op``,
``power`` (on normalised members; ``AffineMonoid`` reduces only the
torsion coordinates of the result, and only when it has torsion),
``member(x)`` (x normalised, or None if not in the monoid),
``is_integral`` (True on ``AffineMonoid``), ``is_group``
(every nonzero element is a unit), ``units()``, ``primes()`` (the
generic prime first, the closed point's prime last), ``localize(p)`` ->
(A_p, canonical hom A -> A_p), ``restriction(hom_q, hom_p)`` -> the sheaf
map A_q -> A_p for p <= q read off the two localization homs, and
``adjoin_zero()``.  The localization and restriction maps of an
``AffineMonoid`` are inclusions of submonoids of one ambient group, so
they are stored without an element map.

Primes, localizations, saturations and unit groups are all computed
exactly.  Prime ideals of an affine monoid correspond to the faces of its
recession cone; those of a table monoid M correspond to its idempotents
e, and the localization at e's prime is eM.  ``AffineMonoid.contains``
reads membership off a residue table (Apery set) over one generator per
extremal ray where the monoid has no torsion, no units and a simplicial
cone, and searches the generators' multiples everywhere else.
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import gcd
from operator import add

from . import cones
from .cones import RationalCone
from .intlinalg import (
    column_lattice_basis,
    dot,
    independent_indices,
    integer_solver,
    rat_rank,
    scaled_inverse,
    subgroup_invariants,
    transpose,
)
from .limits import LIMITS

MEMBERSHIP_TABLE_CAP = LIMITS["membership_table"]


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianGroup:
    """Invariants of a finitely generated abelian group."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise MonoidError("invariant factors must be in divisibility order")
        if any(d < 2 for d in self.invariant_factors):
            raise MonoidError("invariant factors must be >= 2")


def hom_count_to_cyclic(G: AbelianGroup, m: int) -> int:
    """#Hom(G, Z/m) = m^rank * prod gcd(d_i, m)."""
    if m < 1:
        raise MonoidError("m must be >= 1")
    n = m ** G.free_rank
    for d in G.invariant_factors:
        n *= gcd(d, m)
    return n


# --- affine monoids -----------------------------------------------------------

@dataclass(frozen=True)
class AffineMonoid:
    """Submonoid of Z^ambient_rank (+) Z/d_i generated by ``generators``.

    Generators are stored as full-length tuples (free coordinates first,
    then one coordinate per torsion factor, reduced mod d_i), sorted
    lexicographically and deduplicated.
    """

    ambient_rank: int
    torsion: tuple[int, ...] = ()
    generators: tuple[tuple[int, ...], ...] = ()
    pointed: bool = False

    @staticmethod
    def make(ambient_rank, generators, torsion=(), pointed=False) -> "AffineMonoid":
        torsion = tuple(int(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise MonoidError("torsion invariant factors must be >= 2")
        width = ambient_rank + len(torsion)
        gens = set()
        for g in generators:
            g = tuple(int(x) for x in g)
            if len(g) != width:
                raise MonoidError(f"generator {g!r} has length {len(g)}, expected {width}")
            g = tuple(
                x if i < ambient_rank else x % torsion[i - ambient_rank]
                for i, x in enumerate(g)
            )
            if any(x != 0 for x in g):
                gens.add(g)
        return AffineMonoid(ambient_rank, torsion, tuple(sorted(gens)), pointed)

    # -- basic structure

    @property
    def width(self) -> int:
        return self.ambient_rank + len(self.torsion)

    def free_part(self, v) -> tuple[int, ...]:
        return tuple(v[: self.ambient_rank])

    def _reduce(self, v) -> tuple[int, ...]:
        if len(v) != self.width:
            raise MonoidError("element has wrong length")
        return self._torsion_mod(tuple(v)) if self.torsion else tuple(v)

    def _torsion_mod(self, v: tuple) -> tuple[int, ...]:
        r = self.ambient_rank
        return v[:r] + tuple(x % d for x, d in zip(v[r:], self.torsion))

    zero = None         # a pointed monoid's zero is formal, never an element
    is_integral = True  # cancellative by construction

    def op(self, a, b) -> tuple[int, ...]:
        v = tuple(map(add, a, b))
        return self._torsion_mod(v) if self.torsion else v

    def power(self, a, n: int) -> tuple[int, ...]:
        v = tuple(n * x for x in a)
        return self._torsion_mod(v) if self.torsion else v

    def lattice_matrix(self, vectors) -> list[list[int]]:
        """Matrix whose columns are the given vectors, then the torsion
        relations d_j e_j; its column lattice is the lift to Z^width of the
        subgroup the vectors generate.  Empty when it has no columns."""
        cols = [list(g) for g in vectors]
        for j, d in enumerate(self.torsion):
            rel = [0] * self.width
            rel[self.ambient_rank + j] = d
            cols.append(rel)
        return transpose(cols)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.width

    @cached_property
    def recession_cone(self) -> RationalCone:
        rays = [self.free_part(g) for g in self.generators if any(self.free_part(g))]
        return RationalCone.make(rays, rank=self.ambient_rank)

    @cached_property
    def unit_generator_indices(self) -> tuple[int, ...]:
        """Indices of generators whose free part lies in the lineality of the
        recession cone; these generate the unit group.

        Rank route: let U be the generators whose free part is zero or has
        its negative among the free parts, so U lies in the lineality.  If
        the other free parts G are linearly independent modulo span(U), the
        cone is span(U) + cone(G) and its lineality is span(U):
        x = u + sum a_i g_i and -x = u' + sum b_i g_i with a, b >= 0 give
        sum (a_i + b_i) g_i in span(U), so a = b = 0.  No g in G lies in
        span(U), so the units are exactly U.  Every monoid of a smooth fan
        takes this route; otherwise the recession cone's double description
        decides each generator."""
        frees = [self.free_part(g) for g in self.generators]
        present = set(frees)
        units = tuple(i for i, f in enumerate(frees)
                      if not any(f) or tuple(-x for x in f) in present)
        span = [frees[i] for i in units]
        if rat_rank(frees) == rat_rank(span) + len(frees) - len(span):
            return units
        cone = self.recession_cone  # holds every f, so f is a unit iff -f is in it
        return tuple(i for i, f in enumerate(frees)
                     if not any(f) or cone.contains(tuple(-x for x in f)))

    def units(self) -> AbelianGroup:
        vecs = [list(self.generators[i]) for i in self.unit_generator_indices]
        rank, factors = subgroup_invariants(vecs, self.ambient_rank, list(self.torsion))
        return AbelianGroup(rank, tuple(factors))

    @property
    def is_group(self) -> bool:
        return len(self.unit_generator_indices) == len(self.generators)

    # -- membership

    def member(self, x):
        x = self._reduce(tuple(x))
        return x if self.contains(x) else None

    def contains(self, v) -> bool:
        """Exact membership v = sum n_i g_i, n_i >= 0: looked up in `_membership_table`
        where it exists (no torsion or units, a simplicial cone, a table within
        its cap), else found by a depth-first search over nonunit multiples."""
        v = self._reduce(tuple(v))
        if not any(v):
            return True
        if self._membership_table is not None:
            coords, P, D, basis, kept = self._membership_table
            y = [dot(p, [v[i] for i in coords]) for p in P]
            if any(dot([b[i] for b in basis], y) != D * x for i, x in enumerate(v)):
                return False  # v is not in span(basis)
            return any(all(a <= b for a, b in zip(p, y))
                       for p in kept.get(tuple(c % D for c in y), ()))
        rows, steps, unit_solver = self._search_setup
        slack = [dot(a, self.free_part(v)) for a in rows]
        if any(s < 0 for s in slack):
            return False

        def search(k, rem, slack) -> bool:
            if k == len(steps):
                if unit_solver is None:
                    return not any(rem)
                return unit_solver(rem) is not None
            g, ag = steps[k]
            top = min(s // x for s, x in zip(slack, ag) if x > 0)
            return any(search(k + 1, tuple(x - n * y for x, y in zip(rem, g)),
                              [s - n * x for s, x in zip(slack, ag)])
                       for n in range(top + 1))

        return search(0, v, slack)

    @cached_property
    def _search_setup(self):
        """The search's cone rows, nonunit steps and unit solver.  For rem in
        the cone, rem - n g stays in it iff n <= (a.rem) // (a.g) for every
        row a with a.g > 0, and each nonunit g has such a row.  Carrying the
        slacks a.rem bounds every multiple tried, so each rem searched is in
        the cone; torsion is reduced only by the unit solve."""
        rows = self.recession_cone.inequalities
        unit_idx = self.unit_generator_indices
        steps = [(g, [dot(a, self.free_part(g)) for a in rows])
                 for i, g in enumerate(self.generators) if i not in unit_idx]
        unit_matrix = self.lattice_matrix(self.generators[i] for i in unit_idx)
        return rows, steps, integer_solver(unit_matrix) if unit_matrix else None

    @cached_property
    def _membership_table(self):
        """(coords, P, D, basis, kept) where A has no torsion, no unit
        generators (so its cone is pointed) and dim extremal rays, and at most
        LIMITS['membership_table'] vectors are kept; else None.  B holds the
        least generator on each extremal ray, C the rest.  With P = D B_I^-1
        for dim independent coordinates I, y = P x_I is D times x over B, and
        x is in span(B) iff B y = D x.  Per residue of y mod D, `kept` holds
        the minimal sums of C (the Apery set of A over B): x is in A iff some
        kept p <= y has y's residue, as then x - p is in N B.  Sums leave a
        heap by coordinate sum, so no kept vector is dominated later; each
        residue keeps an antichain, finite by Dickson's lemma."""
        if self.torsion or self.unit_generator_indices:
            return None
        cone = self.recession_cone
        extremal = [cone.rays[i] for s in cones.face_index_sets(cone) if len(s) == 1 for i in s]
        if len(extremal) != cone.dim:
            return None
        basis = [min((g for g in self.generators if cones.primitive_vector(g) == r),
                     key=lambda g: sum(map(abs, g))) for r in extremal]
        coords = independent_indices(transpose(basis))
        D, P = scaled_inverse([[b[i] for b in basis] for i in coords])
        steps = [[dot(p, [c[i] for i in coords]) for p in P]
                 for c in self.generators if c not in basis]
        kept, size, heap = {}, 0, [(0, (0,) * len(basis))]
        while heap:
            _, y = heapq.heappop(heap)
            same = kept.setdefault(tuple(c % D for c in y), [])
            if any(all(a <= b for a, b in zip(p, y)) for p in same):
                continue
            if (size := size + 1) > MEMBERSHIP_TABLE_CAP:
                return None
            same.append(y)
            for step in steps:
                z = tuple(a + b for a, b in zip(y, step))
                heapq.heappush(heap, (sum(z), z))
        return coords, P, D, basis, kept

    def same_submonoid(self, other: "AffineMonoid") -> bool:
        """Equality as submonoids of a shared ambient group.  Equal monoids
        have equal recession cones, hence equal cone dimensions; the cones
        themselves may list different (non-extremal) rays."""
        if (self.ambient_rank, self.torsion) != (other.ambient_rank, other.torsion):
            return False
        if self.generators == other.generators:
            return True
        if self.recession_cone.dim != other.recession_cone.dim:
            return False
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    # -- primes

    @cached_property
    def _face_subsets(self) -> tuple[tuple[int, ...], ...]:
        """Faces of the recession cone as generator index subsets.

        A generator lies on a face iff its primitive free part is one of
        the face's rays; pure-torsion generators are units and belong to
        every face.
        """
        ray_of_gen = {}
        for i, g in enumerate(self.generators):
            f = self.free_part(g)
            ray_of_gen[i] = cones.primitive_vector(f) if any(f) else None
        cone_faces = cones.face_index_sets(self.recession_cone)
        ray_list = self.recession_cone.rays
        subsets = set()
        for face in cone_faces:
            face_rays = {ray_list[i] for i in face}
            members = tuple(
                i for i in range(len(self.generators))
                if ray_of_gen[i] is None or ray_of_gen[i] in face_rays
            )
            subsets.add(members)
        return tuple(sorted(subsets, key=lambda s: (-self._face_dim(s), s)))

    def _face_dim(self, subset) -> int:
        vecs = [list(self.free_part(self.generators[i])) for i in subset]
        return rat_rank(vecs) if vecs else 0

    def face_submonoid(self, subset) -> "AffineMonoid":
        return AffineMonoid.make(
            self.ambient_rank,
            [self.generators[i] for i in subset],
            torsion=self.torsion,
            pointed=self.pointed,
        )

    def primes(self) -> list["PrimeIdeal"]:
        return [PrimeIdeal(self, face=s) for s in self._face_subsets]

    def localize(self, p: "PrimeIdeal"):
        if p.owner != self:
            raise MonoidError("prime does not belong to this monoid")
        loc = self._localized(p.face)
        return loc, MonoidHom(self, loc)

    def _localized(self, face) -> "AffineMonoid":
        """A_p for the prime whose complement is ``face``: the generators
        plus the negated face generators."""
        gens = list(self.generators)
        for i in face:
            gens.append(tuple(-x for x in self.generators[i]))
        return AffineMonoid.make(self.ambient_rank, gens, torsion=self.torsion,
                                 pointed=self.pointed)

    def restriction(self, hom_q: "MonoidHom", hom_p: "MonoidHom") -> "MonoidHom":
        """A_q -> A_p, an inclusion: A_q's generators are localization
        generators of A_p too."""
        return MonoidHom(hom_q.target, hom_p.target)

    def adjoin_zero(self) -> "AffineMonoid":
        if self.pointed:
            return _already_pointed(self)
        return AffineMonoid(self.ambient_rank, self.torsion, self.generators, True)

    def __str__(self):
        t = f" (+) {'x'.join(f'Z/{d}' for d in self.torsion)}" if self.torsion else ""
        z = " with 0" if self.pointed else ""
        return f"AffineMonoid<{list(self.generators)} in Z^{self.ambient_rank}{t}>{z}"


@dataclass(frozen=True)
class TableMonoid:
    """Finite commutative monoid given by its full multiplication table."""

    elements: tuple
    table: dict = field(compare=False, repr=False)
    identity: object = 1
    zero: object = None
    _key: tuple = field(default=None, repr=False)

    @staticmethod
    def make(elements, table, identity=1, zero=None) -> "TableMonoid":
        elements = tuple(elements)
        els = set(elements)
        if len(els) != len(elements):
            raise MonoidError("duplicate elements")
        if identity not in els:
            raise MonoidError("identity not among elements")
        if zero is not None and zero not in els:
            raise MonoidError("zero not among elements")
        t = {}
        for a in elements:
            for b in elements:
                key = (a, b) if (a, b) in table else (b, a)
                if key not in table:
                    raise MonoidError(f"table missing product {a}*{b}")
                c = table[key]
                if c not in els:
                    raise MonoidError(f"product {a}*{b}={c!r} not among elements")
                t[(a, b)] = c
        # row[x][k] is the index of x * elements[k], so (ab)c = a(bc) for
        # every c says row[ab] is row[a] read at the entries of row[b]
        index = {a: i for i, a in enumerate(elements)}
        row = {a: tuple(index[t[(a, b)]] for b in elements) for a in elements}
        for a in elements:
            if t[(identity, a)] != a:
                raise MonoidError("identity law fails")
            if zero is not None and t[(zero, a)] != zero:
                raise MonoidError("zero is not absorbing")
            row_a = row[a].__getitem__
            for b in elements:
                if t[(a, b)] != t[(b, a)]:
                    raise MonoidError("table is not commutative")
                ab_c, a_bc = row[t[(a, b)]], tuple(map(row_a, row[b]))
                if ab_c != a_bc:
                    c = next(c for c, x, y in zip(elements, ab_c, a_bc) if x != y)
                    raise MonoidError(f"associativity fails at ({a},{b},{c})")
        frozen = tuple(sorted((((str(a), str(b)), str(c)) for (a, b), c in t.items())))
        return TableMonoid(elements, t, identity, zero, frozen)

    @property
    def pointed(self) -> bool:
        return self.zero is not None

    @property
    def generators(self) -> tuple:
        return self.elements

    def op(self, a, b):
        return self.table[(a, b)]

    def power(self, a, n: int):
        out = self.identity
        while n:
            if n & 1:
                out = self.op(out, a)
            n >>= 1
            a = self.op(a, a)
        return out

    @cached_property
    def unit_elements(self) -> tuple:
        out = []
        for a in self.elements:
            if any(self.op(a, b) == self.identity for b in self.elements):
                out.append(a)
        return tuple(out)

    def units(self) -> AbelianGroup:
        return AbelianGroup(0, _finite_group_invariants(self, self.unit_elements))

    def member(self, x):
        return x if x in self.elements else None

    @property
    def is_group(self) -> bool:
        """Every nonzero element is a unit: a group, with zero if pointed."""
        return set(self.unit_elements) == {a for a in self.elements if a != self.zero}

    @property
    def is_integral(self) -> bool:
        """Cancellative (among nonzero elements when a zero is present):
        each nonzero a maps the nonzero elements injectively to nonzero
        elements."""
        nz = [a for a in self.elements if a != self.zero]
        return all(len({self.op(a, x) for x in nz} - {self.zero}) == len(nz) for a in nz)

    def primes(self) -> list["PrimeIdeal"]:
        """One prime per idempotent e other than the zero: the elements
        that do not divide e.

        The complement F of a prime is a filter (ab in F iff a, b in F).
        F is the divisor set of e = (prod F)^omega: each a in F divides
        prod F, hence e, and a | e in F puts a in F.  Conversely the divisor
        set of an idempotent is a filter, and divisor sets of distinct
        idempotents differ, as e | f | e gives e = ef = f.  The zero divides
        only itself, so it lies in every other prime, and the zero's own
        divisor set, everything, is excluded on a pointed monoid."""
        idempotents = [e for e in self.elements if e != self.zero and self.op(e, e) == e]
        return sorted((PrimeIdeal(self, elements=frozenset(
            a for a in self.elements if all(self.op(a, b) != e for b in self.elements)))
            for e in idempotents), key=PrimeIdeal.sort_key)

    def localize(self, p: "PrimeIdeal"):
        """Fractions a/s, s outside p, as the monoid eM, e the idempotent
        power of the product of S = M minus p.

        S is the divisor set of e (see `primes`), so each es is a unit of
        eM, and a/s -> the b in eM with b s = e a is an isomorphism from the
        fractions onto eM sending a/1 to ea.  Each b is labelled by its
        least fraction under (str(a), str(s)), written a/s, or a if s is
        the identity."""
        S = [a for a in self.elements if a not in p.elements]
        x = e = reduce(self.op, S)
        while self.op(e, e) != e:
            e = self.op(e, x)
        eM = dict.fromkeys(self.op(e, a) for a in self.elements)
        least = {}
        for s in S:
            quotient = {self.op(b, s): b for b in eM}  # b s = (es) b, a bijection of eM
            for a in self.elements:
                b, key = quotient[self.op(e, a)], (str(a), str(s))
                if b not in least or key < least[b][0]:
                    least[b] = key, f"{a}/{s}" if s != self.identity else f"{a}"
        label = {b: name for b, (_, name) in least.items()}
        table = {(label[b], label[c]): label[self.op(b, c)] for b in eM for c in eM}
        zero = label[self.zero] if self.pointed else None
        loc = TableMonoid.make(sorted(set(label.values())), table, identity=label[e], zero=zero)
        return loc, MonoidHom.table(self, loc, {a: label[self.op(e, a)] for a in self.elements})

    def restriction(self, hom_q: "MonoidHom", hom_p: "MonoidHom") -> "MonoidHom":
        """A_q -> A_p for p <= q, sending hom_q(a) to hom_p(a).  With e_p,
        e_q the idempotents of `localize`, p <= q puts e_q in the divisor
        set of e_p, so e_p e_q = e_p: e_q a = e_q a' gives e_p a = e_p a'.
        hom_q is onto, so this defines the map a/s -> hom_p(a) hom_p(s)^-1."""
        return MonoidHom.table(hom_q.target, hom_p.target,
                               {hom_q.apply(a): hom_p.apply(a) for a in self.elements})

    def adjoin_zero(self) -> "TableMonoid":
        if self.pointed:
            return _already_pointed(self)
        zero = "0"
        while zero in self.elements:
            zero += "'"
        elements = self.elements + (zero,)
        table = dict(self.table)
        for a in elements:
            table[(a, zero)] = zero
            table[(zero, a)] = zero
        return TableMonoid.make(elements, table, identity=self.identity, zero=zero)

    @staticmethod
    def cyclic_group_with_zero(n: int) -> "TableMonoid":
        """Multiplicative monoid Z/n union {0}: elements '0','1','g','g^2',..."""
        labels = ["0"] + [("1" if k == 0 else "g" if k == 1 else f"g^{k}") for k in range(n)]
        table = {}
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                if a == "0" or b == "0":
                    table[(a, b)] = "0"
                else:
                    table[(a, b)] = labels[1 + ((i - 1 + j - 1) % n)]
        return TableMonoid.make(labels, table, identity="1", zero="0")

    @staticmethod
    def f1_monoid() -> "TableMonoid":
        return TableMonoid.cyclic_group_with_zero(1)

    def __str__(self):
        return f"TableMonoid{self.elements}"


def _already_pointed(M):
    warnings.warn("monoid already has a zero; adjoin_zero is a no-op")
    return M


def _finite_group_invariants(M: TableMonoid, group_elements) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group inside a table monoid,
    read off its element orders: for each prime p, the number of cyclic
    factors of order divisible by p^k is log_p(#G[p^k] / #G[p^(k-1)]),
    where G[m] is the set of elements of order dividing m."""
    orders = []
    for a in group_elements:
        n, x = 1, a
        while x != M.identity:
            x, n = M.op(x, a), n + 1
        orders.append(n)
    factors = [1] * len(orders)  # ascending, so the largest factors come last
    size, p = len(orders), 2
    while size > 1:
        if size % p == 0:
            below, pk = 1, p
            while (count := sum(pk % n == 0 for n in orders)) > below:
                i = len(factors)
                while below < count:  # one factor of p per cyclic factor p^k divides
                    i, below = i - 1, below * p
                    factors[i] *= p
                pk *= p
            while size % p == 0:
                size //= p
        p += 1
    return tuple(d for d in factors if d > 1)


# --- primes ------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal, stored through its complement.

    For an AffineMonoid the complement is the face submonoid given by
    ``face`` (generator indices); for a TableMonoid the prime is the
    explicit element set ``elements``.
    """

    owner: object
    face: tuple[int, ...] = None
    elements: frozenset = None

    @property
    def key(self):
        if self.face is not None:
            return ("face", self.face)
        return ("set", tuple(sorted(map(str, self.elements))))

    def sort_key(self):
        if self.face is not None:
            return (-self.owner._face_dim(self.face), self.face)
        return (len(self.elements), tuple(sorted(map(str, self.elements))))

    def contains(self, x) -> bool:
        if self.face is not None:
            A = self.owner
            return A.contains(x) and not A.face_submonoid(self.face).contains(x)
        return x in self.elements

    def pointed_in(self, owner) -> "PrimeIdeal":
        """This prime as a prime of ``owner``, its monoid with a zero
        adjoined: a face stays the same face, a table prime gains the zero."""
        if self.face is not None:
            return PrimeIdeal(owner, face=self.face)
        return PrimeIdeal(owner, elements=self.elements | {owner.zero})

    def is_subset_of(self, other: "PrimeIdeal") -> bool:
        """Containment p <= q of primes of the same monoid."""
        if self.owner is not other.owner and self.owner != other.owner:
            raise MonoidError("primes of different monoids")
        if self.face is not None:
            return set(other.face) <= set(self.face)
        return self.elements <= other.elements

    def __str__(self):
        if self.face is not None:
            comp = [self.owner.generators[i] for i in self.face]
            return f"prime(complement face {comp})"
        return f"prime({sorted(map(str, self.elements))})"


# --- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class MonoidHom:
    """Monoid homomorphism.  ``element_map`` is None for an affine
    inclusion, a localization or restriction map of an ``AffineMonoid``,
    whose source is a submonoid of the target in one ambient group;
    otherwise it is a table hom's element map, checked by ``table``."""

    source: object
    target: object
    element_map: dict = field(default=None, compare=False)

    @staticmethod
    def table(source: TableMonoid, target: TableMonoid, element_map: dict) -> "MonoidHom":
        if set(element_map) != set(source.elements):
            raise MonoidError("element map must cover the source")
        if element_map[source.identity] != target.identity:
            raise MonoidError("identity not preserved")
        if source.pointed:
            if not target.pointed or element_map[source.zero] != target.zero:
                raise MonoidError("zero not preserved")
        for a in source.elements:
            for b in source.elements:
                if element_map[source.op(a, b)] != target.op(element_map[a], element_map[b]):
                    raise MonoidError(f"multiplicativity fails at ({a},{b})")
        return MonoidHom(source, target, element_map=dict(element_map))

    def apply(self, x):
        if self.element_map is None:
            y = self.source.member(x)
            if y is None:
                raise MonoidError(f"{x} is not in the source monoid")
            return y
        return self.element_map[x]


# --- saturation ------------------------------------------------------------------

def saturation_generators(A: AffineMonoid, cone=None) -> tuple[tuple[int, ...], ...]:
    """Generators of {x in Quot A : free(x) in cone} in the ambient group.

    ``cone`` defaults to the recession cone of A, which gives the
    saturation; sheaf sections pass an intersected cone instead.
    """
    if cone is None:
        cone = A.recession_cone
    M = A.lattice_matrix(A.generators)
    if not M:
        return ()
    basis = column_lattice_basis(M)  # basis of lifts of Quot(A)
    # basis members with zero free part are torsion elements of Quot(A) and
    # enter the saturation as a group; the rest carry the cone condition
    free_members = [tuple(b) for b in basis if any(b[: A.ambient_rank])]
    torsion_members = [tuple(b) for b in basis if not any(b[: A.ambient_rank])]
    out = set()
    for b in torsion_members:
        red = A._reduce(b)
        if any(red):
            out.add(red)
            out.add(A._reduce(tuple(-x for x in red)))
    if free_members:
        # pull the cone back through the basis; its rows ignore the torsion coordinates
        rows = [a + [0] * len(A.torsion) for a in cone.inequalities]
        for vec in cones.pullback_generators(rows, free_members):
            red = A._reduce(vec)
            if any(red):
                out.add(red)
    return tuple(sorted(out))


def saturate(A: AffineMonoid) -> AffineMonoid:
    """Saturation cone(A) cap Quot(A) inside the ambient lattice."""
    return AffineMonoid.make(
        A.ambient_rank, saturation_generators(A), torsion=A.torsion, pointed=A.pointed
    )


# --- convenience constructors ---------------------------------------------------

def free_monoid(n: int) -> AffineMonoid:
    """N^n inside Z^n."""
    gens = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return AffineMonoid.make(n, gens)


def group_monoid(n: int) -> AffineMonoid:
    """Z^n as a monoid (the coordinate monoid of a rank-n split torus)."""
    gens = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        gens.append(e)
        gens.append([-x for x in e])
    return AffineMonoid.make(n, gens)

