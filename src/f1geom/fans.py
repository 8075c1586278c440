"""Fans of rational cones, standard constructions, and the functor from
fans to monoid schemes.

A fan is stored as a set of ray-index subsets closed under faces; fan
cones follow the simplicial definition (linearly independent ray sets),
with non-simplicial cones arising only as duals, so the faces of a cone
are the subsets of its rays.  The passage to schemes takes each maximal
cone to the spectrum of the lattice-point monoid of its dual cone, glued
along common faces.  That scheme is read off the fan by the orbit-cone
correspondence (Kato 1994, Deitmar 2008): its points are the cones,
specialization is cone inclusion and the stalk at tau is tau^dual cap Z^n.
``kato`` hands the points and order to the scheme it builds, so nothing
is glued, and the scheme localizes a chart when a stalk is asked for;
``spectrum.glue`` stays the route for hand-built gluing diagrams, and for
fans the tests use it as the oracle.

The charts come from ``cones.dual_monoid_generators``.  A smooth cone's
rays are part of a lattice basis (Fulton 1993, Sec. 2.1), so one Smith
form of the rays gives sigma^dual cap Z^n with no dual cone and no Hilbert
basis; singular cones take double description and a Hilbert basis.
``make_fan`` checks that each cone's rays are independent and reads common
faces off the signs of relations among rays; given that, the
fan-of-monoids conditions hold by construction, and of them ``fan_in_zn``
reads face closure alone off a hand-built ``Fan``: the rest follows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .cones import RationalCone, double_description, dual_monoid_generators
from .intlinalg import dot, kernel_basis, primitive_vector, rat_rank, transpose
from .monoid import AbelianGroup, AffineMonoid, PrimeIdeal
from .spectrum import GluingData, MScheme, Point


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple[tuple[int, ...], ...]
    cones: tuple[frozenset, ...]

    @cached_property
    def maximal_cones(self) -> tuple[frozenset, ...]:
        out = []
        for c in self.cones:
            if not any(c < d for d in self.cones):
                out.append(c)
        return tuple(sorted(out, key=sorted))

    def cone_obj(self, c: frozenset) -> RationalCone:
        return RationalCone.make([self.rays[i] for i in sorted(c)], rank=self.rank)

    def sorted_cones(self) -> tuple[frozenset, ...]:
        return tuple(sorted(self.cones, key=lambda c: (len(c), sorted(c))))


def make_fan(rank: int, rays, cone_ray_indices) -> Fan:
    """Validate and build a fan: rays are made primitive and must be
    distinct, each listed cone must name distinct, independent rays, and
    two cones must meet in a common face.  The faces of the listed cones are
    always added, so listing the maximal cones is enough."""
    prim = []
    seen = set()
    for r in rays:
        if len(r) != rank:
            raise FanError(f"ray {r!r} has length {len(r)}, expected {rank}")
        if not any(r):
            raise FanError("the zero vector is not a ray")
        p = primitive_vector(r)
        if p in seen:
            raise FanError(f"duplicate ray {r!r}")
        seen.add(p)
        prim.append(p)
    rays = tuple(prim)
    cones = set()
    for listed in cone_ray_indices:
        c = frozenset(listed)
        if len(c) != len(listed):
            raise FanError(f"cone {list(listed)} repeats a ray")
        if any(i < 0 or i >= len(rays) for i in c):
            raise FanError(f"cone {sorted(c)} references a missing ray")
        if rat_rank([list(rays[i]) for i in c]) != len(c):
            raise FanError(f"cone {sorted(c)} rays are not linearly independent")
        cones.add(c)
    cones = {f for c in cones for f in _faces(c)}
    fan = Fan(rank, rays, tuple(sorted(cones, key=lambda c: (len(c), sorted(c)))))
    _check_intersections(fan)
    return fan


def _faces(c: frozenset):
    """The faces of a simplicial cone: all subsets of its rays."""
    for k in range(len(c) + 1):
        for sub in itertools.combinations(sorted(c), k):
            yield frozenset(sub)


def _check_intersections(fan: Fan):
    """Every two maximal cones A, B (independent ray sets, C = A & B) must
    meet in cone(C), that is, no relation among the rays of A | B may be
    >= 0 on A - B, <= 0 on B - A and nonzero there, whatever its signs on C
    (Fulton 1993, Sec. 1.2).  A point of both cones, written on A and on B,
    gives such a relation unless it is in cone(C); a relation x, y, z gives
    the point x.(A - B) + z+.C = -y.(B - A) + z-.C of both cones.  As C is
    independent, G = (K on A - B, -K on B - A) is injective for a kernel
    basis K, so a pair fails iff G t >= 0 has a ray or a line.  Faces a, b
    of A, B then meet well: a cap b = cone(a cap B) cap cone(b cap A), two
    faces of the simplicial cone(A cap B).
    """
    for a, b in itertools.combinations(fan.maximal_cones, 2):
        only_a, only_b = sorted(a - b), sorted(b - a)
        K = kernel_basis(transpose([fan.rays[i] for i in only_a + only_b + sorted(a & b)]))
        signs = [1] * len(only_a) + [-1] * len(only_b)
        G = [[s * v[j] for v in K] for j, s in enumerate(signs)]
        if K and any(double_description(G, len(K))):
            raise FanError(f"cones {sorted(a)} and {sorted(b)} do not meet in a common face")


# --- standard fans -------------------------------------------------------------

def standard_fans(name: str, *params) -> Fan:
    """Textbook fans: torus(n), affine_space(n), projective_space(n),
    hirzebruch(a), product(fan, fan)."""
    if name == "torus":
        (n,) = params
        return Fan(n, (), (frozenset(),))
    if name == "affine_space":
        (n,) = params
        rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        return make_fan(n, rays, [list(range(n))])
    if name == "projective_space":
        (n,) = params
        rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        rays.append([-1] * n)
        conelist = [list(c) for c in itertools.combinations(range(n + 1), n)]
        return make_fan(n, rays, conelist)
    if name == "hirzebruch":
        (a,) = params
        rays = [[1, 0], [0, 1], [-1, a], [0, -1]]
        return make_fan(2, rays, [[0, 1], [1, 2], [2, 3], [3, 0]])
    if name == "product":
        f1, f2 = params
        return product_fan(f1, f2)
    raise FanError(f"unknown standard fan {name!r}")


def product_fan(f1: Fan, f2: Fan) -> Fan:
    rays = [tuple(r) + (0,) * f2.rank for r in f1.rays]
    rays += [(0,) * f1.rank + tuple(r) for r in f2.rays]
    cones = []
    for a in f1.cones:
        for b in f2.cones:
            cones.append(sorted(a) + [len(f1.rays) + i for i in sorted(b)])
    return make_fan(f1.rank + f2.rank, rays, cones)


# --- the fan of lattice monoids (combinatorial form of a fan) -------------------

@dataclass(frozen=True)
class FanInZn:
    """A fan read as a collection of submonoids of Z^n, the lattice-point
    monoids sigma cap Z^n of its cones, and the fan-of-monoids conditions
    that fail for it: (1) each member is finitely generated and saturated,
    with trivial units and a torsion-free Z^n / Quot; (2) the prime
    complements of a member are members; (3) two members meet in a common
    prime complement.  (1) holds by construction and (3) follows from (2),
    so ``violations`` lists (2, cone, reason), one entry per missing face.
    """

    fan: Fan
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def fan_in_zn(fan: Fan) -> FanInZn:
    """The fan-of-monoids conditions of a fan, read off its ray-index sets.

    Condition (1) holds by construction, so no monoid is built to check it.
    A member sigma cap Z^n, like a chart sigma^dual cap Z^n, is all the
    lattice points of a cone: finitely generated (Gordan's lemma; the
    library generates it by a Hilbert basis) and saturated.  A cone's rays
    are independent, as ``make_fan`` checks, so sigma is pointed (the member
    has no units) and full-dimensional in its span, whence Quot is
    span cap Z^n and Z^n / Quot is torsion-free (Fulton 1993, Sec. 1.2, 2.1).
    Simplicial cones that meet in common faces have the monoids of the
    faces of c as the prime complements of c cap Z^n, and two members meet
    in the member of c & d.  (2) is then face closure, which a fan
    ``make_fan`` builds has, and it is still read off the ray-index sets
    for a ``Fan`` built by hand.  (3) asks that c & d be a cone, and follows
    from (2): c & d is a subset of c's rays, so a face of c.
    """
    cones = set(fan.cones)
    return FanInZn(fan, tuple((2, tuple(sorted(c)), "prime complement missing from the fan")
                              for c in fan.sorted_cones() for f in _faces(c) if f not in cones))


# --- fan -> scheme functor -------------------------------------------------------

def kato(fan: Fan) -> MScheme:
    """The monoid scheme of a fan: one chart per maximal cone sigma, the
    chart monoid being sigma^dual cap Z^n, glued along the localizations
    at common faces (identity gluing records).

    The points and order come from the orbit-cone correspondence and are
    passed to the scheme as it is built; nothing is glued.  The prime of a
    face tau of a maximal cone is the one whose complement is the face of
    the chart vanishing on tau; it is built once per (chart, face), and the
    points and gluing records both read it.  The point of tau is its prime
    in the first maximal cone containing it, with stalk units
    Z^(n - dim(tau)); its stalk is that chart localized there
    (tau^dual cap Z^n), and the points below it are those of its faces.
    As the fan is face-closed, the faces of the maximal cones are exactly
    its cones, and two maximal cones meet in a face of both.  ``glue`` on
    the same charts and records derives the same data; the tests compare
    the two routes.  A smooth maximal cone's chart is read off one Smith
    form of its rays (``dual_monoid_generators``), with no dual.
    """
    n = fan.rank
    maxcones = fan.maximal_cones
    charts = tuple(AffineMonoid.make(n, dual_monoid_generators(fan.cone_obj(c)))
                   for c in maxcones)
    prime_at, point_of_cone, class_of = {}, {}, {}
    for ci, (mc, A) in enumerate(zip(maxcones, charts)):
        # the rays of mc each generator vanishes on; tau's face is the
        # generators vanishing on all of tau
        zeros = [frozenset(r for r in mc if dot(g, fan.rays[r]) == 0) for g in A.generators]
        for tau in _faces(mc):
            prime = prime_at[ci, tau] = PrimeIdeal(
                A, tuple(i for i, z in enumerate(zeros) if tau <= z))
            if tau not in point_of_cone:
                point_of_cone[tau] = Point(ci, prime, AbelianGroup(n - len(tau)))
            class_of[ci, prime] = point_of_cone[tau]
    ident = tuple(tuple(1 if a == b else 0 for a in range(n)) for b in range(n))
    gluings = tuple(GluingData(i, prime_at[i, a & b], j, prime_at[j, a & b], ident)
                    for (i, a), (j, b) in itertools.combinations(enumerate(maxcones), 2))
    points = tuple(sorted(point_of_cone.values(), key=lambda p: p.key))
    down = {point_of_cone[tau].key: frozenset(point_of_cone[f].key for f in _faces(tau))
            for tau in fan.cones}
    return MScheme(charts, gluings, points, down, class_of, fan)
