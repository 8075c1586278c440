"""Fans of rational cones, standard constructions, and the functor from
fans to monoid schemes.

A fan is stored as a set of ray-index subsets closed under faces; fan
cones follow the simplicial definition (linearly independent ray sets),
with non-simplicial cones arising only as duals.  The passage to schemes
takes each maximal cone to the spectrum of the lattice-point monoid of
its dual cone and glues along common faces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .cones import (
    RationalCone,
    _dual_uncapped,
    intersection,
    lattice_monoid_generators,
    signed_rows,
)
from .intlinalg import dot, primitive_vector, quotient_invariants, rat_rank
from .monoid import (
    AffineMonoid,
    is_saturated,
    primes,
    units,
)
from .spectrum import GluingData, MScheme, glue


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

    def cone_dim(self, c: frozenset) -> int:
        return len(c)  # rays of a fan cone are linearly independent

    def sorted_cones(self) -> tuple[frozenset, ...]:
        return tuple(sorted(self.cones, key=lambda c: (len(c), sorted(c))))


def make_fan(rank: int, rays, cone_ray_indices, complete_faces: bool = True) -> Fan:
    """Validate and build a fan; face closure is completed when asked."""
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
    for c in cone_ray_indices:
        c = frozenset(c)
        if any(i < 0 or i >= len(rays) for i in c):
            raise FanError(f"cone {sorted(c)} references a missing ray")
        if rat_rank([list(rays[i]) for i in c]) != len(c):
            raise FanError(f"cone {sorted(c)} rays are not linearly independent")
        cones.add(c)
    if complete_faces:
        for c in list(cones):
            for k in range(len(c) + 1):
                for sub in itertools.combinations(sorted(c), k):
                    cones.add(frozenset(sub))
    else:
        for c in cones:
            for k in range(len(c) + 1):
                for sub in itertools.combinations(sorted(c), k):
                    if frozenset(sub) not in cones:
                        raise FanError(
                            f"fan is not face-closed: missing face {sorted(sub)}")
    fan = Fan(rank, rays, tuple(sorted(cones, key=lambda c: (len(c), sorted(c)))))
    _check_intersections(fan)
    return fan


def _check_intersections(fan: Fan):
    for a, b in itertools.combinations(fan.cones, 2):
        common = a & b
        ca, cb = fan.cone_obj(a), fan.cone_obj(b)
        cc = fan.cone_obj(common)
        # the geometric intersection must be the common-face cone
        inter = intersection((ca, cb), fan.rank)
        for v in signed_rows(inter.rays, inter.lineality):
            if not cc.contains(v):
                raise FanError(
                    f"cones {sorted(a)} and {sorted(b)} do not meet in a common face")


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
    """A fan rewritten as a collection of submonoids of Z^n.

    ``members`` are the lattice-point monoids of the fan cones themselves
    (finitely generated, saturated, trivial units, torsion-free quotient,
    closed under passing to prime complements, pairwise intersecting in
    common faces); ``chart_monoids`` are the dual-side monoids the scheme
    functor uses, with the face monoids included via localization.
    """

    fan: Fan
    members: dict = field(compare=False)        # cone -> AffineMonoid (primal)
    chart_monoids: dict = field(compare=False)  # cone -> AffineMonoid (dual side)
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def fan_in_zn(fan: Fan) -> FanInZn:
    """Check the three fan-of-monoids conditions and return both sides."""
    members = {}
    charts = {}
    violations = []
    for c in fan.sorted_cones():
        cobj = fan.cone_obj(c)
        A = AffineMonoid.make(fan.rank, lattice_monoid_generators(cobj))
        members[c] = A
        dual = _dual_uncapped(cobj)
        charts[c] = AffineMonoid.make(fan.rank, lattice_monoid_generators(dual))
        if not is_saturated(A):
            violations.append((1, tuple(sorted(c)), "member not saturated"))
        if not units(A).is_trivial:
            violations.append((1, tuple(sorted(c)), "member has nontrivial units"))
        qr, qf = quotient_invariants(fan.rank,
                                     [list(g) for g in A.generators])
        if qf:
            violations.append((1, tuple(sorted(c)), "Z^n/Quot has torsion"))
        if not is_saturated(charts[c]):
            violations.append((1, tuple(sorted(c)), "chart monoid not saturated"))
    # condition (2): complements of primes stay in the collection
    for c, A in members.items():
        for p in primes(A):
            comp = A.face_submonoid(p.face)
            if not any(comp.same_submonoid(B) for B in members.values()):
                violations.append(
                    (2, tuple(sorted(c)), "prime complement missing from the fan"))
    # condition (3): pairwise intersections are common prime complements
    for (c, A), (d, B) in itertools.combinations(members.items(), 2):
        common = fan.cone_obj(c & d)
        inter = AffineMonoid.make(
            fan.rank, lattice_monoid_generators(common))
        ok_a = any(inter.same_submonoid(A.face_submonoid(p.face)) for p in primes(A))
        ok_b = any(inter.same_submonoid(B.face_submonoid(p.face)) for p in primes(B))
        if not (ok_a and ok_b):
            violations.append(
                (3, (tuple(sorted(c)), tuple(sorted(d))),
                 "intersection is not a common prime complement"))
    return FanInZn(fan, members, charts, tuple(violations))


def incomplete_fan_in_zn(fan_rank, rays, cone_ray_indices) -> FanInZn:
    """Condition checking for a raw cone collection that may violate face
    closure; used to produce violation reports without the constructor's
    validation."""
    cones = tuple(frozenset(c) for c in cone_ray_indices)
    prim = tuple(primitive_vector(r) for r in rays)
    fan = Fan(fan_rank, prim, cones)
    return fan_in_zn(fan)


# --- fan -> scheme functor -------------------------------------------------------

@dataclass(frozen=True)
class FanData:
    """Toric bookkeeping attached to a glued scheme: which fan cone each
    point came from."""

    fan: Fan
    cone_of_point: dict = field(compare=False)  # Point.key -> frozenset


def kato(fan: Fan) -> MScheme:
    """The monoid scheme of a fan: one chart per maximal cone, the chart
    monoid being the lattice points of the dual cone, glued along the
    localizations at common faces."""
    maxcones = fan.maximal_cones
    charts = []
    chart_cones = []
    for c in maxcones:
        dual = _dual_uncapped(fan.cone_obj(c))
        charts.append(AffineMonoid.make(fan.rank, lattice_monoid_generators(dual)))
        chart_cones.append(c)

    def prime_face_for(chart_idx: int, sigma: frozenset):
        A = charts[chart_idx]
        sig_rays = [fan.rays[i] for i in sorted(sigma)]
        face = tuple(
            i for i, g in enumerate(A.generators)
            if all(dot(g, r) == 0 for r in sig_rays)
        )
        return next(p for p in primes(A) if p.face == face)

    gluings = []
    for i, j in itertools.combinations(range(len(maxcones)), 2):
        sigma = chart_cones[i] & chart_cones[j]
        if sigma not in fan.cones:
            raise FanError("maximal cones intersect outside the fan")
        ident = tuple(
            tuple(1 if a == b else 0 for a in range(fan.rank)) for b in range(fan.rank)
        )
        gluings.append(GluingData(i, prime_face_for(i, sigma),
                                  j, prime_face_for(j, sigma), ident))
    scheme = glue(charts, gluings)

    cone_of_point = {}
    for c in fan.sorted_cones():
        chart_idx = next(k for k, mc in enumerate(chart_cones) if c <= mc)
        p = prime_face_for(chart_idx, c)
        pt = scheme.point_of(chart_idx, p)
        cone_of_point[pt.key] = c
    if len(set(cone_of_point.values())) != len(fan.cones) or \
            len(cone_of_point) != len(scheme.points):
        raise FanError("fan cones and scheme points do not correspond")
    return MScheme(scheme.charts, scheme.gluings, FanData(fan, cone_of_point))
