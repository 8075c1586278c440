"""The search route for the fan-of-monoids conditions, the reference that
`fans.fan_in_zn` is checked against, the double-description route for
two cones meeting in a common face, the reference for `make_fan`'s check,
and the fan cone of a point of a fan scheme, read back off its chart.

`fan_in_zn` builds no monoid: condition (1) holds by construction.  Here
both monoids of every cone are built again and condition (1) is proved on
them with the oracles' saturation route."""
import itertools
from dataclasses import dataclass, field

from oracles import is_saturated
from f1geom.cones import (RationalCone, dual_cone, intersection, lattice_monoid_generators,
                          signed_rows)
from f1geom.fans import Fan
from f1geom.intlinalg import dot, primitive_vector, quotient_invariants
from f1geom.monoid import AbelianGroup, AffineMonoid


@dataclass(frozen=True)
class ReferenceFanInZn:
    """The monoids of a cone collection and the fan-of-monoids violations
    found on them: ``members`` are the lattice-point monoids of the cones,
    ``chart_monoids`` those of their duals."""

    fan: Fan
    members: dict = field(compare=False)        # cone -> AffineMonoid (primal)
    chart_monoids: dict = field(compare=False)  # cone -> AffineMonoid (dual side)
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def fan_monoids(fan: Fan):
    """Both monoid sides of every cone, each by double description and a
    Hilbert basis, and the condition (1) violations."""
    members, charts, violations = {}, {}, []
    for c in fan.sorted_cones():
        sigma = fan.cone_obj(c)
        A = members[c] = AffineMonoid.make(fan.rank, lattice_monoid_generators(sigma))
        charts[c] = AffineMonoid.make(fan.rank, lattice_monoid_generators(dual_cone(sigma)))
        if not is_saturated(A):
            violations.append((1, tuple(sorted(c)), "member not saturated"))
        if A.units() != AbelianGroup(0):
            violations.append((1, tuple(sorted(c)), "member has nontrivial units"))
        if quotient_invariants(fan.rank, [list(g) for g in A.generators])[1]:
            violations.append((1, tuple(sorted(c)), "Z^n/Quot has torsion"))
        if not is_saturated(charts[c]):
            violations.append((1, tuple(sorted(c)), "chart monoid not saturated"))
    return members, charts, violations


def cone_of_point(X, pt) -> frozenset:
    """The fan cone of a point of ``kato(X.fan)``: the rays of its chart's
    maximal cone on which every generator of its prime's complement
    vanishes.  That face of the dual cone is tau^perp cap sigma^dual, whose
    dual face is tau (Fulton 1993, Sec. 1.2)."""
    fan, A = X.fan, X.charts[pt.chart_index]
    return frozenset(r for r in fan.maximal_cones[pt.chart_index]
                     if all(dot(A.generators[i], fan.rays[r]) == 0 for i in pt.prime.face))


def violation_2(c):
    return (2, tuple(sorted(c)), "prime complement missing from the fan")


def violation_3(c, d):
    return (3, (tuple(sorted(c)), tuple(sorted(d))),
            "intersection is not a common prime complement")


def _meet(fan: Fan, a: frozenset, b: frozenset) -> RationalCone:
    """The geometric intersection of the cones on ray sets a and b."""
    return intersection((fan.cone_obj(a), fan.cone_obj(b)), fan.rank)


def meets_in_common_face(fan: Fan, a: frozenset, b: frozenset) -> bool:
    """Whether cone(a) cap cone(b), taken by double description, lies in
    cone(a & b): each of its generators must."""
    common = fan.cone_obj(a & b)
    inter = _meet(fan, a, b)
    return all(common.contains(v) for v in signed_rows(inter.rays, inter.lineality))


def incomplete_fan_in_zn(fan_rank, rays, cone_ray_indices) -> ReferenceFanInZn:
    """Condition checking for a raw cone collection that may violate face
    closure or meet badly; used to produce violation reports without the
    constructor's validation.  Nothing about the collection is assumed, so
    conditions (2) and (3) compare monoids: every prime complement of a
    member with the members, and the lattice points of each geometric
    intersection with the prime complements of both members."""
    cones = tuple(frozenset(c) for c in cone_ray_indices)
    prim = tuple(primitive_vector(r) for r in rays)
    fan = Fan(fan_rank, prim, cones)
    members, charts, violations = fan_monoids(fan)
    # condition (2): complements of primes stay in the collection
    for c, A in members.items():
        for p in A.primes():
            comp = A.face_submonoid(p.face)
            if not any(comp.same_submonoid(B) for B in members.values()):
                violations.append(violation_2(c))
    # condition (3): pairwise intersections are common prime complements
    for (c, A), (d, B) in itertools.combinations(members.items(), 2):
        inter = AffineMonoid.make(
            fan.rank, lattice_monoid_generators(_meet(fan, c, d)))
        ok_a = any(inter.same_submonoid(A.face_submonoid(p.face)) for p in A.primes())
        ok_b = any(inter.same_submonoid(B.face_submonoid(p.face)) for p in B.primes())
        if not (ok_a and ok_b):
            violations.append(violation_3(c, d))
    return ReferenceFanInZn(fan, members, charts, tuple(violations))
