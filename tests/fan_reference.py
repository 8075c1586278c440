"""The search route for the fan-of-monoids conditions, the reference that
`fans.fan_in_zn` is checked against, and the double-description route for
two cones meeting in a common face, the reference for `make_fan`'s check."""
import itertools

from f1geom.cones import RationalCone, intersection, lattice_monoid_generators, signed_rows
from f1geom.fans import Fan, FanInZn, _fan_monoids, _violation_2, _violation_3
from f1geom.intlinalg import primitive_vector
from f1geom.monoid import AffineMonoid


def _meet(fan: Fan, a: frozenset, b: frozenset) -> RationalCone:
    """The geometric intersection of the cones on ray sets a and b."""
    return intersection((fan.cone_obj(a), fan.cone_obj(b)), fan.rank)


def meets_in_common_face(fan: Fan, a: frozenset, b: frozenset) -> bool:
    """Whether cone(a) cap cone(b), taken by double description, lies in
    cone(a & b): each of its generators must."""
    common = fan.cone_obj(a & b)
    inter = _meet(fan, a, b)
    return all(common.contains(v) for v in signed_rows(inter.rays, inter.lineality))


def incomplete_fan_in_zn(fan_rank, rays, cone_ray_indices) -> FanInZn:
    """Condition checking for a raw cone collection that may violate face
    closure or meet badly; used to produce violation reports without the
    constructor's validation.  Nothing about the collection is assumed, so
    conditions (2) and (3) compare monoids: every prime complement of a
    member with the members, and the lattice points of each geometric
    intersection with the prime complements of both members."""
    cones = tuple(frozenset(c) for c in cone_ray_indices)
    prim = tuple(primitive_vector(r) for r in rays)
    fan = Fan(fan_rank, prim, cones)
    members, charts, violations = _fan_monoids(fan)
    # condition (2): complements of primes stay in the collection
    for c, A in members.items():
        for p in A.primes():
            comp = A.face_submonoid(p.face)
            if not any(comp.same_submonoid(B) for B in members.values()):
                violations.append(_violation_2(c))
    # condition (3): pairwise intersections are common prime complements
    for (c, A), (d, B) in itertools.combinations(members.items(), 2):
        inter = AffineMonoid.make(
            fan.rank, lattice_monoid_generators(_meet(fan, c, d)))
        ok_a = any(inter.same_submonoid(A.face_submonoid(p.face)) for p in A.primes())
        ok_b = any(inter.same_submonoid(B.face_submonoid(p.face)) for p in B.primes())
        if not (ok_a and ok_b):
            violations.append(_violation_3(c, d))
    return FanInZn(fan, members, charts, tuple(violations))
