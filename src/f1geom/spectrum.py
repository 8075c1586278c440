"""Monoid schemes: charts glued along localizations, with their points,
specialization order and structure sheaf.

A scheme is a finite gluing diagram of affine spectra along
localizations, and the spectrum of a monoid A is the one-chart scheme
``MScheme.affine(A)``.  The Zariski topology of a finite scheme is the
Alexandrov topology of its specialization order, so an open set is a
union of down-sets and the structure sheaf is a stalk per point with a
restriction hom along every specialization.  A scheme's points, order
and stalk unit groups are derived once, by the constructor that builds
it: ``glue`` localizes the charts at their primes, ``fans.kato`` reads
them off the fan and ``plus_zero`` carries them over from the scheme
without zero.  A stalk is not kept: it is the point's chart localized at
the point's prime, built when asked for.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .cones import intersection, pullback_generators
from .intlinalg import (
    column_lattice_basis,
    dot,
    kernel_basis,
    unimodular_inverse,
)
from .monoid import (
    AbelianGroup,
    AffineMonoid,
    MonoidHom,
    PrimeIdeal,
    saturation_generators,
)


class SchemeError(ValueError):
    pass


class GluingError(SchemeError):
    pass


# --- glued monoid schemes -------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """A scheme point: canonical (chart, prime) representative and the
    unit group of its stalk, which is all that a point count reads."""

    chart_index: int
    prime: PrimeIdeal
    units: AbelianGroup

    @property
    def key(self):
        return (self.chart_index, self.prime.key)

    @property
    def rank(self) -> int:
        return self.units.free_rank


@dataclass(frozen=True)
class GluingData:
    """Identification of principal opens: localize chart_a at prime_a and
    chart_b at prime_b, identified by the lattice map ``iso`` (a square
    integer matrix sending ambient_a to ambient_b)."""

    chart_a: int
    prime_a: PrimeIdeal
    chart_b: int
    prime_b: PrimeIdeal
    iso: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MScheme:
    """A monoid scheme: charts plus gluings, with its point poset.

    Each constructor passes the point data in: ``glue`` derives it from
    the charts' primes and localizations, ``fans.kato`` reads it off the
    fan and ``plus_zero`` carries it over.  ``down`` maps each point's key
    to the keys of the points below it in the specialization order, itself
    included; ``class_of`` maps (chart index, prime) to the prime's point.
    Stalks are charts localized on demand (``stalk``).  ``fan`` is the fan
    a scheme was built from by ``fans.kato``, None otherwise.
    """

    charts: tuple
    gluings: tuple
    points: tuple[Point, ...] = field(compare=False, repr=False)
    down: dict = field(compare=False, repr=False)
    class_of: dict = field(compare=False, repr=False)
    fan: object = field(default=None, compare=False)

    def __post_init__(self):
        if not self.charts:
            raise SchemeError("a scheme needs at least one chart")
        self.pointed  # rejects mixed charts

    @staticmethod
    def affine(A) -> "MScheme":
        return glue([A], [])

    @cached_property
    def pointed(self) -> bool:
        flags = {c.pointed for c in self.charts}
        if len(flags) != 1:
            raise SchemeError("mixed pointed/unpointed charts")
        return flags.pop()

    def le(self, a: Point, b: Point) -> bool:
        return a.key in self.down[b.key]

    def stalk(self, pt: Point):
        """O_pt: the point's chart localized at the point's prime."""
        return self.charts[pt.chart_index].localize(pt.prime)[0]

    def is_open(self, points) -> bool:
        """Open iff a union of down-sets (closed under generization)."""
        keys = {p.key for p in points}
        return all(self.down[k] <= keys for k in keys)

    def restriction(self, b: Point, a: Point) -> MonoidHom:
        """The sheaf map O_b -> O_a along a specialization a <= b, built in
        b's chart, which holds every generization of b."""
        if not self.le(a, b):
            raise SchemeError("restriction only runs along specializations")
        ci = b.chart_index
        A = self.charts[ci]
        p = next(p for (c, p), pt in self.class_of.items() if c == ci and pt.key == a.key)
        return A.restriction(A.localize(b.prime)[1], A.localize(p)[1])

    def sections(self, open_points):
        """Sections over an open set: the limit of the stalks over it.

        An open with a unique maximal point b has sections O_b; on a whole
        spectrum that is the monoid itself (localized at its units).  Other
        opens are handled on one saturated affine chart A, by intersecting
        the stalk cones inside Quot(A).
        """
        open_points = list(open_points)
        if not open_points:
            raise SchemeError("sections over the empty set are not represented")
        if not self.is_open(open_points):
            raise SchemeError("not an open subset")
        maximal = [b for b in open_points
                   if not any(a.key != b.key and self.le(b, a) for a in open_points)]
        if len(maximal) == 1:
            return self.stalk(maximal[0])
        A = self.charts[0]
        if len(self.charts) > 1 or not isinstance(A, AffineMonoid):
            raise NotImplementedError("multi-branch sections only on one affine chart")
        stalks = [self.stalk(p) for p in maximal]
        cone = intersection([c.recession_cone for c in stalks], A.ambient_rank)
        out = AffineMonoid.make(A.ambient_rank, saturation_generators(A, cone=cone),
                                torsion=A.torsion, pointed=A.pointed)
        if not all(s.contains(g) for g in out.generators for s in stalks):
            raise NotImplementedError(
                "sections over this open need a non-saturated intersection")
        return out

    @property
    def connected_components(self) -> tuple[tuple[Point, ...], ...]:
        by_key = {p.key: p for p in self.points}
        pairs = ((a, b) for b, below in self.down.items() for a in below)
        return tuple(tuple(by_key[k] for k in cls) for cls in _classes(by_key, pairs))


def _classes(keys, pairs) -> list[list]:
    """The classes of the equivalence on ``keys`` generated by ``pairs``,
    each in key order, ordered by their first keys."""
    parent = {k: k for k in keys}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes = {}
    for k in parent:
        classes.setdefault(find(k), []).append(k)
    return list(classes.values())


def glue(charts, gluings) -> MScheme:
    """Build an MScheme from charts and ``GluingData`` records, checking their isos."""
    charts = tuple(charts)
    records = tuple(gluings)
    return MScheme(charts, records, *_build_scheme_data(charts, records))


def _build_scheme_data(charts, gluings):
    """Points, down-sets and (chart, prime) -> point map of the charts
    glued along the records, derived from the charts' primes; each point's
    stalk unit group is read off its chart localized at its prime, and the
    stalk itself is not kept.  This is the reference route: the tests
    compare ``kato`` and ``plus_zero`` against it."""
    chart_primes = {A: A.primes() for A in dict.fromkeys(charts)}  # equal charts share one
    prime_at = {(ci, p.key): p for ci, A in enumerate(charts) for p in chart_primes[A]}
    pairs = []
    for rec in gluings:
        _validate_gluing(charts, rec)
        pairs += [((rec.chart_a, a), (rec.chart_b, b))
                  for a, b in _gluing_point_pairs(charts, rec)]

    points, point_at, units = [], {}, {}
    for members in _classes(prime_at, pairs):
        rep = min(members)
        A, prime = charts[rep[0]], prime_at[rep]
        if (A, prime.key) not in units:  # equal charts share their unit groups too
            units[A, prime.key] = A.localize(prime)[0].units()
        pt = Point(rep[0], prime, units[A, prime.key])
        points.append(pt)
        point_at.update(dict.fromkeys(members, pt))
    points.sort(key=lambda p: p.key)

    # specialization order: the chart relations, then each down-set grows
    # by the down-sets of its members until none grows
    down = {pt.key: {pt.key} for pt in points}
    for ci, A in enumerate(charts):
        for p in chart_primes[A]:
            for q in chart_primes[A]:
                if p.is_subset_of(q):
                    down[point_at[(ci, q.key)].key].add(point_at[(ci, p.key)].key)
    grew = True
    while grew:
        grew = False
        for below in down.values():
            more = set().union(*(down[k] for k in below)) - below
            below |= more
            grew = grew or bool(more)

    class_of = {(ci, prime_at[(ci, k)]): pt for (ci, k), pt in point_at.items()}
    return tuple(points), {k: frozenset(v) for k, v in down.items()}, class_of


def _validate_gluing(charts, rec: GluingData):
    A, B = charts[rec.chart_a], charts[rec.chart_b]
    if not isinstance(A, AffineMonoid) or not isinstance(B, AffineMonoid):
        raise GluingError("gluing records are supported for affine charts")
    loc_a, _ = A.localize(rec.prime_a)
    loc_b, _ = B.localize(rec.prime_b)
    T = [list(row) for row in rec.iso]
    n = A.ambient_rank
    if B.ambient_rank != n or len(T) != n or any(len(r) != n for r in T):
        raise GluingError("iso matrix has the wrong shape")
    if A.torsion or B.torsion:
        raise GluingError("gluing with ambient torsion is not supported")
    try:
        Tinv = unimodular_inverse(T)
    except ValueError:
        raise GluingError("iso matrix is not a lattice isomorphism") from None
    for g in loc_a.generators:
        img = tuple(dot(row, g) for row in T)
        if not loc_b.contains(img):
            raise GluingError(f"iso does not map the overlap into chart {rec.chart_b}")
    for h in loc_b.generators:
        img = tuple(dot(row, h) for row in Tinv)
        if not loc_a.contains(img):
            raise GluingError(f"inverse iso does not map the overlap into chart {rec.chart_a}")


def _gluing_point_pairs(charts, rec: GluingData):
    """Pairs (prime key of chart_a, prime key of chart_b) identified by the
    gluing: primes of the localized overlap, traced into both charts."""
    A, B = charts[rec.chart_a], charts[rec.chart_b]
    loc_a, _ = A.localize(rec.prime_a)
    T = [list(row) for row in rec.iso]
    pairs = []
    for r in loc_a.primes():
        comp = loc_a.face_submonoid(r.face)
        face_in_a = tuple(
            i for i, g in enumerate(A.generators) if comp.contains(g)
        )
        image_gens = [tuple(dot(row, g) for row in T) for g in
                      (loc_a.generators[i] for i in r.face)]
        image_monoid = AffineMonoid.make(B.ambient_rank, image_gens)
        face_in_b = tuple(
            j for j, h in enumerate(B.generators) if image_monoid.contains(h)
        )
        pairs.append((("face", face_in_a), ("face", face_in_b)))
    return pairs


# --- scheme-level operations ------------------------------------------------------

def global_sections(X: MScheme):
    """The equalizer of the chart sections over the overlaps."""
    if len(X.charts) == 1:
        return X.sections(X.points)
    charts = X.charts
    if any(not isinstance(c, AffineMonoid) or c.torsion for c in charts):
        raise NotImplementedError("multi-chart sections need torsion-free affine charts")
    offsets = []
    total = 0
    for c in charts:
        offsets.append(total)
        total += c.ambient_rank

    # parametrize the product of the quotient groups by a block basis
    blocks = []
    for ci, c in enumerate(charts):
        basis = column_lattice_basis(c.lattice_matrix(c.generators))
        for b in basis:
            vec = [0] * total
            vec[offsets[ci]: offsets[ci] + c.ambient_rank] = b
            blocks.append(vec)
    # overlap constraints: T x_a = x_b
    constraint_rows = []
    for rec in X.gluings:
        T = [list(row) for row in rec.iso]
        for out_coord in range(charts[rec.chart_b].ambient_rank):
            row = [0] * total
            for in_coord in range(charts[rec.chart_a].ambient_rank):
                row[offsets[rec.chart_a] + in_coord] += T[out_coord][in_coord]
            row[offsets[rec.chart_b] + out_coord] -= 1
            constraint_rows.append(row)
    if constraint_rows and blocks:
        M = [[dot(row, b) for b in blocks] for row in constraint_rows]
        coeff_kernel = kernel_basis(M)
        lattice = [
            [sum(k[j] * blocks[j][i] for j in range(len(blocks))) for i in range(total)]
            for k in coeff_kernel
        ]
    else:
        lattice = blocks
    if not lattice:
        return AffineMonoid.make(total, [])
    # cone condition per chart, pulled back through the lattice basis
    rows = []
    for ci, c in enumerate(charts):
        pad = total - offsets[ci] - c.ambient_rank
        rows += [[0] * offsets[ci] + a + [0] * pad for a in c.recession_cone.inequalities]
    result = AffineMonoid.make(total, pullback_generators(rows, lattice), pointed=X.pointed)
    for g in result.generators:
        for ci, c in enumerate(charts):
            part = g[offsets[ci]: offsets[ci] + c.ambient_rank]
            if not c.contains(part):
                raise NotImplementedError(
                    "global sections over non-saturated charts are not supported")
    return result


def plus_zero(X: MScheme) -> MScheme:
    """The zero-adjoining functor on schemes, applied chartwise.

    A monoid and its pointed extension have the same primes up to
    re-owning, so X's points, order and (chart, prime) -> point map carry
    over with their primes re-owned; nothing is glued or localized again.
    A stalk, asked for, is the pointed chart localized at its point's
    prime: that is X's stalk with a zero, and for a table chart it also
    carries the labels the localization of the pointed table gives.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        charts = tuple(c.adjoin_zero() for c in X.charts)
    records = tuple(
        GluingData(r.chart_a, r.prime_a.pointed_in(charts[r.chart_a]),
                   r.chart_b, r.prime_b.pointed_in(charts[r.chart_b]), r.iso)
        for r in X.gluings)
    moved = {pt.key: Point(pt.chart_index, pt.prime.pointed_in(charts[pt.chart_index]), pt.units)
             for pt in X.points}
    return MScheme(
        charts, records,
        tuple(sorted(moved.values(), key=lambda p: p.key)),
        {moved[k].key: frozenset(moved[a].key for a in below) for k, below in X.down.items()},
        {(ci, p.pointed_in(charts[ci])): moved[pt.key] for (ci, p), pt in X.class_of.items()},
        X.fan)


def classify(X: MScheme) -> dict:
    """Connectedness, integrality, finite type and exponent-1 flags.

    X is integral when every stalk is, and that is read off the charts:
    a chart is its own stalk at its closed point (A localized at the
    non-units is A), and every stalk is a localization of a chart, which
    is cancellative when the chart is.  finite_type is recorded as always
    true: the chart representation can only express finitely generated
    stalks.
    """
    return {
        "connected": len(X.connected_components) == 1,
        "integral": all(c.is_integral for c in X.charts),
        "finite_type": True,
        "exponent_one": not any(pt.units.invariant_factors for pt in X.points),
    }


def minimal_rank_points(X: MScheme) -> list[Point]:
    m = min(p.rank for p in X.points)
    return [p for p in X.points if p.rank == m]
