"""`hilbert` workload: Hilbert bases of seed-generated pointed cones, plus
membership queries and saturation on non-normal monoids built from them.

Every cone is distinct, so no input repeats and a memo cache has nothing
to reuse.  Most of the work is the bounding-box scan in `cones`, one
rat_solve per candidate point, and the branch-and-bound search in
`AffineMonoid.contains`.  Entries are bounded per rank so that no single
cone dominates a pass.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import f1geom.cones as cones
import f1geom.monoid as monoid

from common import Job

# Main cones are simplicial, with entries bounded per rank.  Each is drawn
# until its `scan_cost` lies between T and 1.05 T for its rank's target T,
# so every seed asks for about the same work, no single cone dominates a
# pass, and the main jobs take about the same time at every rank: the
# median and the tail job fall inside that cluster, not in a gap.
BOUND = {2: 40, 3: 6, 4: 3}
TARGET = {2: 2700, 3: 1500, 4: 1000}
MAIN = 8  # main cones per rank and pass
# Small cones: nonnegative entries, one ray more than the rank, checked
# against lattice-point enumeration; one rides along with each main cone.
# rank -> (entry bound, cones per pass)
SMALL = {2: (5, 12), 3: (1, 12)}
# contains queries: coordinates in the rays' basis, each in DEPTH-2..DEPTH
DEPTH = {2: 16, 3: 8, 4: 5}
QUERIES = 4  # members and as many non-members per cone


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _det(rays) -> int:
    rows = [[Fraction(x) for x in r] for r in rays]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return int(det)


def scan_cost(rays, limit) -> float | None:
    """Work of the Hilbert scan of a simplicial cone, in units of one
    candidate point, or None when it is degenerate or above `limit`: the
    integer box spanned by the 0/1 combinations of the rays is scanned
    point by point, and the |det| points of the parallelepiped are then
    reduced pairwise (about 1/400 of a candidate each, as measured)."""
    box = 1
    for coordinate in zip(*rays):
        box *= sum(abs(x) for x in coordinate) + 1  # from the negative to the positive sum
    if box > limit:
        return None
    det = _det(rays)
    return box + det ** 2 / 400 if det else None


def _draw_rays(rng, rank, low, high, nrays):
    """Distinct primitive rays with coordinate sum >= 1, so the all-ones
    functional is positive on their cone and it is pointed."""
    rays = set()
    while len(rays) < nrays:
        v = tuple(rng.randint(low, high) for _ in range(rank))
        if sum(v) >= 1:
            rays.add(_primitive(v))
    return tuple(sorted(rays))


def generate(seed: int, size: str):
    """Pairwise distinct cones: (main, small) lists of ray tuples."""
    rng = random.Random(seed)
    main, small = [], []
    for rank, target in TARGET.items():
        for _ in range(MAIN if size == "full" else 1):
            while True:
                rays = _draw_rays(rng, rank, -BOUND[rank], BOUND[rank], rank)
                cost = scan_cost(rays, 1.05 * target)
                if cost is not None and cost >= target and rays not in main:
                    main.append(rays)
                    break
    for rank, (bound, count) in SMALL.items():
        for _ in range(count if size == "full" else 2):
            while True:
                rays = _draw_rays(rng, rank, 0, bound, rank + 1)
                if _rank(rays) == rank and rays not in small:
                    small.append(rays)
                    break
    return main, small, rng


def _members_by_degree(gens, degree):
    """Elements of the monoid generated by `gens` whose coordinate sum is at
    most `degree`; every generator has coordinate sum >= 1."""
    zero = tuple(0 for _ in gens[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(a + b for a, b in zip(x, g))
                if sum(y) <= degree and y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _two_three(rays):
    """Generators 2r and 3r for every ray r: a non-normal monoid whose group
    holds every r = 3r - 2r while the monoid misses the extremal ones."""
    return sorted({tuple(k * x for x in r) for r in rays for k in (2, 3)})


def make_jobs(seed: int, size: str, workdir) -> list[Job]:
    main, small, rng = generate(seed, size)
    jobs = []
    for i, rays in enumerate(main):
        via = "hilbert_basis" if i % 2 == 0 else "lattice_monoid_generators"
        rank = len(rays)
        # over independent rays a query's coordinates are unique, and it lies in
        # <2r, 3r> exactly when no coordinate is 1
        coords = []
        while len(coords) < 2 * QUERIES:
            c = [rng.randint(DEPTH[rank] - 2, DEPTH[rank]) for _ in rays]
            if len(coords) >= QUERIES:
                c[rng.randrange(rank)] = 1
            if c not in coords:
                coords.append(c)
        jobs.append(_joined(f"cone{i}", _basis_job(rays, False, via),
                            _contains_job(rays, coords),
                            _basis_job(small[i], True, "hilbert_basis"),
                            _saturate_job(small[i])))
    rng.shuffle(jobs)
    return jobs


def _joined(name, *parts):
    """One job that runs several (run, check) parts in order."""
    def run():
        return [part_run() for part_run, _ in parts]

    def check(outputs):
        for (_, part_check), out in zip(parts, outputs):
            part_check(out)

    return Job(name, run, check)


def _basis_job(rays, small, via):
    rank = len(rays[0])

    def run():
        sigma = cones.RationalCone.make(rays, rank=rank)
        if via == "hilbert_basis":
            return cones.hilbert_basis(sigma).vectors
        return cones.lattice_monoid_generators(sigma)

    def check(basis):
        from oracles import generated_lattice_points, in_rational_cone
        assert basis, "empty Hilbert basis"
        for h in basis:
            assert in_rational_cone(rays, h), f"{h} is not in the cone"
            # a nonzero lattice point of the cone has coordinate sum >= 1
            for c in basis:
                diff = tuple(a - b for a, b in zip(h, c))
                if sum(diff) >= 1:
                    assert not in_rational_cone(rays, diff), f"{h} = {c} + {diff}"
        if small:
            # nonnegative cone: every basis vector has a coordinate sum below
            # `bound`, and coordinate sums only grow along a sum of points
            bound = sum(sum(r) for r in rays)
            points = {p for p in itertools.product(range(bound + 1), repeat=rank)
                      if 0 < sum(p) <= bound and in_rational_cone(rays, p)}
            assert points <= generated_lattice_points(list(basis), bound), \
                "basis does not generate every lattice point of the cone"
            minimal = {p for p in points
                       if not any(tuple(a - b for a, b in zip(p, q)) in points for q in points)}
            assert minimal == set(basis), f"minimal generators {sorted(minimal)}"

    return run, check


def _contains_job(rays, coords):
    rank = len(rays[0])
    gens = _two_three(rays)
    queries = [tuple(sum(c * r[k] for c, r in zip(cs, rays)) for k in range(rank))
               for cs in coords]

    def run():
        M = monoid.AffineMonoid.make(rank, gens)
        return [M.contains(v) for v in queries]

    def check(answers):
        for cs, got in zip(coords, answers):
            assert got == (1 not in cs), f"contains at ray coordinates {cs} = {got}"

    return run, check


def _saturate_job(rays):
    rank = len(rays[0])
    gens = _two_three(rays)

    def run():
        return monoid.saturate(monoid.AffineMonoid.make(rank, gens)).generators

    def check(sat):
        from oracles import in_rational_cone
        for g in sat:
            assert in_rational_cone(rays, g), f"{g} is not in the cone"
        for r in rays:  # r = 3r - 2r lies in the group and the cone
            assert r in _members_by_degree(list(sat), sum(r)), f"ray {r} not saturated"

    return run, check
