"""`toric` workload: a size ladder of fans through the fan pipeline.

Each fan runs through six stages, each one job: make_fan, kato,
fan_in_zn, count_points at several q, counting_polynomial against
orbit_count_polynomial, and orbit_torification with its verification.
Most of the work is small simplicial duals and Smith normal forms on
inputs that repeat heavily, which is where memoized duals would show;
the cones are unimodular, so the Hilbert scan does little here.
"""
from __future__ import annotations

import itertools
import random

import f1geom.counting as counting
import f1geom.fans as fans
import f1geom.torified as torified

from common import Job

QS = (2, 3, 4, 5, 7, 8, 9)
ORACLE_PRIMES = (2, 3, 5)


def _unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def projective(n):
    rays = [_unit(n, i) for i in range(n)] + [[-1] * n]
    return n, rays, [list(c) for c in itertools.combinations(range(n + 1), n)]


def affine(n):
    return n, [_unit(n, i) for i in range(n)], [list(range(n))]


def hirzebruch(a):
    return 2, [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]


def product(f, g):
    (n, rays_f, cones_f), (m, rays_g, cones_g) = f, g
    rays = [list(r) + [0] * m for r in rays_f] + [[0] * n + list(r) for r in rays_g]
    cones = [list(a) + [len(rays_f) + i for i in b] for a in cones_f for b in cones_g]
    return n + m, rays, cones


def _faces(cones):
    out = set()
    for c in cones:
        for k in range(len(c) + 1):
            out.update(frozenset(s) for s in itertools.combinations(c, k))
    return out


def _ladder(rng, size):
    """(name, raw fan, brute-force point count at prime p)."""
    def oracle(name, *args):
        def count(p):
            import oracles
            return getattr(oracles, name)(*args, p)
        return count

    def times(f, g):
        return lambda p: f(p) * g(p)

    p1 = oracle("projective_points", 1)
    ladder = [("P^1", projective(1), p1),
              ("P^2", projective(2), oracle("projective_points", 2)),
              ("A^2", affine(2), oracle("affine_points", 2))]
    if size == "full":
        ladder += [
            ("P^3", projective(3), oracle("projective_points", 3)),
            ("P^4", projective(4), oracle("projective_points", 4)),
            ("(P^1)^2", product(projective(1), projective(1)), oracle("product_p1_p1_points")),
            ("(P^1)^3", product(product(projective(1), projective(1)), projective(1)),
             times(oracle("product_p1_p1_points"), p1)),
            ("P^2xP^1", product(projective(2), projective(1)),
             times(oracle("projective_points", 2), p1)),
            ("A^3", affine(3), oracle("affine_points", 3)),
            ("A^4", affine(4), oracle("affine_points", 4)),
        ]
    # H_a is a P^1-bundle over P^1, so #H_a(F_p) = #(P^1 x P^1)(F_p)
    for a in sorted(rng.sample(range(1, 16), 3 if size == "full" else 1)):
        count = oracle("hirzebruch1_points") if a == 1 else oracle("product_p1_p1_points")
        ladder.append((f"H_{a}", hirzebruch(a), count))
    return ladder


def make_jobs(seed: int, size: str, workdir) -> list[Job]:
    rng = random.Random(seed)
    ladder = _ladder(rng, size)
    rng.shuffle(ladder)
    jobs = []
    for name, raw, brute in ladder:
        jobs += _fan_jobs(name, raw, brute)
    return jobs


def _fan_jobs(name, raw, brute):
    rank, rays, cones = raw
    faces = _faces(cones)
    expected_ranks = sorted(rank - len(c) for c in faces)
    state = {}

    def make():
        state["fan"] = fans.make_fan(rank, rays, cones)
        return len(state["fan"].cones)

    def check_make(n_cones):
        assert n_cones == len(faces), f"{n_cones} cones, expected {len(faces)}"

    def kato():
        state["X"] = fans.kato(state["fan"])
        return len(state["X"].points)

    def check_kato(n_points):
        assert n_points == len(faces), f"{n_points} points, expected {len(faces)}"

    def fan_in_zn():
        fz = fans.fan_in_zn(state["fan"])
        return fz.ok, [str(v) for v in fz.violations]

    def check_fan_in_zn(out):
        assert out[0], f"fan conditions violated: {out[1]}"

    def count():
        orbit = counting.orbit_count_polynomial(state["fan"])
        state["orbit"] = orbit
        return [(q, counting.count_points(state["X"], q).count, orbit(q)) for q in QS]

    def check_count(rows):
        for q, n, by_orbit in rows:
            assert n == by_orbit, f"q={q}: count {n} != orbit formula {by_orbit}"
            if q in ORACLE_PRIMES:
                assert n == brute(q), f"q={q}: count {n} != brute force {brute(q)}"

    def polynomial():
        cf = counting.counting_polynomial(state["X"])
        state["N"] = cf.as_polynomial()
        return state["N"].coefficients, state["orbit"].coefficients

    def check_polynomial(out):
        assert out[0] == out[1], f"counting polynomial {out[0]} != orbit {out[1]}"

    def torify():
        T = torified.orbit_torification(state["X"])
        return list(T.ranks), torified.verify_torification(T, state["N"])

    def check_torify(out):
        ranks, verified = out
        assert verified, "orbit torification does not verify"
        assert sorted(ranks) == expected_ranks, f"torus ranks {ranks}"
        for p in ORACLE_PRIMES:
            assert sum((p - 1) ** r for r in ranks) == brute(p), f"tori miscount at p={p}"

    stages = [("make_fan", make, check_make), ("kato", kato, check_kato),
              ("fan_in_zn", fan_in_zn, check_fan_in_zn), ("count_points", count, check_count),
              ("counting_polynomial", polynomial, check_polynomial),
              ("orbit_torification", torify, check_torify)]
    return [Job(f"{name}:{stage}", run, check) for stage, run, check in stages]
