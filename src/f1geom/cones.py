"""Exact rational polyhedral cones: duals, faces, Hilbert bases.

Cones are given by primitive integer ray generators plus an optional
lineality basis.  Duals are computed by the double description method
over exact integers (the fraction-free kernel of `intlinalg`).  A Hilbert
basis in Z^2 is the Hirzebruch-Jung chain of the two extremal rays (Oda
1988, Sec. 1.6).  In ranks 3-4 a simplicial cone has one fundamental
parallelepiped, walked coset by coset from a Smith form; any other cone
is cut into such cones by pulling through its own face lattice, with no
dual but its own.  The points are reduced in order of a positive grading
(the Normaliz route, Bruns-Ichim 2010).  Everything runs at desk scale:
the public dual/Hilbert operations enforce LIMITS["lattice_rank"] = 4.

No dual is taken for a smooth fan cone's monoids (`cone_monoid_generators`).
Inputs still repeat: in one cold seed-1 benchmark pass, 77 of toric's 87
`double_description` calls repeat an earlier input (`make_fan`'s relation
duals), 103 of cli_corpus's 113 (those, and recession cones of monoids
built again) and 65 of hilbert's 144 (`saturate` asking again for a
recession cone's dual).  So `double_description` keeps the results of its
last `DD_MEMO_SIZE` distinct inputs in a bounded LRU memo; they are tuples
of tuples, so sharing them is safe.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .intlinalg import (
    diagonal_of,
    dot,
    identity_matrix,
    independent_indices,
    kernel_basis,
    primitive_vector,
    rat_rank,
    scaled_inverse,
    smith_normal_form,
    transpose,
    unimodular_inverse,
)
from .limits import LIMITS

RANK_CAP = LIMITS["lattice_rank"]
DD_MEMO_SIZE = 256  # distinct inputs kept (LRU): relation duals, recession cones


class ConeError(ValueError):
    pass


class ResourceCapError(ConeError):
    pass


def signed_rows(rays, lineality) -> list[list[int]]:
    """cone(rays) + span(lineality) as one list of generators: each ray,
    then +v and -v for each lineality vector, in that order.  Read as
    inequality rows a.x >= 0, the list cuts out the dual cone."""
    rows = [list(r) for r in rays]
    for v in lineality:
        rows.append(list(v))
        rows.append([-x for x in v])
    return rows


def _canonical_rays(rays, rank):
    out = set()
    for r in rays:
        if len(r) != rank:
            raise ConeError(f"ray {r!r} has length {len(r)}, expected {rank}")
        if any(x != 0 for x in r):
            out.add(primitive_vector(r))
    return tuple(sorted(out))


@dataclass(frozen=True)
class RationalCone:
    """cone(rays) + span(lineality) in Q^rank, rays primitive and lex-sorted."""

    rank: int
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def make(rays, rank=None, lineality=()):
        rays = list(rays)
        if rank is None:
            if not rays and not lineality:
                raise ConeError("cannot infer rank of the zero cone; pass rank")
            rank = len(rays[0]) if rays else len(lineality[0])
        return RationalCone(rank, _canonical_rays(rays, rank),
                            tuple(tuple(v) for v in lineality))

    @cached_property
    def dim(self) -> int:
        vecs = [list(r) for r in self.rays] + [list(v) for v in self.lineality]
        return rat_rank(vecs) if vecs else 0

    @cached_property
    def simplicial(self) -> bool:
        return not self.lineality and rat_rank([list(r) for r in self.rays]) == len(self.rays)

    @cached_property
    def _dual_data(self):
        return double_description(signed_rows(self.rays, self.lineality), self.rank)

    @property
    def inequalities(self) -> list[list[int]]:
        """Rows a with a.x >= 0 exactly on the cone: the facet normals, then
        both signs of each equation."""
        lin, normals = self._dual_data
        return signed_rows(normals, lin)

    @property
    def facet_normals(self) -> tuple[tuple[int, ...], ...]:
        return self._dual_data[1]

    @cached_property
    def effective_lineality(self) -> tuple[tuple[int, ...], ...]:
        """Lattice basis of {x in cone : -x in cone} (may exceed the declared one)."""
        lin, rays = self._dual_data
        rows = [list(u) for u in rays] + [list(v) for v in lin]
        if not rows:
            return tuple(tuple(v) for v in identity_matrix(self.rank))
        return tuple(tuple(v) for v in kernel_basis(rows))

    @property
    def pointed(self) -> bool:
        return not self.effective_lineality

    def contains(self, x) -> bool:
        if len(x) != self.rank:
            raise ConeError("dimension mismatch")
        lin, rays = self._dual_data
        return all(dot(u, x) >= 0 for u in rays) and all(dot(v, x) == 0 for v in lin)

    def __str__(self):
        lin = f" + lines{list(self.lineality)}" if self.lineality else ""
        return f"cone{list(self.rays)}{lin}"


def cone(*rays, rank=None):
    return RationalCone.make(rays, rank=rank)


# --- double description ------------------------------------------------------

def double_description(ineq_rows: list, n: int):
    """V-representation of {x in Q^n : a.x >= 0 for all rows a}.

    Returns (lineality_basis, rays) as primitive integer vectors.  This is
    the classic incremental algorithm, run on the pointed quotient after
    the lineality space (the kernel of the inequality matrix) is split off.
    Results are memoized by `_double_description` on the input rows.
    """
    return _double_description(tuple(tuple(r) for r in ineq_rows), n)


@lru_cache(maxsize=DD_MEMO_SIZE)
def _double_description(ineq_rows: tuple, n: int):
    rows = [list(r) for r in ineq_rows if any(x != 0 for x in r)]
    if not rows:
        return tuple(tuple(v) for v in identity_matrix(n)), ()
    lin = kernel_basis(rows)
    l = len(lin)
    d = n - l
    if d == 0:
        return tuple(tuple(v) for v in lin), ()

    # lattice coordinates splitting off the (saturated) kernel
    _, lift_cols = _lineality_complement(lin, n)

    # inequalities in quotient coordinates: b.y >= 0 with b_j = a . lift_col_j
    ineqs = []
    for a in rows:
        b = tuple(dot(a, c) for c in lift_cols)
        if any(x != 0 for x in b) and b not in ineqs:
            ineqs.append(b)

    # initial simplicial cone from d independent inequalities
    chosen = [ineqs[i] for i in independent_indices(ineqs)]
    assert len(chosen) == d, "pointed part must have a full-rank inequality system"
    rest = [b for b in ineqs if b not in chosen]

    # rays of {y : B0 y >= 0} are the columns of B0^{-1}
    rays = [primitive_vector(col) for col in transpose(scaled_inverse(chosen)[1])]
    processed = list(chosen)

    for b in rest:
        pos = [r for r in rays if dot(b, r) > 0]
        zero = [r for r in rays if dot(b, r) == 0]
        neg = [r for r in rays if dot(b, r) < 0]
        if neg:
            zerosets = {r: frozenset(i for i, a in enumerate(processed) if dot(a, r) == 0)
                        for r in rays}
            new_rays = []
            for rp, rn in itertools.product(pos, neg):
                common = zerosets[rp] & zerosets[rn]
                adjacent = not any(
                    r3 is not rp and r3 is not rn and common <= zerosets[r3] for r3 in rays
                )
                if adjacent:
                    comb = [dot(b, rp) * x - dot(b, rn) * y for x, y in zip(rn, rp)]
                    new_rays.append(primitive_vector(comb))
            rays = list(dict.fromkeys(pos + zero + new_rays))
        processed.append(b)

    lifted = sorted(
        primitive_vector([sum(lift_cols[j][i] * r[j] for j in range(d)) for i in range(n)])
        for r in rays
    )
    return tuple(tuple(v) for v in lin), tuple(lifted)


def _lineality_complement(lin, n: int):
    """Split Z^n along the saturated lattice spanned by ``lin``.

    Returns (proj, lift_cols): the n - l rows of an integer projection
    onto a complement, and n - l columns lifting it back, so that
    proj . lift_col_j = e_j and proj kills lin.
    """
    if not lin:
        return identity_matrix(n), identity_matrix(n)
    l = len(lin)
    U, _, _ = smith_normal_form(transpose([list(v) for v in lin]))  # n x l
    Uinv = unimodular_inverse(U)
    return U[l:], [[Uinv[i][l + j] for i in range(n)] for j in range(n - l)]


def intersection(cone_list, rank: int) -> RationalCone:
    """The intersection of cones of the given rank (all of Q^rank if none)."""
    rows = [a for c in cone_list for a in c.inequalities]
    lin, rays = double_description(rows, rank)
    return RationalCone(rank, rays, lin)


def pullback_generators(rows, basis) -> tuple[tuple[int, ...], ...]:
    """Monoid generators of {x in the lattice the k basis vectors span :
    a . x >= 0 for all rows a}, as ambient vectors sum_j c_j basis_j."""
    k = len(basis)
    lin, rays = double_description([[dot(a, b) for b in basis] for a in rows], k)
    return tuple(tuple(sum(c * b[i] for c, b in zip(h, basis)) for i in range(len(basis[0])))
                 for h in lattice_monoid_generators(RationalCone(k, rays, lin)))


def dual_cone(sigma: RationalCone) -> RationalCone:
    """Dual cone {u : <u,v> >= 0 for all v in sigma}, lineality made explicit."""
    if sigma.rank > RANK_CAP:
        raise ResourceCapError(f"dual_cone capped at lattice rank {RANK_CAP} "
                               "(LIMITS['lattice_rank'])")
    return _dual_uncapped(sigma)


def _dual_uncapped(sigma: RationalCone) -> RationalCone:
    lin, rays = sigma._dual_data
    return RationalCone(sigma.rank, rays, lin)


def faces(sigma: RationalCone) -> list[RationalCone]:
    """All faces of sigma, including the minimal face and sigma itself."""
    return [RationalCone(sigma.rank, tuple(sigma.rays[i] for i in sorted(s)),
                         sigma.effective_lineality)
            for s in sorted(face_index_sets(sigma), key=lambda s: (len(s), sorted(s)))]


def face_index_sets(sigma: RationalCone) -> set[frozenset[int]]:
    """Faces of sigma as subsets of ray indices (fixpoint of facet cuts)."""
    _, normals = sigma._dual_data
    full = frozenset(range(len(sigma.rays)))
    found = {full}
    queue = [full]
    while queue:
        s = queue.pop()
        for u in normals:
            cut = frozenset(i for i in s if dot(u, sigma.rays[i]) == 0)
            if cut not in found:
                found.add(cut)
                queue.append(cut)
    return found


# --- Hilbert bases -----------------------------------------------------------

@dataclass(frozen=True)
class HilbertBasis:
    cone: RationalCone
    vectors: tuple[tuple[int, ...], ...]


def _simplices(sigma: RationalCone) -> list[tuple[int, ...]]:
    """Cover a pointed cone by simplicial cones of its dimension (ray index
    tuples): the pulling subdivision read off sigma's own face lattice
    (De Loera-Rambau-Santos 2010, Triangulations, Sec. 4.3).

    A face F with independent rays is one simplex.  Any other F is covered
    by cone(v, S), v = min(F), S over the simplices of each facet G of F
    with v not in G.  For x in F, x - t v leaves the pointed F at some
    t >= 0, through a facet G whose normal a (in F's span) has a.v > 0; so
    x - t v is in G, covered by some S, and v is not in span(G).  Nothing
    needs v to be extremal.
    """
    if sigma.simplicial:
        return [tuple(range(len(sigma.rays)))]
    face_sets = face_index_sets(sigma)
    dim = {F: rat_rank([list(sigma.rays[i]) for i in F]) for F in face_sets}
    cover = {}
    for F in sorted(face_sets, key=dim.get):  # a face's facets come before it
        if dim[F] == len(F):
            cover[F] = [tuple(sorted(F))]
        else:
            v = min(F)
            cover[F] = [(v,) + S for G in face_sets if G < F and v not in G
                        and dim[G] == dim[F] - 1 for S in cover[G]]
    return cover[frozenset(range(len(sigma.rays)))]


def _parallelepiped_points(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Lattice points of {sum t_i v_i : 0 <= t_i < 1} for independent v_i.

    With U V W = D the Smith form of the n x k matrix V of columns v_i, V t
    is integral iff t = W D^-1 y for an integer y, and y mod (d_1, ..., d_k)
    indexes the points one to one: one point V frac(t) per coset of V Z^k
    in its saturation.  Scaled by d_k, which every d_i divides, t is integral.
    The walk is a mixed-radix counter over the d_i > 1: a digit adds its step
    to scale * frac(t) and V step / scale to the point, minus v_j for each t_j
    that wraps; its d_i-th step brings t back to where the digit started.
    """
    _, D, W = smith_normal_form(transpose([list(v) for v in vectors]))
    d = diagonal_of(D)
    scale = d[-1]
    digits = []  # (radix, step of scale * frac(t), step of the point)
    for i, di in enumerate(d):
        if di > 1:
            step = [row[i] * (scale // di) % scale for row in W]
            digits.append((di, step, [dot(step, col) // scale for col in zip(*vectors)]))
    t, x, y = [0] * len(vectors), [0] * len(vectors[0]), [0] * len(digits)
    pts = [tuple(x)]
    while True:
        for i, (di, step, move) in enumerate(digits):
            for j, s in enumerate(step):
                t[j] += s
                if t[j] >= scale:
                    t[j] -= scale
                    x = [a - b for a, b in zip(x, vectors[j])]
            x = [a + b for a, b in zip(x, move)]
            y[i] += 1
            if y[i] < di:
                break
            y[i] = 0
        else:
            return pts
        pts.append(tuple(x))


def hilbert_basis(sigma: RationalCone) -> HilbertBasis:
    """Minimal generating set of sigma cap Z^n for a pointed cone."""
    if sigma.rank > RANK_CAP:
        raise ResourceCapError(f"hilbert_basis capped at lattice rank {RANK_CAP} "
                               "(LIMITS['lattice_rank'])")
    if not sigma.pointed:
        raise ConeError("cone is not pointed; split off the lineality (unit) part first")
    return HilbertBasis(sigma, _hilbert_vectors(sigma))


def _hilbert_vectors(sigma: RationalCone) -> tuple[tuple[int, ...], ...]:
    """Hilbert basis of a pointed cone.  In Z^2 it is the Hirzebruch-Jung
    chain.  Otherwise the rays and the parallelepiped points of each cone
    `_simplices` covers sigma by (sigma itself, if simplicial) are reduced
    in order of the grading sum(facet_normals), positive on sigma - 0.

    Every candidate lies in the span of sigma, so h - c is in sigma iff
    u.h >= u.c for every facet normal u.  If h = a + b with a, b nonzero
    lattice points of sigma, an irreducible c summing into a has lower
    degree than h and h - c in sigma; so testing h only against the
    irreducibles of strictly lower degree is exact.
    """
    if not sigma.rays:
        return ()
    normals = sigma.facet_normals
    if sigma.rank == 2 and len(normals) == 2:
        return _hirzebruch_jung(*(next(r for r in sigma.rays if dot(u, r) == 0)
                                  for u in normals))
    candidates: set[tuple[int, ...]] = set(sigma.rays)
    for simplex in _simplices(sigma):
        candidates.update(_parallelepiped_points([sigma.rays[i] for i in simplex]))
    candidates.discard((0,) * sigma.rank)
    grading = [sum(column) for column in zip(*normals)]
    basis: list[tuple[int, ...]] = []
    slacks: list[tuple[int, ...]] = []  # (u.c for u in normals) per basis element c
    lower, degree = 0, None  # basis[:lower] has degree below h's
    for h in sorted(candidates, key=lambda h: dot(grading, h)):
        deg = dot(grading, h)
        if deg != degree:
            lower, degree = len(basis), deg
        s = tuple(dot(u, h) for u in normals)
        if not any(all(a >= b for a, b in zip(s, sc)) for sc in slacks[:lower]):
            basis.append(h)
            slacks.append(s)
    return tuple(sorted(basis))


def _hirzebruch_jung(u, v) -> tuple[tuple[int, ...], ...]:
    """Hilbert basis of the cone over independent primitive u, v in Z^2: the
    chain u = u_0, u_1, ..., u_m = v with u_{i+1} = b_i u_i - u_{i-1}, each
    neighbour pair a lattice basis (Oda 1988, Convex Bodies and Algebraic
    Geometry, Sec. 1.6).  It costs its length, whatever det(u, v) is."""
    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    if det(u, v) < 0:
        u, v = v, u
    x = pow(u[0], -1, abs(u[1])) if u[1] else u[0]  # u_0 x = 1 mod u_1, as u is primitive
    w = ((u[0] * x - 1) // u[1] if u[1] else 0, x)  # det(u, w) = 1
    m = -(-det(v, w) // det(u, v))  # u_1 = w + m u: height 1 over u, nearest to u
    chain = [u, (w[0] + m * u[0], w[1] + m * u[1])]
    while chain[-1] != v:  # the heights det(u_i, v) fall strictly to 0
        (p0, p1), (c0, c1) = chain[-2], chain[-1]
        b = -(-det(chain[-2], v) // det(chain[-1], v))
        chain.append((b * c0 - p0, b * c1 - p1))
    return tuple(sorted(chain))


def lattice_monoid_generators(sigma: RationalCone) -> tuple[tuple[int, ...], ...]:
    """Generators of the monoid sigma cap Z^n, lineality allowed.

    For a non-pointed cone: Hilbert basis of the pointed quotient, lifted
    back, plus +/- a lattice basis of the lineality.  Internal helper, no
    rank cap (callers such as the fan functor stay at fan rank).
    """
    n = sigma.rank
    lin = sigma.effective_lineality
    if not lin:
        return _hilbert_vectors(sigma)
    proj, lift_cols = _lineality_complement(lin, n)
    qcone = RationalCone.make([[dot(p, r) for p in proj] for r in sigma.rays], rank=len(proj))
    gens = {tuple(sum(c[i] * x for c, x in zip(lift_cols, h)) for i in range(n))
            for h in _hilbert_vectors(qcone)}
    for v in lin:
        gens.add(tuple(v))
        gens.add(tuple(-x for x in v))
    return tuple(sorted(gens))


def cone_monoid_generators(sigma: RationalCone):
    """(generators of sigma cap Z^n, generators of sigma^dual cap Z^n), the
    tuples `lattice_monoid_generators` gives for sigma and `_dual_uncapped(sigma)`.

    Smooth route (Fulton 1993, Sec. 2.1): for k independent rays R whose
    Smith form U R V = (I_k | 0) has only unit invariant factors, the rays
    are part of a lattice basis, so sigma cap Z^n is generated by R.  The
    last n - k columns of V are kernel_basis(R), a basis of the lineality
    sigma^perp cap Z^n, and the columns of V[:, :k] U are the dual vectors
    e_i* of the rays (R V[:, :k] U = I).  sigma^dual cap Z^n is generated by
    the e_i* and +/- the lineality basis.  Each e_i* is written as
    `lattice_monoid_generators` lifts its quotient Hilbert basis, lift_cols .
    proj(e_i*), so the tuples match; no dual and no Hilbert basis is built.
    Cones with lineality, dependent rays or an invariant factor above 1
    take double description and Hilbert bases.
    """
    n, rays = sigma.rank, sigma.rays
    k = len(rays)
    smooth = not sigma.lineality and k <= n
    if smooth and rays:
        U, D, V = smith_normal_form([list(r) for r in rays])
        smooth = all(D[i][i] == 1 for i in range(k))
    if not smooth:
        return lattice_monoid_generators(sigma), lattice_monoid_generators(_dual_uncapped(sigma))
    if rays:
        lin = [[row[j] for row in V] for j in range(k, n)]
        duals = [[dot(row[:k], col) for row in V] for col in zip(*U)]
    else:  # the zero cone, whose dual is all of Z^n
        lin, duals = identity_matrix(n), []
    if lin and duals:
        proj, lift_cols = _lineality_complement(lin, n)
        hs = ([dot(p, x) for p in proj] for x in duals)
        duals = [[sum(c[i] * y for c, y in zip(lift_cols, h)) for i in range(n)] for h in hs]
    gens = {tuple(x) for x in duals}
    for v in lin:
        gens.add(tuple(v))
        gens.add(tuple(-x for x in v))
    return rays, tuple(sorted(gens))
