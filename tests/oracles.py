"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates honestly (vectors, matrices, subspaces,
lattice points, subsets, fractions) and stays deliberately unaware of
the library's stalk/SNF formulas, so the two routes cross-check each
other.  The table-monoid oracles build their results with the library's
table constructors, and the unit-group presentation is reduced by its
`quotient_invariants`, a route the table monoids themselves do not take.
"""
import itertools
import math
from fractions import Fraction


def projective_points(n: int, p: int) -> int:
    """#P^n(F_p) by enumerating nonzero vectors mod scalars (p prime)."""
    count = 0
    for v in itertools.product(range(p), repeat=n + 1):
        if not any(v):
            continue
        lead = next(x for x in v if x)
        if lead == 1:  # normalized representative: first nonzero coord is 1
            count += 1
    return count


def affine_points(n: int, p: int) -> int:
    return sum(1 for _ in itertools.product(range(p), repeat=n))


def lines_through_origin(p: int) -> int:
    """Lines in F_p^2, counted by grouping scalar orbits of nonzero vectors."""
    lines = set()
    for v in itertools.product(range(p), repeat=2):
        if not any(v):
            continue
        orbit = frozenset(((l * v[0]) % p, (l * v[1]) % p) for l in range(1, p))
        lines.add(orbit)
    return len(lines)


def hirzebruch1_points(p: int) -> int:
    """Points of {((s:t),(x:y:z)) : s y = t x} in P^1 x P^2 over F_p."""
    def proj_reps(n):
        reps = []
        for v in itertools.product(range(p), repeat=n + 1):
            if any(v) and next(x for x in v if x) == 1:
                reps.append(v)
        return reps

    count = 0
    for (s, t) in proj_reps(1):
        for (x, y, z) in proj_reps(2):
            if (s * y - t * x) % p == 0:
                count += 1
    return count


def product_p1_p1_points(p: int) -> int:
    return lines_through_origin(p) ** 2


def count_matrices(group: str, p: int) -> int:
    """2x2 matrices over F_p with det = 1 (SL2) or det != 0 (GL2)."""
    count = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        det = (a * d - b * c) % p
        if (group == "SL2" and det == 1) or (group == "GL2" and det != 0):
            count += 1
    return count


def count_subspaces(k: int, n: int, p: int) -> int:
    """k-dimensional subspaces of F_p^n, by row-space deduplication."""
    vectors = list(itertools.product(range(p), repeat=n))
    spaces = set()
    for rows in itertools.product(vectors, repeat=k):
        span = set()
        for coeffs in itertools.product(range(p), repeat=k):
            v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                      for i in range(n))
            span.add(v)
        if len(span) == p ** k:
            spaces.add(frozenset(span))
    return len(spaces)


def count_group_homs(factors, m: int) -> int:
    """#Hom(Z/d_1 x ... x Z/d_r, Z/m) by enumerating generator images."""
    count = 0
    for images in itertools.product(range(m), repeat=len(factors)):
        if all((d * x) % m == 0 for d, x in zip(factors, images)):
            count += 1
    return count


def subgroup_order_counts(vectors, torsion) -> dict:
    """{order: number of elements} of the subgroup of Z/d_1 x ... x Z/d_t
    that the vectors generate, found by closing {0} under adding them."""
    group = {tuple(0 for _ in torsion)}
    frontier = set(group)
    while frontier:
        frontier = {tuple((a + b) % d for a, b, d in zip(x, v, torsion))
                    for x in frontier for v in vectors} - group
        group |= frontier
    counts = {}
    for x in group:
        order = 1
        for a, d in zip(x, torsion):
            k = d // math.gcd(a, d)
            order = order * k // math.gcd(order, k)
        counts[order] = counts.get(order, 0) + 1
    return counts


def subgroup_invariants_by_kernel(vectors, free_rank, torsion):
    """The kernel route to the subgroup H of Z^r (+) Z/d_1 (+) ... that the
    vectors v_1, ..., v_m generate: H = Z^m modulo {c : sum c_i v_i lies in
    the torsion relations}, the first m coordinates of the kernel of the
    columns [v_1 ... v_m | d_j e_{r+j}]."""
    from f1geom.intlinalg import kernel_basis, quotient_invariants, transpose

    m, r, t = len(vectors), free_rank, len(torsion)
    if m == 0 or r + t == 0:
        return 0, []
    cols = [list(v) for v in vectors] + [[d if i == r + j else 0 for i in range(r + t)]
                                        for j, d in enumerate(torsion)]
    return quotient_invariants(m, [c[:m] for c in kernel_basis(transpose(cols))])


def truncated_primes_of_free_monoid(n: int, degree: int = 2):
    """Prime-like subsets of the degree-bounded monomials of N^n.

    A subset P of the monomials with total degree <= ``degree`` is a prime
    truncation if it is an ideal within the window and satisfies
    ab in P iff a in P or b in P whenever deg(ab) stays in the window.
    """
    monomials = [m for m in itertools.product(range(degree + 1), repeat=n)
                 if sum(m) <= degree]
    nonunits = [m for m in monomials if any(m)]
    found = []
    for bits in itertools.product((0, 1), repeat=len(nonunits)):
        P = {m for m, b in zip(nonunits, bits) if b}
        ok = True
        for a in monomials:
            for b in monomials:
                ab = tuple(x + y for x, y in zip(a, b))
                if sum(ab) > degree:
                    continue
                if (ab in P) != (a in P or b in P):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(frozenset(P))
    return found


def table_primes_by_subsets(M):
    """Prime ideals of a table monoid as element sets, by trying every
    subset p of the non-units (holding the zero, if M has one): p is prime
    when it is an ideal whose complement is closed under the product.
    Sorted by size, then by the sorted element names."""
    units = set(M.unit_elements)
    nonunits = [a for a in M.elements if a not in units]
    found = []
    for k in range(len(nonunits) + 1):
        for combo in itertools.combinations(nonunits, k):
            p = set(combo)
            if M.pointed and M.zero not in p:
                continue
            comp = [a for a in M.elements if a not in p]
            if not all(M.op(a, b) not in p for a in comp for b in comp):
                continue
            if not all(M.op(a, m) in p for a in p for m in M.elements):
                continue
            found.append(frozenset(p))
    return sorted(found, key=lambda p: (len(p), tuple(sorted(map(str, p)))))


def table_localization_by_fractions(M, prime):
    """(M_p, hom M -> M_p) for a table monoid M and an element set prime:
    the fractions a/s, s outside p, closed into classes by a/s ~ b/t iff
    u t a = u s b for some u outside p; each class is labelled by its least
    member under (str(a), str(s)), written a/s, or a if s is the identity."""
    from f1geom.monoid import MonoidHom, TableMonoid

    S = [a for a in M.elements if a not in prime]
    pairs = [(a, s) for a in M.elements for s in S]

    def equivalent(p1, p2):
        (a, s), (b, t) = p1, p2
        return any(M.op(M.op(u, t), a) == M.op(M.op(u, s), b) for u in S)

    classes = []
    for pair in pairs:
        for cls in classes:
            if equivalent(pair, cls[0]):
                cls.append(pair)
                break
        else:
            classes.append([pair])
    labels = {}
    for cls in classes:
        rep = min(cls, key=lambda pair: (str(pair[0]), str(pair[1])))
        name = f"{rep[0]}/{rep[1]}" if rep[1] != M.identity else f"{rep[0]}"
        for pair in cls:
            labels[pair] = name
    table = {(labels[a, s], labels[b, t]): labels[M.op(a, b), M.op(s, t)]
             for a, s in pairs for b, t in pairs}
    one = M.identity
    zero = labels[M.zero, one] if M.pointed else None
    loc = TableMonoid.make(sorted(set(labels.values())), table, identity=labels[one, one],
                           zero=zero)
    return loc, MonoidHom.table(M, loc, {a: labels[a, one] for a in M.elements})


def table_restriction_by_fractions(M, hom_q, hom_p) -> dict:
    """The map A_q -> A_p of two localization homs of a table monoid M,
    sending each fraction hom_q(a) hom_q(s)^-1, s a unit in A_q, to
    hom_p(a) hom_p(s)^-1; inverses are found by search."""
    Aq, Ap = hom_q.target, hom_p.target

    def inverse(A, u):
        return next((v for v in A.elements if A.op(u, v) == A.identity), None)

    out = {}
    for s in M.elements:
        inv_q = inverse(Aq, hom_q.apply(s))
        if inv_q is not None:
            inv_p = inverse(Ap, hom_p.apply(s))
            for a in M.elements:
                out.setdefault(Aq.op(hom_q.apply(a), inv_q), Ap.op(hom_p.apply(a), inv_p))
    return out


def table_unit_invariants(M):
    """(free rank, invariant factors) of a table monoid's unit group U,
    presented on generators e_u, u in U, by the relations
    e_a + e_b - e_ab for all a, b in U."""
    from f1geom.intlinalg import quotient_invariants

    units = list(M.unit_elements)
    index = {u: i for i, u in enumerate(units)}
    relations = []
    for i, a in enumerate(units):
        for b in units[i:]:
            rel = [0] * len(units)
            rel[index[a]] += 1
            rel[index[b]] += 1
            rel[index[M.op(a, b)]] -= 1
            relations.append(rel)
    return quotient_invariants(len(units), relations)


def table_is_cancellative(M) -> bool:
    """No nonzero a has a x = 0 or a x = a y with x != y for nonzero x, y."""
    nz = [a for a in M.elements if a != M.zero]
    return not any((M.pointed and M.op(a, x) == M.zero)
                   or any(x != y and M.op(a, x) == M.op(a, y) for y in nz)
                   for a in nz for x in nz)


def integral_by_stalks(X) -> bool:
    """The per-stalk route to a scheme's integrality: every point's stalk,
    its chart localized at its prime, is cancellative."""
    return all(X.stalk(p).is_integral for p in X.points)


def generated_lattice_points(gens, bound: int, torsion=()):
    """All nonnegative-integer combinations of gens whose free coordinates
    (all but the last len(torsion)) have absolute values summing to at most
    bound, by dynamic programming; the last coordinates are read mod the
    torsion factors."""
    r = len(gens[0]) - len(torsion)
    seen = {tuple(0 for _ in gens[0])}
    frontier = set(seen)
    while frontier:
        new = set()
        for x in frontier:
            for g in gens:
                y = tuple(a + b for a, b in zip(x, g))
                y = y[:r] + tuple(a % d for a, d in zip(y[r:], torsion))
                if sum(abs(v) for v in y[:r]) <= bound and y not in seen:
                    new.add(y)
        seen |= new
        frontier = new
    return seen


def in_rational_cone(rays, x) -> bool:
    """Exact membership of x in cone(rays) via a tiny Fourier-Motzkin-free
    search over rational combinations (rays at most 3, desk scale)."""
    from itertools import combinations

    rays = [list(r) for r in rays]
    n = len(x)
    # try all subsets of rays as potential supports and solve exactly
    for k in range(len(rays) + 1):
        for sub in combinations(range(len(rays)), k):
            cols = [rays[i] for i in sub]
            sol = _solve_nonneg(cols, list(x))
            if sol is not None:
                return True
    return False


def unit_generator_indices(monoid):
    """The recession-cone route to an affine monoid's unit generators: the
    indices of the generators whose free part f has -f in the rational cone
    of all free parts, i.e. f in that cone's lineality."""
    frees = [g[:monoid.ambient_rank] for g in monoid.generators]
    rays = [f for f in frees if any(f)]
    return tuple(i for i, f in enumerate(frees) if in_rational_cone(rays, [-x for x in f]))


def is_saturated(A) -> bool:
    """Whether A contains every x in Quot(A) whose free part lies in cone(A):
    the general route, A contains each generator of its saturation."""
    from f1geom.monoid import saturation_generators

    return all(A.contains(g) for g in saturation_generators(A))


def _corner_box(vectors):
    """Per coordinate, the integer range spanned by the 0/1 combinations
    of the vectors."""
    n = len(vectors[0])
    corners = [[sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n)]
               for coeffs in itertools.product((0, 1), repeat=len(vectors))]
    return [range(min(c[i] for c in corners), max(c[i] for c in corners) + 1)
            for i in range(n)]


def parallelepiped_points(vectors):
    """Lattice points of {sum t_i v_i : 0 <= t_i < 1} for independent
    vectors: scan the integer box spanned by their 0/1 combinations and
    solve for t at every point of it."""
    points = set()
    for p in itertools.product(*_corner_box(vectors)):
        t = _solve(vectors, list(p))
        if t is not None and all(0 <= x < 1 for x in t):
            points.add(p)
    return points


def minimal_lattice_points(rays):
    """Hilbert basis of the pointed cone over rays (any signs), by
    enumeration.  By Caratheodory each element is a ray or a lattice point
    of the half-open parallelepiped of independent rays, so it lies in the
    integer box spanned by the 0/1 sums of the rays.  A point p of the cone
    there is reducible iff p - q is in the cone for some basis element q;
    so points are first dropped when p - q is a cone point of the box, and
    the rest, which keep every basis element, are compared among themselves
    exactly, since p - q may leave the box when the rays have mixed signs."""
    box = _corner_box(rays)
    points = {p for p in itertools.product(*box) if any(p) and in_rational_cone(rays, p)}

    def minus(p, q):
        return tuple(a - b for a, b in zip(p, q))

    rest = {p for p in points if not any(minus(p, q) in points for q in points)}
    return {p for p in rest
            if not any(q != p and in_rational_cone(rays, minus(p, q)) for q in rest)}


def _solve_nonneg(cols, target):
    sol = _solve(cols, target)
    if sol is None or any(s < 0 for s in sol):
        return None
    return sol


def _solve(cols, target):
    """One rational solution of sum_j x_j cols[j] = target (free variables
    0), or None if there is none."""
    if not cols:
        return [] if not any(target) else None
    m = len(target)
    aug = [[Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(target[i])]
           for i in range(m)]
    ncols = len(cols)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def mat_mul(A, B):
    """The matrix product, entry by entry."""
    if not A or not B:
        return []
    n, m, k = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(m)) for j in range(k)] for i in range(n)]


def polynomial_product(x: dict, y: dict, r: int) -> dict:
    """Product in Z[t_1..t_r] of two dicts exponent vector -> coefficient,
    multiplied as sympy polynomials."""
    import sympy

    t = sympy.symbols(f"t1:{r + 1}")
    prod = sympy.Poly.from_dict(x, *t) * sympy.Poly.from_dict(y, *t)
    return {tuple(k): int(c) for k, c in prod.terms() if c}


def cyclic_product(x: dict, y: dict, d: int) -> dict:
    """Product in Z[t]/(t^d - 1) of two dicts exponent -> coefficient: the
    sympy product of polynomials in t, then its remainder by t^d - 1."""
    import sympy

    t = sympy.Symbol("t")
    prod = sympy.Poly.from_dict(x, t) * sympy.Poly.from_dict(y, t)
    rem = prod.rem(sympy.Poly(t ** d - 1, t))
    return {k[0]: int(c) for k, c in rem.terms() if c}


def table_convolution(x: dict, y: dict, table: dict, zero=None) -> dict:
    """Product in Z[M]/(zero) of two dicts element -> coefficient, read off
    a multiplication table given on unordered pairs."""
    out = {}
    for a, c in x.items():
        for b, e in y.items():
            k = table[(a, b)] if (a, b) in table else table[(b, a)]
            if k != zero:
                out[k] = out.get(k, 0) + c * e
    return {k: c for k, c in out.items() if c}


def table_law_failure(elements, t: dict, identity, zero=None):
    """The message of the first law a full multiplication table t (on
    ordered pairs) breaks, or None: the identity and zero laws for each a,
    then for each b commutativity and associativity at every c, in that
    order, each product read off t one at a time."""
    for a in elements:
        if t[(identity, a)] != a:
            return "identity law fails"
        if zero is not None and t[(zero, a)] != zero:
            return "zero is not absorbing"
        for b in elements:
            if t[(a, b)] != t[(b, a)]:
                return "table is not commutative"
            for c in elements:
                if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]:
                    return f"associativity fails at ({a},{b},{c})"
    return None


# The element-level ring API and route of the Frobenius-lift run: every
# step builds a sorted ring element, and every product is a library
# ring_mul, one per step.

def ring_one(A):
    from f1geom.semiring import SemigroupRingElement

    return SemigroupRingElement.make(A, {A.identity: 1})


def ring_add(x, y):
    from f1geom.semiring import RingError, SemigroupRingElement

    if x.owner != y.owner:
        raise RingError("elements of different semigroup rings")
    out = x.as_dict()
    for k, c in y.coeffs:
        out[k] = out.get(k, 0) + c
    return SemigroupRingElement._unchecked(x.owner, out)


def ring_neg(x):
    from f1geom.semiring import SemigroupRingElement

    return SemigroupRingElement._unchecked(x.owner, {k: -c for k, c in x.coeffs})


def ring_sub(x, y):
    return ring_add(x, ring_neg(y))


def ring_pow(x, n: int, modulus: int = 0):
    """x^n as n repeated products with x, from the identity."""
    from f1geom.semiring import ring_mul

    out = ring_one(x.owner)
    for _ in range(n):
        out = ring_mul(out, x, modulus)
    return out


def monomial_power_map(x, k: int):
    """Coefficients kept, every support element a raised to a^k."""
    from f1geom.semiring import SemigroupRingElement

    A, out = x.owner, {}
    for a, c in x.coeffs:
        ak = A.power(a, k)
        out[ak] = out.get(ak, 0) + c
    out.pop(A.zero, None)
    return SemigroupRingElement._unchecked(A, out)


def psi(x, p: int):
    """psi_p, the lift of Frobenius: monomials a -> a^p."""
    from f1geom.semiring import RingError

    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise RingError(f"{p} is not prime")
    return monomial_power_map(x, p)


def is_frobenius_image(y, x, p: int) -> bool:
    """y == x^p coefficientwise mod p, with x^p taken in F_p[A]."""
    return all(c % p == 0 for _, c in ring_sub(y, ring_pow(x, p, modulus=p)).coeffs)


def frobenius_check(x, p: int) -> bool:
    """psi_p(x) == x^p coefficientwise mod p (the Frobenius square)."""
    return is_frobenius_image(psi(x, p), x, p)


def psi_commute(x, ps) -> bool:
    """psi_p o psi_q == psi_q o psi_p on x for every pair of ps."""
    ps = list(ps)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            if psi(psi(x, p), q) != psi(psi(x, q), p):
                return False
    return True


def frobenius_lift_by_elements(elements, ps):
    """(frobenius, commuting, control_failed) of the property run, each
    check a separate pass over the elements; the control is the corrupted
    family a -> a^(p+1)."""
    frobenius = all(frobenius_check(x, p) for x in elements for p in ps)
    commuting = all(psi_commute(x, ps) for x in elements)
    control_failed = not all(is_frobenius_image(monomial_power_map(x, p + 1), x, p)
                             for x in elements for p in ps)
    return frobenius, commuting, control_failed
