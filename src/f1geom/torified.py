"""Torifications and generalized torified triples.

A torification is a decomposition of a variety's points into split tori,
recorded as a multiset of torus ranks; its defining identity is
sum_i (q-1)^{d_i} = N(q), verified as an exact polynomial identity.
Constructors cover torus-orbit decompositions of fan schemes, cell
decompositions on the pattern of Schubert cells, and the two-cell
decompositions of the desk-scale matrix groups.  Triples (pointed monoid
scheme, counting surrogate, per-field evaluation) realize the
correspondence with functor-of-points records and carry the rational
point bookkeeping down to counts of minimal-rank points.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from math import comb

from .counting import CountingFunction, counting_polynomial
from .limits import LIMITS
from .monoid import group_monoid
from .spectrum import MScheme, glue, minimal_rank_points
from .zeta import CountingPolynomial, q_poly

SAMPLE_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


class TorifyError(ValueError):
    pass


@dataclass(frozen=True)
class Torification:
    """Multiset of torus ranks with optional labels and chart assignment.

    ``rank_counts`` holds the multiset as ascending (rank, multiplicity)
    pairs, multiplicity > 0, which is all that counting, the CLI's rank
    lists and an unlabeled torification file need: a Schubert
    torification of Gr(4, 8) has 200,787 tori but only 17 ranks.
    ``ranks``, one entry per torus in ascending order, is derived from it
    on first use, for labels, charts and torus-by-torus schemes; it
    refuses more than LIMITS['listed_tori'] tori before building anything.
    Labels are kept only when the caller supplies them or a chart
    assignment refers to tori; they are then paired with ``ranks`` entry
    by entry, tori of equal rank in the caller's order.  A chart
    assignment without labels uses the torus indices.  Otherwise
    ``labels == ()``.  ``charts`` maps a chart id to the pair (labels of
    the tori lying in the chart, the chart's own counting polynomial),
    which is what the affineness check needs.
    """

    rank_counts: tuple[tuple[int, int], ...]
    labels: tuple = ()
    charts: dict = field(default=None, compare=False)

    @staticmethod
    def make(ranks, labels=None, charts=None) -> "Torification":
        """``ranks`` is a list with one rank per torus, or, when no labels or
        charts are given, a {rank: multiplicity} mapping."""
        if labels is None and charts is None:
            return Torification(_tally(Counter(ranks)))
        ranks = [int(d) for d in ranks]
        labels = list(range(len(ranks))) if labels is None else list(labels)
        known = set(labels)
        if len(labels) != len(ranks):
            raise TorifyError("need one label per torus")
        if len(known) != len(labels):
            raise TorifyError("torus labels must be unique")
        for cid, (tori, _) in (charts or {}).items():
            for t in tori:
                if t not in known:
                    raise TorifyError(f"charts[{cid}] names torus {t!r}, which has no label")
        paired = sorted(zip(ranks, labels), key=lambda rl: rl[0])  # stable within a rank
        return Torification(_tally(Counter(ranks)), tuple(l for _, l in paired), charts)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        check_listable(self.rank_counts)
        return tuple(chain.from_iterable(repeat(r, m) for r, m in self.rank_counts))

    def count_polynomial(self) -> CountingPolynomial:
        return CountingPolynomial.of_tori(dict(self.rank_counts))


def check_listable(rank_counts) -> None:
    """Refuse to list more than LIMITS['listed_tori'] tori one by one: a
    30-byte cells file or rank_counts file can describe 2^30 of them."""
    count = sum(m for _, m in rank_counts)
    if count > LIMITS["listed_tori"]:
        raise TorifyError(f"{count} tori are more than the {LIMITS['listed_tori']} that can be "
                          "listed one by one (LIMITS['listed_tori'])")


def _tally(tori: Counter) -> tuple[tuple[int, int], ...]:
    """Ascending (rank, multiplicity) pairs of a rank Counter, zero
    multiplicities dropped."""
    tally = tuple(sorted((int(r), m) for r, m in tori.items() if m))
    if any(r < 0 or m < 0 for r, m in tally):
        raise TorifyError("torus ranks and multiplicities must be nonnegative")
    return tally


@dataclass(frozen=True)
class CellComplex:
    """Affine cells over base tori: pairs (cell dimension, base torus rank).

    Schubert-style data has base rank 0 throughout; the matrix-group cells
    carry the rank of the diagonal torus.
    """

    cells: tuple[tuple[int, int], ...]

    @staticmethod
    def make(cells) -> "CellComplex":
        out = []
        for c in cells:
            d, base = int(c[0]), int(c[1])
            if d < 0 or base < 0:
                raise TorifyError("cell dimensions must be nonnegative")
            out.append((d, base))
        return CellComplex(tuple(sorted(out)))

    def torification(self) -> Torification:
        return Torification.make(torify_cells(self.cells))

    def count_polynomial(self) -> CountingPolynomial:
        out = CountingPolynomial.make([])
        for d, base in self.cells:
            qd = CountingPolynomial.make([0] * d + [1])
            out = out + CountingPolynomial.of_tori([base]) * qd
        return out


def verify_torification(T: Torification, N: CountingPolynomial) -> bool:
    """sum (q-1)^{d_i} == N(q), compared exactly."""
    return T.count_polynomial() == N


def is_affinely_torified(T: Torification):
    """Every chart's assigned tori must verify the chart's own counting
    polynomial.  Without an assignment the result is indeterminate."""
    if T.charts is None:
        return None, ["no chart assignment present; affineness is indeterminate"]
    by_label = dict(zip(T.labels, T.ranks))
    failures = []
    for chart_id, (label_list, chart_poly) in sorted(T.charts.items(), key=lambda kv: str(kv[0])):
        tori = CountingPolynomial.of_tori(by_label[l] for l in label_list)
        if tori != chart_poly:
            failures.append(
                f"chart {chart_id}: tori sum to {tori}, "
                f"chart counts {chart_poly}")
    return (not failures), failures


# --- constructors ---------------------------------------------------------------

def orbit_torification(X: MScheme) -> Torification:
    """One torus per fan cone, of rank n - dim(cone); the chart assignment
    collects the faces of each maximal cone, so the torification is
    affine by construction."""
    if X.fan is None:
        raise TorifyError("orbit torification needs a fan-built scheme")
    fan = X.fan
    n = fan.rank
    cone_key = {c: tuple(sorted(c)) for c in fan.cones}
    ranks, labels = [], []
    for c in fan.sorted_cones():
        ranks.append(n - len(c))
        labels.append(cone_key[c])
    charts = {}
    for mi, mc in enumerate(fan.maximal_cones):
        faces = [c for c in fan.cones if c <= mc]
        charts[mi] = (sorted(cone_key[c] for c in faces),
                      CountingPolynomial.of_tori(n - len(c) for c in faces))
    return Torification.make(ranks, labels, charts)


def torify_cells(cells) -> dict[int, int]:
    """Rank multiplicities {rank: count}, in ascending rank order, of the
    subset decomposition of (dimension, base) cells: a d-cell over a
    rank-``base`` torus splits into the 2^d tori {base + |S| : S subset
    of [d]}, so rank base + r occurs C(d, r) times.  The tori are never
    listed one by one; ``Torification.make`` takes the dict as it is."""
    mult = {}
    for d, base in cells:
        if d < 0 or base < 0:
            raise TorifyError("cell dimension and base rank must be nonnegative")
        for r in range(d + 1):
            mult[base + r] = mult.get(base + r, 0) + comb(d, r)
    return dict(sorted(mult.items()))


def box_partitions(k: int, m: int):
    """Partitions fitting in a k x m box, sorted."""
    parts = set()

    def rec(prefix, remaining_rows, cap):
        parts.add(tuple(prefix))
        if remaining_rows == 0:
            return
        for x in range(1, cap + 1):
            rec(prefix + [x], remaining_rows - 1, x)

    rec([], k, m)
    return sorted(parts)


def schubert_torification(k: int, n: int, with_pivot_charts: bool = False):
    """Cell decomposition indexed by partitions in the k x (n-k) box; the
    counting polynomial is the Gaussian binomial.

    ``with_pivot_charts`` attaches the natural chart assignment sending
    each cell's tori to the coordinate chart of its pivot columns; every
    such chart is an affine space of dimension k(n-k), so the per-chart
    identity fails except on the dense cell and the assignment witnesses
    that this torification is not affine.
    """
    if not (0 <= k <= n <= LIMITS["schubert_n"]):
        raise TorifyError(f"supported range is 0 <= k <= n <= {LIMITS['schubert_n']} "
                          "(LIMITS['schubert_n'])")
    cells = sorted(sum(p) for p in box_partitions(k, n - k))
    N = gaussian_binomial(n, k)
    if not with_pivot_charts:
        return Torification.make(torify_cells((d, 0) for d in cells)), N
    ranks, labels, charts = [], [], {}
    chart_poly = CountingPolynomial.make([0] * (k * (n - k)) + [1])  # q^{k(n-k)}
    for idx, d in enumerate(cells):
        tori = Counter(torify_cells([(d, 0)])).elements()  # one rank per torus
        cell = [(idx, d, r, seq) for seq, r in enumerate(tori)]
        ranks += [r for _, _, r, _ in cell]
        labels += cell
        charts[f"pivot-{idx}"] = (cell, chart_poly)
    return Torification.make(ranks, labels, charts), N


def bruhat_torification(group: str):
    """Two-cell decompositions of the desk-scale groups: cells are
    T x A^d with T the diagonal torus."""
    data = {
        "SL2": (1, [1, 2], q_poly(1, 0, -1, 0)),          # q^3 - q
        "GL2": (2, [1, 2], q_poly(1, -1, -1, 1, 0)),      # q^4 - q^3 - q^2 + q
    }
    if group not in data:
        raise TorifyError(f"unsupported group {group!r}; choose from {sorted(data)}")
    base, cell_dims, N = data[group]
    T = Torification.make(torify_cells((d, base) for d in cell_dims))
    assert verify_torification(T, N)
    return T, N


def weyl_group_order(group: str) -> int:
    return {"SL2": 2, "GL2": 2}[group]


def gaussian_binomial(n: int, k: int) -> CountingPolynomial:
    """[n choose k]_q by the q-Pascal recurrence."""
    if not (0 <= k <= n <= LIMITS["gaussian_n"]):
        raise TorifyError(f"supported range is 0 <= k <= n <= {LIMITS['gaussian_n']} "
                          "(LIMITS['gaussian_n'])")
    row = [q_poly(1)]
    for m in range(1, n + 1):
        new = [q_poly(1)]
        for j in range(1, m):
            qj = CountingPolynomial.make([0] * j + [1])  # q^j
            new.append(row[j - 1] + qj * row[j])
        new.append(q_poly(1))
        row = new
    return row[k]


# --- triples and the correspondence with functor-of-points records ---------------

@dataclass(frozen=True)
class GenTorifiedTriple:
    """(pointed monoid scheme, counting surrogate, per-field evaluation).

    The scheme surrogate is a counting function plus optional explicit
    point models over small fields; ``to_cc`` evaluates both sides per q
    and checks the bijection condition that equates them.
    """

    mscheme: MScheme
    counting: CountingFunction
    point_models: dict = field(default=None, compare=False)
    name: str = ""


def f_functor(X: MScheme, name: str = "") -> GenTorifiedTriple:
    """Wrap a pointed monoid scheme as the triple with identity evaluation:
    the surrogate is the scheme's own base-extension count."""
    if not X.pointed:
        raise TorifyError("the triple functor expects a pointed monoid scheme")
    return GenTorifiedTriple(X, counting_polynomial(X), name=name)


def torification_mscheme(T: Torification) -> MScheme:
    """The disjoint union of pointed torus spectra with the torification's
    ranks: the monoid-scheme side of a torified variety."""
    return glue([group_monoid(d).adjoin_zero() for d in T.ranks], [])


def triple_from_torification(T: Torification, N: CountingPolynomial,
                             point_models=None, name: str = "") -> GenTorifiedTriple:
    """Triple whose scheme side is the disjoint torus union and whose
    surrogate is the target variety's counting polynomial; valid exactly
    when the torification identity holds."""
    if not verify_torification(T, N):
        raise TorifyError("torification does not match the counting polynomial")
    X = torification_mscheme(T)
    terms = tuple(sorted((d, ()) for d in T.ranks))
    return GenTorifiedTriple(X, CountingFunction(terms), point_models, name)


@dataclass(frozen=True)
class CCRecord:
    """Functor-of-points form of a triple: per-field counts plus the
    verification of the bijection condition."""

    name: str
    counts: tuple  # tuples (q, scheme_side, surrogate_side)
    polynomial: CountingPolynomial = None
    verified: bool = True
    mismatches: tuple = ()
    scheme: MScheme = field(default=None, compare=False)
    point_models: dict = field(default=None, compare=False)


def to_cc(t: GenTorifiedTriple) -> CCRecord:
    """Evaluate the triple at each q in SAMPLE_PRIME_POWERS and check the
    bijection condition; polynomial identity is recorded when both sides
    are polynomial (degree-bounded, so finitely many samples suffice)."""
    from .counting import count_points

    counts = []
    mismatches = []
    for q in SAMPLE_PRIME_POWERS:
        left = count_points(t.mscheme, q).count
        right = t.counting.evaluate(q)
        counts.append((q, left, right))
        if left != right:
            mismatches.append(f"q={q}: scheme side {left} != surrogate side {right}")
        if t.point_models and q in t.point_models:
            if len(t.point_models[q]) != right:
                mismatches.append(
                    f"q={q}: explicit model has {len(t.point_models[q])} points, "
                    f"count says {right}")
    poly = None
    scheme_cf = counting_polynomial(t.mscheme)
    if scheme_cf.is_polynomial and t.counting.is_polynomial:
        if scheme_cf.as_polynomial() != t.counting.as_polynomial():
            mismatches.append("symbolic counting polynomials differ")
        else:
            poly = scheme_cf.as_polynomial()
    return CCRecord(t.name, tuple(counts), poly, not mismatches,
                    tuple(mismatches), t.mscheme, t.point_models)


def from_cc(rec: CCRecord) -> GenTorifiedTriple:
    """The inverse representation: rebuild the triple from the record's
    geometric representative; round trip is the identity on stored data."""
    if rec.scheme is None:
        raise TorifyError("record lacks its geometric representative")
    counting = CountingFunction.of_scheme(rec.scheme)
    return GenTorifiedTriple(rec.scheme, counting, rec.point_models, rec.name)


def is_torified_cc(t: GenTorifiedTriple) -> bool:
    """True iff every stalk is integral with torsion-free units and every
    connected component is the spectrum of a group with zero, i.e. the
    scheme side is a disjoint union of split tori."""
    X = t.mscheme
    for pt in X.points:
        if not X.stalk(pt).is_integral or pt.units.invariant_factors:
            return False
    for component in X.connected_components:
        if len(component) != 1 or not X.stalk(component[0]).is_group:
            return False
    return True


def f1_points(t: GenTorifiedTriple) -> int:
    """Number of minimal-rank points of the scheme side.

    Each minimal-rank point with a free unit group admits exactly one
    strong morphism from the base point (homs from a free group to the
    trivial group form a singleton); torsion unit groups are refused.
    """
    X = t.mscheme
    for pt in X.points:
        if pt.units.invariant_factors:
            raise TorifyError(
                "stalk unit group has torsion; minimal-rank point counting "
                "is only defined for split-torus stalks here")
    return len(minimal_rank_points(X))
