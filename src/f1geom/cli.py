"""Command-line front end.

Verbs map one-to-one onto module entry points; every verification the
run performs feeds the exit status (0 iff everything passed).  Output is
deterministic: keys, ranks and roots are sorted, and JSON output carries
a schema version.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .counting import (
    CountError,
    count_points,
    counting_polynomial,
    orbit_count_polynomial,
    prime_power_base,
)
from .fans import fan_in_zn, kato
from .io import ParseError, ValidationError, parse_input, read_json
from .monoid import AffineMonoid, TableMonoid
from .semiring import (
    frobenius_check,
    is_frobenius_image,
    monomial_power_map,
    psi_commute,
    random_ring_elements,
)
from .spectrum import MScheme, classify, global_sections, plus_zero
from .torified import (
    bruhat_torification,
    check_listable,
    f_functor,
    from_cc,
    is_affinely_torified,
    orbit_torification,
    schubert_torification,
    to_cc,
    verify_torification,
)
from .zeta import fit_counting_polynomial, parse_counting_polynomial, zeta

SCHEMA = 1
DEFAULT_SEED = 1729
MONOID_KINDS = ("monoid", "table_monoid")  # the file kinds a monoid verb reads


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a CliError, so that it is reported
    like every other failure instead of as usage text."""

    def error(self, message):
        raise CliError(message)


class _RawJSON(str):
    """The JSON text of a report value, printed as it is in both modes."""


def _emit(report: dict, as_json: bool, ok: bool) -> int:
    report = dict(report)
    report["schema"] = SCHEMA
    report["status"] = "pass" if ok else "fail"
    if as_json:
        # the bytes of json.dumps(report, sort_keys=True, default=str), laid
        # out key by key so that a _RawJSON value goes in as it is
        fields = (json.dumps(key) + ": " + (value if type(value) is _RawJSON else
                                            json.dumps(value, sort_keys=True, default=str))
                  for key, value in sorted(report.items()))
        print("{" + ", ".join(fields) + "}")
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return 0 if ok else 1


def _rank_list(T) -> _RawJSON:
    """T's ranks, one per torus in ascending order, as the text that both
    json.dumps and str give list(T.ranks), written from the multiplicities."""
    check_listable(T.rank_counts)
    return _RawJSON("[" + ", ".join(", ".join([str(r)] * m) for r, m in T.rank_counts) + "]")


def _parse_q_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"--q expects a comma-separated integer list, got {text!r}")


def cmd_spec(args) -> int:
    A = parse_input(args.monoid, MONOID_KINDS)
    X = MScheme.affine(A)
    point_list = []
    for pt in X.points:
        point_list.append({"prime": list(pt.prime.key[1]), "rank": pt.rank})
    order = []
    for a in X.points:
        for b in X.points:
            if a != b and X.le(a, b):
                order.append([point_list[X.points.index(a)]["prime"],
                              point_list[X.points.index(b)]["prime"]])
    gs = global_sections(X)
    report = {
        "points": point_list,
        "specializations": order,
        "classify": classify(X),
        "global_sections_generators": [list(g) for g in gs.generators]
        if isinstance(gs, AffineMonoid) else sorted(map(str, gs.elements)),
    }
    return _emit(report, args.json, True)


def cmd_fan(args) -> int:
    fan = parse_input(args.fan, ("fan",))
    X = kato(fan)
    fz = fan_in_zn(fan)
    flags = classify(X)
    report = {
        "rays": [list(r) for r in fan.rays],
        "cones": [sorted(c) for c in fan.sorted_cones()],
        "scheme_points": len(X.points),
        "classify": flags,
        "fan_conditions_ok": fz.ok,
        "violations": [list(v) for v in fz.violations],
    }
    ok = fz.ok and all(flags.values())
    return _emit(report, args.json, ok)


def cmd_count(args) -> int:
    qs = _parse_q_list(args.q)
    fan = None
    if args.fan is not None:
        fan = parse_input(args.fan, ("fan",))
        X = kato(fan)
    else:
        X = MScheme.affine(parse_input(args.monoid, MONOID_KINDS))
    records = [count_points(X, q).as_dict() for q in qs]
    cf = counting_polynomial(X)
    report: dict = {"counts": records}
    if cf.is_polynomial:
        report["counting_polynomial"] = str(cf.as_polynomial())
    else:
        report["counting_polynomial"] = None
        report["non_polynomial_modulus"] = cf.modulus
    checks_ok = all(r["count"] == cf.evaluate(r["q"]) for r in records)
    if fan is not None:  # the stalk count must equal the fan's orbit count
        orbit = orbit_count_polynomial(fan)
        report["orbit_polynomial"] = str(orbit)
        checks_ok = checks_ok and cf.is_polynomial and cf.as_polynomial() == orbit
    return _emit(report, args.json, checks_ok)


def cmd_zeta(args) -> int:
    if args.degree_bound is not None and args.counting is not None:
        raise CliError("--degree-bound bounds a fit to --input samples, not --counting")
    if args.degree_bound is not None and args.degree_bound < 0:
        raise CliError(f"--degree-bound must be a nonnegative integer, got {args.degree_bound}")
    if args.counting is not None:
        N = parse_counting_polynomial(args.counting)
    else:
        samples = _count_samples(args.input)
        bound = args.degree_bound if args.degree_bound is not None else len(samples) - 1
        N = fit_counting_polynomial(samples, bound)
    z = zeta(N)
    report = {
        "counting_polynomial": str(N),
        "zeta": z.canonical(),
        "zeta_pretty": str(z),
        "roots": [[k, m] for k, m in z.roots],
    }
    return _emit(report, args.json, True)


def _count_samples(path) -> dict:
    """{q: N(q)} from a JSON list of {"q", "count"} objects or [q, count]
    pairs, bare or under a "counts" key."""
    data = read_json(path)
    entries = data.get("counts") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise CliError(f"{path} must hold a list of count samples, bare or under 'counts'")
    if not entries:
        raise CliError(f"{path} holds no count samples")
    samples, first = {}, {}
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            entry = [entry.get("q"), entry.get("count")]
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) is int for x in entry)):
            raise CliError(f"{path}: sample {i} must be {{'q': q, 'count': N}} or [q, N]"
                           " with integer entries")
        q, count = entry
        try:
            prime_power_base(q)
        except CountError as e:
            raise CliError(f"{path}: sample {i} has q = {q}: {e}") from None
        if samples.setdefault(q, count) != count:
            raise CliError(f"{path}: samples {first[q]} and {i} give q = {q} the counts "
                           f"{samples[q]} and {count}")
        first.setdefault(q, i)
    return samples


def cmd_torify(args) -> int:
    if args.fan is not None:
        fan = parse_input(args.fan, ("fan",))
        X = kato(fan)
        T = orbit_torification(X)
        N = counting_polynomial(X).as_polynomial()
        name = "orbit"
    elif args.cells is not None:
        cc = parse_input(args.cells, ("cells",))
        T = cc.torification()
        N = cc.count_polynomial()
        name = "cells"
    elif args.group is not None:
        T, N = bruhat_torification(args.group)
        name = args.group
    else:
        try:
            k, n = (int(x) for x in args.grassmannian.split(","))
        except ValueError:
            raise CliError(f"--grassmannian expects k,n (two integers), "
                           f"got {args.grassmannian!r}")
        T, N = schubert_torification(k, n, with_pivot_charts=args.charts)
        name = f"Gr({k},{n})"
    ok = verify_torification(T, N)
    report = {
        "construction": name,
        "ranks": _rank_list(T),
        "counting_polynomial": str(N),
        "verified": ok,
    }
    return _emit(_with_charts(report, T, args.charts), args.json, ok)


def _with_charts(report, T, charts):
    """The report, with the affine torification check of T when asked."""
    if charts:
        report["affinely_torified"], report["chart_report"] = is_affinely_torified(T)
    return report


def cmd_verify(args) -> int:
    T, N = parse_input(args.torification, ("torification",))
    if N is None:
        raise CliError("torification file lacks a 'counting' entry to verify against")
    ok = verify_torification(T, N)
    report = {
        "ranks": _rank_list(T),
        "counting_polynomial": str(N),
        "verified": ok,
        "residual": str(T.count_polynomial() - N),
    }
    return _emit(_with_charts(report, T, args.charts), args.json, ok)


def cmd_lambda_check(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be a positive integer, got {args.trials}")
    A = parse_input(args.monoid, MONOID_KINDS)
    ps = _parse_q_list(args.p)
    elements = random_ring_elements(A, args.trials, seed=args.seed)
    frob_ok = all(frobenius_check(x, p) for x in elements for p in ps)
    comm_ok = all(psi_commute(x, ps) for x in elements)
    # negative control: the corrupted family a -> a^(p+1) must fail somewhere
    control_failed = not all(is_frobenius_image(monomial_power_map(x, p + 1), x, p)
                             for x in elements for p in ps)
    ok = frob_ok and comm_ok and control_failed
    report = {
        "primes": ps,
        "trials": args.trials,
        "seed": args.seed,
        "frobenius_reduction": "pass" if frob_ok else "fail",
        "pairwise_commuting": "pass" if comm_ok else "fail",
        "corrupted_family_detected": control_failed,
    }
    return _emit(report, args.json, ok)


def cmd_fzoo(args) -> int:
    from . import fzoo

    if args.max_size < 0:
        raise CliError(f"--max-size must be a nonnegative integer, got {args.max_size}")
    names = args.m.split(",")
    corpus = {
        "f1": TableMonoid.f1_monoid(),
        "z2": TableMonoid.cyclic_group_with_zero(2),
        "z3": TableMonoid.cyclic_group_with_zero(3),
    }
    sizes = tuple(range(args.max_size + 1))
    report = {}
    ok = True
    for name in names:
        if name not in corpus:
            raise CliError(f"unknown monoid {name!r}; choose from {sorted(corpus)}")
        M = corpus[name]
        laws = fzoo.monad_laws(M, sizes=sizes)
        matrix_ok = _matrix_laws_ok(M, min(args.max_size, 2))
        round_trip = fzoo.underlying_monoid(M)._key == M._key
        entry = {
            "monad_laws": {k: v["ok"] for k, v in laws.items()},
            "matrix_laws": matrix_ok,
            "underlying_monoid_round_trip": round_trip,
        }
        for k, v in laws.items():
            if not v["ok"]:
                entry.setdefault("counterexamples", {})[k] = v["counterexample"]
        report[name] = entry
        ok = ok and matrix_ok and round_trip and all(v["ok"] for v in laws.values())
    return _emit(report, args.json, ok)


def _matrix_laws_ok(M, size: int) -> bool:
    """Unit and associativity laws on all size x size matrices, read off a
    table of every pairwise product; a product that is not one of the
    valid matrices fails the check."""
    from . import fzoo

    mats = list(fzoo.all_fmatrices(M, size, size))
    index = {f: i for i, f in enumerate(mats)}
    table = [[index.get(fzoo.compose(f, g)) for g in mats] for f in mats]
    ident = index[fzoo.FMatrix.identity(M, size)]
    n = range(len(mats))
    if any(None in row for row in table) or \
            any(table[i][ident] != i or table[ident][i] != i for i in n):
        return False
    return all(table[table[f][g]][h] == table[f][table[g][h]] for f in n for g in n for h in n)


def cmd_diagram_check(args) -> int:
    from .fans import standard_fans
    from .monoid import free_monoid, group_monoid

    checks = []

    def check(name, fn):
        try:
            result = bool(fn())
        except Exception as e:  # a failing edge is a failed check, not a crash
            checks.append({"check": name, "status": "fail", "error": str(e)})
            return
        checks.append({"check": name, "status": "pass" if result else "fail"})

    fans = {
        "A^1": standard_fans("affine_space", 1),
        "A^2": standard_fans("affine_space", 2),
        "P^1": standard_fans("projective_space", 1),
        "P^2": standard_fans("projective_space", 2),
        "P^1xP^1": standard_fans("product", standard_fans("projective_space", 1),
                                 standard_fans("projective_space", 1)),
        "H_1": standard_fans("hirzebruch", 1),
    }

    def toric_commutation():
        for name, fan in fans.items():
            X = kato(fan)
            orbit = orbit_count_polynomial(fan)
            if counting_polynomial(X).as_polynomial() != orbit:
                return False
            for q in (2, 3, 4, 5):
                if count_points(X, q).count != orbit(q):
                    return False
        return True

    check("fan-functor count equals orbit formula", toric_commutation)

    def cc_round_trip():
        for name, fan in fans.items():
            t = f_functor(plus_zero(kato(fan)), name)
            rec = to_cc(t)
            if not rec.verified:
                return False
            if to_cc(from_cc(rec)).counts != rec.counts:
                return False
        return True

    check("triple functor round trip through records", cc_round_trip)

    def zero_primes():
        corpus = [free_monoid(1), free_monoid(2), group_monoid(2),
                  AffineMonoid.make(2, [[1, 0], [1, 1], [1, 2]])]
        import warnings

        for A in corpus:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                Az = A.adjoin_zero()
            if [p.face for p in A.primes()] != [p.face for p in Az.primes()]:
                return False
        return True

    check("adjoining zero preserves the primes", zero_primes)

    def commuting_family():
        els = random_ring_elements(free_monoid(2), 50, seed=args.seed)
        return all(psi_commute(x, [2, 3, 5]) and
                   all(frobenius_check(x, p) for p in [2, 3, 5]) for x in els)

    check("monomial power family commutes and lifts Frobenius", commuting_family)

    ok = all(c["status"] == "pass" for c in checks)
    return _emit({"checks": checks}, args.json, ok)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    parser = _Parser(
        prog="f1geom",
        description="Exact monoid schemes, toric fans, point counts, zeta data "
                    "and torifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("spec", help="spectrum report for a monoid file")
    p.add_argument("--monoid", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_spec)

    p = sub.add_parser("fan", help="validate a fan and report its scheme")
    p.add_argument("--fan", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_fan)

    p = sub.add_parser("count", help="point counts over finite fields")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fan")
    source.add_argument("--monoid")
    p.add_argument("--q", default="2,3")
    add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("zeta", help="zeta roots of a counting polynomial")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--counting", help="polynomial string, e.g. 'q^2+q+1'")
    source.add_argument("--input", help="JSON count samples")
    p.add_argument("--degree-bound", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("torify", help="build and verify a torification")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fan")
    source.add_argument("--cells")
    source.add_argument("--group", choices=["SL2", "GL2"])
    source.add_argument("--grassmannian", help="k,n")
    p.add_argument("--charts", action="store_true",
                   help="include the chart-assignment (affineness) report")
    add_common(p)
    p.set_defaults(fn=cmd_torify)

    p = sub.add_parser("verify", help="check a stored torification against its count")
    p.add_argument("--torification", required=True)
    p.add_argument("--charts", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lambda-check", help="Frobenius-lift property run")
    p.add_argument("--monoid", required=True)
    p.add_argument("--p", default="2,3,5")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p)
    p.set_defaults(fn=cmd_lambda_check)

    p = sub.add_parser("fzoo", help="matrix-category and monad law reports")
    p.add_argument("--m", default="f1,z2,z3")
    p.add_argument("--max-size", type=int, default=3)
    add_common(p)
    p.set_defaults(fn=cmd_fzoo)

    p = sub.add_parser("diagram-check", help="cross-module commutation suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p)
    p.set_defaults(fn=cmd_diagram_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, ParseError, ValidationError, ValueError, OSError) as e:
        payload = {"schema": SCHEMA, "status": "error", "error": str(e)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
