"""`cli_corpus` workload: the command-line front end, called in-process.

Every verb runs on every data file it applies to, plus the Grassmannian
torifications Gr(k,n) for 1 <= k < n <= 8, the matrix groups, zeta,
fzoo and diagram-check; each object read from `data/` and each Gr(k,n)
torification also makes an emit -> parse round trip through a file.
This covers `torified`, `zeta`, `semiring`, `fzoo`, `io` and `cli`, which
the other workloads barely touch, and puts writes beside reads in `io`.
"""
from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import random
import re

import f1geom.cli as cli
import f1geom.io as fio
import f1geom.torified as torified

from common import ROOT, CliOutput, Job
from toric import _faces

DATA = ROOT / "data"
QS = "2,3,4,5,7"
ORACLE_PRIMES = (2, 3, 5)
FANS = {  # data file -> brute-force count at prime p (an oracles function and its leading args)
    "a2.fan.json": ("affine_points", 2),
    "hirzebruch1.fan.json": ("hirzebruch1_points",),
    "p1.fan.json": ("projective_points", 1),
    "p1xp1.fan.json": ("product_p1_p1_points",),
    "p2.fan.json": ("projective_points", 2),
}
MONOIDS = {  # data file -> (points of its spectrum, count at q as a function of q)
    "mu3.mon.json": (1, lambda q: _oracle("count_group_homs", [3], q - 1)),
    "n2.mon.json": (4, lambda q: q * q),
    "z3zero.mon.json": (1, lambda q: _oracle("count_group_homs", [3], q - 1)),
}
CELLS = ("gr24.cells.json", "sl2.cells.json")
TORIFICATIONS = ("sl2.torification.json",)
POLYNOMIALS = ("q^2 + q + 1", "q^3 - q", "q^4 + q^3 + 2q^2 + q + 1", "q^4 - q^3 - q^2 + q")
SAMPLES = {2: 7, 3: 13, 4: 21, 5: 31}  # #P^2(F_q) = q^2 + q + 1


def _oracle(name, *args):
    import oracles
    return getattr(oracles, name)(*args)


def poly_coefficients(text: str) -> dict[int, int]:
    """{degree: coefficient} of a polynomial written like 'q^3 - 2q + 1'."""
    out = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        if "q" in term:
            coeff, _, power = term.partition("q")
            c = {"": 1, "+": 1, "-": -1}.get(coeff) or int(coeff)
            k = int(power[1:]) if power else 1
        else:
            c, k = int(term), 0
        out[k] = out.get(k, 0) + c
    return out


def evaluate(text: str, q: int) -> int:
    return sum(c * q ** k for k, c in poly_coefficients(text).items())


def _cli_job(name, argv, check):
    def run():
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv + ["--json"])
            except SystemExit as e:
                rc = e.code
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()[:200]}")
        return CliOutput(rc, out.getvalue())

    def check_output(output):
        report = json.loads(output.stdout)
        assert report["status"] == "pass", f"status {report['status']}"
        check(report)

    return Job(f"cli:{name}", run, check_output)


def _round_trip_jobs(name, build, path):
    """Two jobs, so that writes and reads show apart: emit the object to
    `path`, then parse it back and compare."""
    state = {}

    def emit():
        obj, counting = build()
        fio.emit(obj, path, counting=counting)
        state["emitted"] = obj, counting
        return path.stat().st_size

    def parse():
        if "emitted" not in state:
            raise RuntimeError("nothing was emitted")
        emitted = state.pop("emitted")  # hold no large object past its parse
        back, back_counting = fio.parse_input(path), None
        if isinstance(back, tuple):
            back, back_counting = back
        return (back, back_counting) == emitted

    def check_parse(same):
        assert same, "emit -> parse did not give the object back"

    return [Job(f"io:emit {name}", emit, lambda size: None),
            Job(f"io:parse {name}", parse, check_parse)]


def _parsed(path):
    def build():
        obj = fio.parse_input(path)
        return obj if isinstance(obj, tuple) else (obj, None)
    return build


def _ranks_count(ranks, p):
    return sum((p - 1) ** r for r in ranks)


def make_jobs(seed: int, size: str, workdir) -> list[Job]:
    jobs, round_trips = [], []
    for name, brute in FANS.items():
        raw = json.loads((DATA / name).read_text())
        faces = _faces(raw["cones"])
        ranks = sorted(raw["rank"] - len(c) for c in faces)

        def fan_check(r, n=len(faces)):
            assert r["scheme_points"] == n and r["fan_conditions_ok"], "fan report"

        def count_check(r, brute=brute):
            for rec in r["counts"]:
                if rec["q"] in ORACLE_PRIMES:
                    assert rec["count"] == _oracle(*brute, rec["q"]), f"count at q={rec['q']}"
            assert r["counting_polynomial"] == r["orbit_polynomial"]

        def torify_check(r, ranks=ranks):
            assert r["verified"] and sorted(r["ranks"]) == ranks, f"ranks {r['ranks']}"

        path = str(DATA / name)
        jobs += [_cli_job(f"fan {name}", ["fan", "--fan", path], fan_check),
                 _cli_job(f"count {name}", ["count", "--fan", path, "--q", QS], count_check),
                 _cli_job(f"torify {name}", ["torify", "--fan", path], torify_check)]
    for name, (points, count) in MONOIDS.items():
        def spec_check(r, points=points):
            assert len(r["points"]) == points, f"{len(r['points'])} points"

        def count_check(r, count=count):
            for rec in r["counts"]:
                assert rec["count"] == count(rec["q"]), f"count at q={rec['q']}"

        def lambda_check(r):
            assert r["frobenius_reduction"] == r["pairwise_commuting"] == "pass"
            assert r["corrupted_family_detected"]

        path = str(DATA / name)
        jobs += [_cli_job(f"spec {name}", ["spec", "--monoid", path], spec_check),
                 _cli_job(f"count {name}", ["count", "--monoid", path, "--q", QS], count_check),
                 _cli_job(f"lambda-check {name}", ["lambda-check", "--monoid", path],
                          lambda_check)]
    for name in CELLS:
        cells = json.loads((DATA / name).read_text())["cells"]
        ranks = sorted(base + k for d, base in cells for k in range(d + 1)
                       for _ in itertools.combinations(range(d), k))

        def cells_check(r, ranks=ranks):
            assert r["verified"] and sorted(r["ranks"]) == ranks, f"ranks {r['ranks']}"

        jobs.append(_cli_job(f"torify {name}", ["torify", "--cells", str(DATA / name)],
                             cells_check))
    for name in TORIFICATIONS:
        jobs.append(_cli_job(f"verify {name}",
                             ["verify", "--torification", str(DATA / name)],
                             lambda r: None))
    top = 8 if size == "full" else 4
    for n in range(2, top + 1):
        for k in range(1, n):
            def gr_check(r, k=k, n=n):
                assert r["verified"], "torification does not verify"
                assert _ranks_count(r["ranks"], 2) == evaluate(r["counting_polynomial"], 2)
                if n <= 4:
                    want = _oracle("count_subspaces", k, n, 2)
                    assert evaluate(r["counting_polynomial"], 2) == want, \
                        f"N(2) = {r['counting_polynomial']} at 2, expected {want}"

            jobs.append(_cli_job(f"torify Gr({k},{n})", ["torify", "--grassmannian", f"{k},{n}"],
                                 gr_check))
            round_trips.append(_round_trip_jobs(
                f"Gr({k},{n})", lambda k=k, n=n: torified.schubert_torification(k, n),
                workdir / f"gr{k}{n}.torification.json"))
    for group in ("SL2", "GL2"):
        def group_check(r, group=group):
            for p in (2, 3):
                want = _oracle("count_matrices", group, p)
                assert evaluate(r["counting_polynomial"], p) == want == _ranks_count(r["ranks"], p)

        jobs.append(_cli_job(f"torify {group}", ["torify", "--group", group], group_check))
    for text in POLYNOMIALS:
        def zeta_check(r, text=text):
            roots = {k: m for k, m in r["roots"]}
            assert roots == {k: c for k, c in poly_coefficients(text).items() if c}, "roots"

        jobs.append(_cli_job(f"zeta {text}", ["zeta", "--counting", text], zeta_check))
    samples = workdir / "p2.counts.json"
    samples.write_text(json.dumps({"counts": [{"q": q, "count": c} for q, c in SAMPLES.items()]}))

    def fit_check(r):
        assert r["roots"] == [[0, 1], [1, 1], [2, 1]], f"roots {r['roots']}"

    jobs.append(_cli_job("zeta --input", ["zeta", "--input", str(samples)], fit_check))
    if size == "full":
        def fzoo_check(r):
            for name, entry in r.items():
                if isinstance(entry, dict):
                    assert all(entry["monad_laws"].values()) and entry["matrix_laws"] \
                        and entry["underlying_monoid_round_trip"], name

        def diagram_check(r):
            failing = [c["check"] for c in r["checks"] if c["status"] != "pass"]
            assert not failing, f"failing checks {failing}"

        jobs += [_cli_job("fzoo", ["fzoo"], fzoo_check),
                 _cli_job("diagram-check", ["diagram-check"], diagram_check)]
    for name in [*FANS, *MONOIDS, *CELLS, *TORIFICATIONS]:
        round_trips.append(_round_trip_jobs(name, _parsed(DATA / name), workdir / name))
    groups = [[job] for job in jobs] + round_trips  # a parse follows its emit
    random.Random(seed).shuffle(groups)
    return [job for group in groups for job in group]
