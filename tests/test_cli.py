"""Golden CLI corpus and the CLI error contract.

Every verb runs on every `data/` file it applies to, and the JSON it
prints must match `tests/golden/<case>.json` byte for byte.  The golden
files pin the library's results through refactors: a change that moves
any of them shows up here.  A few cases also pin the text output, in
`tests/golden/<case>.txt`.

Regenerate the golden files (only when an output change is intended and
recorded) with

    PYTHONPATH=src python tests/test_cli.py
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

try:
    import resource
except ImportError:  # not on POSIX
    resource = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f1geom.spectrum as spectrum
from f1geom import cli
from f1geom.fans import product_fan, standard_fans
from f1geom.io import emit
from f1geom.limits import LIMITS
from f1geom.torified import Torification, schubert_torification

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

FANS = ("a2", "hirzebruch1", "p1", "p1xp1", "p2")
MONOIDS = ("mu3", "n2", "z3zero")
CELLS = ("gr24", "sl2")
POLYNOMIALS = ("q^2 + q + 1", "q^3 - q", "q^4 + q^3 + 2q^2 + q + 1", "q^4 - q^3 - q^2 + q")
P2_SAMPLES = {"counts": [{"q": q, "count": q * q + q + 1} for q in (2, 3, 4, 5)]}


def _cases():
    cases = {}
    for name in FANS:
        path = str(DATA / f"{name}.fan.json")
        cases[f"fan-{name}"] = ["fan", "--fan", path]
        cases[f"count-{name}"] = ["count", "--fan", path, "--q", "2,3,4,5,7"]
        cases[f"torify-{name}"] = ["torify", "--fan", path]
    for name in MONOIDS:
        path = str(DATA / f"{name}.mon.json")
        cases[f"spec-{name}"] = ["spec", "--monoid", path]
        cases[f"count-{name}"] = ["count", "--monoid", path, "--q", "2,3,4,5,7"]
        cases[f"lambda-check-{name}"] = ["lambda-check", "--monoid", path, "--trials", "40"]
    for name in CELLS:
        cases[f"torify-cells-{name}"] = ["torify", "--cells", str(DATA / f"{name}.cells.json")]
    path = str(DATA / "sl2.torification.json")
    cases["verify-sl2"] = ["verify", "--torification", path]
    cases["verify-sl2-charts"] = ["verify", "--torification", path, "--charts"]
    for group in ("SL2", "GL2"):
        cases[f"torify-{group}"] = ["torify", "--group", group]
        cases[f"torify-{group}-charts"] = ["torify", "--group", group, "--charts"]
    for n in range(2, 6):
        for k in range(1, n):
            cases[f"torify-gr{k}{n}"] = ["torify", "--grassmannian", f"{k},{n}"]
    cases["torify-gr24-charts"] = ["torify", "--grassmannian", "2,4", "--charts"]
    for i, text in enumerate(POLYNOMIALS):
        cases[f"zeta-{i}"] = ["zeta", "--counting", text]
    cases["zeta-input"] = ["zeta", "--input", "{p2_samples}"]
    cases["fzoo"] = ["fzoo", "--max-size", "2"]
    cases["diagram-check"] = ["diagram-check"]
    return cases


CASES = _cases()
# Text mode prints each value with str(), so unlike JSON it tells a tuple
# from a list; these cases pin it.
TEXT_CASES = [f"{verb}-{name}" for verb in ("spec", "count") for name in MONOIDS] + ["verify-sl2"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _argv(case, tmp_dir, as_json=True):
    samples = Path(tmp_dir) / "p2.counts.json"
    samples.write_text(json.dumps(P2_SAMPLES))
    argv = [a.replace("{p2_samples}", str(samples)) for a in CASES[case]]
    return argv + ["--json"] if as_json else argv


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    rc, out, err = run_cli(_argv(case, tmp_path))
    assert err == ""
    assert out == (GOLDEN / f"{case}.json").read_text()
    assert rc == (0 if json.loads(out)["status"] == "pass" else 1)
    if any(str(DATA) in a for a in CASES[case]):
        assert rc == 0, "every shipped data file passes its verb"


@pytest.mark.parametrize("case", TEXT_CASES)
def test_golden_text_output(case, tmp_path):
    rc, out, err = run_cli(_argv(case, tmp_path, as_json=False))
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / f"{case}.txt").read_text()


def test_count_on_a_monoid_builds_its_scheme_once(monkeypatch):
    builds = []
    build = spectrum._build_scheme_data

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(spectrum, "_build_scheme_data", counted)
    rc, out, err = run_cli(["count", "--monoid", str(DATA / "n2.mon.json"),
                            "--q", "2,3,4,5,7", "--json"])
    assert (rc, err) == (0, "") and json.loads(out)["status"] == "pass"
    assert len(builds) == 1


# Outputs too large for a golden file, pinned by the sha256 of what the CLI
# printed when it still listed every torus's rank from a per-torus tuple:
# the JSON since before torifications were stored as rank multiplicities,
# the text from the last version to do so.
LARGE_OUTPUTS = {
    "torify-gr38": (["torify", "--grassmannian", "3,8", "--json"],
                    "0ad92673806bb50abae5b5bd465ff62c0521aad260bff94d0cb13b0e6d1b0de5"),
    "torify-gr48": (["torify", "--grassmannian", "4,8", "--json"],
                    "0a33bb4b26efddd9e60336d7f0fd297028e3a6a8eba0dbaa1ec4d0ffe3318b49"),
    "torify-gr58": (["torify", "--grassmannian", "5,8", "--json"],
                    "0c22fd47aeb64630514ed44bceaf41083042219c39b9f7dcefa8d8e97b88df38"),
    "torify-gr48-charts": (["torify", "--grassmannian", "4,8", "--charts", "--json"],
                           "4d02fdabaa6309ede157810880fc88052fba1dcaf4ae17beed5e95862df11f4d"),
    "torify-gr38-text": (["torify", "--grassmannian", "3,8"],
                         "67656d7b6d543997405b5898951116ba0172958bd81cc3d20dbbbdb4fec47dec"),
    "torify-gr48-text": (["torify", "--grassmannian", "4,8"],
                         "b9854650a82540af6f8d816bcba15f1a36b384d7c93d8d12e3641e35f01c1a56"),
    "torify-gr58-text": (["torify", "--grassmannian", "5,8"],
                         "0c8b593797babb19457d27ba4a273f0bac19ccb27032dce5b031a33169f14910"),
}


@pytest.mark.parametrize("case", sorted(LARGE_OUTPUTS))
def test_large_output_is_pinned_by_its_hash(case):
    argv, digest = LARGE_OUTPUTS[case]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Fan verbs on fans past the shipped data, pinned by the sha256 of their JSON
# as printed before fan schemes built their stalks on demand.
SCALED_FANS = {
    "p1^6": lambda: reduce(product_fan, [standard_fans("projective_space", 1)] * 6),
    "p6": lambda: standard_fans("projective_space", 6),
}
SCALED_OUTPUTS = {
    ("p1^6", "fan"): "1772e946c5df3c42e9e9c7dae7f13e9216a37cf06b65d25abcee2a99b4352630",
    ("p1^6", "count"): "333cf9a3f69cab793d3eb3ddcb5de829e79c82fea32c2ca58bd2f49b023fb933",
    ("p1^6", "torify"): "6d4da8bdd4b60e665c04f904eb845e38c5db8a614dfdd8cf3a80c48eedee939a",
    ("p6", "fan"): "9ff77d196160fcc3665bdb93bcb5c6a0b39b3628986df407f6457708226aa825",
    ("p6", "count"): "3475d93953606c9c650157c414dc7e7fc4d86525ebaaa2cc0ef9aad2e79b311c",
    ("p6", "torify"): "5f440641879271f3e12f9030ecc32f5152ca1a8ca95c8f715377e4078ea999ff",
}


@pytest.mark.parametrize("name,verb", sorted(SCALED_OUTPUTS))
def test_fan_verbs_on_scaled_fans_are_pinned_by_their_hash(name, verb, tmp_path):
    path = tmp_path / f"{name}.fan.json"
    emit(SCALED_FANS[name](), path)
    argv = {"fan": ["fan", "--fan", str(path)],
            "count": ["count", "--fan", str(path), "--q", "2,3,4,5,7"],
            "torify": ["torify", "--fan", str(path), "--charts"]}[verb]
    rc, out, err = run_cli(argv + ["--json"])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SCALED_OUTPUTS[name, verb]


@pytest.mark.parametrize("case", sorted(CASES) + sorted(
    case for case, (argv, _) in LARGE_OUTPUTS.items() if "--json" in argv))
def test_emitted_json_is_json_dumps_of_the_report(case, tmp_path, monkeypatch):
    # _emit lays the report out key by key, writing a rank list's text as it
    # is; the bytes must be those of json.dumps on the listed report
    reports = []
    emit = cli._emit

    def recorded(report, as_json, ok):
        reports.append(dict(report, schema=cli.SCHEMA, status="pass" if ok else "fail"))
        return emit(report, as_json, ok)

    monkeypatch.setattr(cli, "_emit", recorded)
    argv = _argv(case, tmp_path) if case in CASES else LARGE_OUTPUTS[case][0]
    _, out, _ = run_cli(argv)
    [report] = reports
    listed = {key: json.loads(value) if type(value) is cli._RawJSON else value
              for key, value in report.items()}
    assert out == json.dumps(listed, sort_keys=True, default=str) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 10 ** 6), st.integers(1, 40), max_size=8))
def test_rank_list_text_is_the_printed_per_torus_list(counts):
    T = Torification.make(counts)
    assert cli._rank_list(T) == json.dumps(list(T.ranks)) == str(list(T.ranks))


def test_verify_reads_a_rank_counts_file(tmp_path):
    T, N = schubert_torification(4, 8)
    path = tmp_path / "gr48.torification.json"
    emit(T, path, counting=N)
    assert "rank_counts" in json.loads(path.read_text())
    rc, out, err = run_cli(["verify", "--torification", str(path), "--json"])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["verified"] and report["residual"] == "0"
    assert report["ranks"] == json.loads(run_cli(LARGE_OUTPUTS["torify-gr48"][0])[1])["ranks"]


def test_count_at_a_large_prime_field_size():
    q = 10**16 + 61
    rc, out, err = run_cli(["count", "--monoid", str(DATA / "n2.mon.json"), "--q", str(q),
                            "--json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["counts"] == [{"count": q * q, "method": "stalk-formula", "q": q}]


# --- error contract: every failure is one JSON object on stderr, exit 2 ---------

def _error(argv):
    rc, out, err = run_cli(argv + ["--json"])
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["status"] == "error"
    return payload["error"]


def test_missing_input_file_is_an_error_not_a_traceback(tmp_path):
    missing = str(tmp_path / "nonexistent.json")
    assert missing in _error(["spec", "--monoid", missing])


def test_zeta_input_without_counts_names_the_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"samples": [[2, 7]]}))
    message = _error(["zeta", "--input", str(path)])
    assert "counts" in message and str(path) in message


def test_zeta_counting_with_dangling_power_names_the_term():
    message = _error(["zeta", "--counting", "q^"])
    assert "q^" in message and "int()" not in message


@pytest.mark.parametrize("data, key", [
    ({"elements": [[1]], "table": [[[1]]]}, "'elements'"),
    ({"elements": [1], "table": [[[1]]]}, "'table'"),
    ({"elements": [1], "table": [[1]], "identity": {}}, "'identity'"),
    ({"elements": [1], "table": [[1]], "zero": [1]}, "'zero'"),
])
def test_unhashable_table_monoid_entries_name_the_key(tmp_path, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "table_monoid", **data}))
    message = _error(["spec", "--monoid", str(path)])
    assert key in message and "arrays" in message, message


@pytest.mark.parametrize("chart, expected", [
    ({}, ["charts[a]", "'tori'"]),
    ({"tori": [0]}, ["charts[a]", "'counting'"]),
    ([], ["charts[a]", "object"]),
    ({"tori": 3, "counting": [1]}, ["charts[a].tori", "list"]),
    ({"tori": [5], "counting": [1]}, ["charts[a]", "torus 5"]),
])
def test_malformed_torification_chart_names_chart_and_key(tmp_path, chart, expected):
    path = tmp_path / "bad.torification.json"
    path.write_text(json.dumps({"kind": "torification", "ranks": [0], "counting": [1],
                                "charts": {"a": chart}}))
    message = _error(["verify", "--torification", str(path), "--charts"])
    assert all(part in message for part in expected), message


@pytest.mark.parametrize("value", ["2", "a,b", "2,4,5"])
def test_grassmannian_argument_names_the_option(value):
    message = _error(["torify", "--grassmannian", value])
    assert "--grassmannian" in message and "k,n" in message and repr(value) in message



@pytest.mark.parametrize("argv, expected", [
    (["verify", "--torification", "p1.fan.json"], "holds a fan, expected one of ['torification']"),
    (["count", "--monoid", "p1.fan.json"],
     "holds a fan, expected one of ['monoid', 'table_monoid']"),
    (["fan", "--fan", "n2.mon.json"], "holds a monoid, expected one of ['fan']"),
    (["torify", "--cells", "sl2.torification.json"],
     "holds a torification, expected one of ['cells']"),
])
def test_a_file_of_the_wrong_kind_is_named_by_its_kind(argv, expected):
    path = str(DATA / argv[-1])
    assert _error(argv[:-1] + [path]) == f"{path} {expected}"


@pytest.mark.parametrize("kind", [[], {}, 3])
def test_a_kind_that_is_no_string_is_an_unknown_kind(tmp_path, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind}))
    assert _error(["spec", "--monoid", str(path)]).startswith(f"unknown kind {kind!r}")


@pytest.mark.parametrize("argv, data, expected", [
    (["spec", "--monoid"], '{"kind": "monoid",', "invalid JSON in {path}"),
    (["spec", "--monoid"], [1, 2], "input must be an object with a 'kind' field"),
    (["spec", "--monoid"], {"ambient_rank": 1}, "input must be an object with a 'kind' field"),
    (["spec", "--monoid"], {"kind": "monoid", "ambient_rank": 1, "generators": 5},
     "'generators' must be a list of vectors"),
    (["spec", "--monoid"], {"kind": "monoid", "ambient_rank": 2, "generators": [[1]]},
     "generators[0] has length 1, expected 2"),
    (["spec", "--monoid"], {"kind": "monoid", "ambient_rank": 1, "torsion": [1],
                            "generators": [[1, 0]]}, "torsion invariant factors must be >= 2"),
    (["spec", "--monoid"], {"kind": "table_monoid", "elements": [], "table": []},
     "'elements' must be a nonempty list"),
    (["spec", "--monoid"], {"kind": "table_monoid", "elements": [1, 2], "table": [[1, 2]]},
     "'table' must be a 2x2 matrix of elements"),
    (["spec", "--monoid"], {"kind": "table_monoid", "elements": [1, 1],
                            "table": [[1, 1], [1, 1]]}, "duplicate elements"),
    (["spec", "--monoid"], {"kind": "table_monoid", "elements": [1], "table": [[1]],
                            "identity": 2}, "identity not among elements"),
    (["spec", "--monoid"], {"kind": "table_monoid", "elements": [1], "table": [[1]],
                            "zero": 0}, "zero not among elements"),
    (["fan", "--fan"], {"kind": "fan", "rank": 0, "rays": [], "cones": []},
     "'rank' must be a positive integer"),
    (["fan", "--fan"], {"kind": "fan", "rank": 2, "rays": [[1, 0, 0]], "cones": []},
     "rays[0] has length 3, expected 2"),
    (["fan", "--fan"], {"kind": "fan", "rank": 2, "rays": [[1, 0]], "cones": {}},
     "'cones' must be a list of ray index lists"),
    (["fan", "--fan"], {"kind": "fan", "rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 2]]},
     "cone [0, 2] references a missing ray"),
    (["verify", "--torification"], {"kind": "torification", "ranks": [0], "counting": [1],
                                    "charts": []}, "'charts' must map chart ids to records"),
    (["torify", "--cells"], {"kind": "cells", "cells": {}},
     "'cells' must be a list of [dim, base] pairs"),
    (["torify", "--cells"], {"kind": "cells", "cells": [[1, 2, 3]]},
     "cells[0] must be a [dim, base] pair"),
], ids=["invalid-json", "not-an-object", "no-kind", "generators-not-a-list",
        "generator-length", "torsion-below-2", "no-elements", "table-shape",
        "duplicate-elements", "identity-missing", "zero-missing", "fan-rank",
        "ray-length", "cones-not-a-list", "missing-ray", "charts-not-an-object",
        "cells-not-a-list", "cell-not-a-pair"])
def test_malformed_input_files_are_json_errors(tmp_path, argv, data, expected):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    message = _error(argv + [str(path)])
    assert expected.format(path=path) in message, message


@pytest.mark.parametrize("verb", ["fan", "count", "torify"])
def test_empty_fan_is_an_error(tmp_path, verb):
    path = tmp_path / "empty.fan.json"
    path.write_text(json.dumps({"kind": "fan", "rank": 2, "rays": [], "cones": []}))
    assert "a scheme needs at least one chart" in _error([verb, "--fan", str(path)])


def test_fan_rays_must_be_a_list(tmp_path):
    path = tmp_path / "bad.fan.json"
    path.write_text(json.dumps({"kind": "fan", "rank": 2, "rays": 5, "cones": []}))
    assert "'rays'" in _error(["fan", "--fan", str(path)])


def test_a_fan_cone_that_repeats_a_ray_is_an_error(tmp_path):
    path = tmp_path / "repeat.fan.json"
    path.write_text(json.dumps({"kind": "fan", "rank": 2, "rays": [[1, 0], [0, 1]],
                                "cones": [[0, 0]]}))
    assert _error(["fan", "--fan", str(path)]) == "cone [0, 0] repeats a ray"


def test_fan_cones_that_overlap_outside_a_common_face_are_an_error(tmp_path):
    # cone(e1, e2, e3) and cone((1,1,1), -e1, -e2) share (1,1,1) off their common face
    path = tmp_path / "overlap.fan.json"
    path.write_text(json.dumps({"kind": "fan", "rank": 3,
                                "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                                         [-1, 0, 0], [0, -1, 0]],
                                "cones": [[0, 1, 2], [3, 4, 5]]}))
    assert _error(["fan", "--fan", str(path)]) == (
        "cones [0, 1, 2] and [3, 4, 5] do not meet in a common face")


def test_negative_fzoo_size_names_the_option():
    assert "--max-size" in _error(["fzoo", "--max-size", "-1"])


def test_zeta_input_with_a_repeated_q_names_q_and_both_samples(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps([[2, 999], [2, 7], [3, 13], [4, 21]]))
    message = _error(["zeta", "--input", str(path)])
    assert "q = 2" in message and "samples 0 and 1" in message, message


@pytest.mark.parametrize("data", [[], {"counts": []}], ids=["bare", "under-counts"])
def test_zeta_input_without_samples_names_the_file(tmp_path, data):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    message = _error(["zeta", "--input", str(path)])
    assert str(path) in message and "no count samples" in message, message


@pytest.mark.parametrize("q", [1, 0, -3, 6])
def test_zeta_input_with_a_q_that_is_no_field_size_names_the_sample(tmp_path, q):
    path = tmp_path / "bad-q.json"
    path.write_text(json.dumps([[2, 3], [q, 1]]))
    message = _error(["zeta", "--input", str(path)])
    assert str(path) in message and f"sample 1 has q = {q}" in message, message


def test_zeta_input_may_repeat_a_sample_with_the_same_count(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps([[2, 7], [2, 7], [3, 13], [4, 21]]))
    rc, out, err = run_cli(["zeta", "--input", str(path), "--json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["counting_polynomial"] == "q^2 + q + 1"


def test_negative_zeta_degree_bound_names_the_option(tmp_path):
    path = tmp_path / "p2.counts.json"
    path.write_text(json.dumps(P2_SAMPLES))
    message = _error(["zeta", "--input", str(path), "--degree-bound", "-1"])
    assert "--degree-bound" in message and "-1" in message, message


def test_zeta_degree_bound_with_counting_names_the_option():
    message = _error(["zeta", "--counting", "q^2+q+1", "--degree-bound", "2"])
    assert "--degree-bound" in message and "--counting" in message, message


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_nonpositive_lambda_trials_names_the_option(trials):
    message = _error(["lambda-check", "--monoid", str(DATA / "n2.mon.json"),
                      "--trials", trials])
    assert "--trials" in message and trials in message, message


def test_lambda_check_at_a_large_prime_stops_at_the_ring_mul_cap():
    start = time.perf_counter()
    message = _error(["lambda-check", "--monoid", str(DATA / "n2.mon.json"), "--p", "31",
                      "--trials", "20"])
    assert time.perf_counter() - start < 1.0
    assert "LIMITS['ring_mul_terms']" in message, message


def test_lambda_check_on_a_finite_monoid_runs_at_large_primes():
    rc, out, err = run_cli(["lambda-check", "--monoid", str(DATA / "mu3.mon.json"),
                            "--p", "31,37,41", "--json"])
    assert (rc, err) == (0, "") and json.loads(out)["frobenius_reduction"] == "pass"


# 3317044064679887385961813 is the largest prime within LIMITS['field_size']
@pytest.mark.parametrize("p", [1000003, 3317044064679887385961813])
@pytest.mark.parametrize("name", ["mu3", "z3zero"])
def test_lambda_check_on_a_finite_monoid_answers_fast_at_huge_primes(name, p):
    assert p <= LIMITS["field_size"]
    start = time.perf_counter()
    rc, out, err = run_cli(["lambda-check", "--monoid", str(DATA / f"{name}.mon.json"),
                            "--p", str(p), "--json"])
    assert time.perf_counter() - start < 2.0
    assert (rc, err) == (0, "") and json.loads(out)["frobenius_reduction"] == "pass"


def test_lambda_check_on_n2_at_a_huge_prime_stops_at_the_ring_mul_cap():
    message = _error(["lambda-check", "--monoid", str(DATA / "n2.mon.json"), "--p", "1000003"])
    assert "LIMITS['ring_mul_terms']" in message, message


@pytest.mark.parametrize("verb", ["count", "zeta"])
def test_field_size_past_the_cap_names_the_limit(tmp_path, verb):
    q = LIMITS["field_size"] + 2
    if verb == "count":
        argv = ["count", "--monoid", str(DATA / "n2.mon.json"), "--q", str(q)]
    else:
        path = tmp_path / "huge-q.json"
        path.write_text(json.dumps([[2, 3], [q, 1]]))
        argv = ["zeta", "--input", str(path)]
    assert "LIMITS['field_size']" in _error(argv)


def test_counting_polynomial_past_the_degree_cap_names_the_limit():
    cap = LIMITS["polynomial_degree"]
    rc, out, _ = run_cli(["zeta", "--counting", f"q^{cap}", "--json"])
    assert rc == 0 and json.loads(out)["zeta"] == f"(s-{cap})"
    assert "LIMITS['polynomial_degree']" in _error(["zeta", "--counting", f"q^{cap + 1}"])


@pytest.mark.usefixtures("default_int_digit_limit")
@pytest.mark.parametrize("text, expected", [
    ("q^" + "9" * 5000, "LIMITS['polynomial_degree']"),
    ("9" * 5000 + "q", "coefficient of 5000 digits"),
])
def test_counting_polynomial_of_thousands_of_digits_names_the_term(text, expected):
    message = _error(["zeta", "--counting", text])
    assert expected in message and "Exceeds the limit" not in message


@pytest.mark.usefixtures("default_int_digit_limit")
@pytest.mark.parametrize("verb, option, text", [
    ("spec", "--monoid",
     '{"kind": "monoid", "ambient_rank": 1, "generators": [[%s]]}' % ("9" * 5000)),
    ("zeta", "--input", '[[2, %s], [3, 13]]' % ("9" * 5000)),
])
def test_a_file_number_of_thousands_of_digits_names_the_file(tmp_path, verb, option, text):
    path = tmp_path / "long.json"
    path.write_text(text)
    message = _error([verb, option, str(path)])
    assert str(path) in message and "too many digits" in message
    assert "Exceeds the limit" not in message


@pytest.mark.usefixtures("default_int_digit_limit")
def test_coefficients_summed_past_the_digit_limit_name_the_degree():
    nines = "9" * 4300
    message = _error(["zeta", "--counting", f"{nines}q+{nines}q"])
    assert "degree 1" in message and "more than 4300 digits" in message
    assert "Exceeds the limit" not in message
    rc, out, _ = run_cli(["zeta", "--counting", f"{nines}q-{nines}q+1", "--json"])
    assert rc == 0 and json.loads(out)["counting_polynomial"] == "1"


@pytest.mark.parametrize("verb, option, data", [
    ("torify", "--cells", {"kind": "cells", "cells": [[30, 0]]}),
    ("verify", "--torification", {"kind": "torification", "rank_counts": [[0, 1], [1, 10 ** 6]],
                                  "counting": [1 - 10 ** 6, 10 ** 6]}),
], ids=["cells-2^30", "rank-counts"])
def test_listing_more_tori_than_the_cap_names_the_limit(tmp_path, verb, option, data):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(data))
    assert "LIMITS['listed_tori']" in _error([verb, option, str(path)])


def _cone_file(D):
    return {"kind": "fan", "rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, D]],
            "cones": [[0, 1, 2]]}


def _limit_child():
    """Run in the child only: 1 GB of address space, 20 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))


@pytest.mark.skipif(resource is None, reason="resource limits need a POSIX system")
@pytest.mark.parametrize("verb, option, data, key", [
    ("fan", "--fan", _cone_file(30), None),
    # the dual cone on (0,0,1), (0,317,-1), (317,0,-1) has determinant 317^2
    ("fan", "--fan", _cone_file(317), "parallelepiped_points"),
    ("fan", "--fan", _cone_file(10 ** 7), "parallelepiped_points"),
    # the chart on (1,0), (1,10^7) is a chain of 10^7 + 1 points
    ("fan", "--fan", {"kind": "fan", "rank": 2, "rays": [[0, 1], [10 ** 7, -1]],
                      "cones": [[0, 1]]}, "parallelepiped_points"),
    ("verify", "--torification", {"kind": "torification", "ranks": [10 ** 9], "counting": [1]},
     "polynomial_degree"),
], ids=["fan-D=30", "fan-D=317", "fan-D=10^7", "fan-plane-D=10^7", "verify-rank-10^9"])
def test_a_limited_cli_process_ends_in_a_report_or_a_json_error(tmp_path, verb, option, data,
                                                                  key):
    # a separate process, so that a run past its memory or CPU limit shows
    # as a crash of the child and not of the test run
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-m", "f1geom.cli", verb, option, str(path), "--json"],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_limit_child)
    assert "Traceback" not in proc.stdout + proc.stderr
    if key is None:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["status"] == "pass"
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        payload = json.loads(proc.stderr)
        assert payload["status"] == "error" and f"LIMITS['{key}']" in payload["error"]


def test_grassmannian_past_the_schubert_cap_names_the_limit():
    assert "LIMITS['schubert_n']" in _error(["torify", "--grassmannian", "3,9"])


@pytest.mark.parametrize("verb, option, data", [
    ("zeta", "--input", [[True, 3], [2, 7], [3, 13]]),
    ("spec", "--monoid", {"kind": "monoid", "ambient_rank": True, "generators": [[1]]}),
    ("count", "--monoid", {"kind": "monoid", "ambient_rank": 1, "generators": [[True]]}),
    ("fan", "--fan", {"kind": "fan", "rank": 2, "rays": [[1, 0], [0, True]], "cones": [[0, 1]]}),
    ("torify", "--cells", {"kind": "cells", "cells": [[True, 0], [0, 0]]}),
    ("verify", "--torification", {"kind": "torification", "ranks": [True, 0],
                                  "counting": [0, 1]}),
    ("verify", "--torification", {"kind": "torification", "ranks": [0], "counting": [1],
                                  "labels": [True]}),
], ids=["zeta-sample", "ambient-rank", "generator", "ray", "cell", "rank", "label"])
def test_json_booleans_are_not_integers(tmp_path, verb, option, data):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert "integer" in _error([verb, option, str(path)])


FAN, MONOID = str(DATA / "p1.fan.json"), str(DATA / "n2.mon.json")


@pytest.mark.parametrize("argv, expected", [
    (["torify", "--group", "SL3"], ["--group", "'SL3'"]),
    (["fzoo", "--max-size", "x"], ["--max-size", "'x'"]),
    (["count", "--fan", FAN, "--monoid", MONOID], ["--monoid", "--fan"]),
    (["torify", "--fan", FAN, "--group", "SL2"], ["--group", "--fan"]),
    (["zeta", "--counting", "q + 1", "--input", FAN], ["--input", "--counting"]),
], ids=["unknown-group", "non-integer-size", "count-two-sources", "torify-two-sources",
        "zeta-two-sources"])
def test_bad_command_line_names_the_options(argv, expected):
    message = _error(argv)
    assert all(part in message for part in expected), message


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    wanted = sys.argv[1:] or sorted(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        for case in wanted:
            rc, out, err = run_cli(_argv(case, tmp))
            if rc not in (0, 1):
                print(f"{case}: exit {rc}: {err.strip()}", file=sys.stderr)
                continue
            (GOLDEN / f"{case}.json").write_text(out)
            if case in TEXT_CASES:
                (GOLDEN / f"{case}.txt").write_text(run_cli(_argv(case, tmp, as_json=False))[1])
