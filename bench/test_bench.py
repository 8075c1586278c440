"""Self-test of the benchmark, on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys

import pytest

import worker
from common import BENCH_DIR, ROOT
from run import judge
from tracer import read_spans

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# an oracle each workload's checks consult, and a wrong stand-in for it
WRONG_ORACLE = {"toric": ("projective_points", lambda n, p: -1),
                "hilbert": ("in_rational_cone", lambda rays, x: False),
                "cli_corpus": ("count_subspaces", lambda k, n, p: -1)}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def tiny_run(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_a_wrong_expected_value_raises_the_fail_ratio(workload, tmp_path, monkeypatch):
    jobs = worker.setup(workload, 1, "tiny", tmp_path)
    _, failed, wrong, _ = judge([worker.run_pass(jobs, "check")])
    assert wrong == 0
    import oracles
    monkeypatch.setattr(oracles, *WRONG_ORACLE[workload])
    _, failed_now, wrong_now, _ = judge([worker.run_pass(jobs, "check")])
    assert wrong_now > 0 and failed_now > failed


def test_traced_counts_repeat_exactly_and_spans_add_up():
    first, second = tiny_run("toric", 1, seed=3), tiny_run("toric", 1, seed=3)
    counts = {name for name, m in first["metrics"].items() if m["unit"] != "s"}
    counts.discard("trace.overhead_ratio")
    assert counts and all(first["metrics"][n] == second["metrics"][n] for n in counts)
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0

    names, parent, func, start, end = read_spans(BENCH_DIR / "out" / "toric.spans")
    assert len(func) > 0 and all(p < i for i, p in enumerate(parent))
    self_s = {}
    for i in range(len(func)):
        layer = names[func[i]].split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + end[i] - start[i]
        if parent[i] >= 0:
            up = names[func[parent[i]]].split(".", 1)[0]
            self_s[up] -= end[i] - start[i]
    report = json.loads((BENCH_DIR / "out" / "toric.trace.json").read_text())
    for layer in ("intlinalg", "cones", "monoid", "fans"):
        assert self_s[layer] == pytest.approx(report["metrics"][f"{layer}.self_s"], rel=1e-6)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "toric", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
