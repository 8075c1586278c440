"""The f1geom benchmark.

    python3 bench/run.py --workload toric --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client.  Each pass starts a fresh
worker interpreter (`worker.py`) that runs every job of the workload once,
in order, on one thread, so no cache in the library can carry results
from one pass into the next, just as a command-line user pays the cold
cost on every invocation.  Passes run one at a time until the next one
would end after `--seconds`; there are at least two untraced passes, or
one untraced and one traced.

The first pass also checks every job's output against an independent
route (brute-force oracles, constructions with a known answer); later
passes must reproduce its outputs exactly.  A job fails when it raises,
the CLI exits non-zero, or its output is wrong; `correct` is false only
for wrong outputs.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py).  A summary table comes first,
a JSON report goes to bench/out/, and the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, HASH_SEED, OUT
from worker import WORKLOADS

DEADLINE_S = 175  # every run ends within 180 s
SETUP_PROBES = 5  # set-up-only workers per untraced run, besides the passes

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB"}


def _calls(*names):
    return lambda t: sum(t["functions"].get(n, {}).get("calls", 0) for n in names)


def _span_s(name):
    return lambda t: t["functions"].get(name, {}).get("s", 0.0)


def _self_s(layer):
    return lambda t: t["layers"][layer]["self_s"]


def _repeat(name):
    return lambda t: t["repeat_ratio"][name]


def _hilbert_yield(t):
    attempts = t["counters"]["hilbert.rat_solve"]
    return t["counters"]["hilbert.vectors"] / attempts if attempts else 0.0


# name -> (unit, value from a traced pass's summary); times are medians over
# the traced passes, counts repeat exactly
PER_LAYER = {
    "intlinalg.self_s": ("s", _self_s("intlinalg")),
    "intlinalg.calls": ("count", lambda t: t["layers"]["intlinalg"]["calls"]),
    "intlinalg.smith_normal_form.calls": ("count", _calls("intlinalg.smith_normal_form")),
    "intlinalg.smith_normal_form.repeat_ratio": ("ratio", _repeat("intlinalg.smith_normal_form")),
    "intlinalg.kernel_basis.calls": ("count", _calls("intlinalg.kernel_basis")),
    "intlinalg.solve_integer.calls": ("count", _calls("intlinalg.solve_integer")),
    "intlinalg.rat_rank.calls": ("count", _calls("intlinalg.rat_rank")),
    "intlinalg.unimodular_inverse.calls": ("count", _calls("intlinalg.unimodular_inverse")),
    "intlinalg.rat_solve.calls": ("count", _calls("intlinalg.rat_solve")),
    "cones.hilbert.yield": ("ratio", _hilbert_yield),
    "cones.self_s": ("s", _self_s("cones")),
    "cones.double_description.calls": ("count", _calls("cones.double_description")),
    "cones.double_description.repeat_ratio": ("ratio", _repeat("cones.double_description")),
    "cones.double_description.s": ("s", _span_s("cones.double_description")),
    "cones.lattice_monoid_generators.calls": ("count", _calls("cones.lattice_monoid_generators")),
    "cones.hilbert_basis.calls": ("count", _calls("cones.hilbert_basis")),
    "monoid.self_s": ("s", _self_s("monoid")),
    "monoid.contains.calls": ("count", _calls("monoid.AffineMonoid.contains")),
    "monoid.contains.s": ("s", _span_s("monoid.AffineMonoid.contains")),
    "monoid.primes.calls": ("count", _calls("monoid.primes")),
    "monoid.localize.calls": ("count", _calls("monoid.localize")),
    "monoid.units.calls": ("count", _calls("monoid.AffineMonoid.units", "monoid.TableMonoid.units")),
    "monoid.saturation_generators.calls": ("count", _calls("monoid.saturation_generators")),
    "spectrum.self_s": ("s", _self_s("spectrum")),
    "spectrum.glue.calls": ("count", _calls("spectrum.glue")),
    "spectrum.global_sections.calls": ("count", _calls("spectrum.global_sections")),
    "counting.self_s": ("s", _self_s("counting")),
    "counting.count_points.calls": ("count", _calls("counting.count_points")),
    "fans.self_s": ("s", _self_s("fans")),
    "fans.make_fan.s": ("s", _span_s("fans.make_fan")),
    "fans.kato.s": ("s", _span_s("fans.kato")),
    "fans.fan_in_zn.s": ("s", _span_s("fans.fan_in_zn")),
    "torified.self_s": ("s", _self_s("torified")),
    "torified.tori": ("count", lambda t: t["counters"]["torified.tori"]),
    "io.self_s": ("s", _self_s("io")),
    "cli.self_s": ("s", _self_s("cli")),
    "cli.output_bytes": ("bytes", lambda t: t["counters"]["cli.output_bytes"]),
    "fzoo.self_s": ("s", _self_s("fzoo")),
    "fzoo.compose.calls": ("count", _calls("fzoo.compose")),
    "semiring.self_s": ("s", _self_s("semiring")),
    "zeta.self_s": ("s", _self_s("zeta")),
}
OVERHEAD = "trace.overhead_ratio"  # traced wall_s / untraced wall_s - 1


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.begin = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        self.spans_path = OUT / f"{workload}.spans"

    def spawn(self, mode) -> dict:
        """Start one worker and wait for it; adds its set-up time."""
        left = DEADLINE_S - (time.monotonic() - self.begin)
        if left <= 0:
            raise BenchError("out of time before the run could finish")
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), self.workload,
                str(self.seed), self.size, mode, str(self.spans_path)]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-800:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["mode"] = mode
        result["setup_s"] = result["ready"] - started
        result["duration_s"] = time.monotonic() - started
        return result

    def passes(self, seconds, traced) -> list[dict]:
        """A checking pass (and a traced one), then more rounds of the same
        shape while the next round is expected to end within `seconds` of
        the first pass's start."""
        start = time.monotonic()
        shape = ("run", "trace") if traced else ("run",)
        done = [self.spawn("check")]
        if traced:
            done.append(self.spawn("trace"))
        while len(done) < 2 or time.monotonic() - start + \
                sum(p["duration_s"] for p in done[-len(shape):]) <= seconds:
            done += [self.spawn(mode) for mode in shape]
        return done


def judge(passes):
    """(attempted, failed, wrong, failures): every pass must match the
    checking pass's outputs."""
    reference = {row["name"]: row for row in passes[0]["jobs"]}
    attempted = failed = wrong = 0
    failures = {}
    for p in passes:
        for row in p["jobs"]:
            attempted += 1
            ref = reference.get(row["name"])
            problem = None
            if row["error"]:
                problem = row["error"]
            elif ref is None or ref["error"] or ref["wrong"] or row["digest"] != ref["digest"]:
                problem = (ref or {}).get("wrong") or "output differs from the checked pass"
                wrong += 1
            if problem:
                failed += 1
                failures.setdefault(row["name"], problem)
    return attempted, failed, wrong, failures


def tail(values):
    """The highest percentile with at least ten values beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def end_to_end(runner, seconds):
    runner.spawn("setup")  # compiles bytecode; not counted
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = runner.passes(seconds, traced=False)
    setups += [p["setup_s"] for p in passes]
    names = [row["name"] for row in passes[0]["jobs"]]
    per_job = {name: statistics.median(p["jobs"][i]["s"] for p in passes)
               for i, name in enumerate(names)}
    tail_s, tail_pct, n_jobs = tail(per_job.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(per_job.values()),
        "job_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = END_TO_END
    notes = {"job_tail_s": f"p{tail_pct:.1f} of {n_jobs} jobs, each the median of "
                           f"{len(passes)} passes",
             "setup_s": f"median of {len(setups)} set-ups"}
    extra = {"per_job_s": per_job, "setup_samples_s": setups}
    return passes, metrics, units, notes, extra


def per_layer(runner, seconds):
    passes = runner.passes(seconds, traced=True)
    traced = [p for p in passes if p["mode"] == "trace"]
    plain = [p for p in passes if p["mode"] != "trace"]
    first = traced[0]["trace"]
    metrics, units = {}, {}
    for name, (unit, value) in PER_LAYER.items():
        units[name] = unit
        metrics[name] = statistics.median(value(p["trace"]) for p in traced) \
            if unit == "s" else value(first)
    units[OVERHEAD] = "ratio"
    metrics[OVERHEAD] = statistics.median(p["wall_s"] for p in traced) / \
        statistics.median(p["wall_s"] for p in plain) - 1
    notes = {OVERHEAD: f"{len(traced)} traced and {len(plain)} untraced passes; "
                       f"{first['spans']} spans per traced pass, in {runner.spans_path.name}"}
    extra = {"functions": first["functions"], "counters": first["counters"]}
    return passes, metrics, units, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few jobs of each kind, for the self-test")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.size)
    measure = per_layer if args.trace else end_to_end
    try:
        passes, metrics, units, notes, extra = measure(runner, args.seconds)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    attempted, failed, wrong, failures = judge(passes)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes  {len(passes[0]['jobs'])} jobs per pass")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:14.6f} {units[name]}{note}")
    print(f"  {'fail_ratio':42s} {failed / attempted:14.6f} ratio  "
          f"({failed} of {attempted} job runs failed, {wrong} with wrong output)")
    for name, problem in failures.items():
        print(f"    failed: {name}: {problem}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "metrics": metrics, "units": units, "notes": notes,
              "fail_ratio": failed / attempted, "failures": failures,
              "passes": [{k: p[k] for k in ("mode", "wall_s", "setup_s", "peak_rss_mb")}
                         for p in passes], **extra}
    suffix = ".trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
