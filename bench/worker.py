"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SIZE MODE [SPANS_PATH]

MODE is `setup` (import and generate inputs, then stop), `run` (time
every job once), `check` (also check every output against its
independent route) or `trace` (run with the span tracer installed and
write the spans to SPANS_PATH).  The last line of standard output is a
JSON object with the pass's timings.  Set-up ends when `f1geom` is
imported and the workload's inputs are generated; `ready` is that
moment on the shared monotonic clock.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

from common import ORACLES, OUT, SRC, CliOutput, digest

WORKLOADS = ("toric", "hilbert", "cli_corpus")


def setup(workload: str, seed: int, size: str, workdir):
    if not (SRC / "f1geom" / "__init__.py").is_file():
        raise SystemExit(f"no f1geom sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ORACLES)]
    from tracer import LAYERS
    for layer in LAYERS:
        module = importlib.import_module(f"f1geom.{layer}")
        if not module.__file__.startswith(str(SRC)):
            raise SystemExit(f"f1geom.{layer} was imported from {module.__file__}")
    module = importlib.import_module(workload)
    return module.make_jobs(seed, size, workdir)


def run_pass(jobs, mode: str, spans_path=None) -> dict:
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    times, outputs, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            out, error = job.run(), None
        except Exception as e:  # a failing job is counted, the pass goes on
            out, error = None, f"{type(e).__name__}: {e}"[:300]
        times.append(clock() - t0)
        outputs.append(out)
        errors.append(error)
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall, "peak_rss_mb": rss_mb, "jobs": []}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["counters"]["cli.output_bytes"] = sum(
            len(o.stdout) for o in outputs if isinstance(o, CliOutput))
        tracer.write_spans(spans_path)
    for job, t, out, error in zip(jobs, times, outputs, errors):
        row = {"name": job.name, "s": t, "error": error,
               "digest": None if error else digest(out), "wrong": None}
        if mode == "check" and error is None:
            try:
                job.check(out)
            except AssertionError as e:
                row["wrong"] = str(e)[:300] or "output check failed"
            except Exception:
                row["wrong"] = traceback.format_exc(limit=2)[-300:]
        result["jobs"].append(row)
    return result


def main(argv) -> int:
    workload, seed, size, mode = argv[1], int(argv[2]), argv[3], argv[4]
    if workload not in WORKLOADS or mode not in ("setup", "run", "check", "trace"):
        raise SystemExit(f"usage: {__doc__}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = setup(workload, seed, size, workdir)
        ready = time.monotonic()
        result = {"ready": ready, "jobs": len(jobs)}
        if mode != "setup":
            result.update(run_pass(jobs, mode, argv[5] if mode == "trace" else None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
