"""One pass of a workload in a fresh interpreter.

``run.py`` starts this script once per pass.  It imports the package from
``<root>/src``, generates the job list from the seed, runs the jobs one at
a time in this single thread, checks each job's output outside the timed
region and prints one JSON object with the pass's figures on stdout.

Modes: ``plain`` runs untraced; ``spans`` wraps the package's public
functions and records spans; ``alloc`` does the same under tracemalloc, for
the allocation peaks only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
from spec import ALLOC_TRACKED, LAYERS  # noqa: E402


def _import_package(root: Path) -> SimpleNamespace:
    src = root / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("qteleport")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qteleport imported from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"qteleport.{name}") for name in LAYERS}
    return SimpleNamespace(package=package, **modules)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("plain", "spans", "alloc"), default="plain")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    qt = _import_package(args.root)
    job_list = joblib.make_jobs(args.workload, args.seed, args.size)
    tracer = None
    if args.mode != "plain":
        from tracer import Tracer

        tracer = Tracer(
            alloc=args.mode == "alloc",
            alloc_tracked=ALLOC_TRACKED,
            result_counts={
                "fidelity.simulate.rounds": ("fidelity.simulate", lambda report: report.n_runs),
                "verify.checks": ("verify.run_battery", len),
            },
        )
        modules = {name: getattr(qt, name) for name in LAYERS}
        tracer.install(modules, [qt.package, *modules.values()])
    setup_s = time.monotonic() - args.spawned_at

    job_s, failures, counters = [], [], {}
    mc_wall_s = unattributed_s = 0.0
    for index, job in enumerate(job_list):
        top_before = tracer.top_level_s if tracer else 0.0
        if tracer:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            output = joblib.run_job(job, qt, args.scratch)
        except Exception:  # a job that raises is counted, not fatal
            output = None
            failures.append({"job": index, "error": traceback.format_exc(limit=-3)[-600:]})
        seconds = time.perf_counter() - start
        if tracer:
            tracer.enabled = False
            unattributed_s += seconds - (tracer.top_level_s - top_before)
        job_s.append(seconds)
        if job.get("runs", 0) > 0:
            mc_wall_s += seconds
        if output is None:
            continue
        try:
            for key, value in joblib.check_job(job, output, qt).items():
                counters[key] = counters.get(key, 0) + value
        except joblib.JobFailure as exc:
            failures.append({"job": index, "error": str(exc)})
    if tracer:
        tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(job_s),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "job_s": job_s,
        "mc_wall_s": mc_wall_s,
        "attempted": len(job_list),
        "failures": failures,
        "counters": counters,
        "jobs": job_list,
    }
    if tracer:
        result["trace"] = {
            "unattributed_s": unattributed_s,
            "spans": len(tracer.spans),
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "alloc_peak_bytes": dict(tracer.alloc_peak),
            "counters": dict(tracer.counters),
        }
        if args.mode == "spans":
            with open(args.scratch / "spans.json", "w") as f:
                json.dump(tracer.spans, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
