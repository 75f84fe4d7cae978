"""qteleport benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 35 --trace 0

Each pass runs the workload's whole job list in a fresh interpreter
(``worker.py``), one job at a time: a closed loop with one client.  Passes
repeat until ``--seconds`` is used up (at least three with ``--trace 0``)
and every figure is the median over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, adds one allocation pass, and reports the
per-layer metrics together with the tracing overhead.  The last line of
stdout is the JSON result; the lines before it print every metric with its
unit, the sample count and the run manifest.  A full record goes to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.

``--smoke`` runs each mode once at reduced size; ``selftest.py`` uses it.
The benchmark exits with code 2 if the checkout has no ``src/qteleport``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from jobs import make_jobs  # noqa: E402
from spec import (  # noqa: E402
    ALLOC_TRACKED,
    CALL_COUNTED,
    END_TO_END,
    END_TO_END_INFO,
    LAYERS,
    SELF_TIMED,
    WORKLOADS,
    per_layer_metrics,
)

RUN_LIMIT_S = 170.0  # a run, passes included, must end within 180 s
MIN_PASSES = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# -- manifest -------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:  # not Linux
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(args: argparse.Namespace) -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    size = "smoke" if args.smoke else "full"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        # Each job sets the variable itself; the inherited value is not used.
        "QTELEPORT_WORKERS": sorted({job.get("workers", 1) for job in make_jobs(args.workload, args.seed, size)}),
        "QTELEPORT_WORKERS_inherited": os.environ.get("QTELEPORT_WORKERS"),
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


# -- passes ---------------------------------------------------------------


def run_pass(args: argparse.Namespace, mode: str, scratch: Path, run_start: float) -> dict:
    remaining = RUN_LIMIT_S - (time.monotonic() - run_start)
    if remaining < 5:
        raise TimeoutError("no time left for another pass")
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", "smoke" if args.smoke else "full",
        "--mode", mode,
        "--scratch", str(scratch),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError(f"{mode} pass still running after {remaining:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} pass exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["mode"] = mode
    result["pass_s"] = time.monotonic() - spawned_at
    return result


def run_passes(args: argparse.Namespace, scratch: Path) -> list[dict]:
    """Run passes until the time budget is spent."""
    modes = ("plain", "spans") if args.trace else ("plain",)
    start = time.monotonic()
    deadline = start + args.seconds
    passes: list[dict] = []
    while True:
        for mode in modes:
            passes.append(run_pass(args, mode, scratch, start))
        if args.smoke:
            break
        rounds = len(passes) // len(modes)
        cycle_s = sum(p["pass_s"] for p in passes[-len(modes):])
        # A traced run keeps time for its allocation pass, about one traced pass.
        reserve_s = passes[-1]["pass_s"] if args.trace else 0.0
        if rounds >= (1 if args.trace else MIN_PASSES) and time.monotonic() + cycle_s + reserve_s > deadline:
            break
    if args.trace:
        passes.append(run_pass(args, "alloc", scratch, start))
    return passes


# -- figures --------------------------------------------------------------


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """Metric -> median over passes, and the per-pass samples."""
    samples = {name: [p[name] for p in plain] for name in END_TO_END}
    samples["mc_rounds_per_s"] = [
        p["counters"]["mc_rounds"] / p["mc_wall_s"] for p in plain if p["counters"].get("mc_rounds")
    ]
    return {name: _median(values) for name, values in samples.items()}, samples


def per_layer(plain: list[dict], spans: list[dict], alloc: list[dict]) -> dict:
    """Per-layer metric -> median over the traced passes (allocation pass for peaks)."""
    traces = [p["trace"] for p in spans]

    def med(values) -> float:
        return _median([float(v) for v in values])

    metrics = {f"{name}.self_s": med(t["self_s"].get(name, 0.0) for t in traces) for name in SELF_TIMED}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(
            sum(v for k, v in t["self_s"].items() if k.startswith(layer + ".")) for t in traces
        )
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = med(t["calls"].get(name, 0) for t in traces)
    for name in ALLOC_TRACKED:
        metrics[f"{name}.alloc_peak_mb"] = med(p["trace"]["alloc_peak_bytes"].get(name, 0) / 2**20 for p in alloc)
    rounds = [t["counters"].get("fidelity.simulate.rounds", 0) for t in traces]
    metrics["fidelity.simulate.rounds"] = med(rounds)
    metrics["fidelity.simulate.rounds_per_s"] = med(
        n / t["total_s"]["fidelity.simulate"] if n else 0.0 for n, t in zip(rounds, traces)
    )
    metrics["verify.checks"] = med(t["counters"].get("verify.checks", 0) for t in traces)
    metrics["cli.transcript.records"] = med(p["counters"].get("transcript_records", 0) for p in spans)
    metrics["cli.transcript.bytes"] = med(p["counters"].get("transcript_bytes", 0) for p in spans)
    metrics["trace.wall_s"] = med(p["wall_s"] for p in spans)
    # Untraced and traced passes alternate; pairing neighbours cancels slow drift.
    metrics["trace.overhead_s"] = med(t["wall_s"] - u["wall_s"] for u, t in zip(plain, spans))
    metrics["trace.unattributed_s"] = med(t["unattributed_s"] for t in traces)
    return {name: metrics[name] for name in per_layer_metrics()}


def _show(name: str, value: float, unit: str, samples: list[float] | None = None) -> None:
    line = f"{name:<44} {value:>14.6g} {unit}"
    if samples:
        line += f"   (median of n={len(samples)}, min {min(samples):.6g}, max {max(samples):.6g})"
    print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per mode at reduced size")
    args = parser.parse_args()
    if not (ROOT / "src" / "qteleport" / "__init__.py").is_file():
        _fail(f"no qteleport sources under {ROOT / 'src'}; run from a full checkout")

    scratch = OUT_DIR / "scratch" / args.workload
    scratch.mkdir(parents=True, exist_ok=True)
    info = manifest(args)
    print("# manifest " + json.dumps(info, sort_keys=True))

    try:
        passes = run_passes(args, scratch)
    except (TimeoutError, RuntimeError, ValueError) as exc:
        _fail(f"{args.workload}: run aborted: {exc}")
    plain = [p for p in passes if p["mode"] == "plain"]
    spans = [p for p in passes if p["mode"] == "spans"]
    alloc = [p for p in passes if p["mode"] == "alloc"]

    attempted = sum(p["attempted"] for p in passes)
    failures = [dict(f, mode=p["mode"]) for p in passes for f in p["failures"]]
    for failure in failures:
        print(f"# FAILED job {failure['job']} ({failure['mode']} pass): {failure['error'].strip().splitlines()[-1]}")
    e2e, samples = end_to_end(plain)
    print(f"# {args.workload}: {len(plain)} untraced passes of {plain[0]['attempted']} jobs")
    for name, (unit, _, _) in END_TO_END.items():
        _show(name, e2e[name], unit, samples[name])
    if samples["mc_rounds_per_s"]:
        _show("mc_rounds_per_s", e2e["mc_rounds_per_s"], END_TO_END_INFO["mc_rounds_per_s"], samples["mc_rounds_per_s"])
    _show("failed_frac", len(failures) / attempted, END_TO_END_INFO["failed_frac"])

    if args.trace:
        metrics = per_layer(plain, spans, alloc)
        units = per_layer_metrics()
        print(f"# traced: {len(spans)} span passes, {len(alloc)} allocation pass")
        for name, value in metrics.items():
            _show(name, value, units[name])
    else:
        metrics = e2e
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    reported = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    record = {
        "manifest": info,
        "metrics": reported,
        "end_to_end": e2e,
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "jobs": plain[0]["jobs"],
        "passes": [{k: v for k, v in p.items() if k != "jobs"} for p in passes],
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": reported}))


if __name__ == "__main__":
    main()
