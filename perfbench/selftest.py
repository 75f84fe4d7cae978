"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the workloads and metrics the
code reports, that a smoke run of every workload (reduced size, one pass
per mode) prints every end-to-end and per-layer metric with its unit, that
the seed changes the generated channels but not the metric names, and that
the benchmark refuses to run where the package sources are missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import make_jobs  # noqa: E402
from spec import END_TO_END, HIGHER_IS_BETTER, WORKLOADS, per_layer_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(spec["command"] == ["python3", "perfbench/run.py"], f"command {spec['command']}")
    check(spec["paths"] == ["perfbench"], f"paths {spec['paths']}")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check({w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS, "workloads differ from spec.py")
    for w in spec["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    check(e2e == END_TO_END, "end_to_end differs from spec.py")
    check(all(0 < b <= 0.25 for _, _, b in e2e.values()), "bounds must lie in (0, 0.25]")
    check(e2e["setup_s"][2] == max(b for _, _, b in e2e.values()), "setup_s needs the largest bound")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(layer == per_layer_metrics(), "per_layer differs from spec.py")
    for m in spec["per_layer"]:
        want = "higher" if m["name"] in HIGHER_IS_BETTER else "lower"
        check(m["better"] == want, f"{m['name']} better={m['better']}, want {want}")
    names = list(e2e) + list(layer) + list(WORKLOADS)
    check(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        check(bool(NAME.match(name)), f"bad name {name!r}")
    for unit in [u for u, _, _ in e2e.values()] + list(layer.values()):
        check(bool(UNIT.match(unit)), f"bad unit {unit!r}")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")


def check_seeded_inputs() -> None:
    for workload in WORKLOADS:
        one = make_jobs(workload, 1)
        check(one == make_jobs(workload, 1), f"{workload}: same seed gave different jobs")
        check(one != make_jobs(workload, 2), f"{workload}: seeds 1 and 2 gave the same jobs")


def smoke(workload: str, seed: int, trace: int) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} seed {seed}: {result['failed']} of {result['attempted']} jobs failed\n{proc.stdout[-3000:]}")
    want = per_layer_metrics() if trace else {name: unit for name, (unit, _, _) in END_TO_END.items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r}")
        check(f"{name} " in proc.stdout, f"{name} not printed")
    record = ROOT / ".perfbench_out" / f"BENCH_{workload}_seed{seed}_trace{trace}_smoke.json"
    return result, json.loads(record.read_text())["jobs"]


def check_smoke_runs() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, jobs1 = smoke(workload, 1, trace)
            second, jobs2 = smoke(workload, 2, trace)
            check(set(first["metrics"]) == set(second["metrics"]), f"{workload}: metric names depend on the seed")
            check(jobs1 != jobs2, f"{workload}: the seed does not change the generated inputs")
        print(f"ok  smoke {workload}")


def check_refuses_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sweep", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0, "run.py succeeded without the package sources")
    check('"correct"' not in proc.stdout, "run.py printed a result without the package sources")


def main() -> None:
    check_benchmark_json()
    print("ok  BENCHMARK.json matches spec.py")
    check_seeded_inputs()
    print("ok  inputs follow the seed")
    check_refuses_bare_directory()
    print("ok  refuses a directory without src/qteleport")
    check_smoke_runs()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
