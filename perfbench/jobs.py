"""Job lists of the three workloads, how one job runs, and its output check.

A job is a plain dict so that a result file can list it.  ``cli`` jobs call
``qteleport.cli.main`` in-process with stdout and stderr captured; the
``dilate`` jobs of ``exact_large_d`` call the library directly.  Every job
input derives from the workload seed; the package never sees the seed
itself, only the generated channels, weights and per-job Monte Carlo seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

WORKERS_ENV = "QTELEPORT_WORKERS"

EXACT_TOL = 1e-9
MC_SIGMAS = 5.0
DILATION_TOL = 1e-10
FIGURE_CHANNELS = 4  # entanglement levels in figure1
FIGURE_POINTS = 100  # cos_theta grid 0.00 .. 0.99

COMBOS = (("residual", "auto"), ("product", "paper"), ("residual", "paper"), ("product", "auto"))

# Full-size and smoke-size parameters per workload.  At the larger exact
# dimension the first two pairs already cover both strategies and both
# correction modes; each such job takes about 2 s on the seed code.
SIZES = {
    "full": {
        "mc_dims": ((2, 100_000), (4, 40_000), (6, 15_000)),
        "mc_workers_job": (4, 40_000),
        "exact": ((8, COMBOS), (12, COMBOS[:2])),
        "dilate_dims": (5, 6),
        "cli_runs": 20_000,
    },
    "smoke": {
        "mc_dims": ((2, 2_000), (3, 1_000), (4, 500)),
        "mc_workers_job": (3, 1_000),
        "exact": ((3, COMBOS), (4, COMBOS[:2])),
        "dilate_dims": (2, 3),
        "cli_runs": 500,
    },
}


def _channel(rng: np.random.Generator, d: int) -> tuple[list[float], str]:
    """Random Schmidt coefficients and a conclusive weight for them.

    The weight is either the positivity maximum or a random share of it.
    """
    probs = rng.random(d) + 0.05
    probs /= probs.sum()
    coeffs = [float(c) for c in np.sqrt(probs)]
    if rng.random() < 0.5:
        return coeffs, "max"
    return coeffs, repr(float(rng.uniform(0.2, 0.95) * d * probs.min()))


def _teleport(rng, d, strategy, corrections, runs, **extra) -> dict:
    coeffs, lam = _channel(rng, d)
    argv = [
        "teleport",
        "--coeffs", ",".join(repr(c) for c in coeffs),
        "--lambda", lam,
        "--strategy", strategy,
        "--corrections", corrections,
        "--runs", str(runs),
        "--seed", str(int(rng.integers(1, 2**31))),
    ]
    return {"kind": "cli", "argv": argv, "runs": runs, "workers": 1, **extra}


def make_jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The workload's job list for one seed; the same seed gives the same list."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    p = SIZES[size]
    jobs = []
    if workload == "mc_sweep":
        for d, runs in p["mc_dims"]:
            # The middle dimension takes the other two pairs, so all four occur.
            for strategy, corrections in COMBOS[2:] if d == p["mc_dims"][1][0] else COMBOS[:2]:
                jobs.append(_teleport(rng, d, strategy, corrections, runs))
        d, runs = p["mc_workers_job"]
        jobs.append(_teleport(rng, d, "residual", "auto", runs, workers=2))
    elif workload == "exact_large_d":
        for d, combos in p["exact"]:
            for strategy, corrections in combos:
                jobs.append(_teleport(rng, d, strategy, corrections, 0))
        for d in p["dilate_dims"]:
            for strategy in ("product", "residual"):
                coeffs, lam = _channel(rng, d)
                jobs.append({"kind": "dilate", "coeffs": coeffs, "lambda": lam, "strategy": strategy})
    elif workload == "cli_small":
        jobs.append({"kind": "cli", "argv": ["verify", "--seed", str(int(rng.integers(1, 2**31)))]})
        jobs.append({"kind": "cli", "argv": ["figure1"]})
        runs = p["cli_runs"]
        for d, (strategy, corrections) in zip((2, 3, 2, 3), COMBOS):
            job = _teleport(rng, d, strategy, corrections, runs, transcript=True)
            job["argv"] += ["--format", "jsonl"]
            jobs.append(job)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# -- running --------------------------------------------------------------


class JobFailure(Exception):
    """A job raised, exited non-zero or failed its output check."""


def run_job(job: dict, qt, scratch: Path) -> dict:
    """Run one job; returns what its check needs.  Raises on a failed run."""
    if job["kind"] == "dilate":
        return _run_dilate(job, qt)
    argv = list(job["argv"])
    transcript = None
    if job.get("transcript"):
        transcript = scratch / "transcript.jsonl"
        argv += ["--transcript", str(transcript)]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(job.get("workers", 1))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qt.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        if saved is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = saved
    if code != 0:
        raise JobFailure(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return {"stdout": out.getvalue(), "transcript": transcript}


def _run_dilate(job: dict, qt) -> dict:
    d = len(job["coeffs"])
    ch = qt.channel.make_channel(job["coeffs"])
    basis = qt.weyl.build_weyl_basis(d)
    lam = qt.povm.lambda_max(ch) if job["lambda"] == "max" else float(job["lambda"])
    base = qt.povm.build_conclusive_povm(ch, basis, lam)
    if job["strategy"] == "product":
        refined = qt.povm.refine_inconclusive_product(base)
    else:
        refined = qt.povm.refine_inconclusive_residual(base, basis)
    dil = qt.dilation.dilate(refined)
    maps = qt.dilation.dilated_channel_maps(dil, refined, ch)
    return {"residuals": dil.residuals, "maps": maps, "refined": refined, "channel": ch}


# -- checking -------------------------------------------------------------


def check_job(job: dict, output: dict, qt) -> dict:
    """Check one job's output; returns counters.  Raises JobFailure."""
    if job["kind"] == "dilate":
        worst = float(np.max(output["residuals"]))
        if not worst <= DILATION_TOL:
            raise JobFailure(f"dilation residual {worst:.3e} > {DILATION_TOL}")
        direct = qt.fidelity.channel_maps(output["refined"], output["channel"])
        gap = float(np.max(np.abs(np.abs(output["maps"]) - np.abs(direct))))
        if not gap <= DILATION_TOL:
            raise JobFailure(f"dilated maps differ from direct maps by {gap:.3e}")
        return {}
    command = job["argv"][0]
    if command == "verify":
        return _check_verify(output["stdout"])
    if command == "figure1":
        return _check_figure(output["stdout"], qt)
    return _check_teleport(job, output, qt)


def _check_verify(stdout: str) -> dict:
    last = stdout.strip().splitlines()[-1]
    passed, total = (int(x) for x in last.split()[0].split("/"))  # "k/n checks passed"
    if passed != total or "FAIL" in stdout:
        raise JobFailure(f"verify: {last}")
    return {}


def _check_figure(stdout: str, qt) -> dict:
    lines = stdout.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    want_rows = FIGURE_CHANNELS * (FIGURE_POINTS + 1)  # plus one arrow row per channel
    if lines[0] != "entropy_bits,cos_theta,fidelity_opt,is_arrow_point" or len(rows) != want_rows:
        raise JobFailure(f"figure1: header {lines[0]!r}, {len(rows)} rows, want {want_rows}")
    overlaps = {}
    for entropy, ct, fid, arrow in rows:
        if entropy not in overlaps:
            overlaps[entropy] = qt.formulas.channel_from_entropy(float(entropy))[1]
        cc = overlaps[entropy]
        ct, fid = float(ct), float(fid)
        if arrow == "1" and abs(ct) >= 1.0:
            # Product channel: the arrow sits at the unreachable overlap 1.
            want = qt.formulas.qubit_average_fidelity(0.0)
        else:
            want = qt.formulas.relaxed_angle_fidelity(cc, ct, 1.0 - abs(ct))
        if not abs(fid - want) <= EXACT_TOL:
            raise JobFailure(f"figure1 row {entropy},{ct}: {fid} != {want}")
    return {}


def _total_row(stdout: str, fmt: str) -> dict:
    if fmt == "jsonl":
        rows = [json.loads(line) for line in stdout.splitlines()]
    else:
        lines = stdout.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    (total,) = [row for row in rows if row["kind"] == "total"]
    return total


def _check_teleport(job: dict, output: dict, qt) -> dict:
    argv = job["argv"]
    opt = {argv[k]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}
    coeffs = np.array([float(c) for c in opt["--coeffs"].split(",")])
    d = coeffs.size
    probs = coeffs**2 / np.sum(coeffs**2)
    lam = d * float(probs.min()) if opt["--lambda"] == "max" else float(opt["--lambda"])
    if opt["--strategy"] == "residual":
        want = qt.formulas.optimal_average_fidelity(d, probs, lam)
    else:
        want = qt.formulas.product_strategy_fidelity(d, lam)
    total = _total_row(output["stdout"], opt.get("--format", "csv"))
    exact = float(total["fidelity_term"])
    if not abs(exact - want) <= EXACT_TOL:
        raise JobFailure(f"exact f_total {exact} != closed form {want}")
    counters = {}
    runs = job["runs"]
    if runs > 0:
        mc, se = float(total["mc_fidelity_term"]), float(total["mc_fidelity_term_se"])
        if not abs(mc - exact) <= MC_SIGMAS * se:
            raise JobFailure(f"Monte Carlo f_total {mc} +/- {se} is over {MC_SIGMAS} sigma from {exact}")
        counters["mc_rounds"] = runs
    path = output["transcript"]
    if path is not None:
        data = path.read_bytes()
        records = data.count(b"\n")
        if records != runs or json.loads(data[: data.index(b"\n")])["run_index"] != 0:
            raise JobFailure(f"transcript has {records} records, want {runs}")
        counters["transcript_records"] = records
        counters["transcript_bytes"] = len(data)
        path.unlink()
    return counters

