"""Command-line front end: invariant suite, fidelity reports, figure data.

Subcommands:

* ``verify``   -- run the invariant battery, one row per check, exit 1 on
                  any failure.
* ``figure1``  -- emit the optimal-fidelity-vs-overlap curves as CSV (or
                  JSON lines), one curve per channel entanglement level.
* ``teleport`` -- exact fidelity report for one configuration, optionally
                  with a Monte Carlo estimate and a classical transcript.

Exit codes: 0 ok, 1 check failure, 2 usage/config error.  Numbers in CSV
output carry 12 significant digits so regression diffs stay meaningful.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, make_channel, qubit_channel_from_cos_theta
from .errors import QTeleportError
from .fidelity import FidelityReport, report, simulate
from .formulas import channel_from_entropy, qubit_average_fidelity, relaxed_angle_fidelity
from .povm import (
    Conclusive,
    InconclusiveProduct,
    InconclusiveResidual,
    build_conclusive_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from .verify import run_battery
from .weyl import build_weyl_basis

WORKERS_ENV = "QTELEPORT_WORKERS"

FIGURE_ENTROPIES = (0.0, 0.19, 0.55, 1.0)
FIGURE_GRID = tuple(k / 100 for k in range(100))  # cos_theta in [0, 0.99]


def _usage_error(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


@dataclass
class RunConfig:
    """Validated knobs of one CLI invocation."""

    command: str
    d: int = 2
    d_explicit: bool = False
    coeffs: list[float] | None = None
    entropy: float | None = None
    cos_theta_c: float | None = None
    lam: float | None = None  # None means the positivity maximum
    strategy: str = "residual"
    corrections: str = "auto"
    n_runs: int = 0
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    transcript: str | None = None
    n_workers: int = 1

    def echo(self) -> str:
        parts = [f"command={self.command}", f"d={self.d}"]
        if self.coeffs is not None:
            parts.append("coeffs=" + ",".join(repr(c) for c in self.coeffs))
        if self.entropy is not None:
            parts.append(f"entropy={self.entropy!r}")
        if self.cos_theta_c is not None:
            parts.append(f"cos_theta_c={self.cos_theta_c!r}")
        parts.append("lambda=max" if self.lam is None else f"lambda={self.lam!r}")
        parts += [
            f"strategy={self.strategy}",
            f"corrections={self.corrections}",
            f"runs={self.n_runs}",
            f"seed={self.seed}",
            f"format={self.fmt}",
            f"workers={self.n_workers}",
        ]
        return " ".join(parts)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Conclusive teleportation of d-dimensional states via joint POVMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "run the invariant battery"),
        ("figure1", "emit fidelity-vs-overlap curves"),
        ("teleport", "fidelity report for one configuration"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--d", type=int, default=None, help="qudit dimension")
        p.add_argument("--coeffs", type=str, default=None, help="Schmidt coefficients a1,a2,...")
        p.add_argument("--entropy", type=float, default=None, help="channel entanglement entropy in bits (d=2)")
        p.add_argument("--cos-theta-c", type=float, default=None, help="channel overlap parameter (d=2)")
        p.add_argument("--lambda", dest="lam", type=str, default="max", help="conclusive weight, number or 'max'")
        p.add_argument("--strategy", choices=("product", "residual"), default="residual")
        p.add_argument("--corrections", choices=("auto", "paper"), default="auto")
        p.add_argument("--runs", type=int, default=0, help="Monte Carlo runs (0 = exact only)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--transcript", type=str, default=None, help="classical transcript path (teleport only)")
    return parser


def _parse_config(args: argparse.Namespace) -> RunConfig:
    coeffs = None
    if args.coeffs is not None:
        try:
            coeffs = [float(tok) for tok in args.coeffs.split(",") if tok != ""]
        except ValueError as exc:
            raise _usage_error(f"bad --coeffs: {exc}")
    if args.lam == "max":
        lam = None
    else:
        try:
            lam = float(args.lam)
        except ValueError:
            raise _usage_error(f"--lambda must be a number or 'max', got {args.lam!r}")
        if not math.isfinite(lam):
            raise _usage_error(f"--lambda must be finite, got {args.lam!r}")
    given = [x for x in (coeffs, args.entropy, args.cos_theta_c) if x is not None]
    if len(given) > 1:
        raise _usage_error("give at most one of --coeffs, --entropy, --cos-theta-c")
    d = args.d
    d_explicit = d is not None
    if coeffs is not None:
        if d is not None and d != len(coeffs):
            raise _usage_error(f"--d {d} conflicts with {len(coeffs)} coefficients")
        d = len(coeffs)
        d_explicit = True
    elif args.entropy is not None or args.cos_theta_c is not None:
        if d is not None and d != 2:
            raise _usage_error("--entropy/--cos-theta-c define a d=2 channel")
        d = 2
    elif d is None:
        d = 2
    if args.runs < 0:
        raise _usage_error(f"--runs must be nonnegative, got {args.runs}")
    workers = os.environ.get(WORKERS_ENV, "1")
    try:
        n_workers = int(workers)
    except ValueError:
        n_workers = 0
    if n_workers < 1:
        raise _usage_error(f"{WORKERS_ENV} must be a positive integer, got {workers!r}")
    return RunConfig(
        command=args.command,
        d=d,
        d_explicit=d_explicit,
        coeffs=coeffs,
        entropy=args.entropy,
        cos_theta_c=args.cos_theta_c,
        lam=lam,
        strategy=args.strategy,
        corrections=args.corrections,
        n_runs=args.runs,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
        transcript=args.transcript,
        n_workers=n_workers,
    )


def _resolve_channel(cfg: RunConfig) -> SchmidtChannel:
    if cfg.coeffs is not None:
        return make_channel(cfg.coeffs)
    if cfg.entropy is not None:
        return channel_from_entropy(cfg.entropy)[0]
    if cfg.cos_theta_c is not None:
        return qubit_channel_from_cos_theta(cfg.cos_theta_c)
    return make_channel(np.full(cfg.d, 1.0 / np.sqrt(cfg.d)))


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_verify(cfg: RunConfig) -> int:
    dims = (cfg.d,) if cfg.d_explicit else (2, 3)
    try:
        channel = _resolve_channel(cfg) if any(
            x is not None for x in (cfg.coeffs, cfg.entropy, cfg.cos_theta_c)
        ) else qubit_channel_from_cos_theta(0.6)
    except QTeleportError as exc:
        raise _usage_error(str(exc))
    results = run_battery(
        dims=dims, seed=cfg.seed or 2026, configured=(channel.dim, channel, cfg.lam)
    )
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  residual {r.residual:.3e}  tol {r.tolerance:.1e}  {status}"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _figure_rows() -> list[dict]:
    rows = []
    for s in FIGURE_ENTROPIES:
        channel, cos_theta_c = channel_from_entropy(s)
        for ct in FIGURE_GRID:
            rows.append(
                {
                    "entropy_bits": s,
                    "cos_theta": ct,
                    "fidelity_opt": relaxed_angle_fidelity(cos_theta_c, ct, 1.0 - ct),
                    "is_arrow_point": 0,
                }
            )
        rows.append(
            {
                "entropy_bits": s,
                "cos_theta": cos_theta_c,
                "fidelity_opt": qubit_average_fidelity(lambda_max(channel)),
                "is_arrow_point": 1,
            }
        )
    return rows


def cmd_figure1(cfg: RunConfig) -> int:
    rows = _figure_rows()
    stream, close = _open_out(cfg.out)
    try:
        if cfg.fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["entropy_bits", "cos_theta", "fidelity_opt", "is_arrow_point"])
            for row in rows:
                writer.writerow(
                    [
                        _fmt(row["entropy_bits"]),
                        _fmt(row["cos_theta"]),
                        _fmt(row["fidelity_opt"]),
                        row["is_arrow_point"],
                    ]
                )
        else:
            for row in rows:
                stream.write(json.dumps(row) + "\n")
    finally:
        if close:
            stream.close()
    return 0


def _tag_fields(tag) -> tuple[str, str]:
    if isinstance(tag, Conclusive):
        return "conclusive", str(tag.alpha)
    if isinstance(tag, InconclusiveProduct):
        return "inconclusive_product", f"{tag.i},{tag.j}"
    if isinstance(tag, InconclusiveResidual):
        return "inconclusive_residual", str(tag.alpha)
    return "remainder", ""


def _write_teleport(stream, fmt: str, exact: FidelityReport, mc: FidelityReport | None):
    header = [
        "outcome",
        "kind",
        "detail",
        "probability",
        "fidelity_term",
        "mc_probability",
        "mc_probability_se",
        "mc_fidelity_term",
        "mc_fidelity_term_se",
    ]
    rows = []
    for k, stat in enumerate(exact.outcomes):
        kind, detail = _tag_fields(stat.tag)
        mc_stat = mc.outcomes[k] if mc is not None else None
        rows.append(
            {
                "outcome": k,
                "kind": kind,
                "detail": detail,
                "probability": stat.probability,
                "fidelity_term": stat.fidelity_term,
                "mc_probability": mc_stat.probability if mc_stat else None,
                "mc_probability_se": mc_stat.probability_se if mc_stat else None,
                "mc_fidelity_term": mc_stat.fidelity_term if mc_stat else None,
                "mc_fidelity_term_se": mc_stat.fidelity_term_se if mc_stat else None,
            }
        )
    totals = [
        ("total_conclusive", exact.conclusive_probability, exact.f_conclusive,
         mc.conclusive_probability if mc else None, mc.f_conclusive if mc else None),
        ("total_inconclusive", exact.inconclusive_probability, exact.f_inconclusive,
         mc.inconclusive_probability if mc else None, mc.f_inconclusive if mc else None),
        ("total", 1.0, exact.f_total, 1.0 if mc else None, mc.f_total if mc else None),
    ]
    for kind, prob, fid, mc_prob, mc_fid in totals:
        rows.append(
            {
                "outcome": "",
                "kind": kind,
                "detail": "",
                "probability": prob,
                "fidelity_term": fid,
                "mc_probability": mc_prob,
                "mc_probability_se": None,
                "mc_fidelity_term": mc_fid,
                "mc_fidelity_term_se": mc.f_total_se if (mc and kind == "total") else None,
            }
        )
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if row[h] is None else (_fmt(row[h]) if isinstance(row[h], float) else row[h]) for h in header]
            )
    else:
        for row in rows:
            stream.write(json.dumps(row) + "\n")


def _transcript_sink(stream):
    """Write each Monte Carlo block as JSONL, one ``json.dumps(record)`` line per run.

    All fields are ints, so formatting them directly gives the same bytes.
    """

    def write(block: dict) -> None:
        bits = block["bits_sent"]
        runs = zip(
            block["run_index"].tolist(),
            block["outcome_alpha"].tolist(),
            block["conclusive_flag"].tolist(),
        )
        stream.write(
            "".join(
                f'{{"run_index": {i}, "outcome_alpha": {a}, '
                f'"conclusive_flag": {c}, "bits_sent": {bits}}}\n'
                for i, a, c in runs
            )
        )

    return write


def cmd_teleport(cfg: RunConfig) -> int:
    try:
        channel = _resolve_channel(cfg)
        basis = build_weyl_basis(channel.dim)
        lam = lambda_max(channel) if cfg.lam is None else cfg.lam
        base = build_conclusive_povm(channel, basis, lam)
        if cfg.strategy == "product":
            refined = refine_inconclusive_product(base)
        else:
            refined = refine_inconclusive_residual(base, basis)
        exact = report(refined, channel, basis, cfg.corrections)
        mc = None
        if cfg.n_runs > 0:
            sink = None
            transcript_stream = None
            if cfg.transcript is not None:
                transcript_stream = open(cfg.transcript, "w")
                sink = _transcript_sink(transcript_stream)
            try:
                mc = simulate(
                    refined,
                    channel,
                    basis,
                    cfg.corrections,
                    n_runs=cfg.n_runs,
                    rng=cfg.seed,
                    n_workers=cfg.n_workers,
                    transcript=sink,
                )
            finally:
                if transcript_stream is not None:
                    transcript_stream.close()
    except QTeleportError as exc:
        raise _usage_error(str(exc))
    stream, close = _open_out(cfg.out)
    try:
        _write_teleport(stream, cfg.fmt, exact, mc)
    finally:
        if close:
            stream.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _parse_config(args)
    print(f"# {cfg.echo()}", file=sys.stderr)
    try:
        if cfg.command == "verify":
            code = cmd_verify(cfg)
        elif cfg.command == "figure1":
            code = cmd_figure1(cfg)
        else:
            code = cmd_teleport(cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return code


if __name__ == "__main__":
    sys.exit(main())
