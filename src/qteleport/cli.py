"""Command-line front end: invariant suite, fidelity reports, figure data.

Subcommands, each taking only the flags it reads:

* ``verify``   -- run the invariant battery, one row per check, exit 1 on
                  any failure.  Flags: ``--d``, ``--coeffs``, ``--entropy``,
                  ``--cos-theta-c``, ``--lambda``, ``--seed``.
* ``figure1``  -- emit the optimal-fidelity-vs-overlap curves as CSV (or
                  JSON lines), one curve per channel entanglement level.
                  Flags: ``--out``, ``--format``.
* ``teleport`` -- exact fidelity report for one configuration, optionally
                  with a Monte Carlo estimate and a classical transcript.
                  Flags: those of ``verify``, plus ``--strategy``,
                  ``--corrections``, ``--runs``, ``--out``, ``--format`` and
                  ``--transcript``.  Only this command reads
                  ``QTELEPORT_WORKERS``.

Exit codes: 0 ok, 1 check failure, 2 usage/config error.  Numbers in CSV
output carry 12 significant digits so regression diffs stay meaningful.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .channel import SchmidtChannel, make_channel, qubit_channel_from_cos_theta
from .errors import QTeleportError
from .fidelity import FidelityReport, report, simulate, transcript_bits
from .formulas import channel_from_entropy, qubit_average_fidelity, relaxed_angle_fidelity
from .povm import (
    CONCLUSIVE,
    PRODUCT,
    PovmSet,
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
FIGURE_HEADER = ("entropy_bits", "cos_theta", "fidelity_opt", "is_arrow_point")
# The ``kind`` cell of each outcome kind code (see ``povm``); a report's POVM is refined.
KIND_NAMES = ("conclusive", "inconclusive_product", "inconclusive_residual")
TELEPORT_HEADER = (
    "outcome",
    "kind",
    "detail",
    "probability",
    "fidelity_term",
    "mc_probability",
    "mc_probability_se",
    "mc_fidelity_term",
    "mc_fidelity_term_se",
)


def _usage_error(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _echo(*parts: str) -> None:
    """Print the settings the command reads as one stderr line."""
    print("# " + " ".join(parts), file=sys.stderr)


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=None, help="qudit dimension")
    p.add_argument("--coeffs", type=str, default=None, help="Schmidt coefficients a1,a2,...")
    p.add_argument("--entropy", type=float, default=None, help="channel entanglement entropy in bits (d=2)")
    p.add_argument("--cos-theta-c", type=float, default=None, help="channel overlap parameter (d=2)")
    p.add_argument("--lambda", dest="lam", type=str, default="max", help="conclusive weight, number or 'max'")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Conclusive teleportation of d-dimensional states via joint POVMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the invariant battery")
    _add_channel_flags(verify)
    verify.add_argument("--seed", type=int, default=2026, help="random seed (default: %(default)s)")
    verify.set_defaults(run=cmd_verify)

    figure = sub.add_parser("figure1", help="emit fidelity-vs-overlap curves")
    _add_output_flags(figure)
    figure.set_defaults(run=cmd_figure1)

    teleport = sub.add_parser("teleport", help="fidelity report for one configuration")
    _add_channel_flags(teleport)
    teleport.add_argument("--strategy", choices=("product", "residual"), default="residual")
    teleport.add_argument("--corrections", choices=("auto", "paper"), default="auto")
    teleport.add_argument("--runs", type=int, default=0, help="Monte Carlo runs (0 = exact only)")
    teleport.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    _add_output_flags(teleport)
    teleport.add_argument("--transcript", type=str, default=None, help="classical transcript path")
    teleport.set_defaults(run=cmd_teleport)
    return parser


def _check_channel_flags(args: argparse.Namespace) -> None:
    """Validate the channel flags; parse ``coeffs`` and ``lam`` and resolve ``d`` in place.

    ``lam`` becomes None for the positivity maximum.
    """
    if args.coeffs is not None:
        try:
            args.coeffs = [float(tok) for tok in args.coeffs.split(",") if tok != ""]
        except ValueError as exc:
            raise _usage_error(f"bad --coeffs: {exc}")
    if args.lam == "max":
        args.lam = None
    else:
        token = args.lam
        try:
            args.lam = float(token)
        except ValueError:
            raise _usage_error(f"--lambda must be a number or 'max', got {token!r}")
        if not math.isfinite(args.lam):
            raise _usage_error(f"--lambda must be finite, got {token!r}")
    given = [x for x in (args.coeffs, args.entropy, args.cos_theta_c) if x is not None]
    if len(given) > 1:
        raise _usage_error("give at most one of --coeffs, --entropy, --cos-theta-c")
    if args.d is not None and args.d < 2:
        raise _usage_error(f"--d must be at least 2, got {args.d}")
    if args.coeffs is not None:
        if args.d is not None and args.d != len(args.coeffs):
            raise _usage_error(f"--d {args.d} conflicts with {len(args.coeffs)} coefficients")
        args.d = len(args.coeffs)
    elif args.entropy is not None or args.cos_theta_c is not None:
        if args.d is not None and args.d != 2:
            raise _usage_error("--entropy/--cos-theta-c define a d=2 channel")
        args.d = 2
    elif args.d is None:
        args.d = 2


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise _usage_error(f"--seed must be nonnegative, got {seed}")


def _channel_echo(args: argparse.Namespace) -> list[str]:
    parts = [f"d={args.d}"]
    if args.coeffs is not None:
        parts.append("coeffs=" + ",".join(repr(c) for c in args.coeffs))
    if args.entropy is not None:
        parts.append(f"entropy={args.entropy!r}")
    if args.cos_theta_c is not None:
        parts.append(f"cos_theta_c={args.cos_theta_c!r}")
    parts.append("lambda=max" if args.lam is None else f"lambda={args.lam!r}")
    return parts


def _resolve_channel(args: argparse.Namespace) -> SchmidtChannel:
    if args.coeffs is not None:
        return make_channel(args.coeffs)
    if args.entropy is not None:
        return channel_from_entropy(args.entropy)[0]
    if args.cos_theta_c is not None:
        return qubit_channel_from_cos_theta(args.cos_theta_c)
    return make_channel(np.full(args.d, 1.0 / np.sqrt(args.d)))


def _csv_field(value) -> str:
    """``value`` as one CSV cell, as ``csv.writer`` writes it.

    A float has 12 significant digits, None is empty, and anything else is
    ``str`` of it, quoted if it holds a comma, quote or newline.
    """
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(path: str | None, fmt: str, header: tuple[str, ...], columns: list) -> None:
    """Write the table ``columns`` (equal-length, in ``header`` order) to ``path``, or to stdout if None.

    CSV has a header line and then one line per row, each cell formatted
    by ``_csv_field`` a column at a time.  JSON lines have one object per
    row with full-precision floats and null.
    """
    with (
        open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout)
    ) as stream:
        if fmt == "csv":
            lines = map(",".join, zip(*(map(_csv_field, column) for column in columns)))
            stream.write("\n".join([",".join(map(_csv_field, header)), *lines]) + "\n")
        else:
            stream.writelines(json.dumps(dict(zip(header, row))) + "\n" for row in zip(*columns))


def cmd_verify(args: argparse.Namespace) -> int:
    # A given --d or --coeffs limits the battery to that one dimension.
    d_explicit = args.d is not None or args.coeffs is not None
    # Any channel flag picks teleport's channel; none, the cos_theta_c = 0.6 qubit.
    channel_given = d_explicit or args.entropy is not None or args.cos_theta_c is not None
    _check_channel_flags(args)
    _check_seed(args.seed)
    _echo("command=verify", *_channel_echo(args), f"seed={args.seed}")
    try:
        channel = _resolve_channel(args) if channel_given else qubit_channel_from_cos_theta(0.6)
    except QTeleportError as exc:
        raise _usage_error(str(exc))
    results = run_battery(
        dims=(args.d,) if d_explicit else (2, 3),
        seed=args.seed,
        configured=(channel, args.lam),
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


def _figure_rows() -> list[tuple]:
    rows = []
    for s in FIGURE_ENTROPIES:
        channel, cos_theta_c = channel_from_entropy(s)
        for ct in FIGURE_GRID:
            rows.append((s, ct, relaxed_angle_fidelity(cos_theta_c, ct, 1.0 - ct), 0))
        rows.append((s, cos_theta_c, qubit_average_fidelity(lambda_max(channel)), 1))
    return rows


def cmd_figure1(args: argparse.Namespace) -> int:
    _echo("command=figure1", f"format={args.fmt}")
    _write_table(args.out, args.fmt, FIGURE_HEADER, list(zip(*_figure_rows())))
    return 0


def _teleport_columns(p: PovmSet, exact: FidelityReport, mc: FidelityReport | None) -> list[tuple]:
    """The teleport table in ``TELEPORT_HEADER`` order: one row per outcome of ``p``, then the three totals.

    An outcome's ``detail`` is its label alpha, or "i,j" for the product piece i + d j.
    """
    n, d = p.n_outcomes, p.d
    kinds = tuple(map(KIND_NAMES.__getitem__, p.kinds.tolist()))
    details = tuple(
        f"{label % d},{label // d}" if kind == PRODUCT else str(label)
        for kind, label in zip(p.kinds.tolist(), p.labels.tolist())
    )
    columns = [tuple(range(n)), kinds, details, exact.probabilities, exact.fidelity_terms]
    if mc is None:
        columns += [(None,) * n] * 4
    else:
        columns += [mc.probabilities, mc.probability_se, mc.fidelity_terms, mc.fidelity_term_se]
    totals = [
        ("total_conclusive", exact.conclusive_probability, exact.f_conclusive,
         mc.conclusive_probability if mc else None, mc.f_conclusive if mc else None, None),
        ("total_inconclusive", exact.inconclusive_probability, exact.f_inconclusive,
         mc.inconclusive_probability if mc else None, mc.f_inconclusive if mc else None, None),
        ("total", 1.0, exact.f_total,
         1.0 if mc else None, mc.f_total if mc else None, mc.f_total_se if mc else None),
    ]
    rows = [
        ("", kind, "", prob, fid, mc_prob, None, mc_fid, mc_fid_se)
        for kind, prob, fid, mc_prob, mc_fid, mc_fid_se in totals
    ]
    return [column + total for column, total in zip(columns, zip(*rows))]


def _transcript_sink(stream, p: PovmSet):
    """Write each Monte Carlo block of ``p`` as JSONL, one ``json.dumps(record)`` line per run.

    All fields are ints, so each outcome's line is a template that only
    lacks the run index; the flag is 1 for kind ``CONCLUSIVE``, as ``simulate`` sets it.
    """
    bits = transcript_bits(p.n_outcomes)
    templates = [
        f'{{"run_index": %d, "outcome_alpha": {a}, '
        f'"conclusive_flag": {int(kind == CONCLUSIVE)}, "bits_sent": {bits}}}\n'
        for a, kind in enumerate(p.kinds.tolist())
    ]

    def write(block: dict) -> None:
        lines = "".join(map(templates.__getitem__, block["outcome_alpha"].tolist()))
        stream.write(lines % tuple(block["run_index"].tolist()))

    return write


def _workers() -> int:
    workers = os.environ.get(WORKERS_ENV, "1")
    try:
        n_workers = int(workers)
    except ValueError:
        n_workers = 0
    if n_workers < 1:
        raise _usage_error(f"{WORKERS_ENV} must be a positive integer, got {workers!r}")
    return n_workers


def cmd_teleport(args: argparse.Namespace) -> int:
    _check_channel_flags(args)
    if args.runs < 0:
        raise _usage_error(f"--runs must be nonnegative, got {args.runs}")
    _check_seed(args.seed)
    if (
        args.out is not None
        and args.transcript is not None
        and os.path.realpath(args.out) == os.path.realpath(args.transcript)
    ):
        raise _usage_error(f"--out and --transcript name the same file {args.out!r}")
    n_workers = _workers()
    _echo(
        "command=teleport",
        *_channel_echo(args),
        f"strategy={args.strategy}",
        f"corrections={args.corrections}",
        f"runs={args.runs}",
        f"seed={args.seed}",
        f"format={args.fmt}",
        f"workers={n_workers}",
    )
    try:
        channel = _resolve_channel(args)
        basis = build_weyl_basis(channel.dim)
        lam = lambda_max(channel) if args.lam is None else args.lam
        base = build_conclusive_povm(channel, basis, lam)
        if args.strategy == "product":
            refined = refine_inconclusive_product(base)
        else:
            refined = refine_inconclusive_residual(base, basis)
        exact = report(refined, channel, basis, args.corrections)
        mc = None
        if args.runs > 0:
            with (
                open(args.transcript, "w") if args.transcript is not None else contextlib.nullcontext()
            ) as stream:
                mc = simulate(
                    refined,
                    channel,
                    basis,
                    args.corrections,
                    n_runs=args.runs,
                    rng=args.seed,
                    n_workers=n_workers,
                    transcript=None if stream is None else _transcript_sink(stream, refined),
                )
    except QTeleportError as exc:
        raise _usage_error(str(exc))
    _write_table(args.out, args.fmt, TELEPORT_HEADER, _teleport_columns(refined, exact, mc))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
