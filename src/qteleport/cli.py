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
                  ``--transcript``.

Exit codes: 0 ok, 1 check failure, 2 usage/config error, each refusal one
``usage error:`` line.  Numbers in CSV output carry 12 significant digits so
regression diffs stay meaningful.  Transcript records are written here alone.
A seed fixes every Monte Carlo result; no command reads the environment.
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
from .fidelity import MAX_RUNS, FidelityReport, report, simulate
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

# Runs whose transcript lines are built as one byte string: at under 128
# bytes a line, each of a slice's byte strings stays below glibc's default
# mmap threshold, so no slice maps and unmaps its memory.
TRANSCRIPT_SLICE = 1 << 10

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


class _Parser(argparse.ArgumentParser):
    """A parser whose every refusal is one ``usage error:`` line; ``add_subparsers`` makes its subparsers so too."""

    def error(self, message: str):
        raise _usage_error(message)


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
    parser = _Parser(
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
            args.coeffs = [float(tok) for tok in args.coeffs.split(",")]
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
    if args.d is not None and args.d * args.d > sys.maxsize:
        raise _usage_error(f"--d {args.d} is too large: the joint dimension d^2 must be at most {sys.maxsize}")
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


# json.dumps writes a finite float as float.__repr__ does, and these as here.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """A float column as JSON literals, each as ``json.dumps`` writes it."""
    cells = list(map(float.__repr__, values.tolist()))
    return cells if np.isfinite(values).all() else list(map(_JSON_NONFINITE.get, cells, cells))


# Per format, how cells are written a column at a time: a float column (CSV
# at 12 significant digits), a text cell with the text in place of %s, and
# a number left out.  Every text written is letters, digits, underscores
# and commas, so none needs escaping.
_CELLS = {
    "csv": (lambda values: list(map("%.12g".__mod__, values.tolist())), "%s", ""),
    "jsonl": (_json_floats, '"%s"', "null"),
}


def _write_table(path: str | None, fmt: str, header: tuple[str, ...], columns: list[list[str]]) -> None:
    """Write the cells ``columns`` (equal-length, in ``header`` order) to ``path``, or to stdout if None.

    A row is the join of its cells: in CSV with commas, after a header
    line; in JSON lines as the object of ``header``'s keys and the row's
    cells, as ``json.dumps`` writes it.
    """
    with (
        open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout)
    ) as stream:
        if fmt == "csv":
            lines = [",".join(header), *map(",".join, zip(*columns))]
        else:
            row = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in header) + "}"
            lines = map(row.__mod__, zip(*columns))
        stream.write("\n".join(lines) + "\n")


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


def _figure_columns(fmt: str) -> list[list[str]]:
    """The ``figure1`` cells in ``FIGURE_HEADER`` order: per entropy, the curve over the grid, then its arrow."""
    rows = []
    for s in FIGURE_ENTROPIES:
        channel, cos_theta_c = channel_from_entropy(s)
        for ct in FIGURE_GRID:
            rows.append((s, ct, relaxed_angle_fidelity(cos_theta_c, ct, 1.0 - ct), 0))
        rows.append((s, cos_theta_c, qubit_average_fidelity(lambda_max(channel)), 1))
    *numbers, arrows = zip(*rows)
    return [*(_CELLS[fmt][0](np.array(column)) for column in numbers), list(map(str, arrows))]


def cmd_figure1(args: argparse.Namespace) -> int:
    _echo("command=figure1", f"format={args.fmt}")
    _write_table(args.out, args.fmt, FIGURE_HEADER, _figure_columns(args.fmt))
    return 0


def _teleport_columns(p: PovmSet, exact: FidelityReport, mc: FidelityReport | None, fmt: str) -> list[list[str]]:
    """The teleport cells in ``TELEPORT_HEADER`` order: one row per outcome of ``p``, then the three totals.

    An outcome's ``kind`` and ``detail`` come from the POVM's table: the
    detail is its label alpha, or "i,j" for the product piece i + d j.  A
    number column is one array, the report's column with its three totals
    appended; the total rows leave the other columns blank.
    """
    floats, text, empty = _CELLS[fmt]
    n = p.n_outcomes
    j, i = np.divmod(p.labels, p.d)
    names = [text % name for name in KIND_NAMES + ("total_conclusive", "total_inconclusive", "total")]
    plain = text % "{0}"
    # "i,j" holds a comma, so CSV quotes it too.
    details = [
        ('"{1},{2}"' if kind == PRODUCT else plain).format(*cell)
        for kind, *cell in zip(p.kinds.tolist(), p.labels.tolist(), i.tolist(), j.tolist())
    ]
    blank = [text % ""] * 3

    def numbers(rep: FidelityReport) -> tuple[list[str], list[str]]:
        """The probability and fidelity-term cells of ``rep``, each column with its totals."""
        probs = (rep.conclusive_probability, rep.inconclusive_probability, 1.0)
        terms = (rep.f_conclusive, rep.f_inconclusive, rep.f_total)
        return floats(np.append(rep.probabilities, probs)), floats(np.append(rep.fidelity_terms, terms))

    columns = [
        [*map(str, range(n)), *blank],
        [*map(names.__getitem__, p.kinds.tolist()), *names[-3:]],
        details + blank,
        *numbers(exact),
    ]
    if mc is None:
        return columns + [[empty] * (n + 3)] * 4
    mc_probs, mc_terms = numbers(mc)
    prob_se, term_se = floats(mc.probability_se), floats(np.append(mc.fidelity_term_se, mc.f_total_se))
    # Of the total rows, only the last has a standard error, that of f_total.
    return columns + [mc_probs, prob_se + [empty] * 3, mc_terms, [*term_se[:n], empty, empty, term_se[n]]]


def _transcript_sink(stream, p: PovmSet):
    """Write each block ``simulate`` hands over, (first run index, outcomes), as JSONL bytes, one line per run.

    The one writer of a run's record, its classical message: each line is
    ``json.dumps`` of ``run_index``, ``outcome_alpha``, ``conclusive_flag``
    (1 for kind ``CONCLUSIVE``) and ``bits_sent`` (ceil(log2 n) label bits
    for n outcomes, plus the flag), all nonnegative ints.  So each outcome's
    line is fixed but for the run index.  Row a of a byte table holds
    ``{"run_index": ``, a field of zero bytes as wide as the block's largest
    run index, then outcome a's tail, zero-padded to the longest tail.  A
    block writes its run indices as right-aligned ASCII digits (places above
    the leading digit stay zero) into digit rows kept from block to block;
    then, a slice of ``TRANSCRIPT_SLICE`` runs at a time, it takes their
    rows by outcome, copies the digits into the field and drops every zero
    byte.  ``stream`` is binary, so each line ends in exactly one ``\n`` byte.
    """
    bits = (p.n_outcomes - 1).bit_length() + 1
    tails = [
        f', "outcome_alpha": {a}, "conclusive_flag": {int(kind == CONCLUSIVE)}, "bits_sent": {bits}}}\n'
        for a, kind in enumerate(p.kinds.tolist())
    ]
    size = max(map(len, tails))
    tails = np.frombuffer("".join(t.ljust(size, "\0") for t in tails).encode("ascii"), np.uint8)
    tails = tails.reshape(p.n_outcomes, size)
    head = np.frombuffer(b'{"run_index": ', np.uint8)

    # Run indices only grow from block to block, so one table at a time is kept.
    @functools.lru_cache(maxsize=1)
    def rows(width: int) -> tuple[np.ndarray, np.ndarray]:
        """The byte table with a field of ``width`` digits, and the field's place values as a column."""
        field = np.zeros((len(tails), width), np.uint8)
        table = np.concatenate([np.broadcast_to(head, (len(tails), head.size)), field, tails], axis=1)
        return table, 10 ** np.arange(width - 1, -1, -1)[:, None]

    held = {}

    def scratch(dtype, size: int) -> np.ndarray:
        """A flat buffer of ``size`` items of ``dtype``, reused from block to block and reallocated only to grow."""
        buffer = held.get(dtype)
        if buffer is None or buffer.size < size:
            buffer = held[dtype] = np.empty(size, dtype)
        return buffer[:size]

    def write(start: int, alpha: np.ndarray) -> None:
        index = np.arange(start, start + alpha.size)
        table, places = rows(len(str(start + alpha.size - 1)))
        width, n = len(places), alpha.size
        # One row of digits per place, units last, by repeated division by 10.
        quotient, next_quotient, rest = scratch(np.int64, 3 * n).reshape(3, n)
        np.copyto(quotient, index)
        digits = scratch(np.int8, width * n).reshape(width, n)
        for row in digits[::-1]:
            np.floor_divide(quotient, 10, out=next_quotient)
            np.multiply(next_quotient, -10, out=rest)
            rest += quotient
            row[...] = rest
            quotient, next_quotient = next_quotient, quotient
        digits += ord("0")
        # A place above the leading digit stays a zero byte; the units digit always shows.
        shown = scratch(np.bool_, (width - 1) * n).reshape(-1, n)
        digits[:-1] *= np.greater_equal(index, places[:-1], out=shown)
        # The lines are built a fixed slice of runs at a time, so no byte string grows with the block.
        for start in range(0, n, TRANSCRIPT_SLICE):
            part = slice(start, start + TRANSCRIPT_SLICE)
            lines = table.take(alpha[part], axis=0)
            lines[:, head.size : head.size + width] = digits[:, part].T
            stream.write(lines.tobytes().replace(b"\0", b""))

    return write


def cmd_teleport(args: argparse.Namespace) -> int:
    _check_channel_flags(args)
    if args.runs < 0:
        raise _usage_error(f"--runs must be nonnegative, got {args.runs}")
    if args.runs > MAX_RUNS:
        raise _usage_error(f"--runs {args.runs} exceeds the ceiling of {MAX_RUNS} runs")
    _check_seed(args.seed)
    if (
        args.out is not None
        and args.transcript is not None
        and os.path.realpath(args.out) == os.path.realpath(args.transcript)
    ):
        raise _usage_error(f"--out and --transcript name the same file {args.out!r}")
    _echo(
        "command=teleport",
        *_channel_echo(args),
        f"strategy={args.strategy}",
        f"corrections={args.corrections}",
        f"runs={args.runs}",
        f"seed={args.seed}",
        f"format={args.fmt}",
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
        # A given transcript is opened, and so emptied, even at --runs 0.
        with (
            open(args.transcript, "wb") if args.transcript is not None else contextlib.nullcontext()
        ) as stream:
            mc = None if args.runs == 0 else simulate(
                refined,
                channel,
                basis,
                args.corrections,
                n_runs=args.runs,
                rng=args.seed,
                transcript=None if stream is None else _transcript_sink(stream, refined),
            )
    except QTeleportError as exc:
        raise _usage_error(str(exc))
    _write_table(args.out, args.fmt, TELEPORT_HEADER, _teleport_columns(refined, exact, mc, args.fmt))
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
