import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport import cli, fidelity
from qteleport.channel import make_channel, qubit_channel_from_cos_theta
from qteleport.cli import main
from qteleport.fidelity import simulate
from qteleport.formulas import channel_from_entropy, qubit_average_fidelity, relaxed_angle_fidelity
from qteleport.povm import (
    CONCLUSIVE,
    PRODUCT,
    RESIDUAL,
    build_conclusive_povm,
    lambda_max,
    refine_inconclusive_product,
)
from qteleport.weyl import build_weyl_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def per_cell_teleport_text(p, exact, mc, fmt):
    """Oracle: the teleport table row by row from the POVM's outcome table and the report columns.

    Each outcome's kind and detail come from ``p.kinds`` and ``p.labels``,
    and the two probability totals are builtin sums over the report's
    column, conclusive outcomes and the rest.  CSV goes through
    ``csv.writer`` with floats at 12 significant digits and None as an
    empty cell; JSONL is one ``json.dumps`` per row.
    """

    def cell(value):
        if value is None:
            return ""
        return f"{value:.12g}" if isinstance(value, float) else value

    def fields(kind, label):
        if kind == CONCLUSIVE:
            return "conclusive", str(label)
        if kind == PRODUCT:
            j, i = divmod(label, p.d)
            return "inconclusive_product", f"{i},{j}"
        assert kind == RESIDUAL
        return "inconclusive_residual", str(label)

    def split(rep):
        conclusive = sum(q for q, kind in zip(rep.probabilities, kinds) if kind == CONCLUSIVE)
        return conclusive, sum(q for q, kind in zip(rep.probabilities, kinds) if kind != CONCLUSIVE)

    kinds = p.kinds.tolist()
    rows = []
    for k, (kind, label) in enumerate(zip(kinds, p.labels.tolist())):
        if mc is None:
            mc_cols = (None, None, None, None)
        else:
            mc_cols = (mc.probabilities[k], mc.probability_se[k], mc.fidelity_terms[k], mc.fidelity_term_se[k])
        rows.append((k, *fields(kind, label), exact.probabilities[k], exact.fidelity_terms[k], *mc_cols))
    (con, inc), (mc_con, mc_inc) = split(exact), split(mc) if mc else (None, None)
    totals = [
        ("total_conclusive", con, exact.f_conclusive, mc_con, mc.f_conclusive if mc else None, None),
        ("total_inconclusive", inc, exact.f_inconclusive, mc_inc, mc.f_inconclusive if mc else None, None),
        ("total", 1.0, exact.f_total,
         1.0 if mc else None, mc.f_total if mc else None, mc.f_total_se if mc else None),
    ]
    for kind, prob, fid, mc_prob, mc_fid, mc_fid_se in totals:
        rows.append(("", kind, "", prob, fid, mc_prob, None, mc_fid, mc_fid_se))
    stream = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(cli.TELEPORT_HEADER)
        writer.writerows([cell(v) for v in row] for row in rows)
    else:
        stream.writelines(json.dumps(dict(zip(cli.TELEPORT_HEADER, row))) + "\n" for row in rows)
    return stream.getvalue()


def per_cell_figure1_text(fmt):
    """Oracle: the 404 ``figure1`` rows from ``formulas``, written cell by cell.

    Per entanglement entropy, the 100 curve points at cos_theta = k/100 and
    then the arrow point at the channel's own overlap.
    """
    header = ("entropy_bits", "cos_theta", "fidelity_opt", "is_arrow_point")
    rows = []
    for s in (0.0, 0.19, 0.55, 1.0):
        channel, cos_theta_c = channel_from_entropy(s)
        for k in range(100):
            ct = k / 100
            rows.append((s, ct, relaxed_angle_fidelity(cos_theta_c, ct, 1.0 - ct), 0))
        rows.append((s, cos_theta_c, qubit_average_fidelity(lambda_max(channel)), 1))
    stream = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    else:
        stream.writelines(json.dumps(dict(zip(header, row))) + "\n" for row in rows)
    return stream.getvalue()


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_injected_overweight_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--cos-theta-c", "0.6", "--lambda", "0.41")
        assert code == 1
        assert "FAIL" in out

    def test_reports_strategy_discrepancy_numbers(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "0.8000000000" in out
        assert "0.8866025404" in out

    def test_seed_zero_is_honoured(self, capsys):
        _, plain, plain_err = run(capsys, "verify")
        _, seeded, _ = run(capsys, "verify", "--seed", "2026")
        code, zero, zero_err = run(capsys, "verify", "--seed", "0")
        assert code == 0
        # The default stays 2026; an explicit 0 is a different battery.
        assert plain == seeded
        assert zero != seeded
        assert "seed=2026" in plain_err and "seed=0" in zero_err
        # The echo lists only the settings verify reads.
        assert plain_err == "# command=verify d=2 lambda=max seed=2026\n"

    def test_d_flag_checks_a_channel_of_that_dimension(self, capsys):
        # The maximally entangled qutrit channel, as teleport --d 3 uses.
        code, out, _ = run(capsys, "verify", "--d", "3")
        assert code == 0
        assert "configured channel d=3 lam=1 positivity" in out
        assert "configured channel d=2" not in out

    @pytest.mark.parametrize("argv", [[], ["--coeffs", "0.6,0.8"], ["--d", "3"]])
    def test_no_negative_zero_residual(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert "-0.000e+00" not in out

    def test_teleport_default_seed_is_zero(self, capsys):
        _, plain, _ = run(capsys, "teleport", "--runs", "500")
        _, zero, _ = run(capsys, "teleport", "--runs", "500", "--seed", "0")
        assert plain == zero


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    def test_conflicting_channel_flags(self):
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--entropy", "0.5", "--cos-theta-c", "0.3"])
        assert info.value.code == 2

    def test_bad_lambda_token(self):
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--lambda", "lots"])
        assert info.value.code == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_lambda(self, capsys, token):
        with pytest.raises(SystemExit) as info:
            main(["teleport", f"--lambda={token}", "--runs", "10"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --lambda must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["teleport", "--d", "-3"], ["teleport", "--d", "0"], ["verify", "--d", "1"], ["verify", "--d", "-2"]]
    )
    def test_dimension_below_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --d must be at least 2, got {argv[-1]}\n"

    @pytest.mark.parametrize("command", ["teleport", "verify"])
    @pytest.mark.parametrize("d", ["4611686018427387904", "100000000000000000000"])
    def test_dimension_whose_square_is_no_index(self, capsys, monkeypatch, command, d):
        # d^2 above sys.maxsize cannot index the joint space: refused before
        # the echo and before anything is built, not a ValueError or TypeError.
        built = mock.Mock(side_effect=AssertionError("built"))
        monkeypatch.setattr(cli, "build_weyl_basis", built)
        monkeypatch.setattr(cli, "run_battery", built)
        with pytest.raises(SystemExit) as info:
            main([command, "--d", d])
        assert info.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"usage error: --d {d} is too large")
        built.assert_not_called()

    @pytest.mark.parametrize("second", ["same.txt", "./sub/../same.txt"])
    def test_out_and_transcript_on_one_file(self, capsys, tmp_path, monkeypatch, second):
        # The table would overwrite the transcript once the runs finish.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--runs", "50", "--out", "same.txt", "--transcript", second])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --out and --transcript name the same file") and err.count("\n") == 1
        assert not (tmp_path / "same.txt").exists()

    @pytest.mark.parametrize("coeffs", ["1,0", "0.6,0.8,-0.0", "1e-170,1", "1e-160,1"])
    def test_singular_channel_is_one_usage_line(self, capsys, coeffs):
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--coeffs", coeffs])
        assert info.value.code == 2
        echo, usage = capsys.readouterr().err.splitlines()
        assert echo.startswith("# command=teleport")
        assert usage.startswith("usage error: dual construction needs every Schmidt coefficient positive")

    @pytest.mark.parametrize("command", ["teleport", "verify"])
    @pytest.mark.parametrize("coeffs", ["nan,1", "inf,1", "0.6,-inf"])
    @pytest.mark.parametrize("lam", ["0.1", "max"])
    def test_non_finite_coefficient_is_one_usage_line(self, capsys, command, coeffs, lam):
        with pytest.raises(SystemExit) as info:
            main([command, "--coeffs", coeffs, "--lambda", lam])
        assert info.value.code == 2
        echo, usage = capsys.readouterr().err.splitlines()
        assert echo.startswith(f"# command={command}")
        assert usage.startswith("usage error: coefficients must be finite")

    @pytest.mark.parametrize("command", ["teleport", "verify"])
    @pytest.mark.parametrize("coeffs", ["0.6,,0.8", "0.6,0.8,", ",0.6,0.8", ""])
    def test_empty_coefficient_token_is_one_usage_line(self, capsys, command, coeffs):
        # An empty token is unparsable like any other, not dropped.
        with pytest.raises(SystemExit) as info:
            main([command, "--coeffs", coeffs, "--runs", "10"][: 3 if command == "verify" else 5])
        assert info.value.code == 2
        assert capsys.readouterr().err == "usage error: bad --coeffs: could not convert string to float: ''\n"

    @pytest.mark.parametrize("argv", [["teleport", "--seed", "-1", "--runs", "10"], ["verify", "--seed", "-1"]])
    def test_negative_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err == "usage error: --seed must be nonnegative, got -1\n"

    def test_allocation_failure_is_one_line(self, capsys):
        # The basis's (d, d) index table, its first allocation of O(d^2) or
        # more, would take about 0.7 PiB, so it fails at once.
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--d", "10000000"])
        assert info.value.code == 2
        echo, message = capsys.readouterr().err.splitlines()
        assert echo.startswith("# command=teleport d=10000000 ")
        assert message.startswith("out of memory: ")
        assert "shape (10000000, 10000000)" in message

    @pytest.mark.parametrize("argv", [["--strategy", "residual"], ["--strategy", "product", "--corrections", "paper"]])
    def test_exact_peak_memory_grows_as_d_cubed(self, capsys, argv):
        # Monomial storage keeps d entries per operator, so doubling d
        # multiplies the tracemalloc peak of an exact teleport by about 8;
        # dense (n, d, d) stacks would multiply it by 16.
        peaks = []
        for d in (32, 64):
            tracemalloc.start()
            try:
                assert main(["teleport", "--d", str(d), "--runs", "0", *argv]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] < 10 * peaks[0]

    def test_unwritable_path(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["figure1", "--out", "/nonexistent-dir/fig.csv"])
        assert info.value.code == 2

    def test_runs_above_the_ceiling_is_refused_before_anything_is_built(self, capsys, monkeypatch):
        # Per-outcome run counts are exact up to 2**53; above that nothing is built or echoed.
        monkeypatch.setattr(cli, "build_weyl_basis", mock.Mock(side_effect=AssertionError("built")))
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--d", "2", "--runs", "100000000000000000000"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --runs 100000000000000000000 exceeds the ceiling of {2**53} runs\n"

    def test_unwritable_transcript_at_zero_runs(self, capsys, tmp_path, monkeypatch):
        # The transcript is opened whenever it is given, not only when there are runs.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--d", "2", "--runs", "0", "--transcript", "nodir/x.jsonl"])
        assert info.value.code == 2
        echo, message = capsys.readouterr().err.splitlines()
        assert echo.startswith("# command=teleport") and message.startswith("i/o error: ")


class TestSubcommandFlags:
    CHANNEL = ["--d", "--coeffs", "--entropy", "--cos-theta-c", "--lambda"]
    FLAGS = {
        "verify": [*CHANNEL, "--seed"],
        "figure1": ["--out", "--format"],
        "teleport": [*CHANNEL, "--strategy", "--corrections", "--runs", "--seed", "--out", "--format", "--transcript"],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_help_lists_exactly_the_commands_flags(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert listed == {"-h", "--help", *self.FLAGS[command]}

    @pytest.mark.parametrize(
        "argv",
        [["figure1", "--seed", "3"], ["figure1", "--d", "3"], ["verify", "--transcript", "x"], ["verify", "--runs", "5"]],
    )
    def test_flag_of_another_command_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_parser_serves_a_mix_of_calls(self, capsys):
        # The process builds its parser once; a sequence of calls through it
        # gives what each call gives from a freshly built parser.
        calls = [
            ["teleport", "--d", "3", "--strategy", "product", "--corrections", "paper", "--runs", "300"],
            ["teleport", "--cos-theta-c", "0.6", "--lambda", "0.2", "--runs", "200", "--seed", "4"],
            ["teleport", "--d", "1"],
            ["teleport", "--runs", "5", "--bogus"],
            ["teleport"],
            ["verify", "--d", "2", "--seed", "3"],
            ["figure1", "--format", "jsonl"],
            ["teleport", "--help"],
            ["verify", "--help"],
            ["--help"],
            ["teleport", "--coeffs", "0.8,0.6", "--format", "jsonl"],
        ]

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(outcome(argv))
        cli._build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in alone] == [0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
        assert shared == alone

    @pytest.mark.parametrize(
        "argv", [["figure1", "--format", "jsonl"], ["verify", "--d", "2", "--seed", "3"]], ids=["figure1", "verify"]
    )
    def test_no_subcommand_reads_workers_env(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("QTELEPORT_WORKERS", raising=False)
        want = run(capsys, *argv)
        monkeypatch.setenv("QTELEPORT_WORKERS", "abc")
        assert run(capsys, *argv) == want
        assert want[0] == 0 and want[2].startswith(f"# command={argv[0]} ")


class TestFigure1:
    def test_csv_contract(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        code, _, _ = run(capsys, "figure1", "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        header = out.read_text().splitlines()[0]
        assert header == "entropy_bits,cos_theta,fidelity_opt,is_arrow_point"
        assert len(rows) == 4 * 100 + 4
        # Flat classical line for the unentangled channel.
        flat = [r for r in rows if r["entropy_bits"] == "0" and r["is_arrow_point"] == "0"]
        assert all(abs(float(r["fidelity_opt"]) - 2 / 3) <= 1e-9 for r in flat)
        # Maximally entangled channel reaches unit fidelity at zero overlap.
        assert any(
            r["entropy_bits"] == "1"
            and float(r["cos_theta"]) == 0.0
            and float(r["fidelity_opt"]) == 1.0
            and r["is_arrow_point"] == "1"
            for r in rows
        )

    def test_values_match_formula(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        run(capsys, "figure1", "--out", str(out))
        for r in read_rows(out):
            if r["is_arrow_point"] == "1":
                continue
            s = float(r["entropy_bits"])
            ct = float(r["cos_theta"])
            from qteleport.formulas import channel_from_entropy

            _, cc = channel_from_entropy(s)
            want = relaxed_angle_fidelity(cc, ct, 1 - ct)
            assert abs(float(r["fidelity_opt"]) - want) <= 1e-12

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure1", "--out", str(a))
        run(capsys, "figure1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_stdout_is_the_per_cell_text(self, capsys, fmt):
        code, out, _ = run(capsys, "figure1", "--format", fmt)
        assert code == 0
        assert out == per_cell_figure1_text(fmt)

    def test_jsonl_mirrors_rows(self, capsys, tmp_path):
        out = tmp_path / "fig.jsonl"
        run(capsys, "figure1", "--out", str(out), "--format", "jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 404
        assert set(records[0]) == {"entropy_bits", "cos_theta", "fidelity_opt", "is_arrow_point"}


# sha256 prefixes of the JSONL transcripts of 5000 ``teleport`` runs at seed 31,
# keyed by channel and strategy, each run reading its row of d + 3 uniforms; the
# outcome draws, and so the transcripts, do not depend on the correction mode.
TRANSCRIPT_DIGESTS = {
    ("0.6", "product"): "44b184eab5c5545f",
    ("0.6", "residual"): "f83080ed612be3d3",
    ("0.6,0.64,0.48", "product"): "01948477c1e3f2d9",
    ("0.6,0.64,0.48", "residual"): "efd0eff98703c843",
    ("0.5,0.5,0.4,0.4,0.3,0.3", "product"): "39e54343268c6dd6",
    ("0.5,0.5,0.4,0.4,0.3,0.3", "residual"): "7d9b4bd1536c1b1d",
}

# The same at 7919 runs, a prime count whose last block is ragged at every d:
# the runs a block boundary splits still read their rows of the one stream.
RAGGED_TRANSCRIPT_DIGESTS = {
    ("0.6", "product"): "4fe0c47843f5fbe9",
    ("0.6", "residual"): "1e07ab3adfd47011",
    ("0.6,0.64,0.48", "product"): "2fcd26325d20ec60",
    ("0.6,0.64,0.48", "residual"): "955fc64502effebf",
    ("0.5,0.5,0.4,0.4,0.3,0.3", "product"): "ad05fff7abc463f3",
    ("0.5,0.5,0.4,0.4,0.3,0.3", "residual"): "629c34ca23dcca5a",
}

# The same at 16 and 32 dimensions (512 and 2,048 outcomes), keyed by d, lambda
# and strategy, on the channel a_i^2 = (d + 1 - i) / (d (d + 1) / 2) of
# ``falling_coeffs``.  At lambda 0 every conclusive outcome has weight 0, and at
# lambda max the product pieces of the smallest coefficient vanish: runs of
# equal cumulative weights that the outcome draw must never pick.  Recorded
# from a build whose outcome draw was the plain binary search
# ``np.searchsorted(cum_w[:-1], key, side="right")``, so they pin the guided
# draw to it.
LARGE_D_TRANSCRIPT_DIGESTS = {
    (16, "max", "product"): "6355b18876205d3b",
    (16, "max", "residual"): "867d23964d8dd79c",
    (16, "0", "product"): "f48a38d5648f512f",
    (16, "0", "residual"): "411522b4aeb85c93",
    (32, "max", "product"): "f63381a60fa95ec2",
    (32, "max", "residual"): "08b2398e531a339c",
    (32, "0", "product"): "45d37ea4b28a6f86",
    (32, "0", "residual"): "5b5f9b6e7fb75dcc",
}


def falling_coeffs(d):
    """The --coeffs token of the channel a_i = sqrt((d + 1 - i) / (d (d + 1) / 2)), i = 1..d."""
    return ",".join(map(repr, np.sqrt(np.arange(d, 0, -1) / (d * (d + 1) / 2)).tolist()))


class TestTeleport:
    def test_product_strategy_total(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run(
            capsys,
            "teleport",
            "--cos-theta-c", "0.6",
            "--lambda", "max",
            "--strategy", "product",
            "--corrections", "paper",
            "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        total = next(r for r in rows if r["kind"] == "total")
        assert abs(float(total["fidelity_term"]) - 0.8) <= 1e-9
        assert total["mc_fidelity_term"] == ""  # exact-only run

    def test_residual_strategy_matches_closed_form(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        a1, a2 = float(np.sqrt(0.9)), float(np.sqrt(0.1))
        run(
            capsys,
            "teleport",
            "--coeffs", f"{a1!r},{a2!r}",
            "--lambda", "0.1",
            "--strategy", "residual",
            "--out", str(out),
        )
        total = next(r for r in read_rows(out) if r["kind"] == "total")
        assert abs(float(total["fidelity_term"]) - 0.8374368541872554) <= 1e-9

    def test_monte_carlo_columns_and_transcript(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        transcript = tmp_path / "runs.jsonl"
        code, _, _ = run(
            capsys,
            "teleport",
            "--cos-theta-c", "0.6",
            "--strategy", "product",
            "--corrections", "paper",
            "--runs", "2000",
            "--seed", "9",
            "--out", str(out),
            "--transcript", str(transcript),
        )
        assert code == 0
        rows = read_rows(out)
        total = next(r for r in rows if r["kind"] == "total")
        assert total["mc_fidelity_term"] != ""
        assert float(total["mc_fidelity_term_se"]) > 0
        records = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(records) == 2000
        assert all(
            set(r) == {"run_index", "outcome_alpha", "conclusive_flag", "bits_sent"}
            for r in records
        )
        assert all(r["bits_sent"] == 4 for r in records)

    def test_transcript_lines_are_json_dumps_of_each_record(self, capsys, tmp_path):
        transcript = tmp_path / "runs.jsonl"
        argv = ["teleport", "--cos-theta-c", "0.6", "--strategy", "product"]
        argv += ["--corrections", "paper", "--runs", "10000", "--seed", "3"]
        code, _, _ = run(capsys, *argv, "--transcript", str(transcript))
        assert code == 0
        # Same run in-process: the blocks spell out every record.
        basis = build_weyl_basis(2)
        ch = qubit_channel_from_cos_theta(0.6)
        p = refine_inconclusive_product(build_conclusive_povm(ch, basis, lambda_max(ch)))
        blocks = []
        simulate(p, ch, basis, "paper", n_runs=10_000, rng=3, transcript=blocks.append)
        assert len(blocks) > 1
        want = "".join(
            json.dumps(
                {
                    "run_index": int(i),
                    "outcome_alpha": int(a),
                    "conclusive_flag": int(c),
                    "bits_sent": b["bits_sent"],
                }
            )
            + "\n"
            for b in blocks
            for i, a, c in zip(b["run_index"], b["outcome_alpha"], b["conclusive_flag"])
        )
        assert transcript.read_bytes() == want.encode()

    @pytest.mark.parametrize("value", ["2", "abc", "1025", "0", "-2", ""])
    def test_teleport_output_does_not_depend_on_the_environment(self, capsys, monkeypatch, tmp_path, value):
        # A seed fixes every Monte Carlo result: a variable that once set a
        # shard count, set to any value, changes no byte of what unset gives.
        def outputs(tag):
            out, transcript = tmp_path / f"r-{tag}.csv", tmp_path / f"t-{tag}.jsonl"
            argv = ["teleport", "--d", "3", "--strategy", "product", "--corrections", "paper"]
            argv += ["--runs", "20000", "--seed", "5", "--transcript", str(transcript)]
            code, stdout, err = run(capsys, *argv)
            code_out, _, _ = run(capsys, *argv[:-2], "--out", str(out))
            assert code == code_out == 0
            return stdout, err, out.read_bytes(), transcript.read_bytes()

        monkeypatch.delenv("QTELEPORT_WORKERS", raising=False)
        want = outputs("unset")
        assert want[3].count(b"\n") == 20_000
        assert want[1].endswith(" format=csv\n")
        monkeypatch.setenv("QTELEPORT_WORKERS", value)
        assert outputs("set") == want

    @pytest.mark.parametrize(
        "channel",
        [
            ["--cos-theta-c", "0.6", "--lambda", "max"],
            ["--coeffs", "0.6,0.64,0.48", "--lambda", "0.3"],
            ["--coeffs", "0.5,0.5,0.4,0.4,0.3,0.3", "--lambda", "max"],
        ],
        ids=["d2", "d3", "d6"],
    )
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("runs", ["5000", "7919"])
    def test_transcripts_keep_their_recorded_digests(self, capsys, tmp_path, channel, strategy, corrections, runs):
        # The draw contract: a seed fixes every run's outcome, so these
        # transcripts stay byte-identical however the kernel computes.
        transcript = tmp_path / "runs.jsonl"
        argv = ["teleport", *channel, "--strategy", strategy, "--corrections", corrections]
        code, _, _ = run(capsys, *argv, "--runs", runs, "--seed", "31", "--transcript", str(transcript))
        assert code == 0
        digest = hashlib.sha256(transcript.read_bytes()).hexdigest()[:16]
        digests = TRANSCRIPT_DIGESTS if runs == "5000" else RAGGED_TRANSCRIPT_DIGESTS
        assert digest == digests[channel[1], strategy]

    @pytest.mark.parametrize("d", [16, 32])
    @pytest.mark.parametrize("lam", ["max", "0"])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    def test_large_d_transcripts_keep_their_recorded_digests(self, capsys, tmp_path, d, lam, strategy, corrections):
        # Guides of 16,384 and 65,536 buckets with runs of zero-weight
        # outcomes: the transcripts stay those the binary search drew, and at
        # lambda 0 no run is conclusive.
        transcript = tmp_path / "runs.jsonl"
        argv = ["teleport", "--coeffs", falling_coeffs(d), "--lambda", lam, "--strategy", strategy]
        argv += ["--corrections", corrections, "--runs", "5000", "--seed", "31", "--transcript", str(transcript)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        data = transcript.read_bytes()
        assert hashlib.sha256(data).hexdigest()[:16] == LARGE_D_TRANSCRIPT_DIGESTS[d, lam, strategy]
        if lam == "0":
            assert data.count(b'"conclusive_flag": 1') == 0

    @pytest.mark.parametrize(
        "d, first_run, cuts",
        [
            (2, 99_990, None),
            (3, 0, (1, 13)),
            (8, 0, None),
        ],
        ids=["d2-across-99999", "d3-run-0-alone-then-across-9", "d8-128-outcomes"],
    )
    def test_sink_writes_the_bytes_of_json_dumps(self, tmp_path, d, first_run, cuts):
        # The simulated blocks, shifted to start at ``first_run`` or cut anew at ``cuts``:
        # at 99,990 the first block crosses 99,999 -> 100,000; cut at (1, 13),
        # run 0 is a block of its own and the next block runs 1..12 across 9 -> 10.
        # At d = 8 the 128 outcome labels take up to three digits and a message 8 bits.
        basis = build_weyl_basis(d)
        ch = make_channel(np.sqrt(np.arange(1.0, d + 1) / np.sum(np.arange(1.0, d + 1))))
        p = refine_inconclusive_product(build_conclusive_povm(ch, basis, 0.5 * lambda_max(ch)))
        blocks = []
        simulate(p, ch, basis, "paper", n_runs=20_000, rng=2, transcript=blocks.append)
        bits = blocks[0]["bits_sent"]
        if cuts is None:
            pieces = [(b["run_index"], b["outcome_alpha"], b["conclusive_flag"]) for b in blocks]
        else:
            keys = ("run_index", "outcome_alpha", "conclusive_flag")
            columns = [np.concatenate([b[key] for b in blocks]) for key in keys]
            pieces = list(zip(*(np.split(column, cuts) for column in columns)))
        pieces = [(index + first_run, alpha, flag) for index, alpha, flag in pieces]
        stream, path = io.BytesIO(), tmp_path / "runs.jsonl"
        with open(path, "wb") as f:
            sinks = [cli._transcript_sink(stream, p), cli._transcript_sink(f, p)]
            for index, alpha, flag in pieces:
                for write in sinks:
                    write({"run_index": index, "outcome_alpha": alpha, "conclusive_flag": flag, "bits_sent": bits})
        want = "".join(
            json.dumps(
                {
                    "run_index": int(i),
                    "outcome_alpha": int(a),
                    "conclusive_flag": int(c),
                    "bits_sent": bits,
                }
            )
            + "\n"
            for index, alpha, flag in pieces
            for i, a, c in zip(index, alpha, flag)
        )
        assert len(set(np.concatenate([alpha for _, alpha, _ in pieces]).tolist())) == 2 * d * d
        if cuts is not None:
            assert [len(index) for index, _, _ in pieces[:2]] == [1, 12]
        assert stream.getvalue() == want.encode()
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("strategy", ["product", "residual"])
    @pytest.mark.parametrize("corrections", ["auto", "paper"])
    @pytest.mark.parametrize("runs", [0, 500])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_columns_write_the_bytes_of_the_per_cell_writer(
        self, capsys, monkeypatch, d, strategy, corrections, runs, fmt
    ):
        # The reports the command computes are kept and written again by the oracle.
        seen = {}

        def exact(p, *args):
            seen["povm"] = p
            return seen.setdefault("exact", fidelity.report(p, *args))

        monkeypatch.setattr(cli, "report", exact)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: seen.setdefault("mc", fidelity.simulate(*a, **k)))
        coeffs = np.sqrt(np.arange(1.0, d + 1) / np.sum(np.arange(1.0, d + 1)))
        code, out, _ = run(
            capsys,
            "teleport",
            "--coeffs", ",".join(map(repr, coeffs.tolist())),
            "--lambda", repr(0.5 * lambda_max(make_channel(coeffs))),
            "--strategy", strategy,
            "--corrections", corrections,
            "--runs", str(runs),
            "--seed", "4",
            "--format", fmt,
        )
        assert code == 0
        assert ("mc" in seen) == (runs > 0)
        assert out == per_cell_teleport_text(seen["povm"], seen["exact"], seen.get("mc"), fmt)

    def test_transcript_at_zero_runs_is_emptied(self, capsys, tmp_path):
        # An earlier run's transcript is not left in place beside a report with no runs.
        transcript = tmp_path / "old.jsonl"
        run(capsys, "teleport", "--d", "2", "--runs", "50", "--transcript", str(transcript))
        assert transcript.read_bytes().count(b"\n") == 50
        code, _, _ = run(capsys, "teleport", "--d", "2", "--runs", "0", "--transcript", str(transcript))
        assert code == 0 and transcript.read_bytes() == b""

    def test_json_floats_are_written_as_json_dumps_writes_them(self):
        # Non-finite numbers included, though no report holds one.
        values = np.array([0.1, -0.0, 1e-300, 2.0**60, math.nan, math.inf, -math.inf])
        assert cli._CELLS["jsonl"][0](values) == [json.dumps(v) for v in values.tolist()]
        assert cli._CELLS["csv"][0](values) == [f"{v:.12g}" for v in values.tolist()]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_written_table_reads_back_cell_for_cell(self, tmp_path, fmt):
        # Each kind of cell (count, text, quoted "i,j", float, empty) as the
        # csv and json modules read it back.
        floats, text, empty = cli._CELLS[fmt]
        values = np.array([0.1, 1e-300, 2.0**60])
        columns = [
            ["0", "1", "2"],
            [text % "conclusive", text % "total", text % ""],
            ['"1,2"', text % "7", text % ""],
            floats(values),
            [empty, *floats(values[:2])],
        ]
        out = tmp_path / f"table.{fmt}"
        header = ("outcome", "kind", "detail", "p", "se")
        cli._write_table(str(out), fmt, header, columns)
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out.read_text())))
            assert rows[0] == list(header)
            assert rows[1:] == [
                ["0", "conclusive", "1,2", "0.1", ""],
                ["1", "total", "7", "1e-300", "0.1"],
                ["2", "", "", "1.15292150461e+18", "1e-300"],
            ]
        else:
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert [list(row) for row in rows] == [list(header)] * 3
            assert [tuple(row.values()) for row in rows] == [
                (0, "conclusive", "1,2", 0.1, None),
                (1, "total", "7", 1e-300, 0.1),
                (2, "", "", 2.0**60, 1e-300),
            ]

    def test_jsonl_report(self, capsys, tmp_path):
        out = tmp_path / "report.jsonl"
        run(capsys, "teleport", "--d", "3", "--out", str(out), "--format", "jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        # Maximally entangled default channel: perfect teleportation.
        total = next(r for r in records if r["kind"] == "total")
        assert abs(total["fidelity_term"] - 1.0) <= 1e-10

    def test_numeric_echo_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        args = [
            "teleport",
            "--cos-theta-c", "0.6127",
            "--lambda", "0.31",
            "--seed", "17",
            "--out", str(out),
        ]
        _, _, err1 = run(capsys, *args)
        echoed = dict(
            tok.split("=", 1) for tok in err1.strip().lstrip("# ").split() if "=" in tok
        )
        _, _, err2 = run(
            capsys,
            "teleport",
            "--cos-theta-c", echoed["cos_theta_c"],
            "--lambda", echoed["lambda"],
            "--seed", echoed["seed"],
            "--out", str(out),
        )
        assert err1 == err2


COEFF = st.sampled_from([0.0, -0.0, -0.5, math.nan, math.inf, -math.inf]) | st.floats(-1.5, 1.5)
LAMBDA_TOKEN = st.floats(-0.5, 1.5).map(repr) | st.sampled_from(["max", "nan", "inf", "-1", "lots", ""])
MISSING_DIR = "/nonexistent-dir"


@st.composite
def teleport_argv(draw):
    """Small ``teleport`` command lines: nothing drawn here allocates much."""
    argv = ["teleport"]
    d = draw(st.none() | st.integers(-3, 6))
    if d is not None:
        argv += ["--d", str(d)]
    coeffs = draw(st.none() | st.lists(COEFF, max_size=6))
    if coeffs is not None:
        norm = math.sqrt(sum(c * c for c in coeffs))
        if norm > 0 and draw(st.booleans()):
            coeffs = [c / norm for c in coeffs]
        argv.append("--coeffs=" + ",".join(repr(c) for c in coeffs))
    argv.append("--lambda=" + draw(LAMBDA_TOKEN))
    argv += ["--strategy", draw(st.sampled_from(["product", "residual"]))]
    argv += ["--corrections", draw(st.sampled_from(["auto", "paper"]))]
    argv += ["--runs", str(draw(st.integers(-2, 300)))]
    argv += ["--seed", str(draw(st.integers(-3, 2**40)))]
    for flag in ("--out", "--transcript"):
        if draw(st.booleans()):
            argv += [flag, f"{MISSING_DIR}/file"]
    return argv


@st.composite
def figure1_argv(draw):
    """``figure1`` command lines, at times with a flag only other commands take."""
    argv = ["figure1", "--format", draw(st.sampled_from(["csv", "jsonl"]))]
    if draw(st.booleans()):
        argv += ["--out", f"{MISSING_DIR}/fig.csv"]
    stray = draw(st.none() | st.sampled_from([["--seed", "3"], ["--d", "2"], ["--runs", "5"], ["--transcript", "t"]]))
    return argv + (stray or [])


def exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestArgvProperty:
    @settings(max_examples=80, deadline=None)
    @given(argv=teleport_argv())
    def test_exit_code_is_0_1_or_2(self, argv):
        code, err = exit_code_and_stderr(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(argv=figure1_argv())
    def test_figure1_exit_code_is_0_or_2(self, argv):
        code, err = exit_code_and_stderr(argv)
        assert code in (0, 2)
        assert "Traceback" not in err
