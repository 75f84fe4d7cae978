import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.channel import qubit_channel_from_cos_theta
from qteleport.cli import main
from qteleport.fidelity import simulate
from qteleport.formulas import relaxed_angle_fidelity
from qteleport.povm import build_conclusive_povm, lambda_max, refine_inconclusive_product
from qteleport.weyl import build_weyl_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


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

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_workers_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QTELEPORT_WORKERS", value)
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--runs", "10"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: QTELEPORT_WORKERS") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["teleport", "--d", "-3"], ["teleport", "--d", "0"], ["verify", "--d", "1"], ["verify", "--d", "-2"]]
    )
    def test_dimension_below_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --d must be at least 2, got {argv[-1]}\n"

    @pytest.mark.parametrize("coeffs", ["1,0", "0.6,0.8,-0.0", "1e-170,1"])
    def test_singular_channel_is_one_usage_line(self, capsys, coeffs):
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--coeffs", coeffs])
        assert info.value.code == 2
        echo, usage = capsys.readouterr().err.splitlines()
        assert echo.startswith("# command=teleport")
        assert usage.startswith("usage error: dual construction needs every Schmidt coefficient positive")

    def test_unwritable_path(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["figure1", "--out", "/nonexistent-dir/fig.csv"])
        assert info.value.code == 2


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

    def test_jsonl_mirrors_rows(self, capsys, tmp_path):
        out = tmp_path / "fig.jsonl"
        run(capsys, "figure1", "--out", str(out), "--format", "jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 404
        assert set(records[0]) == {"entropy_bits", "cos_theta", "fidelity_opt", "is_arrow_point"}


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


COEFF = st.sampled_from([0.0, -0.0, -0.5]) | st.floats(-1.5, 1.5)
LAMBDA_TOKEN = st.floats(-0.5, 1.5).map(repr) | st.sampled_from(["max", "nan", "inf", "-1", "lots", ""])


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
    return argv


class TestArgvProperty:
    @settings(max_examples=80, deadline=None)
    @given(argv=teleport_argv())
    def test_exit_code_is_0_1_or_2(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
