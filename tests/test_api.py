"""The public surface: every exported name resolves and the scripts run."""

import dataclasses
import runpy
import sys
from pathlib import Path

import numpy as np

import qteleport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_every_exported_name_resolves():
    missing = [name for name in qteleport.__all__ if not hasattr(qteleport, name)]
    assert not missing


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    return 0


def test_sweep_script(monkeypatch, capsys):
    assert run_script(monkeypatch, "run_teleport_sweep.py", "0.6", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("channel cos_theta_c=0.6")
    assert len(lines) == 2 + 3


def test_sweep_script_prints_what_single_reports_print(monkeypatch, capsys):
    # The script reports one POVM stack; a loop of single-weight reports
    # must print the same bytes.
    assert run_script(monkeypatch, "run_teleport_sweep.py", "0.6", "11") == 0
    channel = qteleport.qubit_channel_from_cos_theta(0.6)
    basis = qteleport.build_weyl_basis(2)
    top = qteleport.lambda_max(channel)
    want = [f"channel cos_theta_c=0.6  lambda_max={top:.6f}", f"{'lambda':>10} {'f_product':>12} {'f_residual':>12}"]
    for lam in np.linspace(0.0, top, 11):
        base = qteleport.build_conclusive_povm(channel, basis, lam)
        product = qteleport.refine_inconclusive_product(base)
        residual = qteleport.refine_inconclusive_residual(base, basis)
        f_prod = qteleport.report(product, channel, basis, "paper").f_total
        f_res = qteleport.report(residual, channel, basis, "auto").f_total
        want.append(f"{lam:>10.6f} {f_prod:>12.8f} {f_res:>12.8f}")
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_outcome_tag_classes_are_gone():
    # Outcomes are classified by the integer table ``PovmSet.kinds`` / ``labels``.
    removed = ("Conclusive", "InconclusiveProduct", "InconclusiveResidual", "Remainder", "Tag")
    assert not [name for name in removed if hasattr(qteleport, name) or hasattr(qteleport.povm, name)]
    assert "tags" not in {f.name for f in dataclasses.fields(qteleport.FidelityReport)}
