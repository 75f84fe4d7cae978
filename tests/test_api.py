"""The public surface: every exported name resolves and the scripts run."""

import dataclasses
import runpy
import sys
from pathlib import Path

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


def test_outcome_tag_classes_are_gone():
    # Outcomes are classified by the integer table ``PovmSet.kinds`` / ``labels``.
    removed = ("Conclusive", "InconclusiveProduct", "InconclusiveResidual", "Remainder", "Tag")
    assert not [name for name in removed if hasattr(qteleport, name) or hasattr(qteleport.povm, name)]
    assert "tags" not in {f.name for f in dataclasses.fields(qteleport.FidelityReport)}
