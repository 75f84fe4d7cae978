"""The public surface: every exported name resolves and the scripts run."""

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


def test_figure_script(monkeypatch, tmp_path, capsys):
    out = tmp_path / "fig" / "figure1.csv"
    assert run_script(monkeypatch, "make_figure1.py", str(out)) == 0
    assert out.read_text().startswith("entropy_bits,cos_theta,fidelity_opt,is_arrow_point\n")
