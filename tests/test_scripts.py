"""The runnable experiments under scripts/ run to completion."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(capsys, monkeypatch, name):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(SCRIPTS / name))["main"]()
    return capsys.readouterr().out


def test_comparison_table(capsys, monkeypatch):
    out = run_script(capsys, monkeypatch, "comparison_table.py")
    header = next(line for line in out.splitlines() if "proposition" in line)
    assert header.split() == ["proposition", "dempster", "tbm", "emr",
                              "emr-approx"]
    assert "emr entropy" in out


def test_nonassociativity(capsys, monkeypatch):
    out = run_script(capsys, monkeypatch, "nonassociativity.py")
    assert "(m1 * m2) * m3:\n  REJECTED" in out
    assert "m1 * (m2 * m3):\n  m(a) = 0.500000\n  m(na) = 0.500000" in out
    assert out.endswith(
        "simultaneous [m1, m2, m3]:\n  m(a) = 0.500000\n  m(na) = 0.500000\n"
    )


def test_zadeh_table(capsys, monkeypatch):
    out = run_script(capsys, monkeypatch, "zadeh_table.py")
    rows = out.splitlines()[2:]
    assert len(rows) == 5
    assert rows[0].split()[4:] == ["0.49900", "0.49900", "0.00000", "0.00200"]
    assert "REJECTED" in rows[-1]
