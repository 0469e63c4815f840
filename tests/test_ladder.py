"""Smoke test of the scaling ladder tool on its smallest rung."""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_heis5_rung():
    proc = subprocess.run([sys.executable, str(LADDER), "heis5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-500:]
    out = json.loads(proc.stdout)
    assert list(out) == ["heis5"]
    rung = out["heis5"]
    assert (rung["square_dim"], rung["multiplier_dim"]) == (16, 15)
    assert rung["seconds"] > 0
    assert rung["hl3_seconds"] > 0
    assert proc.stdout == json.dumps(out, sort_keys=True) + "\n"


def test_unknown_rung_is_refused():
    proc = subprocess.run([sys.executable, str(LADDER), "heis4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unknown rung 'heis4'" in proc.stderr
