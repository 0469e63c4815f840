"""Smoke test of the scaling ladder tool on its smallest rung, the values
of heisleib16, whose squares are abelian (every table of the squares
holds no entry), and the tables of every rung; the larger rungs
themselves never run here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from leibxmod.algebra import LeibnizAlgebra, check_leibniz, is_lie

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
    assert rung["hl2_seconds"] > 0
    assert rung["hl3_seconds"] > 0
    assert rung["hl2"] == 15
    assert proc.stdout == json.dumps(out, sort_keys=True) + "\n"


def test_heisleib16_rung_in_process():
    rung = load_ladder().run_rung("heisleib16")
    assert (rung["square_dim"], rung["multiplier_dim"], rung["hl2"]) == (225, 224, 224)


def test_unknown_rung_is_refused():
    proc = subprocess.run([sys.executable, str(LADDER), "heis4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unknown rung 'heis4'" in proc.stderr


@pytest.mark.parametrize("name", ["free2-9", "tri5", "heisleib8"])
def test_unknown_rung_near_a_new_one_is_refused(name):
    proc = subprocess.run([sys.executable, str(LADDER), name],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"unknown rung '{name}'" in proc.stderr


def load_ladder():
    """tools/ladder.py as a module."""
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def rung_algebra(ladder, name: str) -> LeibnizAlgebra:
    """The algebra of the table of a rung of the ladder module."""
    c = ladder.rung_table(name)
    return LeibnizAlgebra(name, len(c), tuple(f"e{i + 1}" for i in range(len(c))),
                          tuple(tuple(tuple(v) for v in row) for row in c))


def test_every_rung_table_is_a_leibniz_algebra():
    ladder = load_ladder()
    dims = {}
    for name in ladder.RUNGS:
        a = rung_algebra(ladder, name)
        assert check_leibniz(a).valid, name
        assert is_lie(a) == (not name.startswith("heisleib")), name
        dims[name] = a.dim
    assert dims == {"heis5": 5, "heis7": 7, "heis9": 9, "heis11": 11, "sl2+sl2": 6,
                    "sl2x5": 15, "tri6": 21, "free2-7": 28, "free2-8": 36,
                    "free2-10": 55, "heisleib16": 16, "heisleib24": 24, "heisleib32": 32}
