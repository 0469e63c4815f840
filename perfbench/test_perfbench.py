"""Tests of the benchmark itself: seeded inputs, output checks and the
failure count.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

lx = run.import_program()
cli = lx.cli


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        gen.squares_jobs(gen.Draws(5), tmp_path / name, ["nf4", "sl2+k1"])
        gen.extension_jobs(gen.Draws(5), tmp_path / name,
                           [("adjoint", "heis3", "stem")] * 2)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    (tmp_path / "c").mkdir()
    gen.squares_jobs(gen.Draws(6), tmp_path / "c", ["nf4", "sl2+k1"])
    assert _files(tmp_path / "c")["sq00.xmod"] != _files(tmp_path / "a")["sq00.xmod"]


def test_repeated_structure_is_refused(tmp_path):
    draws = gen.Draws(1)
    jobs = gen.extension_jobs(draws, tmp_path, [("zero", "n2", "stem")] * 6)
    keys = {gen._key(json.loads(j["path"].read_text())["total"]) for j in jobs}
    assert len(keys) == 6
    doc = json.loads(jobs[0]["path"].read_text())["total"]
    with pytest.raises(RuntimeError):
        draws.fresh("again", lambda fixed, rng: (doc, doc, {}))


def _run_jobs(jobs):
    return [run.run_job(cli, job)[1] for job in jobs]


def _no_parent(*_):
    raise AssertionError("not a homology job")


def test_squares_check_catches_an_off_by_one_multiplier(tmp_path):
    job = gen.squares_jobs(gen.Draws(2), tmp_path, ["n2+k1"])[0]
    outs = _run_jobs([job])[0]
    assert run.check(lx, job, outs, _no_parent) is None
    doc = json.loads(outs[0][1])
    doc["multiplier"]["top_dim"] += 1
    assert "multiplier" in run.check(lx, job, [(0, json.dumps(doc))], _no_parent)
    doc = json.loads(outs[0][1])
    doc["qq"]["dim"] -= 1
    assert "qq dim" in run.check(lx, job, [(0, json.dumps(doc))], _no_parent)


def test_extension_check_catches_wrong_flags_and_exit_codes(tmp_path):
    specs = [("adjoint", "n2", "stem"), ("split", "n2", "nonstem"),
             ("inclusion", "nf3", "stem")]
    jobs = gen.extension_jobs(gen.Draws(3), tmp_path, specs)
    for job, outs in zip(jobs, _run_jobs(jobs)):
        assert run.check(lx, job, outs, _no_parent) is None, job["name"]
    job, outs = jobs[0], _run_jobs(jobs[:1])[0]
    assert json.loads(outs[0][1])["stem_cover"]  # n2 is the cover of k
    doc = json.loads(outs[0][1])
    doc["stem_cover"] = False
    assert run.check(lx, job, [(0, json.dumps(doc)), outs[1]], _no_parent)
    assert "exit" in run.check(lx, job, [outs[0], (1, outs[1][1])], _no_parent)


def test_homology_check_compares_with_the_sparse_parent(tmp_path):
    job = gen.homology_jobs(gen.Draws(4), tmp_path, ["n2+k1"])[0]
    outs = _run_jobs([job])[0]
    parent = {}

    def parent_hl(cls, c):
        q = run._algebra(lx, c, cls)
        parent[cls] = (lx.homology.hl(q, 2), lx.homology.hl(q, 3))
        return parent[cls]
    assert run.check(lx, job, outs, parent_hl) is None
    doc = json.loads(outs[0][1])
    doc["dim"] += 1
    assert "parent" in run.check(lx, job, [(0, json.dumps(doc))], parent_hl)


def test_a_wrong_output_is_counted_as_a_failed_job(tmp_path):
    jobs = gen.squares_jobs(gen.Draws(2), tmp_path, ["n2+k1", "nf3"])
    wrong = jobs[1]["path"]

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        doc = json.loads(buf.getvalue())
        if argv[1] == str(wrong):
            doc["multiplier"]["top_dim"] += 1
        sys.stdout.write(cli.emit(doc))
        return rc
    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=main),
                                 homology=lx.homology, algebra=lx.algebra)
    args = types.SimpleNamespace(trace=0, workload="squares", seed=2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        run.run(fake, args, jobs, [])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    jobs = gen.squares_jobs(gen.Draws(2), tmp_path, ["n2+k1"])
    reference = gen.extension_jobs(gen.Draws(2), tmp_path,
                                   [("adjoint", "n2", "stem")])
    for job in jobs + reference:
        job["twin"] = gen.write_twin(job)
    args = types.SimpleNamespace(trace=1, workload="squares", seed=-1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        run.run(lx, args, jobs, reference)
    (HERE / "out" / "trace-squares--1.json").unlink()
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "squares",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
