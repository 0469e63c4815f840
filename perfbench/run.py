"""Benchmark of the leibxmod command line, end to end and per module.

    python3 perfbench/run.py --workload squares --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ./src of
that checkout and nowhere else; without it the run fails with exit 2.

A run builds a seeded job list (see gen.py), then calls
``leibxmod.cli.main`` in this process once per job, exactly as a user
would type the command, and checks every output afterwards, outside the
timed region.  Between jobs it also times a fresh import of the package
(set-up) and how fast the host runs a fixed exact-arithmetic loop just
then: every time reported is in seconds of the reference host (see
host_seconds), and wall seconds go to stderr.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics.  With
``--trace 1`` the run also probes each module's public functions on a
renamed twin of every job's input (renamed, so the program's caches
cannot serve the probe from the job) and reports per-module times and
sizes instead; its spans go to perfbench/out/.

``--seconds`` fixes how many rounds of jobs a run makes, never how long
it runs: a round is a job list whose timed work is about ROUND_SECONDS
on the reference host, and every job in the run has an input of its own
structure, because the program caches every result for the life of the
process and a repeated input would cost nothing.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402  (the benchmark's own generator, standard library)

# Timed work of one round of any workload on the reference host.
ROUND_SECONDS = 25
WORKLOADS = {"squares": gen.squares_jobs, "extensions": gen.extension_jobs,
             "homology": gen.homology_jobs}
# Set-up is timed this many times, spread over the job list, so that it
# meets the same phases of the host's speed as the jobs.
SETUP_SAMPLES = 20
# host_seconds on the reference host: reported times are in seconds of a
# host running at that speed.
REFERENCE_HOST_S = 0.0118
REFERENCE_JOBS = 2  # extension jobs that stand in for layers a workload lacks

END_TO_END = {"jobs_per_s": "1/s", "job_s.p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.load_s": "s", "cli.emit_s": "s",
    "tensor.squares_s": "s", "tensor.multiplier_s": "s",
    "xmod.check_s": "s", "algebra.check_leibniz_s": "s",
    "extensions.check_s": "s", "extensions.classify_s": "s",
    "extensions.prop41_s": "s", "extensions.six_term_s": "s",
    "xmod.center_s": "s", "xmod.abelianization_s": "s",
    "homology.boundary_s": "s", "ratlin.kernel_s": "s", "ratlin.rank_s": "s",
    "tensor.ambient_dim": "count", "tensor.relation_rank": "count",
    "tensor.square_dim": "count", "homology.chain_dim": "count",
    "ratlin.rank": "count",
}


def import_program():
    """Import leibxmod from ./src of this checkout, and from nowhere else."""
    if not (ROOT / "src" / "leibxmod" / "__init__.py").is_file():
        sys.exit(f"error: no leibxmod sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    lx = importlib.import_module("leibxmod")
    if not Path(lx.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: leibxmod imported from {lx.__file__}, not ./src")
    for mod in ("cli", "algebra", "ratlin", "xmod", "tensor", "extensions",
                "homology"):
        importlib.import_module(f"leibxmod.{mod}")
    return lx


def time_setup():
    """Seconds to import leibxmod.cli, and with it every module, into an
    empty module table; the modules the jobs use are put back after."""
    kept = {m: sys.modules.pop(m) for m in list(sys.modules)
            if m.split(".")[0] == "leibxmod"}
    try:
        t0 = time.perf_counter()
        importlib.import_module("leibxmod.cli")
        return time.perf_counter() - t0
    finally:
        for m in [m for m in sys.modules if m.split(".")[0] == "leibxmod"]:
            del sys.modules[m]
        sys.modules.update(kept)


def host_seconds():
    """Seconds for a fixed exact elimination in the standard library, the
    median of five: how fast the host runs this kind of work just now.

    The host is shared, and its speed for pure-Python exact arithmetic
    moves by up to a third over minutes (a fixed Fraction loop ran 56 to
    92 times per second, with CPU time tracking wall time), far more than
    a run of tens of seconds can average out.  So every job and set-up
    time is rescaled by REFERENCE_HOST_S over this, taken before and after
    the job; the program is not involved, so a change to it shows in full.
    """
    def once():
        n = 14
        m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
              for j in range(n)] for i in range(n)]
        t0 = time.perf_counter()
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                continue
            m[col], m[piv] = m[piv], m[col]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col] / m[col][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(5))


def build_jobs(workload, seed, rounds, out_dir):
    draws = gen.Draws(seed)
    jobs = []
    for r in range(rounds):
        round_dir = out_dir / f"r{r}"
        round_dir.mkdir(parents=True)
        jobs.extend(WORKLOADS[workload](draws, round_dir))
    return jobs


def commands(job):
    p = str(job["path"])
    if job["kind"] == "squares":
        return [["multiplier", p, "--json"]]
    if job["kind"] == "extensions":
        return [["classify-extension", p, "--json"],
                ["verify-sequence", p, "--json"]]
    return [["hl", p, "3", "--json"]]


def run_job(cli, job):
    """Run the job's commands; return (seconds, [(exit code, stdout)])
    or raise what the program raised."""
    outs = []
    t0 = time.perf_counter()
    for argv in commands(job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        outs.append((rc, buf.getvalue()))
    return time.perf_counter() - t0, outs


# -- output checks (outside the timed region) ------------------------------------

def _algebra(lx, c, name="oracle"):
    d = len(c)
    return lx.algebra.LeibnizAlgebra(
        name, d, tuple(f"e{i + 1}" for i in range(d)),
        tuple(tuple(tuple(v) for v in row) for row in c))


def check(lx, job, outs, parent_hl):
    """None if the job's outputs are right, else what is wrong."""
    if any(rc != 0 for rc, _ in outs):
        return f"exit codes {[rc for rc, _ in outs]}"
    docs = [json.loads(text) for _, text in outs]
    facts = job["facts"]
    hl = lx.homology.hl
    if job["kind"] == "squares":
        m, h2 = docs[0]["multiplier"], hl(_algebra(lx, job["algebra"]), 2)
        if not m["top_dim"] == m["base_dim"] == m["rank_delta"] == h2:
            return f"multiplier {m['top_dim']},{m['base_dim']},{m['rank_delta']} vs HL_2 {h2}"
        if docs[0]["qq"]["dim"] != h2 + facts["derived_dim"]:
            return f"qq dim {docs[0]['qq']['dim']} vs HL_2 + dim [q,q] = {h2 + facts['derived_dim']}"
        return None
    if job["kind"] == "homology":
        want = parent_hl(facts["class"], job["parent"])
        got = (hl(_algebra(lx, job["algebra"]), 2), docs[0]["dim"])
        return None if got == want else f"HL_2, HL_3 {got} vs parent {want}"
    cls, seq = docs
    if not cls["central"] or cls["stem_extension"] != facts["stem"]:
        return f"flags {cls['central']},{cls['stem_extension']} vs construction True,{facts['stem']}"
    p41 = cls["prop41"]
    if p41["kernel_in_derived"] != facts["stem"] or \
            p41["theta_bijective"] != cls["stem_cover"]:
        return "prop41 characterizations disagree with the flags"
    if facts["kind"] in ("adjoint", "zero"):
        kdim = facts["kernel_dims"][0 if facts["kind"] == "adjoint" else 1]
        cover = facts["stem"] and kdim == hl(_algebra(lx, facts["quotient_base"]), 2)
        if cls["stem_cover"] != cover:
            return f"cover {cls['stem_cover']} vs stem and kernel == HL_2: {cover}"
    elif cls["stem_cover"] and not facts["stem"]:
        return "cover without stem"
    if not seq["exact"] or not all(n["exact"] for n in seq["nodes"]):
        return "six-term sequence not exact"
    return None


# -- traced probes ---------------------------------------------------------------

class Trace:
    """Spans kept in memory: (job, name, start, end)."""

    def __init__(self):
        self.spans, self.counts, self.job = [], {}, None

    @contextlib.contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.job, name, t0, time.perf_counter()))

    def count(self, name, value):
        self.counts.setdefault(self.job, {})[name] = value

    def per_job(self, scales):
        """{job: {metric: value}}: the spans of one name summed, in
        reference-host seconds by the job's factor."""
        out = {}
        for job, name, t0, t1 in self.spans:
            d = out.setdefault(job, {})
            d[name] = d.get(name, 0.0) + (t1 - t0) * scales[job]
        for job, counts in self.counts.items():
            out.setdefault(job, {}).update(counts)
        return out


def _probe_squares(lx, tr, esd, xm):
    with tr.span("tensor.multiplier_s"):
        lx.tensor.schur_multiplier(xm)
    with tr.span("xmod.check_s"):
        lx.xmod.check_xmod(esd.induced_xmod)
    pres = {id(p): p for p in (esd.qn, esd.qq)}.values()
    with tr.span("algebra.check_leibniz_s"):
        for p in pres:
            lx.algebra.check_leibniz(p.resolved)
    tr.count("tensor.ambient_dim", sum(p.ambient_dim for p in pres))
    tr.count("tensor.relation_rank", sum(p.relations.dim for p in pres))
    tr.count("tensor.square_dim", sum(p.resolved.dim for p in pres))


def _probe_homology(lx, tr, q, n):
    """The calls hl(q, n) is made of."""
    with tr.span("homology.boundary_s"):
        dn = lx.homology.boundary(q, n)
        dn1 = lx.homology.boundary(q, n + 1)
    with tr.span("ratlin.kernel_s"):
        lx.ratlin.kernel(dn)
    with tr.span("ratlin.rank_s"):
        r = lx.ratlin.rank(dn1)
    tr.count("homology.chain_dim", dn.cols)
    tr.count("ratlin.rank", r)


def probe(lx, tr, job, outs):
    """Time each module's public functions on the job's renamed twin."""
    cli = lx.cli
    with tr.span("cli.load_s"):
        obj = cli.load_fixture(job["twin"])
    with tr.span("cli.emit_s"):
        for _, text in outs:
            cli.emit(json.loads(text))
    if job["kind"] == "homology":
        _probe_homology(lx, tr, obj, 3)
        return
    xm = obj if job["kind"] == "squares" else obj.total
    with tr.span("tensor.squares_s"):
        esd = lx.tensor.exterior_square_data(xm)
        if job["kind"] == "extensions":
            lx.tensor.exterior_square_data(obj.quotient)
    _probe_squares(lx, tr, esd, xm)
    with tr.span("xmod.center_s"):
        lx.xmod.center_xmod(xm)
    with tr.span("xmod.abelianization_s"):
        lx.xmod.abelianization(xm)
    if job["kind"] == "squares":
        _probe_homology(lx, tr, xm.base, 2)
        return
    ext = lx.extensions
    lx.tensor.schur_multiplier(obj.quotient)  # analyses run with squares cached
    for name, fn in (("extensions.check_s", ext.check_extension),
                     ("extensions.classify_s", ext.classify),
                     ("extensions.prop41_s", ext.prop41_crosscheck),
                     ("extensions.six_term_s", ext.six_term_report)):
        with tr.span(name):
            fn(obj)
    _probe_homology(lx, tr, obj.quotient.base, 2)


def layer_metrics(per_job, own, reference):
    """Median per job of each per-layer metric; a metric no job of the
    workload produces is taken from the reference jobs."""
    out = {}
    for name, unit in PER_LAYER.items():
        vals = [per_job[j][name] for j in own if name in per_job.get(j, {})]
        if not vals:
            vals = [per_job[j][name] for j in reference
                    if name in per_job.get(j, {})]
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": median(vals), "unit": unit}
    return out


# -- main ------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lx = import_program()
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = build_jobs(args.workload, args.seed, rounds, work)
        reference = []
        if args.trace:
            if args.workload != "extensions":
                ref_dir = work / "reference"
                ref_dir.mkdir()
                reference = gen.extension_jobs(
                    gen.Draws(args.seed), ref_dir,
                    gen.EXTENSIONS[:REFERENCE_JOBS])
            for job in jobs + reference:
                job["twin"] = gen.write_twin(job)
        return run(lx, args, jobs, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(lx, args, jobs, reference):
    tr = Trace()
    times, results, setup, host = [], [], [], []
    step = max(1, len(jobs) // SETUP_SAMPLES)
    for n, job in enumerate(jobs):
        host.append(host_seconds())
        if n % step == 0:
            setup.append(time_setup() * REFERENCE_HOST_S / host[-1])
        try:
            dt, outs = run_job(lx.cli, job)
        except Exception as ex:  # a program fault fails the job, not the run
            times.append(None)
            results.append(f"{type(ex).__name__}: {ex}")
            continue
        times.append(dt)
        results.append(outs)
        if args.trace:
            tr.job = n
            probe(lx, tr, job, outs)
    host.append(host_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each job in reference-host seconds, by the samples on either side
    scale = [2 * REFERENCE_HOST_S / (host[n] + host[n + 1])
             for n in range(len(jobs))]
    if args.trace:
        for n, job in enumerate(reference):
            tr.job = f"reference{n}"
            _, outs = run_job(lx.cli, job)
            probe(lx, tr, job, outs)

    parents = {}

    def parent_hl(cls, doc_c):
        if cls not in parents:
            q = _algebra(lx, doc_c, cls)
            parents[cls] = (lx.homology.hl(q, 2), lx.homology.hl(q, 3))
        return parents[cls]

    failed, wrong = 0, []
    for n, (job, res) in enumerate(zip(jobs, results)):
        try:
            err = res if isinstance(res, str) else check(lx, job, res, parent_hl)
        except (ValueError, KeyError, TypeError) as ex:
            err = f"unreadable output ({type(ex).__name__}: {ex})"
        if err is not None:
            failed += 1
            if not isinstance(res, str):
                wrong.append(n)
            print(f"job {n} ({job['path'].name}) failed: {err}", file=sys.stderr)
    done = [t * k for t, k in zip(times, scale) if t is not None]
    raw = [t for t in times if t is not None]
    print(f"wall: jobs {sum(raw):.2f} s, job p50 {statistics.median(raw):.4f} s; "
          f"host {statistics.median(host) / REFERENCE_HOST_S:.2f}x the "
          "reference time", file=sys.stderr)

    if args.trace:
        scales = dict(enumerate(scale))
        scales.update({f"reference{n}": REFERENCE_HOST_S / host[-1]
                       for n in range(len(reference))})
        metrics = layer_metrics(tr.per_job(scales), range(len(jobs)),
                                [f"reference{n}" for n in range(len(reference))])
        write_trace(args, tr, jobs, times, scales)
    else:
        metrics = {
            "jobs_per_s": len(done) / sum(done),
            "job_s.p50": statistics.median(done),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": not wrong, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, tr, jobs, times, scales):
    """Spans (wall seconds), counts, job times and the per-job factors to
    reference-host seconds of a traced run, as one JSON file."""
    jobs_s = sum(t for t in times if t is not None)
    probes_s = sum(b - a for _, _, a, b in tr.spans)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "jobs_s": jobs_s, "probes_s": probes_s, "overhead": probes_s / jobs_s,
           "jobs": [{"job": n, "file": job["path"].name,
                     "class": job["facts"]["class"], "seconds": t,
                     "to_reference": scales[n]}
                    for n, (job, t) in enumerate(zip(jobs, times))],
           "spans": [{"job": j, "name": n, "start": a, "end": b}
                     for j, n, a, b in tr.spans],
           "counts": {str(k): v for k, v in tr.counts.items()}}
    path = out / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"trace: {path.relative_to(ROOT)}; jobs {jobs_s:.2f} s, probes "
          f"{probes_s:.2f} s, overhead {doc['overhead']:.0%}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
