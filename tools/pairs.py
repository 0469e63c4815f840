"""Alternating perfbench pairs between two checkouts.

    python3 tools/pairs.py --src PARENT --src CHANGE [--workload W ...]
        [--pairs 10] [--seed 800] [--seconds 25] [--out FILE]

Each --src is the root of a checkout with its own perfbench/ and src/.
For each workload, pair i runs ``perfbench/run.py --workload W --seed
(seed + i) --seconds S --trace 0`` once in each checkout, in ABBA order:
even pairs run the parent (the first --src) first, odd pairs the change.
Each run is a fresh process started in its checkout, so it imports that
checkout's program.  Right after the plain runs of a pair, the same two
runs are made again, in the same order, through a wrapper that imports
the checkout's ``perfbench/run.py`` and calls ``gc.collect()`` after each
set-up sample (the control for ``peak_rss_mb``: perfbench leaves the
garbage of its repeated imports to the collector).  Nothing under perfbench/ is written to or changed.

The output is one JSON object (sorted keys), on stdout or in FILE: for
"plain" and "gc", per workload, whether every run was correct, the
failed jobs per side, and per end-to-end metric of the parent's
BENCHMARK.json each side's runs, median and quartiles
(``statistics.quantiles(n=4)``), the pairs in which the change is better,
the median change in per cent, the median ratio, the median difference
over the parent's q3 - q1, and whether the median change is worse than
the metric's bound; "notes" has one line per workload and side.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MODES = ("plain", "gc")  # the plain runs, then the gc control

# run.py of the checkout, with gc.collect() after each set-up sample
GC_WRAPPER = """
import gc, sys
sys.path.insert(0, "perfbench")
import run
timed = run.time_setup
def time_setup():
    try:
        return timed()
    finally:
        gc.collect()
run.time_setup = time_setup
sys.exit(run.main(sys.argv[1:]))
"""


def run_once(tree, workload, seed, seconds, gc):
    """The JSON result of one perfbench run in the checkout tree."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    cmd = [sys.executable] + (["-c", GC_WRAPPER] if gc else ["perfbench/run.py"]) + args
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 5), "q1": round(q1, 5),
            "q3": round(q3, 5), "runs": [round(v, 5) for v in values]}


def compare(parent, change, better, bound):
    """The per-metric entry: both sides and how the change compares."""
    sign = 1 if better == "higher" else -1
    p, c = summary(parent), summary(change)
    pct = (c["median"] - p["median"]) / p["median"] * 100
    iqr = p["q3"] - p["q1"]
    return {"parent": p, "change": c,
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "median_change_pct": round(pct, 2),
            "median_ratio": round(c["median"] / p["median"], 3),
            "median_diff_over_parent_iqr":
                round(abs(c["median"] - p["median"]) / iqr, 1) if iqr else None,
            "worse_than_bound": -sign * pct > bound * 100}


def workload_result(runs, metrics):
    """runs[side] is the list of run results of one side, in pair order."""
    out = {"all_correct": all(r["correct"] for side in runs.values() for r in side),
           "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
           "metrics": {}}
    for m in metrics:
        vals = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                for side, rs in runs.items()}
        out["metrics"][m["name"]] = compare(vals["parent"], vals["change"],
                                            m["better"], m["bound"])
    return out


def note(res):
    parts = []
    for name, m in res["metrics"].items():
        parts.append(f"{name} {m['parent']['median']} -> {m['change']['median']} "
                     f"({m['median_change_pct']:+.1f} %, {m['change_better_pairs']}/"
                     f"{len(m['parent']['runs'])} better)")
    return "; ".join(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="checkout root: the parent first, then the change")
    ap.add_argument("--workload", action="append",
                    choices=("squares", "extensions", "homology"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=800, help="seed of the first pair")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src twice: the parent, then the change")
    trees = dict(zip(("parent", "change"), (Path(s).resolve() for s in args.src)))
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {mode: {w: {"parent": [], "change": []} for w in workloads} for mode in MODES}
    for w in workloads:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for mode in MODES:
                for side in order:
                    r = run_once(trees[side], w, args.seed + i, args.seconds, mode == "gc")
                    runs[mode][w][side].append(r)
                    print(f"{w} pair {i} {mode} {side}: "
                          f"{json.dumps({k: round(v['value'], 5) for k, v in r['metrics'].items()})}",
                          file=sys.stderr)
    doc = {"method": f"{args.pairs} alternating pairs per workload, seeds {args.seed}-"
                     f"{args.seed + args.pairs - 1}, parent first in even pairs",
           "parent": trees["parent"].name, "change": trees["change"].name}
    for mode in MODES:
        doc[mode] = {w: workload_result(runs[mode][w], spec["end_to_end"]) for w in workloads}
    doc["notes"] = {f"{mode} {w}": note(doc[mode][w]) for mode in MODES for w in workloads}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
