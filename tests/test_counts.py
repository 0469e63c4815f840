"""The call counts of tools/counts.py on perfbench job lists: deterministic,
so each is pinned against the count of the code it replaced."""

import json
import subprocess
import sys
from pathlib import Path

COUNTS = Path(__file__).resolve().parent.parent / "tools" / "counts.py"


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(COUNTS), "--workload", workload,
                           "--seed", str(seed)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-500:]
    out = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(out, sort_keys=True) + "\n"
    return out


def test_extension_job_counts():
    out = counts("extensions", 201)
    assert out["jobs"] == 53
    # a closure step is six products with the whole algebra (it was twelve
    # joins) and the derived pair takes each product once (254.66 joins per
    # job before); the whole pair is a crossed ideal without a step (210.66
    # joins, 139.96 eliminations and 5 steps per job before); an action's
    # report starts with the Leibniz reports of its algebras, one more join
    # for each algebra object that had none (<= 199 before); the laws of an
    # adjoint identity, and of a map between two of them with equal
    # components, are read off a Leibniz or homomorphism report (<= 203 joins
    # and 74.528 law families per job before); the multiplier of a (q, q,
    # id) evaluates the one product its four laws share (160.849)
    assert out["ratlin.join"] <= 155.642
    assert out["algebra._violations"] == 55.226
    # a map's kernel is taken once per matrix object and surjectivity and
    # injectivity are read off it (133.96 eliminations per job before); the
    # well-definedness test spans each projection of G(R) once (128.774);
    # the one-leg span of an extension is the induced top map's kernel
    # (128.283); the glue generators go into the relation elimination
    # (127.283); the one square of a (q, q, id) has one evaluation matrix,
    # eliminated once (123.151); the glue over a base with the identity and
    # the center of an adjoint identity take one kernel less each, and the
    # square of a (q, q, id) tests block 0 alone for well-definedness
    # (121.415)
    assert out["ratlin._eliminate"] <= 105.226
    assert out["xmod._step"] == 3
    # theta* solves against the two induced square maps once each (against
    # the sections before, and twice each before that: 8 solves)
    assert out["ratlin.solve_matrix"] == 6
    # theta* lifts through the induced square maps in place of descending
    # the evaluation of a plain and a skewed section (22.057 descents, 9
    # substitutions and 3 one-leg spans per job before); the base action on
    # a top square is read off its evaluation, not descended (18.057)
    assert out["tensor._descend"] == 8.132
    assert out["tensor._substitution"] == 5
    assert out["tensor.one_leg_span"] == 2
    # each induced square map is eliminated once, for its kernel and its
    # surjectivity alike (12.59 ranks per job before); no surjection or
    # theta* is ranked, their kernels tell (10.59 ranks and 32.132 kernel
    # eliminations per job before; the extension's induced isomorphism
    # takes two kernels in place of two ranks); one kernel of the one
    # evaluation matrix of a (q, q, id)'s square (34.132); the glue's
    # pullback over a base with the identity is read off delta, and an
    # adjoint identity's center is one annihilator (33.264)
    assert out["ratlin.integer_rank"] <= 1.4
    assert out["ratlin.sparse_kernel"] == 26.925
    # a (q, q, id) builds one square, whatever its name
    assert out["tensor._build_presentation"] == 4.132
    # the squares of two equal crossed modules take side 0's action rows
    # alone (231.075 symbol accumulators per job before), and of those only
    # rule 1 when the top acts on itself by its bracket (180.264), and no
    # agreement rows, which its glue holds (148.415)
    assert out["tensor._symbols"] <= 146.17


def test_squares_job_counts():
    # every job is a (q, q, id): one presentation each
    out = counts("squares", 201)
    assert out["jobs"] == 18
    assert out["tensor._build_presentation"] == 1
    # the action's report reads the Leibniz report of its algebra (31 joins
    # before); the well-definedness test spans each projection of G(R) once
    # (19.889 eliminations before); the glue generators go into the relation
    # elimination, not one of their own (19.0); the one evaluation matrix of
    # the square is eliminated once, for lambda and mu alike (18.0, and 5
    # kernels); the laws of the adjoint identities (q, q, id) and (q^q, q^q,
    # id ^ id), and of the maps between them, are read off the Leibniz
    # reports and one homomorphism report each (32 joins and 12 law
    # families before); the multiplier's four laws are one product, the
    # glue's pullback is read off delta, the center is one annihilator and
    # well-definedness is tested on block 0 alone (16 joins and 16.0)
    assert (out["ratlin.join"], out["ratlin._eliminate"]) == (10, 10.0)
    assert out["algebra._violations"] == 4
    # the square takes side 0's rule 1 rows alone (236.111 symbol
    # accumulators per job before, 146.333 with all of side 0's rules) and
    # no agreement rows (91.444)
    assert out["tensor._symbols"] <= 88.667
    # the glue's pullback and the center's base part take no kernel (4)
    assert out["ratlin.sparse_kernel"] == 2
    # one square per job: its evaluation and id ^ delta descend, and the base
    # action is read off the evaluation (10.222 descents with its 2 dim q
    # maps); id ^ delta is the one substitution
    assert (out["tensor._descend"], out["tensor._substitution"]) == (2, 1)
    assert out["tensor.one_leg_span"] == 0


def test_homology_job_counts():
    # the one join of a job is the Leibniz report the hl command reads
    out = counts("homology", 201)
    assert out["jobs"] == 15
    assert (out["ratlin.join"], out["algebra._violations"]) == (1, 1)
    assert out["ratlin._eliminate"] == 2
    # no square is built
    assert (out["tensor._descend"], out["tensor._substitution"],
            out["tensor.one_leg_span"]) == (0, 0, 0)
