"""One-off size ladder behind the baseline figures in bench/README.md.

    python3 bench/ladder.py

Not a workload: each step runs once, in this process, and its answer is
checked against the same closed forms the workloads use. Steps: chain
extension search at 8/8, 9/9 and 10/10 (constants/rules), lottery_space
at 1k, 5k and 20k tickets, and building and checking the 720 sequences
of 6 commuting default rules. Prints one JSON object.
"""

import json
import math
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import partseq as ps  # noqa: E402

import families as fam  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main():
    rng = random.Random(0)
    steps = {}
    for n in (8, 9, 10):
        spec, expected = fam.chain(rng, n, n)
        kernels, secs = timed(ps.extensions, spec.to_ps())
        assert {frozenset(fam.world_bits(w, spec.vocab) for w in k.worlds) for k in kernels} == expected
        steps[f"chain_{n}_{n}_extensions_s"] = secs
    for n in (1000, 5000, 20000):
        space, secs = timed(ps.lottery_space, n)
        assert len(space.worlds) == n
        steps[f"lottery_space_{n}_s"] = secs
    spec, expected = fam.commuting_default(rng, 7, 6)
    theory = spec.to_ps()
    seqs, secs = timed(ps.build_default_sequences, theory)
    assert len(seqs) == math.factorial(6) == len(expected)
    steps["build_6_rules_s"] = secs
    problems, secs = timed(lambda: [ps.check_default_sequence(theory, s) for s in seqs])
    assert not any(problems)
    steps["check_720_sequences_s"] = secs
    steps["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(steps, indent=1))


if __name__ == "__main__":
    main()
