"""Seeded generator: the spec corpus, the job-kind draw and the arrivals.

Everything a run sends is a pure function of `--seed`. The server sees only
the request lines made here; the same seed gives byte-identical lines and
the same arrival schedule.

Corpus: `corpus/lib/*.ccp` are copies of the 11 library specs and
`corpus/buggy/*.ccp` the 10 `buggy_variants()` rendered with `to_spec`
(regenerate with `perfbench_trace dump-buggy DIR`). Inputs are named
`lib/<stem>` and `bug/<stem>`.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

# Job mix: 60% verify on a library spec, 20% verify on a buggy variant and
# 20% lint on a library spec.
MIX = (("lib", "verify", 0.6), ("bug", "verify", 0.2), ("lib", "lint", 0.2))


def load_corpus(corpus_dir=CORPUS_DIR):
    """{input name: spec text} for every corpus file, in name order."""
    corpus = {}
    for group, prefix in (("lib", "lib"), ("buggy", "bug")):
        folder = os.path.join(corpus_dir, group)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".ccp"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    corpus[f"{prefix}/{name[:-4]}"] = f.read()
    return corpus


def workload_rng(seed, workload, phase):
    """An independent stream per (seed, workload, phase)."""
    return random.Random(f"{seed}/{workload}/{phase}")


def draw_jobs(rng, corpus, count):
    """`count` (input, verb) pairs drawn by MIX."""
    names = sorted(corpus)
    pools = {
        "lib": [n for n in names if n.startswith("lib/")],
        "bug": [n for n in names if n.startswith("bug/")],
    }
    jobs = []
    for _ in range(count):
        u = rng.random()
        for pool, verb, share in MIX:
            if u < share:
                break
            u -= share
        jobs.append((rng.choice(pools[pool]), verb))
    return jobs


def distinct_jobs(corpus):
    """Every (input, verb) pair the mix can draw, in a fixed order."""
    pairs = [(name, "verify") for name in sorted(corpus)]
    pairs += [(name, "lint") for name in sorted(corpus)
              if name.startswith("lib/")]
    return pairs


def request_line(index, job, corpus):
    """The NDJSON request for job `index`, as bytes ending in a newline.

    The id `<index>:<input>:<verb>` lets the checker find the known answer.
    """
    name, verb = job
    request = {"op": "job", "id": f"{index}:{name}:{verb}", "verb": verb,
               "spec": corpus[name]}
    return (json.dumps(request, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


def request_stream(seed, workload, phase, corpus, count):
    """(jobs, lines) for one phase of a workload."""
    jobs = draw_jobs(workload_rng(seed, workload, phase), corpus, count)
    return jobs, [request_line(i, job, corpus) for i, job in enumerate(jobs)]


def arrivals(seed, workload, phase, rate, count):
    """Poisson arrival offsets in seconds (open loop) for `count` jobs."""
    rng = workload_rng(seed, workload, phase + "/arrivals")
    t, times = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times
