"""Span aggregation for the traced run.

The tracer (`tracer/trace.cpp`) writes every span as
`[name, pass, job, start_ns, end_ns, parent]`, with `parent` the index of
the enclosing span plus one (0 for a root). A span's self time is its
duration minus the part its child spans cover; spans of one job run on one
thread, so children never overlap and their durations simply add up.
"""


def self_times(spans):
    """{name: [self time in ns, one per call]}."""
    covered = [0] * len(spans)
    for span in spans:
        parent = span[5]
        if parent:
            covered[parent - 1] += span[4] - span[3]
    out = {}
    for span, child in zip(spans, covered):
        out.setdefault(span[0], []).append(span[4] - span[3] - child)
    return out


def mean(values):
    return sum(values) / len(values) if values else 0.0

