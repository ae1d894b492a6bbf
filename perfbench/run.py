#!/usr/bin/env python3
"""ccver job benchmark: `ccverify` end to end, plus a traced per-layer split.

Run from the root of a ccver checkout:

    python3 perfbench/run.py --workload serve_uncached --seed 1 \\
        --seconds 20 --trace 0

It builds `ccverify`, the tracer and a reference job into `.bench_build/`,
runs the workload, checks every response against `known_answers.json`,
prints a table of every metric with its unit and sample count, and ends
with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
`--trace 0` reports the end-to-end metrics (tracing off); `--trace 1` runs
the traced per-layer split instead. `--workload all` runs every workload in
turn.
See README.md for the layer -> metric -> workload map.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import check  # noqa: E402
import gen  # noqa: E402
import serveload  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_JOBS = "2"

# ---- workload parameters (BENCHMARK.json's `why` repeats the key ones) ------
SERVE_WORKERS = 2
CLIENTS = 2                 # closed-loop client processes, 1 connection each
WINDOW = 8                  # closed-loop jobs in flight per client
# Open-loop arrivals, jobs/s, on both serve workloads: 12-14% of the
# uncached closed-loop capacity and ~3% of the cached one on a 4-vCPU host,
# so latency is mostly service time, not queueing. A faster schedule is not
# kept by the Python sender (README.md, "Load levels").
OPEN_RATE = 1000.0
ROUNDS = 5                  # serve rounds, a fresh server each; set-up batches
WARMUP_S = 0.5              # untimed closed loop on each fresh server
SLO_P99_MS = 10.0           # latency limit for slo_jobs_per_s
LADDER = (1000, 2000, 3000, 4000, 5000, 6000, 8000)  # jobs/s, in order
# Set-ups per batch. A run makes ROUNDS batches spread over its length, so
# that setup_s, their median, does not hang on one moment of a shared host.
SETUP_BATCH = 6
ENUM_SPEC = os.path.join(HERE, "corpus", "lib", "moesisplit.ccp")
ENUM_KEY = "lib/moesisplit:enumerate"
ENUM_N = 8
ENUM_THREADS = 2            # the CAS visited set and parallel frontier
REPLAY_MAX_JOBS = 3000      # request lines the traced run replays in-process
EXIT_STATUS = {0: "verified", 1: "protocol-errors"}  # ccverify exit codes
# The reference job (tracer/calib.cpp): its threads match the workers and
# enumerate threads, and its checksum is fixed by its source.
CALIB_THREADS = 2
CALIB_SUM = b"9fc410ffcb74b308"

# The default --max-queue of 64 shed jobs when a host stall of ~15 ms piled
# up arrivals at 4500 jobs/s; this benchmark measures latency and capacity,
# so the queue is deep enough that only overload sheds.
MAX_QUEUE = 1024
SERVE_ARGS = {
    "serve_uncached": ["--workers", str(SERVE_WORKERS),
                       "--max-queue", str(MAX_QUEUE), "--cache-entries", "0"],
    "serve_cached": ["--workers", str(SERVE_WORKERS),
                     "--max-queue", str(MAX_QUEUE)],
}

# Metrics in the final JSON line: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "job_cpu_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serve.request_parse_us": "us",
    "spec.parse_us": "us",
    "fsm.describe_us": "us",
    "util.fingerprint_us": "us",
    "core.verify_us": "us",
    "core.expand_us": "us",
    "core.graph_us": "us",
    "core.check_us": "us",
    "core.expand.visits": "count",
    "core.expand.expansions": "count",
    "core.expand.index_probes": "count",
    "core.render_us": "us",
    "core.render_bytes": "bytes",
    "analysis.lint_us": "us",
    "analysis.render_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.overloaded": "count",
    "serve.overhead_us": "us",
    "enumeration.run_s": "s",
    "enumeration.render_us": "us",
    "enumeration.states": "count",
    "enumeration.visits": "count",
    "enumeration.symmetry_skips": "count",
    "enumeration.dedup.probes": "count",
    "enumeration.peak_bytes": "bytes",
    "enumeration.spill.spilled_keys": "count",
    "enumeration.spill.runs": "count",
    "enumeration.spill.probes": "count",
    "enumeration.spill.bloom_skips": "count",
    "enumeration.spill.bloom_skip_ratio": "ratio",
    "client.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------

def build():
    """Builds `ccverify`, the tracer and the reference job from the
    checkout in the cwd.

    One CMake tree (`tracer/CMakeLists.txt`) holds them: it adds the ccver
    tree as a subdirectory, so the tracer links the same library targets.
    """
    root = os.getcwd()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a ccver checkout")
    tree = os.path.join(BUILD_DIR, "cmake")
    # Configuring every time takes a fraction of a second and makes a target
    # added since the last run known before it is built.
    steps = [["cmake", "-S", os.path.join(HERE, "tracer"), "-B", tree,
              "-DCMAKE_BUILD_TYPE=Release", f"-DCCVER_SOURCE_DIR={root}"],
             ["cmake", "--build", tree, "--target", "ccverify",
              "perfbench_trace", "perfbench_calib", "-j", BUILD_JOBS]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, check=False)
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return (os.path.join(tree, "ccver", "tools", "ccverify"),
            os.path.join(tree, "perfbench_trace"),
            os.path.join(tree, "perfbench_calib"))


# ---- run context ------------------------------------------------------------

class Context:
    def __init__(self, workload, seed, seconds, binaries, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ccverify, self.tracer, self.calib = binaries
        self.work = work
        self.corpus = gen.load_corpus()
        self.checker = check.Checker(check.load_table())
        self.rows = []  # (name, value, unit, samples, note)
        self.metrics = {}
        self.socks = 0
        self.calib_cpu = []  # CPU s of each reference job, in run order

    def sock_path(self):
        self.socks += 1
        return os.path.join(self.work, f"s{self.socks}.sock")

    def report(self, name, value, unit, samples, note=""):
        """Records a metric; only declared ones reach the JSON line."""
        self.rows.append((name, value, unit, samples, note))
        if name in END_TO_END or name in PER_LAYER:
            self.metrics[name] = {"value": value, "unit": unit}


def ms(seconds):
    return seconds * 1000.0


def calibrate(ctx):
    """CPU seconds of the reference job's work, which measures the host's
    speed at this moment; also kept in ctx.calib_cpu."""
    _, _, _, code, out = run_cli([ctx.calib, str(CALIB_THREADS)])
    fields = out.split()
    if code != 0 or len(fields) != 2 or fields[0] != CALIB_SUM:
        raise BenchError(f"reference job: exit {code}, output {out[:60]!r}")
    cpu = int(fields[1]) / 1e9
    ctx.calib_cpu.append(cpu)
    return cpu


def report_cpu(ctx, cpu, work, ref, note):
    """job_cpu_ms and job_cpu_ref from samples of (CPU s, jobs) and the
    mean CPU s of the reference jobs run right before and after each.

    job_cpu_ref is job CPU in units of the reference job's CPU at the same
    moment. A shared host's speed drifts by tens of percent from minute to
    minute (README.md, "Bounds and steadiness"); it moves both alike, so the
    ratio stays put while the raw CPU time does not.
    """
    jobs = sum(work)
    ctx.report("job_cpu_ms", ms(sum(cpu) / jobs), "ms", jobs, note)
    ctx.report("job_cpu_ref",
               sum(cpu) / sum(w * r for w, r in zip(work, ref)), "ref", jobs,
               "job CPU / reference job CPU next to it")
    ctx.report("calib_cpu_ms", ms(stats.median(ctx.calib_cpu)), "ms",
               len(ctx.calib_cpu), f"reference job, {CALIB_THREADS} threads")


def report_open_latency(ctx, samples):
    """job_p50_ms and its split by verb from (verb, latency) pairs, and
    job_p99_ms when the sample supports it."""
    for name, verb in (("job", None), ("verify", "verify"),
                       ("lint", "lint")):
        lat = [x for v, x in samples if verb in (None, v)]
        if lat:
            ctx.report(f"{name}_p50_ms", ms(stats.median(lat)), "ms",
                       len(lat))
    try:
        p99 = stats.percentile([x for _, x in samples], 99)
        ctx.report("job_p99_ms", ms(p99.value), "ms", p99.samples)
    except stats.TooFewSamples as e:
        log(f"job_p99_ms not reported: {e}")


def report_fail_frac(ctx):
    c = ctx.checker
    ctx.report("fail_frac", c.failed / max(1, c.attempted), "ratio",
               c.attempted)


# ---- serve workloads --------------------------------------------------------

def serve_setups(ctx, workload):
    """Set-up times of SETUP_BATCH servers, each killed once it answers."""
    times = []
    for _ in range(SETUP_BATCH):
        server = serveload.spawn(ctx.ccverify, ctx.sock_path(),
                                 SERVE_ARGS[workload])
        times.append(server.setup_s)
        server.kill()  # only its start-up was wanted
    return times


def open_phase(ctx, server, workload, phase, rate, count, checker=None):
    jobs, lines = gen.request_stream(ctx.seed, workload, phase, ctx.corpus,
                                     count)
    offsets = gen.arrivals(ctx.seed, workload, phase, rate, count)
    sock = server.connect()
    try:
        result = serveload.open_loop(sock, lines, offsets,
                                     checker or ctx.checker)
    finally:
        sock.close()
    return jobs, lines, result


def closed_phase(ctx, server, workload, seconds, phase):
    """(jobs, elapsed s, server CPU s, client CPU s) of one closed-loop
    phase: CLIENTS client processes, WINDOW jobs in flight each."""
    streams = [gen.request_stream(ctx.seed, workload, f"{phase}/{k}",
                                  ctx.corpus, 4096)[1] for k in range(CLIENTS)]
    server_cpu = server.cpu_s()
    clients = serveload.closed_clients(
        server.sock_path, streams, seconds,
        lambda: check.Checker(ctx.checker.table), WINDOW)
    server_cpu = server.cpu_s() - server_cpu
    for _, _, _, checker in clients:
        ctx.checker.merge(checker)
    return (sum(c[0] for c in clients), max(c[1] for c in clients),
            server_cpu, sum(c[2] for c in clients))


def warm_cache(ctx, server):
    """Sends every distinct job once so the timed phase sees a full cache."""
    pairs = gen.distinct_jobs(ctx.corpus)
    lines = [gen.request_line(i, job, ctx.corpus) for i, job in
             enumerate(pairs)]
    sock = server.connect()
    try:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall(line)
            ctx.checker.check_response(reader.readline())
    finally:
        sock.close()
    return lines


def ladder(ctx, server, budget_s):
    """Highest LADDER rate whose p99 meets SLO_P99_MS with no growing backlog.

    Each rung runs at least 1000 jobs, so p99 has ten samples beyond it.
    The first rung that misses ends the ladder. A rung past capacity makes
    the server shed jobs as `overloaded`; probing for that point is the
    ladder's purpose, so a shed job counts as a missed limit for its rung,
    not as a failed job. Every other response is checked as usual.
    """
    best = 0
    stop_at = time.perf_counter() + budget_s
    for rate in LADDER:
        count = max(stats.samples_needed(99), int(rate * 0.25))
        if time.perf_counter() + count / rate > stop_at:
            break
        checker = check.Checker(ctx.checker.table, shed_is_failure=False)
        _, _, result = open_phase(ctx, server, "serve_uncached",
                                  f"ladder{rate}", rate, count, checker)
        ctx.checker.merge(checker)
        lat = result.latencies()
        met = checker.shed == 0 and len(lat) == count
        if met:
            p99 = ms(stats.percentile(lat, 99).value)
            ordered = [x for _, x in sorted(result.samples)]
            quarter = len(ordered) // 4
            growing = (stats.median(ordered[-quarter:])
                       > 2 * stats.median(ordered[:quarter]) + 0.001)
            met = p99 <= SLO_P99_MS and not growing
            log(f"ladder {rate}/s: p99 {p99:.3f} ms, backlog "
                f"{'growing' if growing else 'steady'}")
        else:
            log(f"ladder {rate}/s: {checker.shed} jobs shed")
        if not met:
            break
        best = rate
    return best


def run_serve(ctx, workload):
    """ROUNDS rounds, each on a fresh server: a set-up batch, an untimed
    warm-up, the open loop, then the closed loop between two reference
    jobs. The open loop gives the latencies, the closed loop the throughput
    and the CPU per job. Rounds spread each sample over the whole run and
    over several server processes, so neither a slow minute of a shared host
    nor one process's memory layout sets it. On serve_cached every distinct
    job is sent once first to fill the cache; on serve_uncached the SLO
    ladder takes the last 20% of the run, on the last round's server."""
    share = 0.8 if workload == "serve_uncached" else 1.0
    phase_s = share * ctx.seconds / 2 / ROUNDS
    setup, open_lat, late, cpu, work, ref, rss = [], [], [], [], [], [], []
    closed_elapsed = client_cpu = 0.0
    slo = None
    for r in range(ROUNDS):
        setup += serve_setups(ctx, workload)
        server = serveload.spawn(ctx.ccverify, ctx.sock_path(),
                                 SERVE_ARGS[workload])
        try:
            if workload == "serve_cached":
                warm_cache(ctx, server)
            # Fresh worker threads first pay for page faults and allocator
            # arenas, which made the first round's median up to 2x the rest.
            closed_phase(ctx, server, workload, WARMUP_S, f"warmup{r}")
            jobs, _, result = open_phase(ctx, server, workload, f"open{r}",
                                         OPEN_RATE, int(OPEN_RATE * phase_s))
            open_lat += [(jobs[i][1], x) for i, x in result.samples]
            late += result.late_s
            before = calibrate(ctx)
            jobs, elapsed, s_cpu, c_cpu = closed_phase(
                ctx, server, workload, phase_s, f"closed{r}")
            ref.append((before + calibrate(ctx)) / 2)
            cpu.append(s_cpu)
            work.append(jobs)
            closed_elapsed += elapsed
            client_cpu += c_cpu
            if workload == "serve_uncached" and r == ROUNDS - 1:
                slo = ladder(ctx, server, 0.2 * ctx.seconds)
        finally:
            ctx.checker.exit_code("ccverify serve", server.stop())
        rss.append(server.peak_rss_mb)
    ctx.report("setup_s", stats.median(setup), "s", len(setup))
    if not open_lat:
        raise BenchError("no successful jobs")
    report_open_latency(ctx, open_lat)
    late_p99 = stats.percentile(late, 99)
    ctx.report("open.late_p99_ms", ms(late_p99.value), "ms",
               late_p99.samples, "sender lateness against the due time")
    ctx.report("jobs_per_s", sum(work) / closed_elapsed, "1/s", sum(work))
    report_cpu(ctx, cpu, work, ref, "server CPU per job in the closed loop")
    # Cores each side kept busy in the closed loop. Each client process can
    # use at most one, so clients far below CLIENTS cores mean jobs_per_s is
    # the server's figure, not the load generator's.
    ctx.report("closed.server_cores", sum(cpu) / closed_elapsed, "cores",
               sum(work), f"{SERVE_WORKERS} workers")
    ctx.report("closed.client_cores", client_cpu / closed_elapsed, "cores",
               sum(work), f"{CLIENTS} client processes")
    if slo is not None:
        ctx.report("slo_jobs_per_s", float(slo), "1/s", len(LADDER),
                   f"p99 <= {SLO_P99_MS:g} ms")
    ctx.report("peak_rss_mb", stats.median(rss), "MB", len(rss))
    report_fail_frac(ctx)


# ---- enumerate workloads ----------------------------------------------------

def run_cli(argv):
    """(wall s, CPU s, peak RSS MB, exit code, stdout) of one process.

    wait4 reports the larger of the child's peak RSS and this process's at
    the spawn (serveload.hwm_mb), so the peak is None when it does not
    exceed the latter.
    """
    own_mb = serveload.hwm_mb()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0
    return (wall, usage.ru_utime + usage.ru_stime,
            peak if peak > own_mb else None, proc.returncode, out)


def enum_argv(ccverify, n, spill_dir):
    argv = [ccverify, "enumerate", ENUM_SPEC, "--n", str(n), "--strict",
            "--threads", str(ENUM_THREADS), "--json"]
    if spill_dir:
        argv += ["--spill-dir", spill_dir, "--spill-watermark", "1"]
    return argv


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_enum(ctx, spill):
    spill_dir = os.path.join(ctx.work, "spill") if spill else None
    # Set-up is the whole of a one-cache run. It leaves out the spill
    # directory: spill I/O belongs to the job, and its fsyncs made this
    # median bimodal. A reference job runs before the first job and after
    # each.
    setup, walls, cpus, rss, ref = [], [], [], [], []
    calib_before = calibrate(ctx)
    start = time.perf_counter()
    stop_at = start + ctx.seconds
    # At least 3 jobs for a median, unless they fail.
    while time.perf_counter() < stop_at or (
            len(walls) < 3 and not ctx.checker.failed):
        batch = len(setup) // SETUP_BATCH
        if batch < ROUNDS and (time.perf_counter() - start
                               >= batch * ctx.seconds / ROUNDS):
            for _ in range(SETUP_BATCH):
                wall, _, _, code, _ = run_cli(enum_argv(ctx.ccverify, 1,
                                                        None))
                if code != 0:
                    raise BenchError(f"enumerate --n 1 exited {code}")
                setup.append(wall)
        if spill:
            fresh_dir(spill_dir)
        wall, cpu, peak, code, out = run_cli(enum_argv(ctx.ccverify, ENUM_N,
                                                       spill_dir))
        calib_after = calibrate(ctx)
        if peak is None:
            raise BenchError("enumerate's peak RSS is hidden by the "
                             "benchmark's own")
        status = EXIT_STATUS.get(code, f"exit {code}")
        if ctx.checker.check(ENUM_KEY, status, out.rstrip(b"\n")):
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            ref.append((calib_before + calib_after) / 2)
        calib_before = calib_after
    if spill:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if not walls:
        raise BenchError("no enumerate job succeeded")
    ctx.report("setup_s", stats.median(setup), "s", len(setup))
    ctx.report("job_p50_ms", ms(stats.median(walls)), "ms", len(walls))
    ctx.report("search_s", stats.median(walls), "s", len(walls))
    ctx.report("jobs_per_s", len(walls) / sum(walls), "1/s", len(walls))
    report_cpu(ctx, cpus, [1] * len(cpus), ref,
               "user + system CPU of one enumerate process")
    ctx.report("peak_rss_mb", stats.median(rss), "MB", len(rss))
    report_fail_frac(ctx)


# ---- traced run -------------------------------------------------------------

def serve_phase_traced(ctx, workload, seconds):
    """A short untraced open-loop serve phase: (replay lines, RTT per
    replay index). On serve_cached the warm-up lines lead the replay, so the
    tracer's cache model sees the same misses and hits as the server."""
    server = serveload.spawn(ctx.ccverify, ctx.sock_path(),
                             SERVE_ARGS[workload])
    try:
        replay = warm_cache(ctx, server) if workload == "serve_cached" else []
        count = max(stats.samples_needed(99), int(OPEN_RATE * seconds))
        _, lines, result = open_phase(ctx, server, workload, "traced",
                                      OPEN_RATE, count)
        # Latency runs from the due time; the round trip from the send.
        rtt = {len(replay) + i: lat - result.late_s[i]
               for i, lat in result.samples}
        replay += lines
        sock = server.connect()
        try:
            serve_stats = server.stats(sock)
        finally:
            sock.close()
    finally:
        ctx.checker.exit_code("ccverify serve", server.stop())
    late = stats.percentile(result.late_s, 99)
    ctx.report("client.late_p99_ms", ms(late.value), "ms", late.samples)
    counters = serve_stats.get("counters", {})
    hits = counters.get("serve.cache.hits", 0)
    lookups = hits + counters.get("serve.cache.misses", 0)
    ctx.report("serve.cache_hit_ratio", hits / lookups if lookups else 0.0,
               "ratio", lookups, f"{hits} hits / {lookups} lookups")
    ctx.report("serve.cache_lookups", lookups, "count", 1)
    ctx.report("serve.overloaded", counters.get("serve.jobs.rejected", 0),
               "count", 1)
    return replay, rtt


def replay_traced(ctx, workload, replay, rtt):
    """Replays the serve phase's lines in-process under the tracer."""
    replay = replay[:REPLAY_MAX_JOBS]
    requests = os.path.join(ctx.work, "requests.ndjson")
    with open(requests, "wb") as f:
        f.writelines(replay)
    out = os.path.join(ctx.work, "jobs.json")
    argv = [ctx.tracer, "jobs", requests, out]
    if workload == "serve_cached":
        argv.append("--cache")
    subprocess.run(argv, check=True)
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)

    # The traced run must do the same work: every distinct payload matches
    # its known answer, and so do the verify counts of its first run.
    first = {}
    for job in doc["jobs"]:
        first.setdefault(job["key"], job)
    for key, payload in doc["payloads"].items():
        job, want = first[key], ctx.checker.table.get(key, {})
        if (ctx.checker.check(key, job["status"], payload.encode())
                and key.endswith(":verify")
                and (job["essential"], job["visits"])
                != (want["essential"], want["visits"])):
            ctx.checker.fail(f"{key}: traced counts differ")
    if doc["payload_mismatches"]:
        ctx.checker.fail("traced payload differs between passes")

    ctx.report("trace.overhead_frac", doc["traced_ns"] / doc["untraced_ns"],
               "ratio", 2 * len(replay),
               "traced / untraced in-process job time")

    spans = doc["spans"]
    selfs = tracing.self_times(spans)
    names = ("serve.request_parse", "spec.parse", "fsm.describe",
             "util.fingerprint", "core.verify", "core.expand", "core.render",
             "analysis.lint", "analysis.render")
    for name in names:
        ctx.report(f"{name}_us", tracing.mean(selfs.get(name, [])) / 1e3,
                   "us", len(selfs.get(name, [])))
    verify_calls = len(selfs.get("core.verify", []))
    graph_total = sum(selfs.get("core.graph", []))
    ctx.report("core.graph_us", graph_total / max(1, verify_calls) / 1e3, "us",
               verify_calls, "per verify job; mutants build no graph")
    check_us = (sum(selfs.get("core.verify", []))
                - sum(selfs.get("core.expand", [])) - graph_total)
    ctx.report("core.check_us", check_us / max(1, verify_calls) / 1e3, "us",
               verify_calls, "verify - expand - graph")

    engine = [j for j in doc["jobs"]
              if j["key"].endswith(":verify") and not j["cached"]]
    for field in ("visits", "expansions", "index_probes"):
        ctx.report(f"core.expand.{field}",
                   tracing.mean([j[field] for j in engine]), "count",
                   len(engine), "mean per verify job run")
    ctx.report("core.render_bytes",
               tracing.mean([len(doc["payloads"][j["key"]].encode())
                             for j in engine]),
               "bytes", len(engine), "mean per verify job run")

    # Round trip minus the traced in-process job time, paired job by job.
    jobs = doc["jobs"]
    overhead = [rtt[i] - jobs[i]["job_ns"] / 1e9 for i in rtt
                if i < len(jobs)]
    if overhead:
        ctx.report("serve.overhead_us", stats.median(overhead) * 1e6, "us",
                   len(overhead), "median of round trip - in-process job")


def enumerate_traced(ctx, spill):
    out = os.path.join(ctx.work, "enum.json")
    argv = [ctx.tracer, "enumerate", ENUM_SPEC, out, "--n", str(ENUM_N),
            "--threads", str(ENUM_THREADS), "--strict"]
    spill_dir = os.path.join(ctx.work, "spill")
    if spill:
        argv += ["--spill-dir", fresh_dir(spill_dir), "--spill-watermark", "1"]
    subprocess.run(argv, check=True)
    shutil.rmtree(spill_dir, ignore_errors=True)
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)
    ctx.checker.check(ENUM_KEY, doc["status"], doc["payload"].encode())
    want = ctx.checker.table[ENUM_KEY]
    counts = doc["counts"]
    if (counts["states"], counts["visits"]) != (want["states"],
                                                want["visits"]):
        ctx.checker.fail("traced enumeration counts differ")
    return doc


def run_traced(ctx):
    """The per-layer split. Layers off the workload's own path are timed on
    the reference job for that layer (README.md), so every metric is a
    measured number on every workload."""
    serve_wl = (ctx.workload if ctx.workload in SERVE_ARGS
                else "serve_uncached")
    replay, rtt = serve_phase_traced(ctx, serve_wl, 0.25 * ctx.seconds)
    replay_traced(ctx, serve_wl, replay, rtt)

    strict = None if ctx.workload == "enum_spill" else enumerate_traced(
        ctx, spill=False)
    spill = enumerate_traced(ctx, spill=True)
    main = spill if ctx.workload == "enum_spill" else strict
    selfs = tracing.self_times(main["spans"])
    ctx.report("enumeration.run_s", sum(selfs["enumeration.run"]) / 1e9, "s",
               1)
    ctx.report("enumeration.render_us",
               sum(selfs["enumeration.render"]) / 1e3, "us", 1)
    for name in ("states", "visits", "symmetry_skips", "dedup.probes",
                 "peak_bytes"):
        metric = f"enumeration.{name}"
        ctx.report(metric, main["counts"][name], PER_LAYER[metric], 1)
    counts = spill["counts"]
    for name in ("spilled_keys", "runs", "probes", "bloom_skips"):
        ctx.report(f"enumeration.spill.{name}", counts[f"spill.{name}"],
                   "count", 1)
    probes = counts["spill.probes"]
    ctx.report("enumeration.spill.bloom_skip_ratio",
               counts["spill.bloom_skips"] / probes if probes else 0.0,
               "ratio", probes, "bloom skips / probes")


WORKLOADS = {
    "serve_uncached": lambda ctx: run_serve(ctx, "serve_uncached"),
    "serve_cached": lambda ctx: run_serve(ctx, "serve_cached"),
    "enum_strict": lambda ctx: run_enum(ctx, spill=False),
    "enum_spill": lambda ctx: run_enum(ctx, spill=True),
}


# ---- output -----------------------------------------------------------------

def print_table(ctx, trace):
    print(f"# {ctx.workload} seed={ctx.seed} seconds={ctx.seconds} "
          f"trace={trace}")
    print(f"{'metric':38s} {'value':>14s} {'unit':6s} {'samples':>8s}")
    for name, value, unit, samples, note in ctx.rows:
        mark = "*" if name in ctx.metrics else " "
        print(f"{mark}{name:37s} {value:14.6g} {unit:6s} {samples:8d}"
              f"  {note}")
    if ctx.checker.failed:
        print(f"# failures: {ctx.checker.summary()}")


def run_workload(name, args, binaries, work):
    ctx = Context(name, args.seed, args.seconds, binaries, work)
    if args.trace:
        run_traced(ctx)
    else:
        WORKLOADS[name](ctx)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(ctx.metrics))
    if missing:
        raise BenchError(f"{name}: metrics not measured: {missing}")
    print_table(ctx, args.trace)
    return ctx


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # A terminated run still drains its servers and reaps its children:
    # SystemExit unwinds through the same `finally` blocks as an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    binaries = build()
    serveload.tighten_timer_slack()
    work = fresh_dir(os.path.join(BUILD_DIR, f"work-{os.getpid()}"))
    try:
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        contexts = [run_workload(n, args, binaries, work) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.checker.attempted for c in contexts)
    failed = sum(c.checker.failed for c in contexts)
    if len(contexts) == 1:
        metrics = contexts[0].metrics
    else:
        metrics = {f"{c.workload}/{k}": v for c in contexts
                   for k, v in c.metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1  # any known-answer mismatch fails the run


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # any failure: a message and no result line
        log(f"perfbench: {type(e).__name__}: {e}")
        sys.exit(1)
