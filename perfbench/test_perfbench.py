"""The benchmark's own tests. Run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import socket
import sys
import threading
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        p = stats.percentile(list(range(1, 1001)), 99)
        self.assertEqual(p.value, 990)
        self.assertEqual(p.samples, 1000)

    def test_refuses_p99_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(999)), 99)
        self.assertEqual(stats.samples_needed(99), 1000)
        self.assertEqual(stats.samples_needed(50), 20)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(stats.TooFewSamples):
            stats.median([])


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.corpus = gen.load_corpus()

    def test_corpus(self):
        names = sorted(self.corpus)
        self.assertEqual(sum(n.startswith("lib/") for n in names), 11)
        self.assertEqual(sum(n.startswith("bug/") for n in names), 10)

    def test_same_seed_gives_byte_identical_streams(self):
        a = gen.request_stream(7, "serve_uncached", "open", self.corpus, 500)
        b = gen.request_stream(7, "serve_uncached", "open", self.corpus, 500)
        self.assertEqual(b"".join(a[1]), b"".join(b[1]))
        self.assertEqual(gen.arrivals(7, "w", "open", 1000.0, 500),
                         gen.arrivals(7, "w", "open", 1000.0, 500))

    def test_other_seed_gives_another_stream(self):
        a = gen.request_stream(7, "serve_uncached", "open", self.corpus, 500)
        b = gen.request_stream(8, "serve_uncached", "open", self.corpus, 500)
        self.assertNotEqual(a[1], b[1])

    def test_mix_and_known_answers_cover_every_draw(self):
        jobs, _ = gen.request_stream(1, "w", "p", self.corpus, 5000)
        share = {}
        for name, verb in jobs:
            kind = (name.split("/")[0], verb)
            share[kind] = share.get(kind, 0) + 1 / len(jobs)
        self.assertAlmostEqual(share[("lib", "verify")], 0.6, delta=0.03)
        self.assertAlmostEqual(share[("bug", "verify")], 0.2, delta=0.03)
        self.assertAlmostEqual(share[("lib", "lint")], 0.2, delta=0.03)
        table = check.load_table()
        for name, verb in gen.distinct_jobs(self.corpus):
            self.assertIn(f"{name}:{verb}", table)
        self.assertEqual(set(jobs) - set(gen.distinct_jobs(self.corpus)),
                         set())


class CheckerTest(unittest.TestCase):
    PAYLOAD = b'{"protocol":"X","ok":true}'

    def setUp(self):
        self.checker = check.Checker({"lib/x:verify": {
            "status": "verified", "sha256": check.digest(self.PAYLOAD)}})

    def response(self, status, payload):
        line = (b'{"id":"3:lib/x:verify","seq":4,"status":"' + status
                + b'","exit_code":0,"cached":false')
        if payload:
            line += b',"payload":' + payload
        return line + b"}\n"

    def test_accepts_the_known_answer(self):
        ok, index, status = self.checker.check_response(
            self.response(b"verified", self.PAYLOAD))
        self.assertEqual((ok, index, status), (True, 3, "verified"))
        self.assertEqual(self.checker.failed, 0)

    def test_rejects_a_flipped_payload_byte(self):
        flipped = bytearray(self.PAYLOAD)
        flipped[14] ^= 0x01
        ok, _, _ = self.checker.check_response(
            self.response(b"verified", bytes(flipped)))
        self.assertFalse(ok)
        self.assertEqual(self.checker.failed, 1)
        # Also once the key has a verified payload to compare against.
        self.checker.check_response(self.response(b"verified", self.PAYLOAD))
        ok, _, _ = self.checker.check_response(
            self.response(b"verified", bytes(flipped)))
        self.assertFalse(ok)
        self.assertEqual((self.checker.attempted, self.checker.failed), (3, 2))

    def test_rejects_an_overloaded_reply(self):
        line = (b'{"id":"3:lib/x:verify","seq":4,"status":"overloaded",'
                b'"cached":false,"error":"queue full: 64 jobs in flight"}\n')
        ok, _, status = self.checker.check_response(line)
        self.assertFalse(ok)
        self.assertEqual(status, "overloaded")
        self.assertEqual((self.checker.attempted, self.checker.failed), (1, 1))

    def test_lost_responses_count_as_failures(self):
        self.checker.lost(2, "lost response")
        self.assertEqual((self.checker.attempted, self.checker.failed), (2, 2))


class ClosedLoopTest(unittest.TestCase):
    PAYLOAD = b'{"ok":true}'

    def test_keeps_the_window_full_and_checks_every_reply(self):
        checker = check.Checker({"lib/x:verify": {
            "status": "verified", "sha256": check.digest(self.PAYLOAD)}})
        client, server = socket.socketpair()
        lines = [b'{"id":"%d:lib/x:verify"}\n' % i for i in range(5)]
        in_flight_seen = []

        def serve():
            server.settimeout(0.3)
            buffer, pending = b"", []
            while True:
                # Answer once the client has a full window out, or once it
                # has stopped sending.
                try:
                    data = server.recv(4096)
                    if not data:
                        return
                    buffer += data
                except socket.timeout:
                    data = None
                *done, buffer = buffer.split(b"\n")
                pending += [json.loads(line)["id"] for line in done]
                while pending and (len(pending) >= 3 or data is None):
                    in_flight_seen.append(len(pending))
                    server.sendall(b'{"id":"' + pending.pop(0).encode()
                                   + b'","status":"verified","payload":'
                                   + self.PAYLOAD + b"}\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        jobs, elapsed = serveload.closed_loop(client, lines, 0.2, checker, 3)
        client.close()
        thread.join(5)
        server.close()
        self.assertGreater(jobs, 3)
        self.assertGreater(elapsed, 0.2)
        self.assertEqual(max(in_flight_seen), 3)
        self.assertEqual(len(in_flight_seen), jobs)
        self.assertEqual((checker.attempted, checker.failed), (jobs, 0))


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["job", 0, 0, 0, 100, 0],
                 ["spec.parse", 0, 0, 10, 40, 1],
                 ["core.verify", 0, 0, 40, 90, 1]]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs["job"], [20])
        self.assertEqual(selfs["spec.parse"], [30])
        self.assertEqual(selfs["core.verify"], [50])


class CpuReportTest(unittest.TestCase):
    def report(self, cpu, work, ref):
        ctx = run.Context.__new__(run.Context)
        ctx.rows, ctx.metrics, ctx.calib_cpu = [], {}, list(ref)
        run.report_cpu(ctx, cpu, work, ref, "")
        return {name: value for name, value, *_ in ctx.rows}

    def test_job_cpu_ref_cancels_the_hosts_speed(self):
        fast = self.report([2.0, 6.0], [100, 200], [0.1, 0.2])
        slow = self.report([3.0, 9.0], [100, 200], [0.15, 0.3])
        self.assertAlmostEqual(fast["job_cpu_ms"], 8000 / 300)
        self.assertAlmostEqual(slow["job_cpu_ms"], 12000 / 300)
        self.assertAlmostEqual(fast["job_cpu_ref"], 8.0 / 50.0)
        self.assertAlmostEqual(slow["job_cpu_ref"], fast["job_cpu_ref"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
