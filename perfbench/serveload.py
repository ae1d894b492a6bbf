"""`ccverify serve` process control and the load generators.

Latency is measured per job from request bytes out to response line in;
in the open loop it is measured from the job's due time, so a stall also
charges the wait it imposes on later jobs. Closed-loop clients each run in
a process of their own. Every response goes through the known-answer
checker as it arrives.
"""

import ctypes
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

RESPONSE_TIMEOUT_S = 30.0
_PR_SET_TIMERSLACK = 29
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def hwm_mb(pid="self"):
    """Peak RSS (VmHWM) of a live process, in MB.

    A child's wait4 rusage is no substitute: exec records the parent's peak
    RSS in the child's, so it reports at least the benchmark's own.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def tighten_timer_slack():
    """Asks Linux for 1 ns timer slack, so the sender wakes on schedule.

    The default 50 us slack would show up as sender lateness, and so as
    latency measured from the due time. Elsewhere this does nothing.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class ServeProcess:
    """One `ccverify serve --socket` process."""

    def __init__(self, binary, sock_path, args):
        self.sock_path = sock_path
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--socket", sock_path] + list(args),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self.peak_rss_mb = None
        self.setup_s = None

    def connect(self):
        """A connected socket; the first call also times set-up.

        Set-up runs from spawning the process to the first `ping` reply.
        """
        deadline = self.started + RESPONSE_TIMEOUT_S
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if self.proc.poll() is not None:
                    raise RuntimeError("ccverify serve exited at start-up")
                if time.perf_counter() > deadline:
                    raise RuntimeError("ccverify serve never listened")
                time.sleep(0.0005)
        sock.settimeout(RESPONSE_TIMEOUT_S)
        if self.setup_s is None:
            sock.sendall(b'{"op":"ping","id":"setup"}\n')
            reply = sock.makefile("rb").readline()
            if b'"status":"ok"' not in reply:
                raise RuntimeError(f"bad ping reply: {reply[:200]!r}")
            self.setup_s = time.perf_counter() - self.started
        return sock

    def stats(self, sock):
        """The server's `serve.*` metrics snapshot."""
        sock.sendall(b'{"op":"stats","id":"stats"}\n')
        return json.loads(sock.makefile("rb").readline())["serve"]

    def cpu_s(self):
        """User + system CPU seconds the running server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self):
        """Drains the server, reaps it and returns its exit status. Its
        peak RSS is read just before."""
        if self.proc.returncode is None:
            try:
                self.peak_rss_mb = hwm_mb(self.proc.pid)
            except (OSError, RuntimeError):
                pass  # it has exited; the exit status tells
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.settimeout(RESPONSE_TIMEOUT_S)
                    sock.connect(self.sock_path)
                    sock.sendall(b'{"op":"shutdown","id":"stop"}\n')
                    sock.makefile("rb").readline()
            except OSError:
                self.proc.terminate()
            self.reap(RESPONSE_TIMEOUT_S)
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap(RESPONSE_TIMEOUT_S)

    def reap(self, timeout):
        """Waits for the process; kills it once `timeout` seconds pass
        without an exit."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.001)
        self.proc.returncode = os.waitstatus_to_exitcode(status)


def spawn(binary, sock_path, args):
    """A started server whose set-up time is already measured."""
    server = ServeProcess(binary, sock_path, args)
    try:
        server.connect().close()
    except BaseException:
        server.kill()
        raise
    return server


class Result:
    """Timings of one open-loop phase.

    `samples` holds (job, latency in s) for every job whose response passed
    the checker; `job` is the index into the phase's request lines.
    `late_s` is the sender's lateness per send.
    """

    def __init__(self):
        self.samples = []
        self.late_s = []
        self.statuses = {}

    def count(self, status):
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def latencies(self):
        return [lat for _, lat in self.samples]


def open_loop(sock, lines, offsets, checker):
    """Sends `lines[i]` at `offsets[i]` seconds from now on one connection.

    One sender thread keeps the schedule; this thread receives. Latency is
    timed from the due time.
    """
    count = len(lines)
    result = Result()
    start = time.perf_counter() + 0.01
    due = [start + off for off in offsets]
    failure = []

    def sender():
        try:
            for i in range(count):
                wait = due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                sock.sendall(lines[i])
                result.late_s.append(sent - due[i])
        except OSError as e:
            failure.append(e)

    thread = threading.Thread(target=sender, daemon=True)
    previous = sys.getswitchinterval()
    # The receiver must get the interpreter promptly when a reply lands.
    sys.setswitchinterval(0.0005)
    try:
        thread.start()
        reader = sock.makefile("rb")
        for _ in range(count):
            try:
                line = reader.readline()
            except socket.timeout:
                break
            now = time.perf_counter()
            if not line:
                break
            ok, index, status = checker.check_response(line)
            result.count(status)
            if ok and 0 <= index < count:
                result.samples.append((index, now - due[index]))
        thread.join(RESPONSE_TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    answered = sum(result.statuses.values())
    if count > answered:
        checker.lost(count - answered, "lost response")
    if failure:
        raise RuntimeError(f"sender failed: {failure[0]}")
    return result


def closed_loop(sock, lines, seconds, checker, window):
    """One closed-loop client: keeps `window` jobs in flight on `sock` and
    sends the next only when a reply frees a slot.

    It walks `lines` (cycling) until `seconds` have passed. A reply's id
    echoes the stream index of its job; with at most `window` jobs in flight
    that index is unique. Returns (jobs completed and checked, elapsed s).
    """
    reader = sock.makefile("rb")
    in_flight = set()  # stream indices of the jobs in flight
    sent = done = 0
    start = time.perf_counter()
    stop_at = start + seconds
    while True:
        while len(in_flight) < window and time.perf_counter() < stop_at:
            in_flight.add(sent % len(lines))
            sock.sendall(lines[sent % len(lines)])
            sent += 1
        if not in_flight:
            break
        reply = reader.readline()
        if not reply:
            checker.lost(len(in_flight), "lost response")
            break
        ok, index, _ = checker.check_response(reply)
        if index is None or index % len(lines) not in in_flight:
            checker.fail(f"reply to no job in flight: {index}")
            break
        in_flight.discard(index % len(lines))
        done += ok
    return done, time.perf_counter() - start


def _closed_client(sock_path, lines, seconds, checker, window, conn):
    """Body of one client process: sends back (jobs, elapsed s, CPU s,
    checker) or the error that stopped it."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(RESPONSE_TIMEOUT_S)
            sock.connect(sock_path)
            jobs, elapsed = closed_loop(sock, lines, seconds, checker, window)
        conn.send((jobs, elapsed, time.process_time(), checker))
    except Exception as e:  # reported by the parent
        conn.send(f"{type(e).__name__}: {e}")
    finally:
        conn.close()


def closed_clients(sock_path, streams, seconds, make_checker, window):
    """Runs one closed-loop client per stream, each in its own process, so
    the load generator is not bound to one interpreter lock.

    Returns [(jobs, elapsed s, client CPU s, checker)], one per client.
    """
    ctx = multiprocessing.get_context("fork")
    clients = []
    for lines in streams:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_closed_client, daemon=True,
                           args=(sock_path, lines, seconds, make_checker(),
                                 window, child))
        proc.start()
        child.close()
        clients.append((proc, parent))
    results, errors = [], []
    try:
        for proc, conn in clients:
            if not conn.poll(seconds + RESPONSE_TIMEOUT_S):
                errors.append("closed-loop client timed out")
                continue
            try:
                reply = conn.recv()
            except EOFError:
                reply = "closed-loop client died"
            if isinstance(reply, str):
                errors.append(reply)
            else:
                results.append(reply)
    finally:
        for proc, conn in clients:
            conn.close()
            proc.join(RESPONSE_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
    if errors:
        raise RuntimeError(f"client failed: {errors[0]}")
    return results
