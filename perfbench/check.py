"""Known-answer checks for every job the benchmark runs.

`known_answers.json` maps `<input>:<verb>` to the expected status, the
essential-state and visit counts (verify), the state and visit counts
(enumerate) and the sha256 of the payload bytes recorded at the commit that
introduced the benchmark. A response passes only if its status and payload
digest both match: payloads are part of the byte-identity contract, so any
change to them is a failure here, not a tolerance.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "known_answers.json")

_PAYLOAD_KEY = b',"payload":'


def load_table(path=TABLE_PATH):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def digest(payload):
    return hashlib.sha256(payload).hexdigest()


def split_response(line):
    """(envelope dict, payload bytes) of one serve response line.

    The payload is the last member of the envelope and is spliced in
    verbatim by the server, so its bytes are sliced out, not re-serialized.
    """
    line = line.rstrip(b"\r\n")
    cut = line.find(_PAYLOAD_KEY)
    if cut < 0:
        return json.loads(line), b""
    return json.loads(line[:cut] + b"}"), line[cut + len(_PAYLOAD_KEY):-1]


class Checker:
    """Counts attempted and failed jobs against the known-answer table."""

    def __init__(self, table, shed_is_failure=True):
        self.table = table
        self.shed_is_failure = shed_is_failure
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.reasons = {}
        self.verified = {}  # key -> payload bytes whose digest matched

    def fail(self, reason):
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, key, status, payload):
        """Records one job; returns True when it matches its known answer."""
        self.attempted += 1
        expected = self.table.get(key)
        if expected is None:
            self.fail(f"{key}: no known answer")
            return False
        if status == "overloaded" and not self.shed_is_failure:
            self.shed += 1
            return False
        if status != expected["status"]:
            self.fail(f"{key}: status {status}, expected {expected['status']}")
            return False
        # A byte compare against an already-verified payload is the same
        # check as the digest, at a fraction of the client's time.
        if self.verified.get(key) != payload:
            if digest(payload) != expected["sha256"]:
                self.fail(f"{key}: payload digest differs")
                return False
            self.verified[key] = payload
        return True

    def check_response(self, line):
        """Checks one serve response line; returns (ok, job index, status)."""
        try:
            envelope, payload = split_response(line)
            index, key = envelope["id"].split(":", 1)
            status = envelope["status"]
        except (ValueError, KeyError) as e:
            self.fail(f"unparseable response: {e}")
            return False, None, None
        return self.check(key, status, payload), int(index), status

    def lost(self, count, why):
        """Records `count` jobs that never got a response."""
        self.attempted += count
        for _ in range(count):
            self.fail(why)

    def exit_code(self, what, code):
        """Records a process that must exit 0, such as a drained server."""
        self.attempted += 1
        if code != 0:
            self.fail(f"{what} exited {code}")

    def merge(self, other):
        """Adds another checker's counts (sheds stay with `other`)."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    def summary(self):
        return "; ".join(f"{n}x {r}" for r, n in sorted(self.reasons.items()))
