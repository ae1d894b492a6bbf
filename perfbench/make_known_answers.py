#!/usr/bin/env python3
"""Records `known_answers.json` from the current checkout.

    python3 perfbench/make_known_answers.py

Every (input, verb) pair the generator can draw goes through
`ccverify serve` once (inline spec, cache off), and the enumerate job
through the CLI once. The table keeps each answer's status, counts and
payload sha256. Re-record only when a change to the payloads is intended;
the table is the byte-identity contract the benchmark checks.
"""

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402


def main():
    ccverify, _ = run.build()
    corpus = gen.load_corpus()
    work = run.fresh_dir(os.path.join(run.BUILD_DIR, "known-answers"))
    table = {}
    try:
        server = serveload.spawn(ccverify, os.path.join(work, "s.sock"),
                                 run.SERVE_ARGS["serve_uncached"])
        try:
            sock = server.connect()
            reader = sock.makefile("rb")
            for i, (name, verb) in enumerate(gen.distinct_jobs(corpus)):
                sock.sendall(gen.request_line(i, (name, verb), corpus))
                envelope, payload = check.split_response(reader.readline())
                entry = {"status": envelope["status"],
                         "sha256": check.digest(payload)}
                if verb == "verify":
                    doc = json.loads(payload)
                    entry["essential"] = len(doc["essential_states"])
                    entry["visits"] = doc["stats"]["visits"]
                table[f"{name}:{verb}"] = entry
            sock.close()
        finally:
            server.stop()

        _, _, _, code, out = run.run_cli(
            run.enum_argv(ccverify, run.ENUM_N, None))
        payload = out.rstrip(b"\n")
        doc = json.loads(payload)
        table[run.ENUM_KEY] = {
            "status": run.EXIT_STATUS[code],
            "sha256": check.digest(payload),
            "states": doc["states"], "visits": doc["visits"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(check.TABLE_PATH, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(table)} answers to {check.TABLE_PATH}")


if __name__ == "__main__":
    main()
