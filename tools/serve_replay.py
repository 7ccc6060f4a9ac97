#!/usr/bin/env python3
"""Replay a multi-tenant request mix against a running rfn_serve.

The CI serve job's client: connects to an rfn_serve instance (Unix socket
or loopback TCP), replays a three-tenant request mix over the builtin
designs — with repeats, which must walk their first request's
trajectory — and captures every received line (streamed rfn-trace-v2 records and the
rfn-resp-v1 responses) into a session log that trace_report.py --serve
validates afterwards:

    build/tools/rfn_serve --socket /tmp/rfn.sock --admit-mem-mb 512 &
    tools/serve_replay.py --socket /tmp/rfn.sock --log serve.jsonl
    tools/trace_report.py --serve serve.jsonl

Exits nonzero when any request that must succeed fails, when the expected
admission rejection does not happen, or when a repeat request reports
other verdicts, iteration counts or final abstraction sizes than its first
request: the server keeps no per-design state, so every request runs cold.

The mix (one connection; requests are served in order):
  * ping — readiness;
  * tenant alpha: builtin:fifo x3 properties, twice (a1, a2);
  * tenant beta: builtin:processor bad_mutex, twice (b1, b2);
  * tenant gamma: builtin:iu anchor, then builtin:usb crc_err;
  * tenant alpha: a request whose declared budget-mem-mb oversubscribes
    any admission window below 100000 MB — expected reject when the server
    runs with --admit-mem-mb (skipped check otherwise, since an unlimited
    server admits it);
  * optional --shutdown: asks the server to exit when the replay is done.
"""

import argparse
import json
import socket
import sys

TIME_LIMIT_S = 30.0


def request(rid, tenant, path, signals, mem_mb=None):
    req = {
        "type": "verify",
        "version": "rfn-req-v1",
        "id": rid,
        "tenant": tenant,
        "design": {"path": path},
        "props": [{"signal": s} for s in signals],
        "options": {"time-limit": TIME_LIMIT_S},
    }
    if mem_mb is not None:
        req["options"]["budget-mem-mb"] = mem_mb
    return req


# Each repeat request and the first request it must match.
REPEATS = {"a2": "a1", "b2": "b1"}

MIX = [
    ("a1", "alpha", "builtin:fifo", ["bad_full_q", "bad_af_q", "bad_hf_q"]),
    ("b1", "beta", "builtin:processor", ["bad_mutex"]),
    ("a2", "alpha", "builtin:fifo", ["bad_full_q", "bad_af_q", "bad_hf_q"]),
    ("g1", "gamma", "builtin:iu", ["anchor"]),
    ("b2", "beta", "builtin:processor", ["bad_mutex"]),
    ("g2", "gamma", "builtin:usb", ["crc_err"]),
]


class Connection:
    def __init__(self, sock, log):
        self.file = sock.makefile("rw")
        self.log = log

    def transact(self, req, records=None):
        """Sends one request line; returns the response, logging every
        received line on the way and appending the streamed records to
        `records`."""
        self.file.write(json.dumps(req) + "\n")
        self.file.flush()
        while True:
            line = self.file.readline()
            if not line:
                print("serve_replay: connection closed before a response",
                      file=sys.stderr)
                sys.exit(1)
            if self.log:
                self.log.write(line)
            doc = json.loads(line)
            if doc.get("type") == "response":
                return doc
            if records is not None:
                records.append(doc)


def outcomes(records):
    """(name, verdict, iterations, final_abstract_regs) of each streamed
    property record, sorted by name."""
    return sorted((r.get("name"), r.get("verdict"), r.get("iterations"),
                   r.get("final_abstract_regs"))
                  for r in records if r.get("type") == "property")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--socket", help="Unix socket path of rfn_serve")
    group.add_argument("--port", type=int, help="loopback TCP port")
    ap.add_argument("--log", help="write the received session log here")
    ap.add_argument("--shutdown", action="store_true",
                    help="send a shutdown request after the replay")
    args = ap.parse_args()

    if args.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(args.socket)
    else:
        sock = socket.create_connection(("127.0.0.1", args.port))

    log = open(args.log, "w") if args.log else None
    conn = Connection(sock, log)
    failures = []

    pong = conn.transact({"type": "ping", "id": "p"})
    if not pong.get("ok"):
        failures.append(f"ping failed: {pong}")

    seen = {}
    for rid, tenant, path, signals in MIX:
        records = []
        resp = conn.transact(request(rid, tenant, path, signals), records)
        if not resp.get("ok"):
            failures.append(f"{rid} ({tenant}, {path}) failed: "
                            f"{resp.get('error')}")
            continue
        seen[rid] = outcomes(records)
        verdicts = resp.get("verdicts", {})
        print(f"serve_replay: {rid} ({tenant}, {path}) ok "
              f"verdicts={verdicts} seconds={resp.get('seconds', 0.0):.3f}")

    # A repeat request walks its first request's trajectory: the same
    # design and options give the same verdicts, iterations and final
    # abstractions, whatever the server ran in between.
    for repeat, first in REPEATS.items():
        if repeat in seen and first in seen and seen[repeat] != seen[first]:
            failures.append(f"{repeat} reported {seen[repeat]}, its first "
                            f"request {first} reported {seen[first]}")

    # Admission: a demand no sane window admits. Only asserted when the
    # server actually rejected it — an unlimited server admits everything.
    resp = conn.transact(request("big", "alpha", "builtin:fifo",
                                 ["bad_full_q"], mem_mb=100000))
    if resp.get("ok"):
        print("serve_replay: oversized request admitted "
              "(no admission window configured)")
    elif resp.get("reject_reason") != "mem-oversubscribed":
        failures.append(f"oversized request rejected with "
                        f"{resp.get('reject_reason')!r}, expected "
                        f"'mem-oversubscribed'")
    else:
        print("serve_replay: oversized request rejected: "
              f"{resp.get('error')}")

    if args.shutdown:
        conn.transact({"type": "shutdown", "id": "q"})

    if log:
        log.close()
    for f in failures:
        print(f"serve_replay: FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"serve_replay: ok ({len(MIX)} verify requests, "
              f"{len(REPEATS)} repeats matched)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
