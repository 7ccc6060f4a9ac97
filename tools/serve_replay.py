#!/usr/bin/env python3
"""Replay a multi-tenant request mix against a running rfn_serve.

The CI serve job's client: connects to an rfn_serve instance (Unix socket
or loopback TCP), replays a three-tenant request mix over the builtin
designs — with repeats, so the warm-state cache must show hits — and
captures every received line (streamed rfn-trace-v2 records and the
rfn-resp-v1 responses) into a session log that trace_report.py --serve
validates afterwards:

    build/tools/rfn_serve --socket /tmp/rfn.sock --admit-mem-mb 512 &
    tools/serve_replay.py --socket /tmp/rfn.sock --log serve.jsonl
    tools/trace_report.py --serve serve.jsonl

Exits nonzero when any request that must succeed fails, when the expected
admission rejection does not happen, or when the repeat requests finish
with zero warm-cache hits (the whole point of a resident server).

The mix (one connection; requests are served in order):
  * ping — readiness;
  * tenant alpha: builtin:fifo x3 properties, twice (cold miss, warm hit);
  * tenant beta: builtin:processor bad_mutex, twice;
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

    def transact(self, req):
        """Sends one request line; returns the response, logging every
        received line on the way."""
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

    warm_hits = 0
    for rid, tenant, path, signals in MIX:
        resp = conn.transact(request(rid, tenant, path, signals))
        if not resp.get("ok"):
            failures.append(f"{rid} ({tenant}, {path}) failed: "
                            f"{resp.get('error')}")
            continue
        warm = resp.get("warm_cache", {})
        warm_hits = max(warm_hits, warm.get("hits", 0))
        verdicts = resp.get("verdicts", {})
        print(f"serve_replay: {rid} ({tenant}, {path}) ok "
              f"verdicts={verdicts} warm_hit={warm.get('hit')} "
              f"seconds={resp.get('seconds', 0.0):.3f}")

    # Repeats of fifo (a2) and processor (b2) must have found their design's
    # entry resident: a server that reloads cold every time is just a slow
    # CLI.
    if warm_hits < 2:
        failures.append(f"expected >= 2 warm-cache hits from the repeat "
                        f"requests, saw {warm_hits}")

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
              f"warm_hits={warm_hits})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
