#!/usr/bin/env python3
"""Validates a --metrics-out JSON snapshot (tools/ci.sh `metrics` job).

Checks the structural schema every consumer of the observability layer
relies on, plus the protocol accounting the paper's Fig 7 flow must never
silently drop: nonzero selection cost and — when the run exercised the
replay ledger — nonzero replay rejections.

With --expect-net the snapshot must additionally carry the service-layer
net.* counters (tools/ci.sh `service` job, fed by bench_service_load) and
they must satisfy the frame-conservation and session-partition relations
the ServiceEngine reconciles.

With --expect-auth (tools/ci.sh `auth` job, fed by bench_auth_throughput)
the snapshot must carry the issuance-pool and zero-copy-serving counters
and they must satisfy the pool ledger relations: every issue() is exactly
one pool hit or one pool miss, refills actually ran and their screening
cost is visible in the selection.candidates_tried ledger, at most 1e-3 of
those candidates took the screener's exact path (selection.exact_fallbacks),
and mmap bytes flow only when mmap hits occur.

With --expect-net-socket (tools/ci.sh `service-socket` job, fed by
bench_service_load --transport socket) the net.* relations above must hold
AND the event-loop layer must show its work: the net.async.* counters
(read_calls among them) present, nonzero accepted connections, byte
conservation
(bytes_read == bytes_written at quiescence), overload evidence
(request_overflow > 0 — the CI bench always runs its starved-queue phase),
and a session latency histogram accounting for every opened session.

Usage: check_metrics_schema.py <snapshot.json>
       [--allow-zero-replay] [--expect-net] [--expect-net-socket]
"""
import json
import sys


def fail(msg: str) -> None:
    print(f"metrics schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_net_counters(counters: dict) -> str:
    """Validates the service-layer counters; returns a one-line summary."""
    required = [
        "net.frames_sent", "net.frames_delivered", "net.frames_corrupt",
        "net.frames_dropped", "net.frames_duplicated", "net.frames_truncated",
        "net.frames_bitflipped", "net.sessions_opened", "net.session_approved",
        "net.session_denied", "net.session_rejected", "net.session_failed",
        "net.retries",
    ]
    for name in required:
        if name not in counters:
            fail(f"--expect-net: counter '{name}' absent")
    c = counters
    if c["net.frames_sent"] <= 0:
        fail("--expect-net: 'net.frames_sent' is zero — no traffic recorded")
    # Endpoint counts can only lose frames to the wire, never invent them
    # (corrupt frames are a subset of delivered: they arrive, then fail to
    # decode).
    if c["net.frames_delivered"] > c["net.frames_sent"] + c["net.frames_duplicated"]:
        fail("--expect-net: more frames arrived than were sent (+duplicated)")
    if c["net.frames_corrupt"] > c["net.frames_delivered"]:
        fail("--expect-net: frames_corrupt exceeds frames_delivered")
    # Corruption has exactly two injection sources.
    if c["net.frames_corrupt"] != c["net.frames_truncated"] + c["net.frames_bitflipped"]:
        fail("--expect-net: frames_corrupt != frames_truncated + frames_bitflipped")
    # Terminal states partition the opened sessions.
    terminals = (c["net.session_approved"] + c["net.session_denied"] +
                 c["net.session_rejected"] + c["net.session_failed"])
    if terminals != c["net.sessions_opened"]:
        fail(f"--expect-net: {terminals} terminal sessions but "
             f"{c['net.sessions_opened']} opened — not a partition")
    return (f"net: frames_sent={c['net.frames_sent']} "
            f"corrupt={c['net.frames_corrupt']} retries={c['net.retries']} "
            f"sessions={c['net.sessions_opened']}")


def check_socket_counters(counters: dict, histograms: dict) -> str:
    """Validates the event-loop net.async.* layer; returns a summary."""
    required = [
        "net.async.bytes_read", "net.async.bytes_written",
        "net.async.connections_accepted", "net.async.connections_closed",
        "net.async.accept_overflow", "net.async.request_overflow",
        "net.async.timers_fired", "net.async.resync_bytes",
        "net.async.write_overflow", "net.async.read_calls",
    ]
    for name in required:
        if name not in counters:
            fail(f"--expect-net-socket: counter '{name}' absent")
    c = counters
    if c["net.async.connections_accepted"] <= 0:
        fail("--expect-net-socket: no connections accepted — the event loop "
             "never served a socket")
    if c["net.async.bytes_read"] <= 0:
        fail("--expect-net-socket: 'net.async.bytes_read' is zero")
    # Loopback quiescence: every written byte was read back before teardown.
    if c["net.async.bytes_read"] != c["net.async.bytes_written"]:
        fail(f"--expect-net-socket: byte conservation broken — read "
             f"{c['net.async.bytes_read']} != written "
             f"{c['net.async.bytes_written']}")
    # Every accepted connection (and every client socket) is eventually
    # closed and counted; a gap means a descriptor left the loop untracked.
    if c["net.async.connections_closed"] < c["net.async.connections_accepted"]:
        fail("--expect-net-socket: fewer connections closed than accepted")
    # The CI bench always runs its starved-queue overload phase, so a
    # snapshot without request-queue overflow means the typed-backpressure
    # path went unexercised.
    if c["net.async.request_overflow"] <= 0:
        fail("--expect-net-socket: 'net.async.request_overflow' is zero — "
             "the overload/busy-NACK path went unexercised")
    if c["net.async.timers_fired"] <= 0:
        fail("--expect-net-socket: no timers fired — retry/TTL deadlines "
             "cannot have been armed")
    lat = histograms.get("net.async.session_latency_ms")
    if lat is None:
        fail("--expect-net-socket: histogram 'net.async.session_latency_ms' absent")
    if lat["total"] != c.get("net.sessions_opened", -1):
        fail(f"--expect-net-socket: latency histogram holds {lat['total']} "
             f"sessions but {c.get('net.sessions_opened')} were opened")
    return (f"socket: connections={c['net.async.connections_accepted']} "
            f"bytes={c['net.async.bytes_read']} "
            f"request_overflow={c['net.async.request_overflow']} "
            f"latency_sessions={lat['total']}")


def check_auth_counters(counters: dict, gauges: dict, histograms: dict) -> str:
    """Validates the issuance-pool / zero-copy-serving ledger; returns a summary."""
    required = [
        "db.issue_requests", "auth.pool_hits", "auth.pool_misses",
        "auth.pool_refills", "db.mmap_hits", "db.mmap_bytes",
    ]
    for name in required:
        if name not in counters:
            fail(f"--expect-auth: counter '{name}' absent")
    c = counters
    if c["db.issue_requests"] <= 0:
        fail("--expect-auth: 'db.issue_requests' is zero — no issuance recorded")
    # Every issue() resolves to exactly one of the two pool verdicts.
    if c["auth.pool_hits"] + c["auth.pool_misses"] != c["db.issue_requests"]:
        fail(f"--expect-auth: pool_hits ({c['auth.pool_hits']}) + pool_misses "
             f"({c['auth.pool_misses']}) != issue_requests ({c['db.issue_requests']})")
    if c["auth.pool_hits"] <= 0:
        fail("--expect-auth: 'auth.pool_hits' is zero — the pooled fast path "
             "went unexercised")
    if c["auth.pool_refills"] <= 0:
        fail("--expect-auth: 'auth.pool_refills' is zero — pools were never "
             "screened/topped up")
    # Refill screening must show its work in the selection cost ledger: each
    # screen() batch lands one observation in selection.batch_candidates, and
    # accepted challenges are a subset of tried candidates.
    tried = c.get("selection.candidates_tried", 0)
    accepted = c.get("selection.accepted", 0)
    if accepted <= 0 or accepted > tried:
        fail(f"--expect-auth: selection.accepted ({accepted}) must be positive "
             f"and <= selection.candidates_tried ({tried})")
    # The byte-table screener settles a row on its exact dot only inside the
    # certified margin, which a calibrated fleet essentially never meets. A
    # mis-sized margin that sends rows down the exact path stays correct,
    # so only this ratio can show it.
    if "selection.exact_fallbacks" not in c:
        fail("--expect-auth: counter 'selection.exact_fallbacks' absent")
    fallbacks = c["selection.exact_fallbacks"]
    if fallbacks > 1e-3 * tried:
        fail(f"--expect-auth: selection.exact_fallbacks ({fallbacks}) exceeds "
             f"1e-3 x selection.candidates_tried ({tried})")
    batches = histograms.get("selection.batch_candidates")
    if batches is None or batches["total"] < c["auth.pool_refills"]:
        fail("--expect-auth: 'selection.batch_candidates' must record at least "
             "one screening batch per pool refill")
    # Zero-copy serving: bytes flow iff mapped hits occurred.
    if (c["db.mmap_hits"] > 0) != (c["db.mmap_bytes"] > 0):
        fail(f"--expect-auth: mmap_hits ({c['db.mmap_hits']}) and mmap_bytes "
             f"({c['db.mmap_bytes']}) must be zero or nonzero together")
    if "auth.pool_size" not in gauges:
        fail("--expect-auth: gauge 'auth.pool_size' absent")
    return (f"auth: issues={c['db.issue_requests']} hits={c['auth.pool_hits']} "
            f"refills={c['auth.pool_refills']} mmap_hits={c['db.mmap_hits']} "
            f"exact_fallbacks={fallbacks}")


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: check_metrics_schema.py <snapshot.json>"
             " [--allow-zero-replay] [--expect-net] [--expect-auth]")
    path = sys.argv[1]
    allow_zero_replay = "--allow-zero-replay" in sys.argv[2:]
    expect_auth = "--expect-auth" in sys.argv[2:]
    expect_net_socket = "--expect-net-socket" in sys.argv[2:]
    # The socket job checks every lockstep net.* relation first, then the
    # event-loop layer on top.
    expect_net = "--expect-net" in sys.argv[2:] or expect_net_socket
    # The service bench replies to retransmitted submits from its result
    # cache, so a clean service snapshot legitimately has zero replays; the
    # auth bench issues disjoint challenge batches, so the same applies.
    allow_zero_replay = allow_zero_replay or expect_net or expect_auth
    try:
        with open(path, encoding="utf-8") as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    for key, kind in [("name", str), ("threads", int), ("counters", dict),
                      ("gauges", dict), ("histograms", dict), ("spans", dict)]:
        if key not in snap:
            fail(f"missing top-level key '{key}'")
        if not isinstance(snap[key], kind):
            fail(f"'{key}' must be {kind.__name__}, got {type(snap[key]).__name__}")

    for name, value in snap["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"counter '{name}' must be a non-negative integer, got {value!r}")
    for name, value in snap["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(f"gauge '{name}' must be numeric, got {value!r}")
    for name, h in snap["histograms"].items():
        if sorted(h) != ["bounds", "counts", "total"]:
            fail(f"histogram '{name}' must have exactly bounds/counts/total")
        if len(h["counts"]) != len(h["bounds"]) + 1:
            fail(f"histogram '{name}': counts must have bounds+1 entries")
        if h["bounds"] != sorted(h["bounds"]):
            fail(f"histogram '{name}': bounds must be ascending")
        if sum(h["counts"]) != h["total"]:
            fail(f"histogram '{name}': counts sum to {sum(h['counts'])}, total says {h['total']}")
    live_spans = 0
    for name, s in snap["spans"].items():
        # A span registered before a mid-run MetricsRegistry::reset() (the
        # socket bench resets between its oracle and event-loop phases)
        # legitimately reports zero calls — but then it must also report
        # zero time, and at least one span in the snapshot must be live.
        if "calls" not in s or not isinstance(s["calls"], int) or s["calls"] < 0:
            fail(f"span '{name}' must report a non-negative integer call count")
        if "seconds" in s and (not isinstance(s["seconds"], (int, float)) or s["seconds"] < 0):
            fail(f"span '{name}' seconds must be non-negative")
        if s["calls"] > 0:
            live_spans += 1
        elif s.get("seconds", 0) != 0:
            fail(f"span '{name}' reports zero calls but nonzero seconds")
    if snap["spans"] and live_spans == 0:
        fail("every span reports zero calls — instrumentation never ran")

    # Protocol accounting the bugfixes restored (ISSUE 3): selection cost and
    # replay rejections must be visible, not silently zero.
    tried = snap["counters"].get("selection.candidates_tried", 0)
    if tried <= 0:
        fail("counter 'selection.candidates_tried' absent or zero — selection cost lost")
    replay = snap["counters"].get("auth.replay_rejected")
    if replay is None:
        fail("counter 'auth.replay_rejected' absent — replay accounting lost")
    if replay <= 0 and not allow_zero_replay:
        fail("counter 'auth.replay_rejected' is zero but the run replays a session")
    if not snap["spans"]:
        fail("no spans recorded — TraceSpan instrumentation missing")

    net_summary = ""
    if expect_auth:
        net_summary += "; " + check_auth_counters(snap["counters"], snap["gauges"],
                                                  snap["histograms"])
    if expect_net:
        net_summary += "; " + check_net_counters(snap["counters"])
    if expect_net_socket:
        net_summary += "; " + check_socket_counters(snap["counters"],
                                                   snap["histograms"])

    print(f"metrics schema: OK ({path}: {len(snap['counters'])} counters, "
          f"{len(snap['spans'])} spans, selection.candidates_tried={tried}, "
          f"auth.replay_rejected={replay}{net_summary})")


if __name__ == "__main__":
    main()
