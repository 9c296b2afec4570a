#!/usr/bin/env python3
"""Validates a bench timing artifact (bench_out/<name>_timing.json).

Every BenchTimer writes the same flat record: name/seconds/threads/items
plus any bench-specific numeric fields attached via set_field. This gate
checks that structural schema, and — when the record carries an A/B pair
(scalar_seconds / batched_seconds from bench_scan_throughput --mode both,
or materialized_seconds / streaming_seconds from bench_enroll_throughput)
— that the optimized side has not regressed behind its reference path.

The default A/B tolerance is parity with 15% slack, not the much larger
speedup the batched core actually delivers: CI shares one noisy core, and
a throughput gate that flakes gets deleted. Tighten with --min-speedup
(e.g. --min-speedup 2.0) on quiet hardware.

Usage: check_bench_regression.py <timing.json> [--min-speedup X]
"""
import json
import sys


def fail(msg: str) -> None:
    print(f"bench timing: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = [a for a in sys.argv[1:]]
    min_speedup = None
    if "--min-speedup" in args:
        i = args.index("--min-speedup")
        try:
            min_speedup = float(args[i + 1])
        except (IndexError, ValueError):
            fail("--min-speedup needs a numeric argument")
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    try:
        with open(args[0], "r", encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args[0]}: {e}")

    if not isinstance(record, dict):
        fail("timing record is not a JSON object")
    if not isinstance(record.get("name"), str) or not record["name"]:
        fail("'name' absent or not a nonempty string")
    for key in ("seconds", "threads", "items"):
        if not isinstance(record.get(key), (int, float)) or isinstance(record.get(key), bool):
            fail(f"'{key}' absent or not numeric")
    if record["seconds"] < 0:
        fail("'seconds' is negative")
    if record["threads"] < 1:
        fail("'threads' is below one")
    for key, value in record.items():
        if key == "name":
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"extra field '{key}' is not numeric")

    summary = f"{record['name']}: {record['seconds']:.3f}s, {record['threads']} threads"
    # (reference field, optimized field, label) — each bench writes one pair.
    ab_pairs = [
        ("scalar_seconds", "batched_seconds", "batched"),
        ("materialized_seconds", "streaming_seconds", "streaming"),
        ("uncached_seconds", "cached_seconds", "lru-cached"),
        # bench_service_load --transport socket: the in-process lockstep
        # oracle (opt) replays the socket run's workload (ref); parity-with-
        # slack keeps the oracle from quietly regressing to the point where
        # reconciliation dominates the socket job.
        ("socket_seconds", "lockstep_seconds", "lockstep-oracle"),
        # bench_auth_throughput: the serial per-candidate screening oracle
        # (tests/oracle/) (ref) vs the production survivor-cascade screener,
        # asserted bit-identical in-run before timing.
        ("screen_serial_seconds", "screen_batched_seconds", "batched-screening"),
        # bench_auth_throughput: request-time live screening (ref) vs
        # pre-screened pool drains; the acceptance-scale floor (>= 3x on the
        # million-device fleet) lives in the bench's own --require-speedup.
        ("issue_live_seconds", "issue_pooled_seconds", "pooled-issue"),
    ]
    found_pair = False
    for ref_key, opt_key, label in ab_pairs:
        ref = record.get(ref_key)
        opt = record.get(opt_key)
        if ref is None or opt is None:
            continue
        found_pair = True
        if opt <= 0 or ref <= 0:
            fail(f"A/B pair {ref_key}/{opt_key} present but a side is non-positive")
        speedup = ref / opt
        floor = min_speedup if min_speedup is not None else 1.0 / 1.15
        if speedup < floor:
            fail(f"{label} speedup {speedup:.2f} below floor {floor:.2f} "
             f"({ref_key} {ref:.4f}s, {opt_key} {opt:.4f}s)")
        summary += f", {label} speedup {speedup:.2f} (floor {floor:.2f})"
    if min_speedup is not None and not found_pair:
        fail("--min-speedup given but record has no A/B pair")

    print(f"bench timing: OK: {summary}")


if __name__ == "__main__":
    main()
