#!/usr/bin/env python3
"""Validates an `eventnetc run --json` report (the CI smoke check).

Reads the JSON report from stdin (or a file argument), checks the shape
the façade promises, and requires the run to have actually moved packets
and passed the Definition 6 consistency check. Exits non-zero with a
message on the first violation.

Usage:  eventnetc run prog.snk --topo net.topo --json | check_report.py
        check_report.py report.json [--backend engine] [--faults]
        check_report.py report.json --streaming

--faults additionally requires the report's fault block to be enabled
(the chaos sweep passes it so a typo'd --faults flag can't silently
validate a fault-free run).

--streaming requires the streaming Definition 6 checker to have run
(the CI soak passes it after `eventnetc serve --duration ...
--stream-check`): the streaming_check block must be enabled, must have
ingested entries, must attest bounded state (peak_window <= window,
peak_resident_bytes recorded), and its verdict must be "ok" or an
inconclusive that names its cause — never "violated", never an
unexplained inconclusive. A streaming-only run retains no batch trace
and skips the batch oracle, so --streaming relaxes the trace_entries /
consistency.checked requirements that batch reports must meet.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"check_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = sys.argv[1:]
    expect_backend = None
    if "--backend" in args:
        i = args.index("--backend")
        if i + 1 >= len(args):
            fail("--backend needs a value")
        expect_backend = args[i + 1]
        del args[i : i + 2]
    expect_faults = "--faults" in args
    if expect_faults:
        args.remove("--faults")
    expect_streaming = "--streaming" in args
    if expect_streaming:
        args.remove("--streaming")

    text = open(args[0]).read() if args else sys.stdin.read()
    try:
        r = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"not valid JSON: {e}")

    required = [
        "backend", "seed", "shards", "classifier", "batch", "partition",
        "edge_cut", "edge_total", "injected", "delivered", "dropped",
        "switch_hops", "events_detected", "config_transitions",
        "elapsed_sec", "trace_entries", "shard_detail", "consistency",
        "update_lat_samples", "update_lat_p50", "update_lat_p90",
        "update_lat_p99", "update_lat_max", "queue_dwell",
        "batch_occupancy", "drop_audit", "obs_trace_recorded",
        "obs_trace_dropped", "overload", "faults", "net",
        "streaming_check",
    ]
    for key in required:
        if key not in r:
            fail(f"missing key '{key}'")

    audit = r["drop_audit"]
    for key in ("injected", "delivered", "dropped", "silent_loss", "ok"):
        if key not in audit:
            fail(f"drop_audit missing '{key}'")
    if audit["silent_loss"] > 0 or not audit["ok"]:
        fail(
            f"drop audit: {audit['silent_loss']} packet(s) silently lost "
            f"(injected={audit['injected']} delivered={audit['delivered']} "
            f"dropped={audit['dropped']})"
        )

    if r["overload"] not in ("block", "shed-oldest", "shed-newest", ""):
        fail(f"unknown overload policy {r['overload']!r}")

    faults = r["faults"]
    fault_keys = ("enabled", "drops", "dups", "delays", "shed", "stalls",
                  "storms", "dup_delivered", "dup_dropped", "ledger_entries",
                  "ledger_sha")
    for key in fault_keys:
        if key not in faults:
            fail(f"faults block missing '{key}'")
    if expect_faults and not faults["enabled"]:
        fail("expected a fault-injected run but faults.enabled is false")
    if not faults["enabled"]:
        for key in fault_keys[1:-1]:
            if faults[key] != 0:
                fail(f"faults disabled but faults.{key} = {faults[key]}")
    else:
        # Every ledgered link fault is one record; the engine additionally
        # ledgers controller storm events, so >= rather than ==.
        floor = faults["drops"] + faults["dups"] + faults["delays"]
        if faults["ledger_entries"] < floor:
            fail(
                f"ledger has {faults['ledger_entries']} entries but "
                f"{floor} ledgered faults were injected"
            )
        if faults["ledger_entries"] > 0 and not faults["ledger_sha"]:
            fail("non-empty fault ledger but empty ledger_sha")
        if faults["dup_delivered"] + faults["dup_dropped"] > faults["dups"]:
            fail(
                f"dup outcomes ({faults['dup_delivered']} delivered + "
                f"{faults['dup_dropped']} dropped) exceed injected dups "
                f"({faults['dups']})"
            )

    net = r["net"]
    net_keys = ("enabled", "poller", "udp", "port", "connections",
                "accepted", "closed", "protocol_errors", "frames_in",
                "frames_out", "bytes_in", "bytes_out", "frames_injected",
                "delivery_frames", "replies_out", "reassembly_partial",
                "backpressure_shed", "ring_shed", "delivery_unroutable",
                "non_net_deliveries", "barriers_acked", "udp_datagrams",
                "client_delivers", "client_replies", "rtt_samples")
    for key in net_keys:
        if key not in net:
            fail(f"net block missing '{key}'")
    if r["backend"] == "net" and not net["enabled"]:
        fail("net backend report has net.enabled false")
    if net["enabled"]:
        if net["frames_injected"] <= 0:
            fail("net run injected no frames through the socket path")
        # Inbound traffic can never undercount the echoes the server
        # produced from it (Hello/Barrier/Bye frames only add to it).
        if net["frames_in"] < net["replies_out"]:
            fail(
                f"net frames_in ({net['frames_in']}) below replies_out "
                f"({net['replies_out']}) — the server echoed more than "
                "it ever received"
            )
        if net["port"] <= 0 or not net["poller"]:
            fail("net block missing bound port / poller name")
        # Delivery conservation: every engine delivery is routed to a
        # session, shed at the ring, unroutable, or non-net — on every
        # overload policy (sheds are counted, not silent).
        routed = (net["delivery_frames"] + net["ring_shed"]
                  + net["delivery_unroutable"] + net["non_net_deliveries"])
        if routed != r["delivered"]:
            fail(
                f"net delivery conservation broken: {routed} accounted "
                f"(routed+shed+unroutable+non_net) vs {r['delivered']} "
                "delivered by the engine"
            )
    else:
        for key in ("frames_in", "frames_out", "frames_injected",
                    "delivery_frames", "accepted"):
            if net[key] != 0:
                fail(f"net disabled but net.{key} = {net[key]}")

    for block in ("queue_dwell", "batch_occupancy"):
        b = r[block]
        for key in ("samples", "mean", "p50", "p90", "p99", "max"):
            if key not in b:
                fail(f"{block} missing '{key}'")
        if b["samples"] > 0 and b["max"] + 1e-12 < b["p99"]:
            fail(f"{block}: max ({b['max']}) below p99 ({b['p99']})")
    if r["update_lat_samples"] > 0 and (
        r["update_lat_max"] + 1e-12 < r["update_lat_p99"]
        or r["update_lat_p99"] + 1e-12 < r["update_lat_p50"]
    ):
        fail("update latency percentiles are not monotone")

    if expect_backend is not None and r["backend"] != expect_backend:
        fail(f"backend is '{r['backend']}', expected '{expect_backend}'")

    if not isinstance(r["shard_detail"], list):
        fail("'shard_detail' should be a list")
    if r["backend"] == "engine" and len(r["shard_detail"]) != r["shards"]:
        fail(
            f"engine report has {len(r['shard_detail'])} shard_detail "
            f"entries for {r['shards']} shards"
        )
    for d in r["shard_detail"]:
        for key in ("shard", "switches", "processed", "queue_high_water",
                    "dropped", "transitions", "shed"):
            if key not in d:
                fail(f"shard_detail entry missing '{key}': {d}")
    if r["backend"] == "engine":
        if r["partition"] not in ("modulo", "contiguous", "refined"):
            fail(f"engine report has unknown partition {r['partition']!r}")
        placed = sum(d["switches"] for d in r["shard_detail"])
        if placed <= 0:
            fail("engine shard_detail places no switches on any shard")
        if r["edge_cut"] > r["edge_total"]:
            fail(
                f"edge_cut ({r['edge_cut']}) exceeds edge_total "
                f"({r['edge_total']})"
            )
    # A streaming-only run deliberately retains no batch trace (that is
    # the point: O(window) memory over an unbounded horizon), so
    # trace_entries may legitimately be 0 under --streaming.
    positive = ["injected", "delivered", "switch_hops"]
    if not expect_streaming:
        positive.append("trace_entries")
    for key in positive:
        if not isinstance(r[key], int) or r[key] <= 0:
            fail(f"'{key}' should be a positive integer, got {r[key]!r}")
    if r["delivered"] + r["dropped"] < r["injected"]:
        fail(
            f"delivered ({r['delivered']}) + dropped ({r['dropped']}) "
            f"< injected ({r['injected']})"
        )

    sc = r["streaming_check"]
    if not isinstance(sc, dict) or "enabled" not in sc:
        fail("streaming_check block is malformed")
    if expect_streaming and not sc["enabled"]:
        fail("expected a streaming-checked run but streaming_check.enabled "
             "is false")
    if sc["enabled"]:
        sc_keys = ("verdict", "reason", "window", "entries_ingested",
                   "entries_checked", "trees_retired",
                   "chains_retired", "events_observed", "peak_window",
                   "peak_resident_bytes", "stream_shed",
                   "differential_ran", "differential_matched")
        for key in sc_keys:
            if key not in sc:
                fail(f"streaming_check missing '{key}'")
        verdict = sc["verdict"]
        if verdict == "violated":
            fail(f"streaming Definition 6 VIOLATED: "
                 f"{sc.get('reason') or '(no reason)'}")
        if verdict == "inconclusive" and not sc["reason"]:
            fail("streaming verdict is inconclusive without a cause — an "
                 "unexplained non-answer must never pass CI")
        if verdict not in ("ok", "inconclusive"):
            fail(f"unknown streaming verdict {verdict!r}")
        # The boundedness attestation: the live window respected its cap
        # and the checker measured its own footprint.
        if sc["window"] <= 0 or sc["peak_window"] > sc["window"]:
            fail(f"streaming live window {sc['peak_window']} exceeds its "
                 f"cap {sc['window']}")
        if sc["entries_checked"] > sc["entries_ingested"]:
            fail("streaming checked more entries than it ingested")
        if sc["entries_checked"] > 0 and sc["peak_resident_bytes"] <= 0:
            fail("streaming checker checked entries but recorded no peak "
                 "resident bytes")
        # Shed stream items mean the checker saw a gappy trace; a clean
        # pass over a gappy trace is a contradiction.
        if sc["stream_shed"] > 0 and verdict == "ok":
            fail(f"{sc['stream_shed']} stream items were shed but the "
                 "verdict is a clean pass")
        if expect_streaming and sc["entries_checked"] <= 0:
            fail("streaming checker ingested no entries — the soak "
                 "produced no checkable traffic")
        if sc["differential_ran"] and not sc["differential_matched"]:
            fail("streaming and batch Definition 6 verdicts disagree")

    c = r["consistency"]
    if not isinstance(c, dict):
        fail("consistency block is malformed")
    if not c.get("checked"):
        # Only a streaming-checked run may skip the batch oracle.
        if not (expect_streaming and sc["enabled"]):
            fail("consistency was not checked")
    elif not c.get("correct"):
        fail(f"Definition 6 VIOLATED: {c.get('reason', '(no reason)')}")

    how = (f"streaming={sc['verdict']}" if sc.get("enabled")
           else "consistent=true")
    print(
        f"check_report: OK: {r['backend']} seed={r['seed']} "
        f"injected={r['injected']} delivered={r['delivered']} "
        f"{how}"
    )


if __name__ == "__main__":
    main()
