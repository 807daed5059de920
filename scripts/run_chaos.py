#!/usr/bin/env python3
"""Chaos smoke sweep: every committed fault plan x every fault-capable
backend x every overload policy, through `eventnetc run --json`, each
report validated by scripts/check_report.py.

    run_chaos.py [--bin-dir build] [--seeds 7,23] [--shards 3]

Beyond per-run validation the sweep checks the harness's two core
promises end to end:

  * determinism — re-running a (plan, backend, policy) cell with the
    same seed must reproduce a byte-identical fault ledger, observed
    here through the report's ledger_sha digest;
  * cross-substrate agreement — for plans whose faults are all
    content-addressed link faults (no controller storms, which only
    the engine ledgers), the engine and sim runs of the same plan must
    agree on the ledger digest;
  * one verification path — engine cells run the streaming checker in
    differential mode (the batch trace is built from the very stream
    the streaming checker read), and check_report.py fails any cell
    whose streaming and batch verdicts disagree.

Exits non-zero on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys

BACKENDS = ["engine", "sim"]
POLICIES = ["block", "shed-oldest", "shed-newest"]


def fail(msg: str) -> None:
    print(f"run_chaos: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd):
    try:
        return subprocess.run(cmd, check=True, capture_output=True,
                              text=True)
    except FileNotFoundError:
        fail(f"binary not found: {cmd[0]} (build it first?)")
    except subprocess.CalledProcessError as e:
        fail(f"{' '.join(cmd)} exited {e.returncode}:\n{e.stderr[-2000:]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin-dir", default="build")
    ap.add_argument("--seeds", default="7,23",
                    help="comma-separated workload seeds (each seed "
                         "changes the packet population the plan's "
                         "content-addressed verdicts apply to)")
    ap.add_argument("--shards", default="3")
    ap.add_argument("--plans-dir", default=os.path.join("examples", "faults"))
    args = ap.parse_args()

    eventnetc = os.path.join(args.bin_dir, "eventnetc")
    checker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_report.py")
    prog = os.path.join("examples", "programs", "firewall.snk")
    topo = os.path.join("examples", "programs", "firewall.topo")

    plans = sorted(
        os.path.join(args.plans_dir, f)
        for f in os.listdir(args.plans_dir) if f.endswith(".json"))
    if not plans:
        fail(f"no fault plans found in {args.plans_dir}")

    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    cells = 0
    for plan_path in plans:
        plan = json.load(open(plan_path))
        # Controller storms are engine-only ledger records, so only
        # storm-free plans can promise engine == sim digests.
        cross_substrate = not plan.get("ctrl_storm_repeat", 0)
        # A queue clamp lets shed policies discard packets before they
        # reach an egress fault site, so only clamp-free plans promise a
        # policy-independent ledger.
        policy_invariant = not plan.get("queue_capacity_clamp", 0)
        for seed in seeds:
            shas = {}  # backend -> ledger_sha of the first policy's run
            for backend in BACKENDS:
                for policy in POLICIES:
                    cmd = [eventnetc, "run", prog, "--topo", topo,
                           "--backend", backend, "--seed", seed,
                           "--shards", args.shards, "--faults", plan_path,
                           "--overload", policy, "--fail-on-drop", "--json"]
                    if backend == "engine":
                        cmd += ["--stream-check", "--check-differential"]
                    report = run(cmd).stdout
                    check = subprocess.run(
                        [sys.executable, checker, "--backend", backend,
                         "--faults"],
                        input=report, capture_output=True, text=True)
                    if check.returncode != 0:
                        fail(f"check_report rejected {plan_path} x {backend}"
                             f" x {policy} seed {seed}:\n{check.stderr}")
                    parsed = json.loads(report)
                    sha = parsed["faults"]["ledger_sha"]
                    cell = (f"{os.path.basename(plan_path)} x {backend} "
                            f"x {policy} x seed {seed}")
                    if backend == "engine" and \
                            not parsed["streaming_check"]["differential_ran"]:
                        fail(f"{cell}: the differential check did not run")

                    # Determinism: the same cell re-run must reproduce the
                    # ledger byte for byte.
                    again = json.loads(run(cmd).stdout)
                    if again["faults"]["ledger_sha"] != sha:
                        fail(f"{cell}: ledger digest changed across "
                             f"identical runs ({sha} vs "
                             f"{again['faults']['ledger_sha']})")

                    # Link-fault verdicts are content-addressed, so the
                    # ledger must not depend on the overload policy either.
                    if policy_invariant and backend in shas \
                            and shas[backend] != sha:
                        fail(f"{cell}: ledger digest {sha} differs from "
                             f"{shas[backend]} under another overload "
                             "policy")
                    shas[backend] = sha
                    cells += 1
                    print(f"run_chaos: ok: {cell} "
                          f"ledger_sha={sha or '(empty)'}")

            if cross_substrate and shas.get("engine") != shas.get("sim"):
                fail(f"{plan_path} seed {seed}: engine ledger "
                     f"{shas.get('engine')} != sim ledger "
                     f"{shas.get('sim')} for a storm-free plan")

    print(f"run_chaos: all {cells} cells passed "
          f"({len(plans)} plans x {len(seeds)} seeds x {len(BACKENDS)} "
          f"backends x {len(POLICIES)} policies)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
