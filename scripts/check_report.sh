#!/usr/bin/env bash
# Shape-checks the machine-readable run reports end-to-end: runs a
# report-enabled bench with audits on, validates that every emitted
# run_report.json parses, matches the dsmcpic.run_report.v1 schema
# (config echo, virtual-time phases, step totals, audit tallies, host
# profile) and that a healthy run reports zero audit violations. Catches
# writer regressions the unit tests on JsonWriter would miss. Also
# validates a fleet results directory (DESIGN.md §2j): every per-run
# subdirectory must hold a parsing run_report.json + digest.txt, and
# fleet_summary.json must index exactly those runs.
#
#   scripts/check_report.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cmake --build "$BUILD" --target bench_fig05_imbalance bench_kernels bench_fleet -j

"$BUILD"/bench/bench_fig05_imbalance \
  --ranks 4 --steps 3 --audit warn --report "$OUT/report.json" >/dev/null

# bench_fig05 writes one report per case: report.json, report.case1.json, ...
shopt -s nullglob
REPORTS=("$OUT"/report.json "$OUT"/report.case*.json)
[ "${#REPORTS[@]}" -ge 2 ] \
  || { echo "FAIL: expected a report per case, got ${REPORTS[*]}" >&2; exit 1; }
for f in "${REPORTS[@]}"; do
  [ -f "$f" ] || { echo "FAIL: $f was not written" >&2; exit 1; }
  python3 - "$f" <<'EOF'
import json, sys
path = sys.argv[1]
r = json.load(open(path))
assert r["schema"] == "dsmcpic.run_report.v1", r["schema"]
assert r["bench"] == "bench_fig05_imbalance"
for key in ("ranks", "steps", "machine", "seed", "exec_mode",
            "exec_threads", "kernel_threads", "strategy", "balance", "audit"):
    assert key in r["config"], f"{path}: config.{key} missing"
assert r["virtual_time"]["total_seconds"] > 0
phases = {p["phase"] for p in r["virtual_time"]["phases"]}
for want in ("Inject", "DSMC_Move", "DSMC_Exchange", "Poisson_Solve"):
    assert want in phases, f"{path}: phase {want} missing from {sorted(phases)}"
assert r["steps"]["final_particles"] > 0
assert r["steps"]["injected"] > 0
audit = r["audit"]
assert audit["enabled"] is True
assert audit["checks"] > 0, "audits on but no checks ran"
assert audit["violations"] == 0, \
    f"{path}: healthy run reported violations: {audit}"
for inv in ("particle_books", "exchange_conservation", "charge_balance",
            "poisson_residual", "ownership", "mailbox_drained"):
    assert audit["by_invariant"][inv]["checks"] > 0, f"audit {inv} never ran"
prof = r["host_profile"]
assert prof["enabled"] is True and prof["sample_count"] > 0
for kernel in ("move", "deposit", "field_solve", "exchange"):
    stats = prof["kernels"][kernel]
    assert stats["count"] > 0 and stats["total_ms"] >= 0
    assert stats["min_ms"] <= stats["p50_ms"] <= stats["p95_ms"] <= stats["max_ms"]
print(f"{path}: ok ({audit['checks']} audit checks, "
      f"{prof['sample_count']} profile samples)")
EOF
done

# bench_kernels emits a report too (host-profile only).
"$BUILD"/bench/bench_kernels --particles 20000 --reps 1 \
  --out "$OUT/kernels.json" --report "$OUT/kernels_report.json" >/dev/null
python3 - "$OUT/kernels_report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "dsmcpic.run_report.v1"
assert r["bench"] == "bench_kernels"
assert r["audit"]["enabled"] is False
kernels = r["host_profile"]["kernels"]
for want in ("move/serial", "move/kt4", "collide/kt2", "deposit/sorted_kt4"):
    assert want in kernels, f"{want} missing from {sorted(kernels)}"
print(f"{sys.argv[1]}: ok ({len(kernels)} kernel lanes)")
EOF

# The fleet service streams per-run reports into a results directory:
# <dir>/<run_id>/run_report.json + digest.txt, indexed by
# <dir>/fleet_summary.json. Run a small 2-scenario fleet with lease-based
# preemption and validate the whole directory shape.
"$BUILD"/bench/bench_fleet \
  --fleet-runs 4 --fleet-slots 2 --fleet-lease 3 --steps 6 \
  --fleet-scenarios nozzle,pulsed-inlet \
  --results-dir "$OUT/fleet" >/dev/null
python3 - "$OUT/fleet" <<'EOF'
import json, os, sys
root = sys.argv[1]
summary = json.load(open(os.path.join(root, "fleet_summary.json")))
assert summary["schema"] == "dsmcpic.fleet_summary.v1", summary["schema"]
runs = summary["runs"]
assert len(runs) == 4, f"expected 4 runs, got {len(runs)}"
totals = summary["totals"]
# The summary is republished after every lease, so its shape must be valid
# both mid-flight and at the end; totals always partition the runs.
assert totals["done"] + totals["parked"] + totals["pending"] == totals["runs"]
assert totals["done"] == 4
assert totals["parked"] == 0 and totals["pending"] == 0
assert summary["slot_stats"]["runs_per_sec"] > 0
cache = summary["shared_cache"]
assert cache["geometry_hits"] + cache["geometry_misses"] > 0
subdirs = sorted(d for d in os.listdir(root)
                 if os.path.isdir(os.path.join(root, d)))
assert subdirs == sorted(r["run_id"] for r in runs), \
    f"summary runs {sorted(r['run_id'] for r in runs)} != subdirs {subdirs}"
for r in runs:
    run_dir = os.path.join(root, r["run_id"])
    assert r["state"] == "done", r
    # 6 steps in 3-step leases.
    assert r["leases"] == 2, r
    rep = json.load(open(os.path.join(run_dir, "run_report.json")))
    assert rep["schema"] == "dsmcpic.run_report.v1"
    assert rep["bench"] == "fleet"
    assert r["run_id"] in rep["case"]
    assert rep["steps"]["final_particles"] == r["final_particles"]
    assert rep["virtual_time"]["total_seconds"] > 0
    digest_line = open(os.path.join(run_dir, "digest.txt")).read().split()
    assert digest_line[0] == r["digest"], (digest_line, r["digest"])
    assert digest_line[1] == r["scenario"]
    # Completed runs must not leave resumable sidecars behind.
    for stale in ("checkpoint.bin", "lease.bin"):
        assert not os.path.exists(os.path.join(run_dir, stale)), stale
print(f"{root}: ok ({len(runs)} fleet runs, "
      f"{cache['geometry_hits']} geometry cache hits)")
EOF

# An INTERRUPTED fleet must still leave a valid summary: park one run and
# check the in-progress shape (digest only for done runs, parked runs keep
# their sidecars + postmortem). Telemetry rides along: per-run metrics and
# the fleet-level fleet_metrics.prom aggregate must pass the exposition
# lint.
"$BUILD"/bench/bench_fleet \
  --fleet-runs 3 --fleet-slots 2 --fleet-lease 3 --steps 6 --fleet-park 3 \
  --fleet-scenarios nozzle \
  --results-dir "$OUT/fleet_parked" --metrics-dir "$OUT/fleet_parked" >/dev/null
python3 - "$OUT/fleet_parked" <<'EOF'
import json, os, sys
root = sys.argv[1]
summary = json.load(open(os.path.join(root, "fleet_summary.json")))
totals = summary["totals"]
assert totals["done"] + totals["parked"] + totals["pending"] == totals["runs"]
assert totals["parked"] == 1 and totals["done"] == 2, totals
for r in summary["runs"]:
    run_dir = os.path.join(root, r["run_id"])
    if r["state"] == "done":
        assert r["digest"], r
        assert os.path.exists(os.path.join(run_dir, "run_report.json"))
    else:
        # In-progress/parked runs have no digest yet, but stay resumable.
        assert r["state"] in ("parked", "pending"), r
        assert r["digest"] == "", r
        assert os.path.exists(os.path.join(run_dir, "checkpoint.bin"))
        assert os.path.exists(os.path.join(run_dir, "lease.bin"))
    # Telemetry is on for every run in this fleet.
    assert os.path.exists(os.path.join(run_dir, "metrics.prom")), run_dir
parked = [r for r in summary["runs"] if r["state"] == "parked"]
assert len(parked) == 1 and parked[0]["steps_done"] == 3, parked
pm = json.load(open(os.path.join(root, parked[0]["run_id"],
                                 "postmortem.json")))
assert pm["schema"] == "dsmcpic.postmortem.v1", pm["schema"]
assert pm["reason"] == "park", pm["reason"]
print(f"{root}: ok (parked fleet summary valid, postmortem present)")
EOF
python3 scripts/check_metrics.py \
  "$OUT/fleet_parked/fleet_metrics.prom" \
  "$OUT"/fleet_parked/run*/metrics.prom \
  "$OUT"/fleet_parked/run*/metrics.json \
  --require dsmcpic_fleet_runs dsmcpic_fleet_runs_parked \
            dsmcpic_fleet_run_steps_done

echo "run report check clean."
