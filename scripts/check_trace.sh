#!/usr/bin/env bash
# Smoke-checks the tracing pipeline end-to-end: runs a trace-enabled
# imbalanced bench, validates that every emitted Chrome/Perfetto JSON
# actually parses, and asserts the trace has one named lane per virtual
# rank plus spans, flow arrows and counter tracks. Its .metrics.csv must
# hold the per-step counters the solver's step record feeds: one lii /
# migrated_dsmc / migrated_pic / bytes_migrated sample per step, one
# particles_owned / cells_owned sample per rank per step, and no negative
# bytes_migrated. Catches exporter regressions (broken escaping, truncated
# documents) that unit tests on the writer would miss.
#
#   scripts/check_trace.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
RANKS=4
STEPS=3
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cmake --build "$BUILD" --target bench_fig05_imbalance -j

"$BUILD"/bench/bench_fig05_imbalance \
  --ranks "$RANKS" --steps "$STEPS" --trace "$OUT/trace.json" >/dev/null

# bench_fig05 writes one trace per case: trace.json, trace.case1.json, ...
shopt -s nullglob
TRACES=("$OUT"/trace.json "$OUT"/trace.case*.json)
[ "${#TRACES[@]}" -ge 2 ] \
  || { echo "FAIL: expected a trace per case, got ${TRACES[*]}" >&2; exit 1; }
for f in "${TRACES[@]}"; do
  [ -f "$f" ] || { echo "FAIL: $f was not written" >&2; exit 1; }
  python3 -m json.tool "$f" > /dev/null \
    || { echo "FAIL: $f is not valid JSON" >&2; exit 1; }
  [ -f "$f.metrics.csv" ] || { echo "FAIL: $f.metrics.csv missing" >&2; exit 1; }

  python3 - "$f" "$RANKS" "$STEPS" <<'EOF'
import csv, json, sys
from collections import Counter
path, nranks, nsteps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
events = json.load(open(path))["traceEvents"]
lanes = {e["tid"] for e in events
         if e.get("ph") == "M" and e.get("name") == "thread_name"}
missing = [r for r in range(nranks) if r not in lanes]
assert not missing, f"{path}: no lane metadata for ranks {missing}"
by_ph = {}
for e in events:
    by_ph[e.get("ph")] = by_ph.get(e.get("ph"), 0) + 1
assert by_ph.get("X", 0) > 0, f"{path}: no spans"
assert by_ph.get("s", 0) > 0 and by_ph.get("s") == by_ph.get("f"), \
    f"{path}: unmatched flow arrows {by_ph}"
for r in range(nranks):
    assert any(e.get("ph") == "X" and e.get("tid") == r for e in events), \
        f"{path}: rank {r} lane has no spans"
assert by_ph.get("C", 0) > 0, f"{path}: no counter events"

rows = list(csv.DictReader(open(path + ".metrics.csv")))
seen = Counter((row["counter"], int(row["step"]), int(row["rank"]))
               for row in rows)
steps = range(nsteps)
for name in ("lii", "migrated_dsmc", "migrated_pic", "bytes_migrated"):
    for s in steps:
        assert seen[(name, s, -1)] == 1, \
            f"{path}.metrics.csv: {seen[(name, s, -1)]} {name} samples at step {s}"
for name in ("particles_owned", "cells_owned"):
    for s in steps:
        for r in range(nranks):
            assert seen[(name, s, r)] == 1, \
                f"{path}.metrics.csv: {seen[(name, s, r)]} {name} samples " \
                f"for rank {r} at step {s}"
negative = [row for row in rows
            if row["counter"] == "bytes_migrated" and float(row["value"]) < 0]
assert not negative, f"{path}.metrics.csv: negative bytes_migrated {negative}"
print(f"{path}: {len(events)} events, lanes={sorted(lanes)}, "
      f"spans={by_ph.get('X')}, flows={by_ph.get('s')}, "
      f"counters={by_ph.get('C')}, metric rows={len(rows)}")
EOF
done

echo "trace check clean."
