#!/usr/bin/env bash
# Builds the runtime + determinism tests under ThreadSanitizer and runs
# them. The threaded superstep backend claims "bit-identical by
# construction, no locks in rank bodies", and the intra-rank kernel lanes
# (DESIGN.md §2d) claim the same for chunked move/collide/react/deposit —
# this is the check that both constructions are actually race-free, not
# just deterministic by luck.
#
#   scripts/run_tsan.sh [build-dir]
#
# scripts/run_asan.sh is the AddressSanitizer + UBSan counterpart
# (-DDSMCPIC_SANITIZE=address).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDSMCPIC_SANITIZE=thread
cmake --build "$BUILD" --target par_test support_test linalg_test determinism_test trace_test obs_test pic_test dsmc_test balance_policy_test ensemble_test fleet_test telemetry_test -j

# halt_on_error so a race fails the script, not just prints a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# KernelExec.* includes the kernels' one chunk reduction (sum_tasks /
# sum_chunks) at lanes 2 and 4, so its per-task stats slots are written from
# real pool threads; the push-hook test runs move_all's PIC-style push the
# same way.
"$BUILD"/tests/support_test --gtest_filter='ThreadPool.*:KernelExec.*'
"$BUILD"/tests/dsmc_test --gtest_filter='Mover.PushHook*'
# Includes the message-round tests, whose threaded case routes a round
# after concurrent bodies that may not send. The prices a round keeps
# between routings are written only on the driver thread, after the
# superstep's join, so no body ever sees them change.
"$BUILD"/tests/par_test
# The distributed CG's halo scatter (DESIGN.md §2i) moves no payloads:
# each rank packs into its own slots of one shared buffer in the send
# superstep, which routes a fixed message round, and its peers read those
# slots in the next superstep. The reference suite runs dist_cg threaded at
# 1, 24 and 1,024 ranks, so a receiver reading a slot before the superstep
# join ordered its write would be flagged here; Dist.Halo* covers the plan
# checks the scatter makes at construction.
"$BUILD"/tests/linalg_test \
  --gtest_filter='RankCounts/DistCgTest.*:Dist.Halo*:Ranks/Dataset2Reference.DistCg*'
# The blocked parallel deposit (DESIGN.md §2g) above the candidate cutoff:
# per-block scatter buffers + ascending-block reduction on real kernel
# lanes. The solver-level suites stay below the cutoff, so this unit test
# is the only TSan coverage of the deposit's phase-A/phase-B threading.
# Deposit.TableMatchesSpanOnlyBitwise and Field.TableGatherMatchesSearch-
# Bitwise read the per-layout node-slot table from kernel lanes 2 and 4, as
# the deposit and PIC_Move's gather do; Field.* and NodeExchange.* add the
# search fallback and the table build. The node reduce and broadcast run
# the same grid scatter as the CG halo: threaded superstep bodies write one
# shared pack buffer, each rank its own slots, and read it after the join;
# NodeExchange.MatchesPayloadReferenceBitForBit runs them threaded (4
# lanes) at up to 64 ranks.
"$BUILD"/tests/pic_test --gtest_filter='Deposit.*:Field.*:NodeExchange.*'
# Intra-rank kernel chunking first (real threads inside move/collide/
# react/deposit and PIC_Move's push, all summed by the one reduction), then
# the sorted-traversal suite (periodic cell sort
# composed with threaded exec + kernel lanes, DESIGN.md §2g), then the
# full harness including both levels at once.
"$BUILD"/tests/determinism_test --gtest_filter='KernelThreads.*'
"$BUILD"/tests/determinism_test --gtest_filter='SortDeterminism.*'
# The timer cost model feeds measured virtual time back into the partition
# weights (DESIGN.md §2h); its threaded/kernel-lane runs re-read the busy
# counters on the driver thread between supersteps, so a racy accounting
# path would surface in this filter before the full harness runs.
"$BUILD"/tests/determinism_test --gtest_filter='CostModelDeterminism.*'
"$BUILD"/tests/determinism_test
# Tracing claims driver-thread-only recording (DESIGN.md §2e); the
# determinism suite runs trace-enabled solves over the threaded backend,
# so a racy recorder hook would be flagged here.
"$BUILD"/tests/trace_test
# The health auditor and host profiler claim zero perturbation of the
# deterministic state (DESIGN.md §2f); the audit-enabled determinism suite
# runs audited+profiled solves over the threaded backend with kernel
# threads, so a racy profiler scope or auditor hook would be flagged here.
"$BUILD"/tests/obs_test
# The cost-model / rebalance-policy unit battery is single-threaded logic,
# but TSan instrumentation still exercises its allocation and EWMA paths
# the same way the solver-level suites consume them.
"$BUILD"/tests/balance_policy_test
# Elastic rank ensembles (DESIGN.md §2i): resizing the active prefix
# mid-run reroutes ownership through exchange + redecompose while the
# threaded backend is live, and the pooled payload free-lists are touched
# from rank bodies. The exec-mode bit-identity test runs the threaded
# backend through a resize, so a racy pool or active-set handoff would be
# flagged here.
"$BUILD"/tests/ensemble_test
# The fleet service (DESIGN.md §2j) runs whole solvers concurrently on the
# slot pool while they read the same immutable CaseGeometry through
# SharedAssets, and preempt/resume moves solver state across slots through
# the solver checkpoint. The fleet suite runs 4-slot fleets, lease slicing,
# and the park/resume round trip, so a racy registry, result aggregation, or
# shared mesh access would be flagged here. The geometry's Poisson systems
# are assembled on first request under its mutex;
# SharedPoisson.ConcurrentFirstRequestsAssembleOnce makes four threads ask
# for the same one at once.
"$BUILD"/tests/fleet_test
# The telemetry bus (docs/observability.md §6) samples the solver from the
# driver thread, but the FLEET aggregator republishes fleet_summary.json +
# fleet_metrics.prom from whichever slot finished a lease, serialized by
# publish_mu_ — and per-run hubs write exposition files from concurrent
# slots. The fleet-telemetry test plus the threaded postmortem runs would
# flag a racy snapshot or a torn publish here.
"$BUILD"/tests/telemetry_test

echo "TSan sweep clean."
