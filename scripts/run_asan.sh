#!/usr/bin/env bash
# Builds the particle-ordering and solver tests under AddressSanitizer +
# UndefinedBehaviorSanitizer (plus libstdc++ bounds assertions) and runs
# them. The rank-local cell index (DESIGN.md §2g) is an open-addressing
# table plus index arithmetic over per-slot ranges, with a merge sort
# through a reused buffer for its id order; the periodic cell sort and the
# deposit traversal are built on it. An out-of-bounds probe, a stale range
# or buffer tail after a rebuild or a signed overflow in the slot
# bookkeeping would fail here rather than corrupt a digest by luck. The
# per-layout node-slot table the gather and deposit index phi and charge
# through is checked against the binary search on a 24-rank Dataset-2
# layout, including the search fallback for other ranks' tets. The runtime and
# linalg suites cover the message rounds and the halo exchanger's
# slot-range and halo-slot index arithmetic (DESIGN.md §2i), the prices a
# round keeps from one routing to the next (indexed per message and per
# node, re-priced across active-set resizes, hints and runtimes), the halo
# exchange's and the preconditioner's checks on mis-sized vectors and
# spans, and the CSR assembly's packed-key sort against its two-level
# reference. The exchange,
# balance, policy and ensemble suites cover the balancer's one migration
# call, its shared delivery step and the redistribution tail of a
# rebalance and an ensemble resize. The checkpoint- and lease-corruption
# tests patch saved files that must be refused with a typed error, not
# indexed out of bounds, sized from a corrupt length prefix or narrowed
# into a wrong count; a solver built straight from a checkpoint must refuse
# the same files, and equal one restored in place, without reading the
# layout it never built. A corrupt collide or inlet stream (NaN, infinite or
# out-of-range majorants, carries, remainders and sequences) is refused at
# load rather than cast to an integer. The partitioner's indexed FM heap
# (position arithmetic on every sift) and its dense coarsening and subgraph
# maps (marker and reset discipline), and the grouped Kuhn–Munkres scan
# (an indexed min-heap and per-group split-off max-heaps in flat arrays,
# position arithmetic on every sift) against its two-pass reference, run
# here too, as do the bench flags' checked narrowing to int, their
# message-only usage errors, and the auditor's fixed bounds with the exact
# texts that print them. The build uses
# -DDSMCPIC_WERROR=ON, so a new compiler warning fails the sweep too.
#
#   scripts/run_asan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"

cmake -B "$BUILD" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDSMCPIC_SANITIZE=address \
  -DDSMCPIC_WERROR=ON
cmake --build "$BUILD" --target particle_sort_test pic_test dsmc_test \
  determinism_test golden_test par_test linalg_test core_features_test \
  support_test fleet_test exchange_test balance_test balance_policy_test \
  ensemble_test partition_test bench_cli_test obs_test -j

# Any report fails the script: ASan aborts by default, and UBSan is built
# with -fno-sanitize-recover.
export ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# The index against its global-mesh reference (empty stores, 3 of 10^5
# cells, one cell, duplicate ids, out-of-range cells, every cell length
# from 0 to 300, lengths around the run and merge boundaries, one index
# rebuilt over growing and shrinking cells) and the store primitives the
# sort is built on.
"$BUILD"/tests/particle_sort_test
# The deposit traversal against its reference at kernel lanes 1, 2, 4, the
# removal-span checks, and the node-slot table
# (NodeExchange.TetSlotsEqualSearchInOwnersList, Field.TableGather*,
# Field.ForeignTetTakesTheSearchPath, Deposit.TableMatchesSpanOnlyBitwise).
"$BUILD"/tests/pic_test
# Includes move_all's push hook at lanes 1, 2 and 4
# (Mover.PushHookDropsFlagsAndAdvancesLikeMoveOne), the collide and inlet
# streams patched with NaN, infinity and out-of-range values
# (*.LoadRejectsStreamsARunCannotWrite), a finite majorant whose
# candidate count does not fit an int64 (Collide.CandidateCountPastInt64*),
# the collide's sigma bound against the exact candidate loop in
# tests/collide_reference.hpp over four dense steps at lanes 1, 2 and 4
# (Collide.MatchesReferenceLoopBitForBit), and the bound at its edges:
# |g|^2 of 0, subnormal, NaN and +-inf, majorants and draws within 64 ulp
# of sigma * c_r (Collide.SigmaBoundDecidesLikeTheExactTest).
"$BUILD"/tests/dsmc_test
# Whole solves: the periodic sort composed with the reused Reindex index,
# and kernel-lane chunking over it.
"$BUILD"/tests/determinism_test --gtest_filter='SortDeterminism.*:KernelThreads.*'
# Includes the pinned elastic grow, elastic shrink and NC rebalance
# (GoldenRedistribution.*), which run the redistribution tail, and a dense
# nozzle that accepts 4,815 collisions, hashed with every final particle
# (GoldenDense.*).
"$BUILD"/tests/golden_test
# Every exchange strategy ending in the shared delivery step, redecompose
# on caller-supplied Eq.-7 weights, the policy and cost-model battery, and
# ensemble resizes through the solver. The policy and ensemble suites
# include the field-by-field decision logs and their 0-or-1 bool bytes
# (*.DecisionLogIsWrittenFieldByField, *.RejectsDecisionBoolOtherThanZeroOrOne).
# The balance suite includes the grouped Kuhn–Munkres scan against its
# two-pass reference (Hungarian.MatchesTwoPassReference*): seven shapes up
# to n = 257 (all-zero, one nonzero, tied split-off columns, +0.0 zeros),
# a synthetic 1,024-rank remap, and a real 1,024-part remap of the
# wide-1024 dual with ~2.6e8 Dijkstra ops
# (Hungarian.MatchesTwoPassReferenceOnARealWide1024Remap); and the
# non-finite cost rejections (Hungarian.RejectsNonFiniteCosts).
"$BUILD"/tests/exchange_test
"$BUILD"/tests/balance_test
"$BUILD"/tests/balance_policy_test
"$BUILD"/tests/ensemble_test
# The partitioner's pinned partitions (PartitionPins.*: the Dataset-2 and
# wide-1024 duals, and a seeded battery of 24 grids and geometric graphs
# with zero-weight edges at 5 part counts, 120 partitions at the
# partitioner's fixed tolerance, passes, tries and seed), which drive the
# indexed FM heap and the dense coarsening and subgraph maps.
"$BUILD"/tests/partition_test
# Message rounds and the prices they keep (Runtime.Round*, including
# Runtime.RoundReusesPricesBitForBit), the runtime checkpoint's busy-row
# check (Runtime.LoadRejectsBusyRowOfWrongLength), the halo exchanger at 1,
# 24 and 1,024 ranks with its size checks (Dist.HaloRejectsMissizedLocals,
# Dist.PreconRejectsShortSpans), and the packed-key assembly sort
# (Csr.FromTriplets*, up to 10^5 triplets and the Dataset-1 assembly).
"$BUILD"/tests/par_test
"$BUILD"/tests/linalg_test
# Out-of-range owners, short load windows, a one-entry cost-model
# prediction (Checkpoint.RejectsCorruptOwnersAndLoadWindows), particles
# in a cell past the mesh or in another rank's cell in a solver checkpoint
# (Checkpoint.RejectsParticlesOutsideTheirRanksCells), a missing,
# foreign, older or truncated file given to the checkpoint constructor
# (Checkpoint.RejectsBadFilesAtResumeConstruction), and a NaN collision
# majorant refused both ways (Checkpoint.RejectsNanMajorant). Then that
# constructor against a restore in place on five configurations
# (ResumeConstructor.*).
"$BUILD"/tests/core_features_test \
  --gtest_filter='Checkpoint.Rejects*:Configs/ResumeConstructor.*'
# Oversized length prefixes (2^62, 2^40, 2^27) in read_vec/read_string and
# in a parked run's lease.bin, multi-chunk reads, and lease counts that do
# not fit an int or name no unfinished run
# (Fleet.ResumeRejectsOutOfRangeLeaseFields).
"$BUILD"/tests/support_test --gtest_filter='Serialize.*'
"$BUILD"/tests/fleet_test --gtest_filter='Fleet.ResumeRejects*'
# Every int bench flag past INT_MAX or 2^32 + 1 exits 2 instead of
# wrapping (BenchCli.IntFlagsPastIntMaxExitTwo, one death test per flag),
# a usage error prints its message alone
# (BenchCli.UsageErrorsPrintTheMessageAlone), and so does an unknown or
# empty --fleet-scenarios list (BenchCli.FleetScenarioErrorsExitTwo). Then
# the auditor's bounds and violation texts
# (HealthAuditor.BoundsAndViolationTextsArePinned), and a
# profiled rebalance's partition and KM scopes
# (AuditPerturbation.RebalanceTimesItsPartitionAndKmOnTheHost).
"$BUILD"/tests/bench_cli_test
"$BUILD"/tests/obs_test \
  --gtest_filter='HealthAuditor.*:AuditPerturbation.RebalanceTimes*'

echo "ASan/UBSan sweep clean."
