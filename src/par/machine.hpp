#pragma once
// Machine profiles for the three HPC platforms the paper evaluates on, plus
// the topology-aware communication model.
//
// The paper (Sec. VI-A) describes:
//   * Tianhe-2   — 2×12-core Xeon E5-2692v2 @2.2GHz/node, in-house fat-tree
//                  network, 160 Gbps point-to-point; 32 nodes per frame,
//                  4 frames per rack (Sec. VII-D2).
//   * BSCC       — 2×48-core Xeon Platinum 9242 @2.3GHz/node, InfiniBand,
//                  100 Gbps point-to-point.
//   * Tianhe-3   — 64-core Phytium 2000+ (ARMv8) @2.2GHz/node, in-house
//                  network, 200 Gbps point-to-point.
//
// Communication follows a Hockney α–β model where the per-transaction
// latency α depends on the network distance between the two endpoint nodes
// (intra-node < inner-frame < inner-rack < inter-rack) and a congestion term
// models switch pressure when a communication round carries many concurrent
// transactions (this is what makes the distributed all-to-all strategy
// degrade at large rank counts, reproducing Fig. 11).

#include <cstdint>
#include <string>
#include <vector>

#include "par/work.hpp"

namespace dsmcpic::par {

/// The paper's three MPI rank placement strategies (Sec. VII-D2, Fig. 14).
enum class Placement {
  kInnerFrame,  // pack ranks densely into nodes of the same frame
  kInnerRack,   // spread nodes round-robin across the frames of one rack
  kInterRack,   // spread nodes round-robin across racks
};

const char* placement_name(Placement p);

/// Hardware description + cost coefficients for one platform.
struct MachineProfile {
  std::string name;

  // Node organization (used for rank→node mapping and distance tiers).
  int cores_per_node = 24;
  int nodes_per_frame = 32;
  int frames_per_rack = 4;

  // Hockney model: per-transaction latency by distance tier (seconds) and
  // inverse bandwidth (seconds per byte).
  double alpha_intra_node = 5e-7;
  double alpha_inner_frame = 1.5e-6;
  double alpha_inner_rack = 2.5e-6;
  double alpha_inter_rack = 4.0e-6;
  double beta = 5e-11;

  // Congestion: effective α is multiplied by
  //   1 + congestion * (transactions_in_round / nodes_in_use)
  // so rounds with many concurrent transactions per node pay extra latency.
  double congestion = 5e-5;

  // Collective model: tree collectives cost ~ stages * alpha_tree + bytes*beta.
  double alpha_tree = 2.0e-6;

  // NIC serialization: every inter-node message occupies its endpoints'
  // shared NIC for `nic_overhead` seconds (blocking rendezvous software
  // cost); under heavy incast the per-message cost inflates by
  // (1 + count_per_nic * nic_contention). This is what throttles the
  // distributed strategy's N(N-1) pattern at scale (paper Fig. 11: DC's
  // exchange cost jumping past 2x CC's at 768 BSCC ranks).
  double nic_overhead = 1.5e-6;
  double nic_contention = 2e-5;

  // Compute cost per work unit (virtual seconds).
  WorkCosts costs{};

  static MachineProfile tianhe2();
  static MachineProfile bscc();
  static MachineProfile tianhe3();
};

/// Maps virtual ranks onto nodes/frames/racks for one placement strategy and
/// answers distance-dependent α queries.
class Topology {
 public:
  Topology(MachineProfile profile, int nranks,
           Placement placement = Placement::kInnerFrame);

  const MachineProfile& profile() const { return profile_; }
  Placement placement() const { return placement_; }
  int nranks() const { return nranks_; }

  /// Number of physical nodes occupied by the rank set.
  int nodes_in_use() const { return nodes_in_use_; }

  /// Physical node index hosting `rank` (placement-dependent).
  int node_of(int rank) const;
  int frame_of(int rank) const;
  int rack_of(int rank) const;

  /// Point-to-point latency between two ranks (no congestion applied).
  double alpha(int src, int dst) const;

 private:
  int node_of_uncached(int rank) const;

  MachineProfile profile_;
  int nranks_;
  Placement placement_;
  int nodes_in_use_;
  // Cached per-rank location (alpha() is on the message hot path).
  std::vector<std::int32_t> node_, frame_, rack_;
};

}  // namespace dsmcpic::par
