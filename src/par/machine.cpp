#include "par/machine.hpp"

#include "support/error.hpp"

namespace dsmcpic::par {

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kInnerFrame: return "inner-frame";
    case Placement::kInnerRack: return "inner-rack";
    case Placement::kInterRack: return "inter-rack";
  }
  return "?";
}

namespace {

/// Baseline per-unit compute costs, calibrated so the phase breakdown on the
/// Tianhe-2 profile reproduces the ordering of paper Table IV
/// (Inject >> DSMC_Move > Poisson_Solve > PIC_Move > Reindex at 24 ranks).
WorkCosts baseline_costs() {
  WorkCosts c{};
  // Injection is expensive per particle (sampling, allocation, indexing);
  // the coefficient is calibrated so Inject dominates the balanced runs as
  // in paper Table IV (1622 s vs DSMC_Move 283 s at 24 ranks).
  c[static_cast<int>(WorkKind::kInject)] = 5.0e-5;
  c[static_cast<int>(WorkKind::kMove)] = 1.3e-7;
  c[static_cast<int>(WorkKind::kWalkStep)] = 6.0e-8;
  c[static_cast<int>(WorkKind::kCollide)] = 1.0e-7;
  c[static_cast<int>(WorkKind::kReact)] = 2.0e-7;
  c[static_cast<int>(WorkKind::kReindex)] = 1.4e-8;
  c[static_cast<int>(WorkKind::kDeposit)] = 6.0e-8;
  c[static_cast<int>(WorkKind::kFieldGather)] = 5.0e-8;
  c[static_cast<int>(WorkKind::kBorisPush)] = 6.0e-8;
  c[static_cast<int>(WorkKind::kSpmvFlop)] = 7.0e-10;
  c[static_cast<int>(WorkKind::kVecFlop)] = 5.0e-10;
  c[static_cast<int>(WorkKind::kAssemble)] = 1.5e-7;
  c[static_cast<int>(WorkKind::kScan)] = 1.2e-8;
  // Root-side classify/unpack/repack rate for the centralized exchange.
  c[static_cast<int>(WorkKind::kClassify)] = 4.0e-8;
  c[static_cast<int>(WorkKind::kPackByte)] = 2.0e-10;
  c[static_cast<int>(WorkKind::kPartitionEdge)] = 1.0e-7;
  c[static_cast<int>(WorkKind::kMatchingOp)] = 1.0e-9;
  c[static_cast<int>(WorkKind::kGeneric)] = 1.0e-9;
  return c;
}

WorkCosts scaled_costs(double factor) {
  WorkCosts c = baseline_costs();
  for (auto& v : c) v *= factor;
  return c;
}

}  // namespace

MachineProfile MachineProfile::tianhe2() {
  MachineProfile p;
  p.name = "tianhe2";
  p.cores_per_node = 24;  // 2 × 12-core E5-2692v2
  p.nodes_per_frame = 32;
  p.frames_per_rack = 4;
  p.alpha_intra_node = 5e-7;
  p.alpha_inner_frame = 1.5e-6;
  p.alpha_inner_rack = 2.5e-6;
  p.alpha_inter_rack = 4.0e-6;
  p.beta = 5e-11;  // 160 Gbps point-to-point
  p.congestion = 5e-5;
  p.alpha_tree = 2.0e-6;
  p.nic_contention = 3e-5;
  p.costs = baseline_costs();
  return p;
}

MachineProfile MachineProfile::bscc() {
  MachineProfile p;
  p.name = "bscc";
  p.cores_per_node = 96;  // 2 × 48-core Platinum 9242
  p.nodes_per_frame = 16;
  p.frames_per_rack = 4;
  p.alpha_intra_node = 4e-7;
  p.alpha_inner_frame = 1.8e-6;
  p.alpha_inner_rack = 2.8e-6;
  p.alpha_inter_rack = 4.5e-6;
  p.beta = 8e-11;  // 100 Gbps InfiniBand
  p.congestion = 8e-5;
  p.alpha_tree = 2.2e-6;
  p.nic_overhead = 2.0e-6;  // 96 ranks share each node's HCA
  p.nic_contention = 8e-5;   // severe incast: 96 ranks funnel into one port
  p.costs = scaled_costs(0.8);  // newer, faster cores
  return p;
}

MachineProfile MachineProfile::tianhe3() {
  MachineProfile p;
  p.name = "tianhe3";
  p.cores_per_node = 64;  // Phytium 2000+
  p.nodes_per_frame = 32;
  p.frames_per_rack = 4;
  p.alpha_intra_node = 6e-7;
  p.alpha_inner_frame = 1.4e-6;
  p.alpha_inner_rack = 2.3e-6;
  p.alpha_inter_rack = 3.6e-6;
  p.beta = 4e-11;  // 200 Gbps point-to-point
  p.congestion = 5e-5;
  p.alpha_tree = 1.8e-6;
  p.costs = scaled_costs(1.6);  // weaker ARM cores per-core
  return p;
}

Topology::Topology(MachineProfile profile, int nranks, Placement placement)
    : profile_(std::move(profile)), nranks_(nranks), placement_(placement) {
  DSMCPIC_CHECK_MSG(nranks >= 1, "topology needs at least one rank");
  DSMCPIC_CHECK(profile_.cores_per_node >= 1);
  nodes_in_use_ =
      (nranks_ + profile_.cores_per_node - 1) / profile_.cores_per_node;
  node_.resize(nranks);
  frame_.resize(nranks);
  rack_.resize(nranks);
  for (int r = 0; r < nranks; ++r) {
    node_[r] = node_of_uncached(r);
    frame_[r] = node_[r] / profile_.nodes_per_frame;
    rack_[r] = frame_[r] / profile_.frames_per_rack;
  }
}

int Topology::node_of(int rank) const { return node_[rank]; }

int Topology::node_of_uncached(int rank) const {
  DSMCPIC_CHECK_MSG(rank >= 0 && rank < nranks_, "rank out of range");
  // "Slot" = dense node index in fill order; the placement strategy decides
  // which physical node each slot corresponds to.
  const int slot = rank / profile_.cores_per_node;
  const int npf = profile_.nodes_per_frame;
  const int npr = npf * profile_.frames_per_rack;
  switch (placement_) {
    case Placement::kInnerFrame:
      // Dense: consecutive slots share a frame as long as possible.
      return slot;
    case Placement::kInnerRack: {
      // Round-robin the slots across the frames of each rack, so consecutive
      // nodes land in different frames of the same rack.
      const int rack = slot / npr;
      const int within = slot % npr;
      const int frame = within % profile_.frames_per_rack;
      const int pos = within / profile_.frames_per_rack;
      return rack * npr + frame * npf + pos;
    }
    case Placement::kInterRack: {
      // Round-robin across racks: consecutive nodes land in different racks.
      // Assume enough racks to spread every node (worst-case distance).
      return slot * npr;  // each slot in its own rack
    }
  }
  return slot;
}

int Topology::frame_of(int rank) const { return frame_[rank]; }

int Topology::rack_of(int rank) const { return rack_[rank]; }

double Topology::alpha(int src, int dst) const {
  if (node_[src] == node_[dst]) return profile_.alpha_intra_node;
  if (frame_[src] == frame_[dst]) return profile_.alpha_inner_frame;
  if (rack_[src] == rack_[dst]) return profile_.alpha_inner_rack;
  return profile_.alpha_inter_rack;
}

}  // namespace dsmcpic::par
