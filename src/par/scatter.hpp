#pragma once
// One scatter for grid data, the PETSc VecScatter analogue: the KSP halo
// (linalg) and the shared-node reduce and broadcast of paper Sec. IV-C
// (pic::NodeExchange) run it forward to insert and in reverse to add. Its
// messages are two payload-free MessageRounds, so payloads carry particles
// only.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "par/runtime.hpp"

namespace dsmcpic::par {

/// Which local-vector entries a scatter moves between which ranks.
struct ScatterPlan {
  /// One message: `count` values at [slot, slot + count) of the pack buffer.
  struct Plan {
    int peer = -1;
    std::size_t slot = 0;
    std::size_t count = 0;
    bool operator==(const Plan&) const = default;
  };
  /// One value: `sender`'s entry `send_idx` goes to `receiver`'s `recv_idx`.
  struct Entry {
    int sender, receiver;
    std::int32_t send_idx, recv_idx;
  };
  std::vector<std::size_t> sizes;  // per rank: length of its local vector
  // send_plan[r]: r's messages to ascending peers, slots following the
  // previous sender's; recv_plan[r]: those r receives, from ascending peers.
  std::vector<std::vector<Plan>> send_plan, recv_plan;
  // Per slot: the value's index into the sender's and the receiver's vector.
  std::vector<std::int32_t> send_idx, recv_idx;

  /// One message per (sender, receiver) pair of `entries`, in that order,
  /// its values in `entries` order; entries name ranks below sizes.size().
  static ScatterPlan build(std::vector<std::size_t> sizes,
                           std::vector<Entry> entries);
};

/// A checked plan with its forward round, its reverse round (the same
/// messages back, sent by the forward receivers in ascending order) and its
/// pack buffer. Packing charges kPackByte and the reverse add kVecFlop per
/// message. Operations write the pack buffer and the prices a round keeps,
/// so one solve or exchange at a time may use a scatter.
class Scatter {
 public:
  Scatter() = default;
  /// Throws dsmcpic::Error unless each sender's slots follow the previous
  /// sender's and its peers ascend, each receive list holds exactly the
  /// messages sent to it (none lost, stray or misplaced), every index lies
  /// in its rank's vector, no receiver entry is filled twice, and the slots
  /// fit an int32.
  explicit Scatter(ScatterPlan plan);

  /// Two supersteps each. Forward insert copies the senders' entries into
  /// the receivers'; reverse add adds the receivers' entries into the
  /// senders', by ascending receiver, then slot. Both throw dsmcpic::Error
  /// unless `local` holds one vector per plan rank, of the plan's sizes, and
  /// the runtime has as many active ranks as the plan.
  void forward_insert(Runtime& rt, const std::string& phase,
                      std::vector<std::vector<double>>& local) const;
  void reverse_add(Runtime& rt, const std::string& phase,
                   std::vector<std::vector<double>>& local) const;

  // Forward insert's halves, for a caller that runs them in its own
  // supersteps: forward_pack in the one routed with forward_round(),
  // forward_unpack in a later one, before any rank packs again.
  const MessageRound& forward_round() const { return forward_; }
  void forward_pack(Comm& c, std::span<const double> local) const;
  void forward_unpack(int rank, std::span<double> local) const;

 private:
  ScatterPlan plan_;
  MessageRound forward_{/*tag=*/0, CostClass::kGrid};
  MessageRound reverse_{/*tag=*/0, CostClass::kGrid};
  // Each rank walks one flat list, not a short loop per message: sender r
  // its slots [send_begin_[r], send_begin_[r + 1]), receiver r the (index
  // into its vector, slot) pairs [recv_begin_[r], recv_begin_[r + 1]) of
  // recv_, in receive order.
  std::vector<std::size_t> send_begin_, recv_begin_;
  std::vector<std::pair<std::int32_t, std::int32_t>> recv_;
  // Ranks write only their own messages' slots; readers run after the
  // superstep join that ordered those writes.
  mutable std::vector<double> pack_;
};

}  // namespace dsmcpic::par
