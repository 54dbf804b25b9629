#include "par/scatter.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "support/error.hpp"

namespace dsmcpic::par {

using Plan = ScatterPlan::Plan;
using Locals = std::vector<std::vector<double>>;

namespace {

void check_inputs(const ScatterPlan& plan, const Runtime& rt,
                  const Locals& local) {
  bool fit = rt.active_ranks() == static_cast<int>(plan.sizes.size()) &&
             local.size() == plan.sizes.size();
  for (std::size_t r = 0; fit && r < local.size(); ++r)
    fit = local[r].size() == plan.sizes[r];
  DSMCPIC_CHECK_MSG(fit, "scatter of " << plan.sizes.size()
                                       << " ranks given mis-sized vectors or "
                                       << rt.active_ranks() << " active ranks");
}

// Charges the packing of `msgs`, per message in their order.
void charge_packing(Comm& c, const std::vector<Plan>& msgs) {
  for (const Plan& m : msgs)
    c.charge(WorkKind::kPackByte,
             static_cast<double>(m.count * sizeof(double)));
}

}  // namespace

ScatterPlan ScatterPlan::build(std::vector<std::size_t> sizes,
                               std::vector<Entry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return std::tie(a.sender, a.receiver) <
                            std::tie(b.sender, b.receiver);
                   });
  ScatterPlan p{std::move(sizes), {}, {}, {}, {}};
  p.send_plan.resize(p.sizes.size());
  p.recv_plan.resize(p.sizes.size());
  for (const Entry& e : entries) {
    std::vector<Plan>& out = p.send_plan[e.sender];
    std::vector<Plan>& in = p.recv_plan[e.receiver];
    if (out.empty() || out.back().peer != e.receiver) {
      out.push_back({e.receiver, p.send_idx.size(), 0});
      in.push_back({e.sender, p.send_idx.size(), 0});
    }
    ++out.back().count;
    ++in.back().count;
    p.send_idx.push_back(e.send_idx);
    p.recv_idx.push_back(e.recv_idx);
  }
  return p;
}

Scatter::Scatter(ScatterPlan plan)
    : plan_(std::move(plan)), pack_(plan_.send_idx.size()) {
  const int n = static_cast<int>(plan_.sizes.size());
  constexpr auto kMaxSlots =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  DSMCPIC_CHECK_MSG(plan_.send_plan.size() == plan_.sizes.size() &&
                        plan_.recv_plan.size() == plan_.sizes.size() &&
                        plan_.recv_idx.size() == pack_.size() &&
                        pack_.size() <= kMaxSlots,
                    "malformed scatter plan of " << n << " ranks");
  // Per receiver, the messages matched so far against its receive list, in
  // delivery (ascending sender) order.
  std::vector<std::size_t> heard(plan_.sizes.size(), 0);
  std::size_t next = 0;
  for (int p = 0; p < n; ++p) {
    send_begin_.push_back(next);
    int last = -1;
    for (const Plan& m : plan_.send_plan[p]) {
      DSMCPIC_CHECK_MSG(m.peer > last && m.peer < n && m.slot == next &&
                            m.count <= pack_.size() - next,
                        "rank " << p << " scatter message to rank " << m.peer
                                << " does not follow slot " << next);
      const std::vector<Plan>& want = plan_.recv_plan[m.peer];
      std::size_t& k = heard[m.peer];
      DSMCPIC_CHECK_MSG(
          k < want.size() && (want[k++] == Plan{p, m.slot, m.count}),
          "rank " << m.peer << " does not expect rank " << p
                  << "'s message at slot " << m.slot);
      for (; next < m.slot + m.count; ++next)
        DSMCPIC_CHECK_MSG(plan_.sizes[p] >
                              static_cast<std::size_t>(plan_.send_idx[next]),
                          "rank " << p << " sends a value past its vector");
      last = m.peer;
      forward_.add(p, m.peer, m.count * sizeof(double));
    }
  }
  send_begin_.push_back(next);
  DSMCPIC_CHECK_MSG(next == pack_.size(), "scatter slots left unsent");
  std::vector<char> filled;
  recv_begin_.push_back(0);
  for (int r = 0; r < n; ++r) {
    DSMCPIC_CHECK_MSG(heard[r] == plan_.recv_plan[r].size(),
                      "rank " << r << " expects a message it is not sent");
    filled.assign(plan_.sizes[r], 0);
    for (const Plan& m : plan_.recv_plan[r]) {
      for (std::size_t i = m.slot; i < m.slot + m.count; ++i) {
        const auto e = static_cast<std::size_t>(plan_.recv_idx[i]);
        DSMCPIC_CHECK_MSG(e < filled.size() && !filled[e],
                          "rank " << r << " receives entry " << e
                                  << " out of range or twice");
        filled[e] = 1;
        recv_.emplace_back(plan_.recv_idx[i], static_cast<std::int32_t>(i));
      }
      reverse_.add(r, m.peer, m.count * sizeof(double));
    }
    recv_begin_.push_back(recv_.size());
  }
}

void Scatter::forward_pack(Comm& c, std::span<const double> local) const {
  const int r = c.rank();
  for (std::size_t i = send_begin_[r]; i < send_begin_[r + 1]; ++i)
    pack_[i] = local[plan_.send_idx[i]];
  charge_packing(c, plan_.send_plan[r]);
}

void Scatter::forward_unpack(int rank, std::span<double> local) const {
  for (std::size_t k = recv_begin_[rank]; k < recv_begin_[rank + 1]; ++k)
    local[recv_[k].first] = pack_[recv_[k].second];
}

void Scatter::forward_insert(Runtime& rt, const std::string& phase,
                             Locals& local) const {
  check_inputs(plan_, rt, local);
  rt.superstep(
      phase, [&](Comm& c) { forward_pack(c, local[c.rank()]); }, forward_);
  rt.superstep(phase,
               [&](Comm& c) { forward_unpack(c.rank(), local[c.rank()]); });
}

void Scatter::reverse_add(Runtime& rt, const std::string& phase,
                          Locals& local) const {
  check_inputs(plan_, rt, local);
  rt.superstep(
      phase,
      [&](Comm& c) {
        const int r = c.rank();
        for (std::size_t k = recv_begin_[r]; k < recv_begin_[r + 1]; ++k)
          pack_[recv_[k].second] = local[r][recv_[k].first];
        charge_packing(c, plan_.recv_plan[r]);
      },
      reverse_);
  rt.superstep(phase, [&](Comm& c) {
    const int r = c.rank();
    std::vector<double>& v = local[r];
    for (std::size_t i = send_begin_[r]; i < send_begin_[r + 1]; ++i)
      v[plan_.send_idx[i]] += pack_[i];
    for (const Plan& m : plan_.send_plan[r])
      c.charge(WorkKind::kVecFlop, static_cast<double>(m.count));
  });
}

}  // namespace dsmcpic::par
