#pragma once
// Test-only reference for pic::NodeExchange's reduce and broadcast: the
// payload form they took before they ran one par::Scatter, kept as the
// oracle the scatter must match bit for bit.
//   * One pooled payload Message per (ghost rank, owner) pair for the
//     reduce, and per (owner, ghost rank) pair for the broadcast, packed in
//     ascending node id and charged kPackByte per message.
//   * The receiver finds each delivered message's plan by a linear search
//     by sender. The owner adds in inbox (ascending sender) order and
//     charges kVecFlop per message; a ghost holder only copies.
// Same messages, charges and floating-point order: any divergence in
// values, clocks, busy rows, PhaseStats, spans or message records is a bug
// in the scatter. Built from NodeExchange's public API alone.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "par/runtime.hpp"
#include "pic/node_exchange.hpp"
#include "support/error.hpp"

namespace dsmcpic::reference {

class PayloadNodeExchange {
 public:
  explicit PayloadNodeExchange(const pic::NodeExchange& nx)
      : ghost_plan_(nx.nranks()), owner_plan_(nx.nranks()) {
    const int nranks = nx.nranks();
    // Ghosts in ascending rank and node id, so both sides agree on order.
    std::vector<std::map<int, Plan>> ghost_acc(nranks), owner_acc(nranks);
    for (int r = 0; r < nranks; ++r) {
      const std::vector<std::int32_t>& nodes = nx.rank_nodes(r);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::int32_t g = nodes[i];
        const int o = nx.node_owner()[g];
        if (o == r) continue;
        Plan& gp = ghost_acc[r][o];
        gp.peer = o;
        gp.idx.push_back(static_cast<std::int32_t>(i));
        Plan& op = owner_acc[o][r];
        op.peer = r;
        op.idx.push_back(nx.local_index(o, g));
      }
    }
    for (int r = 0; r < nranks; ++r) {
      for (auto& [peer, plan] : ghost_acc[r])
        ghost_plan_[r].push_back(std::move(plan));
      for (auto& [peer, plan] : owner_acc[r])
        owner_plan_[r].push_back(std::move(plan));
    }
  }

  void reduce_to_owners(par::Runtime& rt, const std::string& phase,
                        std::vector<std::vector<double>>& values) const {
    rt.superstep(phase, [&](par::Comm& c) {
      send(c, ghost_plan_[c.rank()], values[c.rank()]);
    });
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      for (const par::Message& msg : c.inbox()) {
        const auto buf = msg.view<double>();
        const Plan& plan = find(owner_plan_[r], msg.src, buf.size());
        for (std::size_t i = 0; i < buf.size(); ++i)
          values[r][plan.idx[i]] += buf[i];
        c.charge(par::WorkKind::kVecFlop, static_cast<double>(buf.size()));
      }
    });
  }

  void broadcast_from_owners(par::Runtime& rt, const std::string& phase,
                             std::vector<std::vector<double>>& values) const {
    rt.superstep(phase, [&](par::Comm& c) {
      send(c, owner_plan_[c.rank()], values[c.rank()]);
    });
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      for (const par::Message& msg : c.inbox()) {
        const auto buf = msg.view<double>();
        const Plan& plan = find(ghost_plan_[r], msg.src, buf.size());
        for (std::size_t i = 0; i < buf.size(); ++i)
          values[r][plan.idx[i]] = buf[i];
      }
    });
  }

 private:
  struct Plan {
    int peer = -1;
    std::vector<std::int32_t> idx;  // local indices on the plan's rank
  };

  static void send(par::Comm& c, const std::vector<Plan>& plans,
                   const std::vector<double>& values) {
    std::vector<double> buf;
    for (const Plan& plan : plans) {
      buf.resize(plan.idx.size());
      for (std::size_t i = 0; i < plan.idx.size(); ++i)
        buf[i] = values[plan.idx[i]];
      c.charge(par::WorkKind::kPackByte,
               static_cast<double>(buf.size() * sizeof(double)));
      c.send_pod<double>(plan.peer, 0, buf, par::CostClass::kGrid);
    }
  }

  static const Plan& find(const std::vector<Plan>& plans, int src,
                          std::size_t count) {
    const auto it = std::find_if(plans.begin(), plans.end(),
                                 [src](const Plan& p) { return p.peer == src; });
    DSMCPIC_CHECK_MSG(it != plans.end() && it->idx.size() == count,
                      "unexpected node-exchange message from " << src);
    return *it;
  }

  std::vector<std::vector<Plan>> ghost_plan_;  // per rank, per owner peer
  std::vector<std::vector<Plan>> owner_plan_;  // per owner, per ghost peer
};

}  // namespace dsmcpic::reference
