#include "pic/node_exchange.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace dsmcpic::pic {

NodeExchange::NodeExchange(const FineGrid& grid,
                           std::span<const std::int32_t> coarse_owner,
                           int nranks)
    : nranks_(nranks),
      grid_(grid),
      cell_owner_(coarse_owner.begin(), coarse_owner.end()) {
  const mesh::TetMesh& fine = grid.fine();
  const std::int32_t ncoarse = grid.coarse().num_tets();
  DSMCPIC_CHECK(static_cast<std::int32_t>(coarse_owner.size()) == ncoarse);
  DSMCPIC_CHECK(fine.num_tets() == grid.first_child(ncoarse));

  std::vector<std::vector<std::int32_t>> cells_of(nranks);
  for (std::int32_t c = 0; c < ncoarse; ++c) {
    const int r = coarse_owner[c];
    DSMCPIC_CHECK_MSG(r >= 0 && r < nranks, "bad owner for coarse cell");
    cells_of[r].push_back(c);
  }

  // Per rank, ascending: its sorted node list, then every one of its fine
  // tets' slots through a node -> slot scratch map, which holds one rank's
  // slots at a time (a rank's tets touch only nodes it has just listed).
  // A node's owner is the first, i.e. smallest, rank that lists it.
  node_owner_.assign(static_cast<std::size_t>(fine.num_nodes()), -1);
  rank_nodes_.resize(nranks);
  tet_slots_.resize(static_cast<std::size_t>(fine.num_tets()));
  std::vector<std::int32_t> slot_of(static_cast<std::size_t>(fine.num_nodes()));
  std::vector<std::int32_t> nodes;
  for (int r = 0; r < nranks; ++r) {
    nodes.clear();
    for (const std::int32_t c : cells_of[r])
      for (std::int32_t fc = grid.first_child(c); fc < grid.first_child(c + 1);
           ++fc)
        for (const std::int32_t n : fine.tet(fc)) nodes.push_back(n);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    rank_nodes_[r].assign(nodes.begin(), nodes.end());  // exact capacity
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      slot_of[nodes[i]] = static_cast<std::int32_t>(i);
      if (node_owner_[nodes[i]] == -1) node_owner_[nodes[i]] = r;
    }
    for (const std::int32_t c : cells_of[r])
      for (std::int32_t fc = grid.first_child(c); fc < grid.first_child(c + 1);
           ++fc) {
        const auto& nd = fine.tet(fc);
        for (int k = 0; k < 4; ++k)
          tet_slots_[static_cast<std::size_t>(fc)][k] = slot_of[nd[k]];
      }
  }

  // Build matching ghost/owner plans (iterate ghosts in ascending global id
  // so both sides agree on ordering).
  ghost_plan_.resize(nranks);
  owner_plan_.resize(nranks);
  std::vector<std::map<int, Plan>> ghost_acc(nranks), owner_acc(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < rank_nodes_[r].size(); ++i) {
      const std::int32_t g = rank_nodes_[r][i];
      const int o = node_owner_[g];
      if (o == r) continue;
      auto& gp = ghost_acc[r][o];
      gp.peer = o;
      gp.idx.push_back(static_cast<std::int32_t>(i));
      auto& op = owner_acc[o][r];
      op.peer = r;
      const std::int32_t li = local_index(o, g);
      DSMCPIC_CHECK_MSG(li >= 0, "owner rank missing its own shared node");
      op.idx.push_back(li);
    }
  }
  for (int r = 0; r < nranks; ++r) {
    for (auto& [peer, plan] : ghost_acc[r]) ghost_plan_[r].push_back(std::move(plan));
    for (auto& [peer, plan] : owner_acc[r]) owner_plan_[r].push_back(std::move(plan));
  }
}

std::int32_t NodeExchange::local_index(int r, std::int32_t g) const {
  const auto& s = rank_nodes_[r];
  const auto it = std::lower_bound(s.begin(), s.end(), g);
  if (it == s.end() || *it != g) return -1;
  return static_cast<std::int32_t>(it - s.begin());
}

std::vector<std::vector<double>> NodeExchange::make_values() const {
  std::vector<std::vector<double>> v(nranks_);
  for (int r = 0; r < nranks_; ++r) v[r].assign(rank_nodes_[r].size(), 0.0);
  return v;
}

double NodeExchange::sum_owned(
    const std::vector<std::vector<double>>& values) const {
  double total = 0.0;
  for (int r = 0; r < nranks_; ++r) {
    const auto& nodes = rank_nodes_[r];
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (node_owner_[nodes[i]] == r) total += values[r][i];
  }
  return total;
}

void NodeExchange::reduce_to_owners(par::Runtime& rt, const std::string& phase,
                                    std::vector<std::vector<double>>& values) const {
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& plan : ghost_plan_[r]) {
      auto buf = c.acquire_payload(plan.idx.size() * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (std::size_t i = 0; i < plan.idx.size(); ++i)
        d[i] = values[r][plan.idx[i]];
      c.charge(par::WorkKind::kPackByte, static_cast<double>(buf.size()));
      c.send_owned(plan.peer, 0, std::move(buf), par::CostClass::kGrid);
    }
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& msg : c.inbox()) {
      const auto buf = msg.view<double>();
      const auto it = std::find_if(
          owner_plan_[r].begin(), owner_plan_[r].end(),
          [&msg](const Plan& p) { return p.peer == msg.src; });
      DSMCPIC_CHECK_MSG(it != owner_plan_[r].end(),
                        "unexpected node-reduce message from " << msg.src);
      DSMCPIC_CHECK(buf.size() == it->idx.size());
      for (std::size_t i = 0; i < buf.size(); ++i)
        values[r][it->idx[i]] += buf[i];
      c.charge(par::WorkKind::kVecFlop, static_cast<double>(buf.size()));
    }
  });
}

void NodeExchange::broadcast_from_owners(
    par::Runtime& rt, const std::string& phase,
    std::vector<std::vector<double>>& values) const {
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& plan : owner_plan_[r]) {
      auto buf = c.acquire_payload(plan.idx.size() * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (std::size_t i = 0; i < plan.idx.size(); ++i)
        d[i] = values[r][plan.idx[i]];
      c.charge(par::WorkKind::kPackByte, static_cast<double>(buf.size()));
      c.send_owned(plan.peer, 0, std::move(buf), par::CostClass::kGrid);
    }
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& msg : c.inbox()) {
      const auto buf = msg.view<double>();
      const auto it = std::find_if(
          ghost_plan_[r].begin(), ghost_plan_[r].end(),
          [&msg](const Plan& p) { return p.peer == msg.src; });
      DSMCPIC_CHECK_MSG(it != ghost_plan_[r].end(),
                        "unexpected node-broadcast message from " << msg.src);
      DSMCPIC_CHECK(buf.size() == it->idx.size());
      for (std::size_t i = 0; i < buf.size(); ++i)
        values[r][it->idx[i]] = buf[i];
    }
  });
}

}  // namespace dsmcpic::pic
