#include "partition/partitioner.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "support/rng.hpp"

namespace dsmcpic::partition {

namespace {

/// Allowed max-part weight as a multiple of the ideal part weight.
constexpr double kImbalanceTol = 1.05;
/// Stop coarsening when the graph has at most this many vertices.
constexpr std::int32_t kCoarsenTo = 80;
/// Maximum FM refinement passes per level.
constexpr int kRefinePasses = 10;
/// Random restarts for the initial bisection.
constexpr int kInitialTries = 8;
/// Seed of every bisection's stream (split by its path in the recursion).
constexpr std::uint64_t kSeed = 0x5eedULL;

// ---------------------------------------------------------------------------
// Coarsening: heavy-edge matching + contraction.
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Graph graph;
  std::vector<std::int32_t> fine_to_coarse;  // size = finer graph nv
};

CoarseLevel coarsen_once(const Graph& g, Rng& rng) {
  const std::int32_t nv = g.num_vertices();
  std::vector<std::int32_t> order(nv);
  std::iota(order.begin(), order.end(), 0);
  // Random visit order decorrelates matchings across levels.
  for (std::int32_t i = nv - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);

  std::vector<std::int32_t> match(nv, -1);
  for (std::int32_t v : order) {
    if (match[v] != -1) continue;
    std::int32_t best = -1;
    std::int64_t best_w = -1;
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
      if (match[u] != -1) continue;
      const std::int64_t w = g.edge_weight(e);
      if (w > best_w) {
        best_w = w;
        best = u;
      }
    }
    if (best >= 0) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // unmatched: maps to its own coarse vertex
    }
  }

  CoarseLevel lvl;
  lvl.fine_to_coarse.assign(nv, -1);
  std::int32_t nc = 0;
  for (std::int32_t v = 0; v < nv; ++v) {
    if (lvl.fine_to_coarse[v] != -1) continue;
    lvl.fine_to_coarse[v] = nc;
    if (match[v] != v) lvl.fine_to_coarse[match[v]] = nc;
    ++nc;
  }

  Graph& cg = lvl.graph;
  cg.xadj.assign(nc + 1, 0);
  cg.vwgt.assign(nc, 0);
  for (std::int32_t v = 0; v < nv; ++v)
    cg.vwgt[lvl.fine_to_coarse[v]] += g.vertex_weight(v);

  // Accumulate contracted edges per coarse vertex into a dense sum over its
  // coarse neighbours. `seen_by[cu] == c` marks cu as touched for c; a zero
  // sum cannot, since an edge of weight 0 is valid and still contracts.
  std::vector<std::int64_t> sum(nc, 0);
  std::vector<std::int32_t> seen_by(nc, -1);
  std::vector<std::int32_t> touched;
  auto contract = [&](std::int32_t v, std::int32_t c) {
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::int32_t cu = lvl.fine_to_coarse[g.adjncy[static_cast<std::size_t>(e)]];
      if (cu == c) continue;
      if (seen_by[cu] != c) {
        seen_by[cu] = c;
        sum[cu] = 0;
        touched.push_back(cu);
      }
      sum[cu] += g.edge_weight(e);
    }
  };
  // Coarse ids were handed out in order of each pair's smaller member.
  for (std::int32_t v = 0; v < nv; ++v) {
    if (match[v] < v) continue;  // contracted with match[v] already
    const std::int32_t c = lvl.fine_to_coarse[v];
    contract(v, c);
    if (match[v] != v) contract(match[v], c);
    // Sorted neighbors keep the construction deterministic.
    std::sort(touched.begin(), touched.end());
    for (const std::int32_t cu : touched) {
      cg.adjncy.push_back(cu);
      cg.ewgt.push_back(sum[cu]);
    }
    cg.xadj[c + 1] = static_cast<std::int64_t>(cg.adjncy.size());
    touched.clear();
  }
  return lvl;
}

// ---------------------------------------------------------------------------
// Bisection state + FM refinement.
// ---------------------------------------------------------------------------

std::int64_t cut_of_sides(const Graph& g, const std::vector<std::int8_t>& side) {
  std::int64_t cut = 0;
  for (std::int32_t v = 0; v < g.num_vertices(); ++v)
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e)
      if (side[v] != side[g.adjncy[static_cast<std::size_t>(e)]])
        cut += g.edge_weight(e);
  return cut / 2;
}

/// Max-heap of vertices keyed by (gain, vertex id), both descending (a gain
/// tie pops the larger id first), holding each vertex at most once, with
/// its position for in-place key updates.
class GainHeap {
 public:
  /// Holds every vertex of a graph keyed by `gain`, heapified bottom-up.
  void fill(const std::vector<std::int64_t>& gain) {
    gain_ = &gain;
    heap_.resize(gain.size());
    pos_.resize(gain.size());
    std::iota(heap_.begin(), heap_.end(), 0);
    std::iota(pos_.begin(), pos_.end(), 0);
    for (auto i = static_cast<std::int32_t>(heap_.size()) / 2 - 1; i >= 0; --i)
      sift_down(i);
  }
  bool empty() const { return heap_.empty(); }

  std::int32_t pop() {
    const std::int32_t top = heap_.front();
    pos_[top] = -1;
    const std::int32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return top;
  }

  /// After gain[v] changed by `delta`: moves v to its place, or inserts it
  /// if it was popped before.
  void changed(std::int32_t v, std::int64_t delta) {
    if (pos_[v] < 0) {
      heap_.push_back(v);
      sift_up(static_cast<std::int32_t>(heap_.size()) - 1);
    } else if (delta > 0) {
      sift_up(pos_[v]);
    } else if (delta < 0) {
      sift_down(pos_[v]);
    }
  }

 private:
  bool above(std::int32_t a, std::int32_t b) const {
    const std::int64_t ga = (*gain_)[a], gb = (*gain_)[b];
    return ga > gb || (ga == gb && a > b);
  }
  void place(std::int32_t i, std::int32_t v) {
    heap_[i] = v;
    pos_[v] = i;
  }
  void sift_up(std::int32_t i) {
    const std::int32_t v = heap_[i];
    while (i > 0) {
      const std::int32_t parent = (i - 1) / 2;
      if (!above(v, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }
  void sift_down(std::int32_t i) {
    const std::int32_t v = heap_[i];
    const auto n = static_cast<std::int32_t>(heap_.size());
    while (true) {
      std::int32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && above(heap_[child + 1], heap_[child])) ++child;
      if (!above(heap_[child], v)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, v);
  }

  const std::vector<std::int64_t>* gain_ = nullptr;
  std::vector<std::int32_t> heap_;
  std::vector<std::int32_t> pos_;  // index in heap_, -1 if absent
};

/// The buffers of one FM pass, reused across the passes of a bisection.
struct FmBuffers {
  std::vector<std::int64_t> gain;
  std::vector<std::int8_t> locked;
  std::vector<std::int32_t> moved;
  GainHeap heap;
};

/// One FM pass with rollback. `target0` is the desired weight of side 0;
/// side 1's target is total - target0. Balance-aware: the pass first drives
/// the balance violation to zero, then minimizes cut among feasible states
/// (best prefix ranked by (violation, cut)). `cut` is the cut of `side` on
/// entry; returns the cut after the pass, which is exact: the pass tracks
/// every move's gain and rolls back to the best prefix.
///
/// Each unlocked vertex sits in the heap once. A vertex the balance test
/// rejects stays out until a neighbour's move updates its gain, even by a
/// weight-0 edge; only then can it be popped again.
std::int64_t fm_pass(const Graph& g, std::vector<std::int8_t>& side,
                     std::int64_t target0, double tol, std::int64_t cut,
                     FmBuffers& fm) {
  const std::int32_t nv = g.num_vertices();
  const std::int64_t total = g.total_vertex_weight();
  const std::int64_t target1 = total - target0;
  std::int64_t w0 = 0;
  for (std::int32_t v = 0; v < nv; ++v)
    if (side[v] == 0) w0 += g.vertex_weight(v);

  auto max_w = [&](int s) {
    const std::int64_t t = s == 0 ? target0 : target1;
    return static_cast<std::int64_t>(static_cast<double>(t) * tol);
  };
  auto violation = [&](std::int64_t w0_now) {
    return std::max<std::int64_t>(
        {0, w0_now - max_w(0), (total - w0_now) - max_w(1)});
  };

  // gain[v] = external - internal edge weight.
  std::vector<std::int64_t>& gain = fm.gain;
  gain.assign(static_cast<std::size_t>(nv), 0);
  for (std::int32_t v = 0; v < nv; ++v)
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
      gain[v] += (side[u] != side[v]) ? g.edge_weight(e) : -g.edge_weight(e);
    }

  GainHeap& heap = fm.heap;
  heap.fill(gain);

  std::vector<std::int8_t>& locked = fm.locked;
  locked.assign(static_cast<std::size_t>(nv), 0);
  std::vector<std::int32_t>& moved = fm.moved;
  moved.clear();

  std::int64_t best_cut = cut;
  std::int64_t best_viol = violation(w0);
  std::size_t best_prefix = 0;

  while (!heap.empty()) {
    const std::int32_t v = heap.pop();
    const int from = side[v];
    const int to = 1 - from;
    const std::int64_t wv = g.vertex_weight(v);
    const std::int64_t new_w0 = w0 + ((to == 0) ? wv : -wv);
    const std::int64_t dest_w = (to == 0) ? new_w0 : total - new_w0;
    const std::int64_t cur_viol = violation(w0);
    // A move is admissible when it keeps the destination in balance, or when
    // the overall violation shrinks (escaping an infeasible start).
    if (dest_w > max_w(to) && violation(new_w0) >= cur_viol) continue;

    // Apply the move.
    locked[v] = 1;
    side[v] = static_cast<std::int8_t>(to);
    w0 = new_w0;
    cut -= gain[v];
    moved.push_back(v);
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
      if (locked[u]) continue;
      const std::int64_t w = g.edge_weight(e);
      const std::int64_t delta = (side[u] == from) ? 2 * w : -2 * w;
      gain[u] += delta;
      heap.changed(u, delta);
    }
    const std::int64_t viol = violation(w0);
    if (viol < best_viol || (viol == best_viol && cut < best_cut)) {
      best_viol = viol;
      best_cut = cut;
      best_prefix = moved.size();
    }
  }

  // Roll back moves past the best prefix.
  for (std::size_t i = moved.size(); i > best_prefix; --i)
    side[moved[i - 1]] = static_cast<std::int8_t>(1 - side[moved[i - 1]]);
  return best_cut;
}

/// Greedy graph growing: BFS from a random seed, absorbing vertices until
/// side 0 reaches its target weight.
void grow_initial(const Graph& g, std::vector<std::int8_t>& side,
                  std::int64_t target0, Rng& rng) {
  const std::int32_t nv = g.num_vertices();
  std::fill(side.begin(), side.end(), std::int8_t{1});
  std::vector<std::int8_t> seen(nv, 0);
  std::queue<std::int32_t> frontier;
  const auto seed_v = static_cast<std::int32_t>(rng.uniform_index(nv));
  frontier.push(seed_v);
  seen[seed_v] = 1;
  std::int64_t w0 = 0;
  while (w0 < target0) {
    std::int32_t v;
    if (frontier.empty()) {
      // Disconnected remainder: restart from any unseen vertex.
      v = -1;
      for (std::int32_t u = 0; u < nv; ++u)
        if (!seen[u]) {
          v = u;
          seen[u] = 1;
          break;
        }
      if (v < 0) break;
    } else {
      v = frontier.front();
      frontier.pop();
    }
    const std::int64_t wv = g.vertex_weight(v);
    // Heavy vertex that would overshoot worse than stopping short: leave it
    // on side 1 (but keep exploring, lighter vertices may still fit).
    if (w0 > 0 && (w0 + wv - target0) > (target0 - w0)) {
      for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
        if (!seen[u]) {
          seen[u] = 1;
          frontier.push(u);
        }
      }
      continue;
    }
    side[v] = 0;
    w0 += wv;
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
      if (!seen[u]) {
        seen[u] = 1;
        frontier.push(u);
      }
    }
  }
}

/// Multilevel bisection of `g` targeting `target0` weight on side 0.
std::vector<std::int8_t> multilevel_bisect(const Graph& g, std::int64_t target0,
                                           Rng& rng) {
  // Coarsening phase.
  std::vector<CoarseLevel> levels;
  const Graph* cur = &g;
  while (cur->num_vertices() > kCoarsenTo) {
    CoarseLevel lvl = coarsen_once(*cur, rng);
    // Stop if matching stagnates (e.g. star graphs).
    if (lvl.graph.num_vertices() > cur->num_vertices() * 9 / 10) break;
    levels.push_back(std::move(lvl));
    cur = &levels.back().graph;
  }

  // FM passes until one fails to lower the cut; returns the final cut.
  FmBuffers fm;
  auto refine = [&](const Graph& level, std::vector<std::int8_t>& side) {
    std::int64_t cut = cut_of_sides(level, side);
    for (int p = 0; p < kRefinePasses; ++p) {
      const std::int64_t before = cut;
      cut = fm_pass(level, side, target0, kImbalanceTol, cut, fm);
      if (cut >= before) break;
    }
    return cut;
  };

  // Initial bisection on the coarsest graph, best of several tries.
  const Graph& coarsest = *cur;
  std::vector<std::int8_t> best_side(coarsest.num_vertices(), 1);
  std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
  for (int attempt = 0; attempt < kInitialTries; ++attempt) {
    std::vector<std::int8_t> side(coarsest.num_vertices(), 1);
    grow_initial(coarsest, side, target0, rng);
    const std::int64_t cut = refine(coarsest, side);
    if (cut < best_cut) {
      best_cut = cut;
      best_side = side;
    }
  }

  // Uncoarsening + refinement.
  std::vector<std::int8_t> side = std::move(best_side);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Graph& finer = (std::next(it) == levels.rend())
                             ? g
                             : std::next(it)->graph;
    std::vector<std::int8_t> fine_side(finer.num_vertices());
    for (std::int32_t v = 0; v < finer.num_vertices(); ++v)
      fine_side[v] = side[it->fine_to_coarse[v]];
    refine(finer, fine_side);
    side = std::move(fine_side);
  }
  return side;
}

/// Extracts the subgraph induced by `vertices` (ids into `g`). `local` maps
/// every vertex of `g` to -1 on entry and on return.
Graph subgraph(const Graph& g, const std::vector<std::int32_t>& vertices,
               std::vector<std::int32_t>& local) {
  const auto nv = static_cast<std::int32_t>(vertices.size());
  for (std::int32_t i = 0; i < nv; ++i) local[vertices[i]] = i;

  Graph sg;
  sg.xadj.assign(nv + 1, 0);
  sg.vwgt.resize(nv);
  for (std::int32_t i = 0; i < nv; ++i) {
    sg.vwgt[i] = g.vertex_weight(vertices[i]);
    for (std::int64_t e = g.xadj[vertices[i]]; e < g.xadj[vertices[i] + 1]; ++e) {
      const std::int32_t li = local[g.adjncy[static_cast<std::size_t>(e)]];
      if (li < 0) continue;
      sg.adjncy.push_back(li);
      sg.ewgt.push_back(g.edge_weight(e));
    }
    sg.xadj[i + 1] = static_cast<std::int64_t>(sg.adjncy.size());
  }
  for (const std::int32_t v : vertices) local[v] = -1;
  return sg;
}

/// `local` is subgraph()'s global-to-local map, all -1 between calls.
void part_recursive(const Graph& g, const std::vector<std::int32_t>& vertices,
                    int nparts, int part_offset, std::uint64_t path,
                    std::vector<std::int32_t>& local,
                    std::vector<std::int32_t>& out) {
  if (nparts == 1) {
    for (std::int32_t v : vertices) out[v] = part_offset;
    return;
  }
  Graph sg = subgraph(g, vertices, local);

  // Degenerate: fewer vertices than parts — spread by weight, heaviest first.
  if (sg.num_vertices() <= nparts) {
    std::vector<std::int32_t> order(sg.num_vertices());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
      return sg.vertex_weight(a) > sg.vertex_weight(b);
    });
    for (std::size_t i = 0; i < order.size(); ++i)
      out[vertices[order[i]]] = part_offset + static_cast<int>(i % nparts);
    return;
  }

  const int k0 = nparts / 2;
  const int k1 = nparts - k0;
  const std::int64_t total = sg.total_vertex_weight();
  const std::int64_t target0 = total * k0 / nparts;

  Rng rng(kSeed, path);
  const std::vector<std::int8_t> side = multilevel_bisect(sg, target0, rng);

  std::vector<std::int32_t> set0, set1;
  for (std::int32_t v = 0; v < sg.num_vertices(); ++v)
    (side[v] == 0 ? set0 : set1).push_back(vertices[v]);
  // A pathological bisection (empty side) would loop forever; split evenly.
  if (set0.empty() || set1.empty()) {
    set0.clear();
    set1.clear();
    for (std::size_t i = 0; i < vertices.size(); ++i)
      (i % 2 == 0 ? set0 : set1).push_back(vertices[i]);
  }
  part_recursive(g, set0, k0, part_offset, path * 2 + 1, local, out);
  part_recursive(g, set1, k1, part_offset + k0, path * 2 + 2, local, out);
}

}  // namespace

PartitionResult part_graph_kway(const Graph& g, int nparts,
                                const PartitionOptions& options) {
  DSMCPIC_CHECK_MSG(nparts >= 1, "nparts must be positive");
  const std::int32_t nv = g.num_vertices();
  PartitionResult result;
  result.part.assign(nv, 0);
  if (nparts == 1 || nv == 0) {
    result.cut = 0;
    result.imbalance = 1.0;
    return result;
  }
  std::vector<std::int32_t> all(nv);
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::int32_t> local(nv, -1);
  part_recursive(g, all, nparts, 0, 1, local, result.part);
  if (options.kway_refine_passes > 0)
    kway_refine(g, result.part, nparts, kImbalanceTol,
                options.kway_refine_passes);
  result.cut = edge_cut(g, result.part);
  result.imbalance = imbalance(g, result.part, nparts);
  return result;
}

std::int64_t kway_refine(const Graph& g, std::vector<std::int32_t>& part,
                         int nparts, double imbalance_tol, int passes) {
  DSMCPIC_CHECK(static_cast<std::int32_t>(part.size()) == g.num_vertices());
  const std::int32_t nv = g.num_vertices();
  std::vector<std::int64_t> weight(nparts, 0);
  for (std::int32_t v = 0; v < nv; ++v) weight[part[v]] += g.vertex_weight(v);
  const std::int64_t max_w = static_cast<std::int64_t>(
      static_cast<double>(g.total_vertex_weight()) / nparts * imbalance_tol);

  std::int64_t total_gain = 0;
  std::vector<std::int64_t> conn(nparts, 0);  // edge weight to each part
  std::vector<int> touched;
  for (int pass = 0; pass < passes; ++pass) {
    std::int64_t pass_gain = 0;
    for (std::int32_t v = 0; v < nv; ++v) {
      // Connectivity of v to each adjacent part.
      touched.clear();
      for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const std::int32_t u = g.adjncy[static_cast<std::size_t>(e)];
        if (conn[part[u]] == 0) touched.push_back(part[u]);
        conn[part[u]] += g.edge_weight(e);
      }
      const int from = part[v];
      const std::int64_t wv = g.vertex_weight(v);
      int best = from;
      std::int64_t best_gain = 0;
      for (const int p : touched) {
        if (p == from) continue;
        const std::int64_t gain = conn[p] - conn[from];
        // Move only if it strictly reduces cut and keeps the target in
        // balance (or if the source part is overweight and the move is
        // cut-neutral).
        const bool balance_ok = weight[p] + wv <= max_w;
        const bool relieves = weight[from] > max_w && weight[p] + wv < weight[from];
        if (((gain > best_gain && balance_ok) ||
             (gain >= best_gain && relieves)) &&
            (balance_ok || relieves))
          best = p, best_gain = gain;
      }
      if (best != from) {
        weight[from] -= wv;
        weight[best] += wv;
        part[v] = best;
        pass_gain += best_gain;
      }
      for (const int p : touched) conn[p] = 0;
    }
    total_gain += pass_gain;
    if (pass_gain == 0) break;
  }
  return total_gain;
}

}  // namespace dsmcpic::partition
