#include "partition/geometric.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "support/error.hpp"

namespace dsmcpic::partition {

namespace {

/// An octree node splits while its weight exceeds total/(nparts * this).
constexpr double kLeavesPerPart = 8.0;
/// A node this deep is a leaf whatever its weight.
constexpr int kMaxDepth = 12;

/// Spreads the low 21 bits of v so consecutive bits are 3 apart.
std::uint64_t spread_bits_3(std::uint64_t v) {
  v &= 0x1fffff;  // 21 bits
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

std::uint64_t quantize(double x, double lo, double hi) {
  if (hi <= lo) return 0;
  const double t = std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
  return static_cast<std::uint64_t>(t * 2097151.0);  // 2^21 - 1
}

void bounding_box(std::span<const Vec3> pts, Vec3& lo, Vec3& hi) {
  DSMCPIC_CHECK(!pts.empty());
  lo = hi = pts[0];
  for (const auto& p : pts) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
}

double compute_imbalance(std::span<const std::int32_t> part,
                         std::span<const double> weights, int nparts) {
  std::vector<double> w(nparts, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < part.size(); ++i) {
    w[part[i]] += weights[i];
    total += weights[i];
  }
  const double ideal = total / nparts;
  return ideal > 0.0 ? *std::max_element(w.begin(), w.end()) / ideal : 1.0;
}

/// Greedy weight-balanced slicing of an ordered cell sequence.
std::vector<std::int32_t> slice_by_weight(std::span<const std::int32_t> order,
                                          std::span<const double> weights,
                                          int nparts) {
  double total = 0.0;
  for (const auto i : order) total += weights[i];
  std::vector<std::int32_t> part(order.size(), 0);
  double acc = 0.0;
  int current = 0;
  for (const auto i : order) {
    // Advance to the next part when this one has reached its quota.
    const double quota = total * (current + 1) / nparts;
    if (acc >= quota && current + 1 < nparts) ++current;
    part[i] = current;
    acc += weights[i];
  }
  return part;
}

}  // namespace

std::uint64_t morton_code(const Vec3& p, const Vec3& lo, const Vec3& hi) {
  return spread_bits_3(quantize(p.x, lo.x, hi.x)) |
         (spread_bits_3(quantize(p.y, lo.y, hi.y)) << 1) |
         (spread_bits_3(quantize(p.z, lo.z, hi.z)) << 2);
}

GeometricResult morton_partition(std::span<const Vec3> centroids,
                                 std::span<const double> weights, int nparts) {
  DSMCPIC_CHECK(centroids.size() == weights.size());
  DSMCPIC_CHECK(nparts >= 1);
  DSMCPIC_CHECK(!centroids.empty());

  Vec3 lo, hi;
  bounding_box(centroids, lo, hi);
  std::vector<std::uint64_t> code(centroids.size());
  for (std::size_t i = 0; i < centroids.size(); ++i)
    code[i] = morton_code(centroids[i], lo, hi);

  std::vector<std::int32_t> order(centroids.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&code](std::int32_t a, std::int32_t b) {
    return code[a] != code[b] ? code[a] < code[b] : a < b;
  });

  GeometricResult r;
  r.part = slice_by_weight(order, weights, nparts);
  r.imbalance = compute_imbalance(r.part, weights, nparts);
  return r;
}

GeometricResult octree_partition(std::span<const Vec3> centroids,
                                 std::span<const double> weights, int nparts) {
  DSMCPIC_CHECK(centroids.size() == weights.size());
  DSMCPIC_CHECK(nparts >= 1);
  DSMCPIC_CHECK(!centroids.empty());

  double total = 0.0;
  for (const double w : weights) total += w;
  const double leaf_target =
      total / (static_cast<double>(nparts) * kLeavesPerPart);

  Vec3 root_lo, root_hi;
  bounding_box(centroids, root_lo, root_hi);

  // Recursive octant refinement; leaves emit their cells in octant order,
  // which is exactly Morton order — the octree structure decides the
  // granularity, the greedy packer the assignment (as in CHAOS).
  std::vector<std::int32_t> order;
  order.reserve(centroids.size());

  struct Frame {
    std::vector<std::int32_t> cells;
    Vec3 lo, hi;
    int depth;
  };
  std::vector<Frame> stack;
  {
    Frame root;
    root.cells.resize(centroids.size());
    std::iota(root.cells.begin(), root.cells.end(), 0);
    root.lo = root_lo;
    root.hi = root_hi;
    root.depth = 0;
    stack.push_back(std::move(root));
  }
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    double w = 0.0;
    for (const auto c : f.cells) w += weights[c];
    if (w <= leaf_target || f.depth >= kMaxDepth ||
        f.cells.size() <= 1) {
      // Leaf: emit cells (deterministic order by index).
      std::sort(f.cells.begin(), f.cells.end());
      order.insert(order.end(), f.cells.begin(), f.cells.end());
      continue;
    }
    const Vec3 mid = (f.lo + f.hi) * 0.5;
    std::array<Frame, 8> kids;
    for (int k = 0; k < 8; ++k) {
      kids[k].lo = {(k & 1) ? mid.x : f.lo.x, (k & 2) ? mid.y : f.lo.y,
                    (k & 4) ? mid.z : f.lo.z};
      kids[k].hi = {(k & 1) ? f.hi.x : mid.x, (k & 2) ? f.hi.y : mid.y,
                    (k & 4) ? f.hi.z : mid.z};
      kids[k].depth = f.depth + 1;
    }
    for (const auto c : f.cells) {
      const Vec3& p = centroids[c];
      const int k = (p.x >= mid.x ? 1 : 0) | (p.y >= mid.y ? 2 : 0) |
                    (p.z >= mid.z ? 4 : 0);
      kids[k].cells.push_back(c);
    }
    // Push in reverse so octant 0 is processed first (stack order).
    for (int k = 7; k >= 0; --k)
      if (!kids[k].cells.empty()) stack.push_back(std::move(kids[k]));
  }
  DSMCPIC_CHECK(order.size() == centroids.size());

  GeometricResult r;
  r.part = slice_by_weight(order, weights, nparts);
  r.imbalance = compute_imbalance(r.part, weights, nparts);
  return r;
}

}  // namespace dsmcpic::partition
