#pragma once
// Test-only reference Kuhn–Munkres solver, kept as the straightforward
// two-pass loop the grouped scan in src/balance/hungarian.cpp must match:
// every iteration of a row's search scans all free columns, then walks all
// n + 1 columns again to shift the potentials and subtract delta from each
// free column's minv. Same delta and j1 in every iteration, so the same
// assignment, the same operation count and the same bytes of `total`
// (internal values may differ only in the sign of a zero): any divergence
// is a bug in the optimized solver.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "balance/hungarian.hpp"
#include "support/error.hpp"

namespace dsmcpic::balance::reference {

inline AssignmentResult hungarian_min(std::span<const double> cost, int n) {
  DSMCPIC_CHECK(n >= 1);
  DSMCPIC_CHECK(static_cast<std::int64_t>(cost.size()) ==
                static_cast<std::int64_t>(n) * n);
  const double kInf = std::numeric_limits<double>::infinity();

  // Potentials formulation over a (n+1)-sized index space; p[j] is the row
  // matched to column j (0 = dummy). 1-based internally, classic e-maxx form.
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  std::int64_t ops = 0;

  auto c = [&](int i, int j) {  // 1-based accessor
    return cost[static_cast<std::size_t>(i - 1) * n + (j - 1)];
  };

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) continue;
        ++ops;
        const double cur = c(i0, j) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult res;
  res.row_to_col.assign(n, -1);
  for (int j = 1; j <= n; ++j)
    if (p[j] >= 1) res.row_to_col[p[j] - 1] = j - 1;
  for (int i = 0; i < n; ++i) {
    DSMCPIC_CHECK(res.row_to_col[i] >= 0);
    res.total += cost[static_cast<std::size_t>(i) * n + res.row_to_col[i]];
  }
  res.operations = ops;
  return res;
}

inline AssignmentResult hungarian_max(std::span<const double> weight, int n) {
  std::vector<double> neg(weight.size());
  for (std::size_t i = 0; i < weight.size(); ++i) neg[i] = -weight[i];
  AssignmentResult res = hungarian_min(neg, n);
  res.total = -res.total;
  return res;
}

}  // namespace dsmcpic::balance::reference
