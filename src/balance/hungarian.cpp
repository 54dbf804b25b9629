#include "balance/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace dsmcpic::balance {

AssignmentResult hungarian_min(std::span<const double> cost, int n) {
  DSMCPIC_CHECK(n >= 1);
  DSMCPIC_CHECK(static_cast<std::int64_t>(cost.size()) ==
                static_cast<std::int64_t>(n) * n);
  // A row of +inf leaves no column below delta, and NaN or -inf poisons
  // the potentials: refuse them before the search.
  DSMCPIC_CHECK_MSG(std::all_of(cost.begin(), cost.end(),
                                [](double x) { return std::isfinite(x); }),
                    "assignment costs must be finite");
  const double kInf = std::numeric_limits<double>::infinity();

  // Potentials formulation over a (n+1)-sized index space; p[j] is the row
  // matched to column j (0 = dummy). 1-based internally, classic e-maxx form.
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  std::vector<double> minv(n + 1);
  std::vector<char> used(n + 1);
  std::vector<int> used_cols;  // the row's used columns, dummy first
  used_cols.reserve(n + 1);
  std::int64_t ops = 0;

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    used_cols.clear();
    // One pass per iteration: the classic loop's `minv[j] -= delta` on every
    // free column after the scan is applied as the next scan reads it. Same
    // operands in the same order before the same compare, so every minv
    // that is read has the classic loop's bits; the subtractions this skips
    // (the newly used column's, and the row's last) are never read.
    double prev_delta = 0.0;
    do {
      used[j0] = 1;
      used_cols.push_back(j0);
      const int i0 = p[j0];
      const double* row = cost.data() + static_cast<std::size_t>(i0 - 1) * n;
      const double ui0 = u[i0];
      // The argmin runs in four interleaved lanes, each keeping its first
      // (smallest j) strict minimum; the merge takes the smallest j on a
      // tie, which is what one ascending strict-< scan returns.
      double lane_min[4] = {kInf, kInf, kInf, kInf};
      int lane_j[4] = {-1, -1, -1, -1};
      auto visit = [&](int j, int lane) {
        if (used[j]) return;
        double m = minv[j] - prev_delta;
        const double cur = row[j - 1] - ui0 - v[j];
        if (cur < m) {
          m = cur;
          way[j] = j0;
        }
        minv[j] = m;
        if (m < lane_min[lane]) {
          lane_min[lane] = m;
          lane_j[lane] = j;
        }
      };
      int j = 1;
      for (; j + 3 <= n; j += 4) {
        visit(j, 0);
        visit(j + 1, 1);
        visit(j + 2, 2);
        visit(j + 3, 3);
      }
      for (; j <= n; ++j) visit(j, 0);
      double delta = lane_min[0];
      int j1 = lane_j[0];
      for (int lane = 1; lane < 4; ++lane)
        if (lane_min[lane] < delta ||
            (lane_min[lane] == delta && lane_j[lane] < j1)) {
          delta = lane_min[lane];
          j1 = lane_j[lane];
        }
      ops += n + 1 - static_cast<std::int64_t>(used_cols.size());
      DSMCPIC_CHECK(j1 > 0);
      for (const int col : used_cols) {  // distinct rows: order-free
        u[p[col]] += delta;
        v[col] -= delta;
      }
      prev_delta = delta;
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

AssignmentResult hungarian_max(std::span<const double> weight, int n) {
  std::vector<double> neg(weight.size());
  for (std::size_t i = 0; i < weight.size(); ++i) neg[i] = -weight[i];
  AssignmentResult res = hungarian_min(neg, n);
  res.total = -res.total;
  return res;
}

}  // namespace dsmcpic::balance
