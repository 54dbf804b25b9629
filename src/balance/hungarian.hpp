#pragma once
// Kuhn–Munkres (Hungarian) algorithm for the assignment problem, used to
// remap re-decomposed grid parts onto ranks with maximum overlap — i.e.
// minimum particle migration (paper Sec. V-C, Fig. 6). O(n^3) potentials
// formulation (Jonker–Volgenant style). Each Dijkstra iteration touches
// only the column states that can change, so a sparse overlap matrix (a
// few nonzeros per row) costs far less than its n^3 operation count.

#include <cstdint>
#include <span>
#include <vector>

namespace dsmcpic::balance {

struct AssignmentResult {
  std::vector<int> row_to_col;  // size n; row i assigned to column row_to_col[i]
  double total = 0.0;           // total weight/cost of the assignment
  std::int64_t operations = 0;  // free columns per Dijkstra iteration, summed
                                // (the classic loop's inner operations)
};

/// Minimum-cost perfect assignment on an n x n row-major cost matrix.
AssignmentResult hungarian_min(std::span<const double> cost, int n);

/// Maximum-weight perfect assignment (the grid-remapping objective).
AssignmentResult hungarian_max(std::span<const double> weight, int n);

}  // namespace dsmcpic::balance
