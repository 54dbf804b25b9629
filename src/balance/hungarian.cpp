#include "balance/hungarian.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace dsmcpic::balance {
namespace {

// A free column is clean while every row scanned in this search holds a zero
// at it; clean columns of equal v then see the same operands, so one state
// per v value (a group) stands for all of them. A nonzero entry splits its
// column off: from then on it keeps its own (minv, way).
constexpr char kClean = 0, kSplit = 1, kUsed = 2;

// The zero a clean column's cost is taken as: hungarian_max's negated empty
// overlaps. A +0.0 entry gives the same values up to the sign of a zero,
// which no comparison sees.
constexpr double kZero = -0.0;

}  // namespace

// The classic e-maxx loop (tests/hungarian_reference.hpp) scans every free
// column per Dijkstra iteration. This one visits only the states that can
// change: the scanned row's nonzero entries, one state per group, and the
// split-off columns a group's zero lowers. Every delta and j1, and so the
// assignment and the operation count, equal the classic loop's.
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

  // Each row's nonzero costs, by ascending (1-based) column.
  std::vector<std::size_t> row_begin(n + 2, 0);
  std::vector<int> nz_col;
  std::vector<double> nz_cost;
  for (int i = 1; i <= n; ++i) {
    const double* row = cost.data() + static_cast<std::size_t>(i - 1) * n;
    for (int j = 1; j <= n; ++j)
      if (row[j - 1] != 0.0) {
        nz_col.push_back(j);
        nz_cost.push_back(row[j - 1]);
      }
    row_begin[i + 1] = nz_col.size();
  }

  // Potentials over a (n+1)-sized index space; p[j] is the row matched to
  // column j (0 = dummy). 1-based internally, classic e-maxx form. u and v
  // start at +0.0 and never become -0.0, so a zero delta leaves their bits.
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  std::vector<char> state(n + 1);
  std::vector<int> group_of(n + 1);

  // Groups, rebuilt per search: group g's columns are members[begin, end)
  // in ascending order, `first` is its smallest clean one (end if none),
  // and its split-off free columns form a max-heap by minv in
  // split[begin, begin + nsplit). A row's zero, at value cur, changes group
  // g only if cur < reach[g], the largest minv among its states (-inf once
  // it has no free column).
  struct Group {
    int way, begin, end, first, nsplit;
  };
  std::vector<Group> groups(n);
  std::vector<double> group_v(n), reach(n);
  std::vector<int> members(n), split(n), split_pos(n + 1);

  // minv by state id: id j in [1, n] is split-off column j, id n + 1 + g is
  // group g's clean state.
  const int gbase = n + 1;
  std::vector<double> minv(2 * static_cast<std::size_t>(n) + 1);

  // One indexed min-heap over the free states, by (minv, column): a group
  // ranks by its smallest clean column. Its top is delta and j1. Entries
  // carry a copy of their state's minv, so a sift reads one array.
  struct Entry {
    double key;
    int col, id;
  };
  std::vector<Entry> heap;
  std::vector<int> heap_pos(2 * static_cast<std::size_t>(n) + 1);
  heap.reserve(2 * static_cast<std::size_t>(n));

  auto less = [](const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.col < b.col);
  };
  auto heap_set = [&](std::size_t k, const Entry& e) {
    heap[k] = e;
    heap_pos[e.id] = static_cast<int>(k);
  };
  auto sift_up = [&](std::size_t k) {
    const Entry e = heap[k];
    while (k > 0 && less(e, heap[(k - 1) / 2])) {
      heap_set(k, heap[(k - 1) / 2]);
      k = (k - 1) / 2;
    }
    heap_set(k, e);
  };
  auto sift_down = [&](std::size_t k) {
    const Entry e = heap[k];
    for (;;) {
      std::size_t c = 2 * k + 1;
      if (c >= heap.size()) break;
      if (c + 1 < heap.size() && less(heap[c + 1], heap[c])) ++c;
      if (!less(heap[c], e)) break;
      heap_set(k, heap[c]);
      k = c;
    }
    heap_set(k, e);
  };
  auto heap_push = [&](int id, int col) {
    heap.push_back(Entry{minv[id], col, id});
    sift_up(heap.size() - 1);
  };
  auto heap_lower = [&](int id) {  // after minv[id] fell
    const auto k = static_cast<std::size_t>(heap_pos[id]);
    heap[k].key = minv[id];
    sift_up(k);
  };
  auto heap_erase = [&](int id) {
    const auto k = static_cast<std::size_t>(heap_pos[id]);
    const Entry last = heap.back();
    heap.pop_back();
    if (k == heap.size()) return;
    heap_set(k, last);
    sift_up(k);
    sift_down(static_cast<std::size_t>(heap_pos[last.id]));
  };

  auto split_set = [&](const Group& gr, int k, int col) {
    split[gr.begin + k] = col;
    split_pos[col] = k;
  };
  auto split_up = [&](const Group& gr, int k) {
    const int col = split[gr.begin + k];
    while (k > 0 && minv[split[gr.begin + (k - 1) / 2]] < minv[col]) {
      split_set(gr, k, split[gr.begin + (k - 1) / 2]);
      k = (k - 1) / 2;
    }
    split_set(gr, k, col);
  };
  auto split_down = [&](const Group& gr, int k) {
    const int col = split[gr.begin + k];
    for (;;) {
      int c = 2 * k + 1;
      if (c >= gr.nsplit) break;
      if (c + 1 < gr.nsplit &&
          minv[split[gr.begin + c]] < minv[split[gr.begin + c + 1]])
        ++c;
      if (!(minv[col] < minv[split[gr.begin + c]])) break;
      split_set(gr, k, split[gr.begin + c]);
      k = c;
    }
    split_set(gr, k, col);
  };
  auto split_push = [&](Group& gr, int col) {
    split_set(gr, gr.nsplit, col);
    split_up(gr, gr.nsplit++);
  };
  auto split_erase = [&](Group& gr, int col) {
    const int k = split_pos[col];
    const int last = split[gr.begin + --gr.nsplit];
    if (k == gr.nsplit) return;
    split_set(gr, k, last);
    split_up(gr, k);
    split_down(gr, split_pos[last]);
  };

  auto update_reach = [&](int g) {
    const Group& gr = groups[g];
    reach[g] = std::max(gr.first < gr.end ? minv[gbase + g] : -kInf,
                        gr.nsplit > 0 ? minv[split[gr.begin]] : -kInf);
  };

  // Moves group g's `first` past columns that stopped being clean, and
  // re-ranks or retires its heap entry.
  auto advance_first = [&](int g) {
    Group& gr = groups[g];
    while (gr.first < gr.end && state[members[gr.first]] != kClean) ++gr.first;
    if (gr.first == gr.end) {
      heap_erase(gbase + g);
    } else {
      const auto k = static_cast<std::size_t>(heap_pos[gbase + g]);
      heap[k].col = members[gr.first];
      sift_down(k);
    }
  };

  // Groups by v, through an open-addressing table keyed by v's bits (v is
  // never -0.0, so equal bits are equal values). A slot belongs to search i
  // when stamp == i, so the table is never cleared.
  int table_bits = 1;
  while ((1 << table_bits) < 2 * n) ++table_bits;
  const int table_mask = (1 << table_bits) - 1;
  std::vector<std::uint64_t> slot_key(table_mask + 1);
  std::vector<int> slot_group(table_mask + 1), slot_stamp(table_mask + 1, 0);

  // The search's used columns, dummy first, with their rows' u and their
  // own v held in join order. Those are read only as the column joins (its
  // row is scanned next) and shifted by every later nonzero delta, so they
  // are shifted here, contiguously, and written back when the search ends.
  std::vector<int> used_cols;
  std::vector<double> used_u, used_v;
  used_cols.reserve(n + 1);
  used_u.reserve(n + 1);
  used_v.reserve(n + 1);
  std::vector<int> touched;  // columns the scanned row's nonzeros updated
  std::int64_t ops = 0;

  for (int i = 1; i <= n; ++i) {
    int ngroups = 0;
    for (int j = 1; j <= n; ++j) {
      const auto bits = std::bit_cast<std::uint64_t>(v[j]);
      auto h = static_cast<int>((bits * 0x9e3779b97f4a7c15ULL) >>
                                (64 - table_bits));
      while (slot_stamp[h] == i && slot_key[h] != bits) h = (h + 1) & table_mask;
      if (slot_stamp[h] != i) {
        slot_stamp[h] = i;
        slot_key[h] = bits;
        slot_group[h] = ngroups;
        group_v[ngroups] = v[j];
        groups[ngroups++] = Group{0, 0, 0, 0, 0};
      }
      group_of[j] = slot_group[h];
      ++groups[slot_group[h]].end;  // a count until the prefix sum below
    }
    for (int g = 0, begin = 0; g < ngroups; ++g) {
      Group& gr = groups[g];
      gr.begin = gr.first = begin;
      begin += gr.end;
      gr.end = gr.begin;  // a fill cursor until the loop below
    }
    for (int j = 1; j <= n; ++j) {
      members[groups[group_of[j]].end++] = j;
      state[j] = kClean;
    }
    // Groups are numbered by their smallest column, so with every minv at
    // +inf the groups in that order already form the heap.
    heap.clear();
    for (int g = 0; g < ngroups; ++g) {
      minv[gbase + g] = reach[g] = kInf;
      heap.push_back(Entry{kInf, members[groups[g].begin], gbase + g});
      heap_pos[gbase + g] = g;
    }

    p[0] = i;
    int j0 = 0;
    used_cols.assign(1, 0);
    used_u.assign(1, u[i]);
    used_v.assign(1, v[0]);
    for (;;) {
      const int i0 = p[j0];
      const double ui0 = u[i0];
      ops += n + 1 - static_cast<std::int64_t>(used_cols.size());

      // The row's nonzeros. A clean column splits off with its group's
      // state from before this row; a split one leaves its group's heap
      // until the row's zeros are applied.
      touched.clear();
      for (std::size_t k = row_begin[i0]; k < row_begin[i0 + 1]; ++k) {
        const int j = nz_col[k];
        if (state[j] == kUsed) continue;
        const int g = group_of[j];
        if (state[j] == kClean) {
          state[j] = kSplit;
          minv[j] = minv[gbase + g];
          way[j] = groups[g].way;
          if (j == members[groups[g].first]) advance_first(g);
          heap_push(j, j);
        } else {
          split_erase(groups[g], j);
        }
        update_reach(g);
        const double cur = nz_cost[k] - ui0 - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
          heap_lower(j);
        }
        touched.push_back(j);
      }

      // The row's zeros: one update per group for its clean columns, and
      // its split-off columns above the group's value drop to it.
      const double zero_minus_u = kZero - ui0;
      for (int g = 0; g < ngroups; ++g) {
        const double cur = zero_minus_u - group_v[g];
        if (!(cur < reach[g])) continue;
        Group& gr = groups[g];
        if (gr.first < gr.end && cur < minv[gbase + g]) {
          minv[gbase + g] = cur;
          gr.way = j0;
          heap_lower(gbase + g);
        }
        while (gr.nsplit > 0 && cur < minv[split[gr.begin]]) {
          const int col = split[gr.begin];
          minv[col] = cur;
          way[col] = j0;
          split_down(gr, 0);
          heap_lower(col);
        }
        update_reach(g);
      }
      for (const int j : touched) {
        split_push(groups[group_of[j]], j);
        update_reach(group_of[j]);
      }

      DSMCPIC_CHECK(!heap.empty());
      const Entry top = heap[0];
      const double delta = top.key;
      const int j1 = top.col;
      const int g1 = group_of[j1];
      state[j1] = kUsed;
      if (top.id >= gbase) {
        way[j1] = groups[g1].way;  // the augmenting path reads it
        advance_first(g1);
      } else {
        heap_erase(j1);
        split_erase(groups[g1], j1);
      }
      update_reach(g1);
      // A zero delta changes no potential's bits and no minv but the sign
      // of a zero, so only a nonzero one is applied. Subtracting it keeps
      // every order, and so every heap, but may tie two keys; the global
      // heap is rebuilt only if a tie put a child before its parent.
      if (delta != 0.0) {
        for (std::size_t k = 0; k < used_u.size(); ++k) {
          used_u[k] += delta;
          used_v[k] -= delta;
        }
        bool tied = false;
        for (std::size_t k = 0; k < heap.size(); ++k) {
          minv[heap[k].id] = heap[k].key -= delta;
          tied = tied || (k > 0 && less(heap[k], heap[(k - 1) / 2]));
        }
        if (tied)
          for (std::size_t k = heap.size() / 2; k-- > 0;) sift_down(k);
        for (int g = 0; g < ngroups; ++g) reach[g] -= delta;
      }
      used_cols.push_back(j1);
      used_u.push_back(u[p[j1]]);
      used_v.push_back(v[j1]);
      j0 = j1;
      if (p[j0] == 0) break;
    }
    for (std::size_t k = 0; k < used_cols.size(); ++k) {
      u[p[used_cols[k]]] = used_u[k];
      v[used_cols[k]] = used_v[k];
    }
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
