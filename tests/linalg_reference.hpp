#pragma once
// Test-only reference implementations of the linear algebra's hot paths,
// kept as the straightforward versions the optimized ones in src/linalg/
// must match bit for bit:
//   * from_triplets     — CSR assembly sorting the triplets themselves with
//     the two-level (row, col) compare (csr.cpp sorts packed 64-bit keys);
//   * block_ssor_sweep  — the branchy symmetric Gauss-Seidel sweep that
//     walks every entry of every row, with the diagonal re-derived per solve;
//   * PooledHalo        — the halo exchange with real pooled payloads and a
//     linear receive match by sender;
//   * dist_cg           — the CG recurrence built from the two above.
// Same charges, same messages, same floating-point order: any divergence in
// x, iterations, residual or virtual clocks is a bug in the optimized code.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/dist.hpp"
#include "support/error.hpp"

namespace dsmcpic::linalg::reference {

/// The arrays of a CsrMatrix (whose members are private).
struct CsrArrays {
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
};

/// CsrMatrix::from_triplets as it was before it sorted packed keys.
inline CsrArrays from_triplets(std::int32_t rows, std::int32_t cols,
                               std::span<const Triplet> triplets) {
  CsrArrays m;
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  for (const auto& t : sorted) {
    DSMCPIC_CHECK_MSG(t.row >= 0 && t.row < rows, "triplet row out of range");
    DSMCPIC_CHECK_MSG(t.col >= 0 && t.col < cols, "triplet col out of range");
  }
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  m.row_ptr.assign(rows + 1, 0);
  m.col_idx.reserve(sorted.size());
  m.values.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size();) {
    const std::int32_t r = sorted[i].row;
    const std::int32_t c = sorted[i].col;
    double v = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c)
      v += sorted[i++].value;
    m.col_idx.push_back(c);
    m.values.push_back(v);
    ++m.row_ptr[r + 1];
  }
  for (std::int32_t r = 0; r < rows; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  return m;
}

/// Owned-row diagonal with zeros replaced by 1, and its inverse.
inline void guarded_diagonal(const CsrMatrix& a, std::size_t nowned,
                             std::vector<double>& diag,
                             std::vector<double>& inv_diag) {
  diag = a.diagonal();
  diag.resize(nowned);
  inv_diag.resize(nowned);
  for (std::size_t i = 0; i < nowned; ++i) {
    if (diag[i] == 0.0) diag[i] = 1.0;
    inv_diag[i] = 1.0 / diag[i];
  }
}

/// z = M^-1 r on one rank's owned block, testing every entry's column.
inline void block_ssor_sweep(const CsrMatrix& a, std::size_t nowned,
                             Precon kind, std::span<const double> diag,
                             std::span<const double> inv_diag,
                             std::span<const double> r, std::span<double> z,
                             std::vector<double>& scratch) {
  switch (kind) {
    case Precon::kNone:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = r[i];
      return;
    case Precon::kJacobi:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = inv_diag[i] * r[i];
      return;
    case Precon::kBlockSsor:
      break;
  }
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  auto& u = scratch;
  for (std::size_t i = 0; i < nowned; ++i) {
    double s = r[i];
    for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
      const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(e)]);
      if (j < i) s -= vals[static_cast<std::size_t>(e)] * u[j];
    }
    u[i] = s * inv_diag[i];
  }
  for (std::size_t ii = nowned; ii-- > 0;) {
    double s = diag[ii] * u[ii];
    for (std::int64_t e = rp[ii]; e < rp[ii + 1]; ++e) {
      const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(e)]);
      if (j > ii && j < nowned) s -= vals[static_cast<std::size_t>(e)] * z[j];
    }
    z[ii] = s * inv_diag[ii];
  }
}

/// Halo exchange with pooled payloads carrying the values themselves.
struct PooledHalo {
  const DistLayout& l;

  void send(par::Comm& c, std::span<const double> local) const {
    for (const auto& plan : l.send_plan[c.rank()]) {
      auto buf = c.acquire_payload(plan.count * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (std::size_t i = 0; i < plan.count; ++i)
        d[i] = local[l.send_idx[plan.slot + i]];
      c.charge(par::WorkKind::kPackByte, static_cast<double>(buf.size()));
      c.send_owned(plan.peer, 0, std::move(buf), par::CostClass::kGrid);
    }
  }

  void recv(par::Comm& c, std::span<double> local) const {
    const int r = c.rank();
    const std::size_t nowned = l.owned[r].size();
    for (const auto& msg : c.inbox()) {
      const std::span<const double> buf = msg.view<double>();
      const auto it = std::find_if(
          l.recv_plan[r].begin(), l.recv_plan[r].end(),
          [&msg](const DistLayout::Plan& p) { return p.peer == msg.src; });
      DSMCPIC_CHECK(it != l.recv_plan[r].end() && buf.size() == it->count);
      for (std::size_t i = 0; i < buf.size(); ++i)
        local[nowned + static_cast<std::size_t>(l.recv_idx[it->slot + i])] =
            buf[i];
    }
  }
};

/// The distributed CG recurrence of linalg::dist_cg over the references.
inline SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                           const DistMatrix& a, const DistVector& b,
                           DistVector& x, const SolveOptions& opt = {}) {
  const DistLayout& l = a.layout;
  const int nranks = l.nranks;
  DSMCPIC_CHECK(rt.active_ranks() == nranks);
  std::vector<std::vector<double>> rvec(nranks), zvec(nranks), qvec(nranks),
      pvec(nranks), minv(nranks), diag(nranks), scratch(nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto n = l.owned[r].size();
    DSMCPIC_CHECK(b[r].size() == n);
    if (x[r].size() != n) x[r].assign(n, 0.0);
    rvec[r].resize(n);
    zvec[r].resize(n);
    qvec[r].resize(n);
    scratch[r].resize(n);
    pvec[r].assign(static_cast<std::size_t>(l.local_size(r)), 0.0);
    guarded_diagonal(a.local[r], n, diag[r], minv[r]);
  }
  const double precon_flops =
      (opt.dist_precon == Precon::kBlockSsor) ? 4.0 : 1.0;
  auto precondition = [&](int r) {
    block_ssor_sweep(a.local[r], l.owned[r].size(), opt.dist_precon, diag[r],
                     minv[r], rvec[r], zvec[r], scratch[r]);
  };
  std::vector<std::vector<double>> partials(nranks, std::vector<double>(2, 0.0));
  const PooledHalo halo{l};

  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::copy(x[r].begin(), x[r].end(), pvec[r].begin());
    halo.send(c, pvec[r]);
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    halo.recv(c, pvec[r]);
    const auto n = l.owned[r].size();
    a.local[r].matvec(pvec[r], rvec[r]);
    c.charge(par::WorkKind::kSpmvFlop, 2.0 * static_cast<double>(a.local[r].nnz()));
    for (std::size_t i = 0; i < n; ++i) rvec[r][i] = b[r][i] - rvec[r][i];
    precondition(r);
    double rz = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rz += rvec[r][i] * zvec[r][i];
      bb += b[r][i] * b[r][i];
    }
    c.charge(par::WorkKind::kVecFlop, 5.0 * static_cast<double>(n));
    c.charge(par::WorkKind::kSpmvFlop,
             precon_flops * static_cast<double>(a.local[r].nnz()));
    partials[r][0] = rz;
    partials[r][1] = bb;
  });
  auto sums = rt.allreduce_sum_vec(phase, partials);
  double rz = sums[0];
  const double bnorm = std::sqrt(std::max(sums[1], 1e-300));
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::copy(zvec[r].begin(), zvec[r].end(), pvec[r].begin());
    halo.send(c, pvec[r]);
  });

  SolveResult res;
  for (int r = 0; r < nranks; ++r) {
    double rr = 0.0;
    for (double v : rvec[r]) rr += v * v;
    partials[r][0] = rr;
    partials[r][1] = 0.0;
  }
  res.residual = std::sqrt(rt.allreduce_sum_vec(phase, partials)[0]) / bnorm;
  if (res.residual <= opt.rel_tol) {
    res.converged = true;
    return res;
  }
  for (int it = 0; it < opt.max_iterations; ++it) {
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      halo.recv(c, pvec[r]);
      a.local[r].matvec(pvec[r], qvec[r]);
      c.charge(par::WorkKind::kSpmvFlop,
               2.0 * static_cast<double>(a.local[r].nnz()));
      double pq = 0.0;
      for (std::size_t i = 0; i < l.owned[r].size(); ++i)
        pq += pvec[r][i] * qvec[r][i];
      c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(l.owned[r].size()));
      partials[r][0] = pq;
      partials[r][1] = 0.0;
    });
    const double pq = rt.allreduce_sum_vec(phase, partials)[0];
    if (pq == 0.0) break;
    const double alpha = rz / pq;
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      const auto n = l.owned[r].size();
      for (std::size_t i = 0; i < n; ++i) {
        x[r][i] += alpha * pvec[r][i];
        rvec[r][i] -= alpha * qvec[r][i];
      }
      precondition(r);
      double rz_new = 0.0, rr = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        rz_new += rvec[r][i] * zvec[r][i];
        rr += rvec[r][i] * rvec[r][i];
      }
      c.charge(par::WorkKind::kVecFlop, 8.0 * static_cast<double>(n));
      c.charge(par::WorkKind::kSpmvFlop,
               precon_flops * static_cast<double>(a.local[r].nnz()));
      partials[r][0] = rz_new;
      partials[r][1] = rr;
    });
    sums = rt.allreduce_sum_vec(phase, partials);
    const double rz_new = sums[0];
    res.iterations = it + 1;
    res.residual = std::sqrt(sums[1]) / bnorm;
    if (res.residual <= opt.rel_tol) {
      res.converged = true;
      return res;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      const auto n = l.owned[r].size();
      for (std::size_t i = 0; i < n; ++i)
        pvec[r][i] = zvec[r][i] + beta * pvec[r][i];
      c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(n));
      halo.send(c, pvec[r]);
    });
  }
  return res;
}

}  // namespace dsmcpic::linalg::reference
