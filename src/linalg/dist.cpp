#include "linalg/dist.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace dsmcpic::linalg {

DistLayout DistLayout::build(int nranks, std::span<const std::int32_t> row_owner,
                             const CsrMatrix& pattern) {
  DSMCPIC_CHECK(pattern.rows() == pattern.cols());
  DSMCPIC_CHECK(static_cast<std::int32_t>(row_owner.size()) == pattern.rows());

  DistLayout l;
  l.nranks = nranks;
  l.owner.assign(row_owner.begin(), row_owner.end());
  l.owned.resize(nranks);
  l.halo.resize(nranks);

  for (std::int32_t g = 0; g < pattern.rows(); ++g) {
    DSMCPIC_CHECK_MSG(row_owner[g] >= 0 && row_owner[g] < nranks,
                      "row " << g << " has invalid owner " << row_owner[g]);
    l.owned[row_owner[g]].push_back(g);  // ascending by construction
  }

  // Halo: off-rank columns referenced by owned rows.
  const auto& rp = pattern.row_ptr();
  const auto& ci = pattern.col_idx();
  std::vector<std::vector<std::int32_t>> halo_sets(nranks);
  for (int r = 0; r < nranks; ++r) {
    auto& hs = halo_sets[r];
    for (std::int32_t g : l.owned[r])
      for (std::int64_t e = rp[g]; e < rp[g + 1]; ++e) {
        const std::int32_t c = ci[static_cast<std::size_t>(e)];
        if (row_owner[c] != r) hs.push_back(c);
      }
    std::sort(hs.begin(), hs.end());
    hs.erase(std::unique(hs.begin(), hs.end()), hs.end());
    l.halo[r] = hs;
  }

  // One message per (owner, halo rank) pair; its values follow the
  // receiver's halo order.
  std::vector<std::size_t> sizes;
  std::vector<par::ScatterPlan::Entry> entries;
  for (int r = 0; r < nranks; ++r) {
    sizes.push_back(static_cast<std::size_t>(l.local_size(r)));
    for (std::size_t h = 0; h < l.halo[r].size(); ++h) {
      const std::int32_t g = l.halo[r][h];
      entries.push_back({row_owner[g], r, l.local_index(row_owner[g], g),
                         static_cast<std::int32_t>(l.owned[r].size() + h)});
    }
  }
  static_cast<par::ScatterPlan&>(l) =
      par::ScatterPlan::build(std::move(sizes), std::move(entries));
  return l;
}

std::int32_t DistLayout::local_index(int r, std::int32_t g) const {
  const auto& o = owned[r];
  auto it = std::lower_bound(o.begin(), o.end(), g);
  if (it != o.end() && *it == g)
    return static_cast<std::int32_t>(it - o.begin());
  const auto& h = halo[r];
  it = std::lower_bound(h.begin(), h.end(), g);
  if (it != h.end() && *it == g)
    return static_cast<std::int32_t>(o.size() + (it - h.begin()));
  return -1;
}

namespace {

// The layout's halo scatter. Throws dsmcpic::Error unless the receives fill
// exactly each rank's halo: as many values as it holds (the scatter refuses
// one filled twice), none into an owned entry.
par::Scatter halo_scatter(const DistLayout& l) {
  par::Scatter s(l);
  DSMCPIC_CHECK(l.sizes.size() == static_cast<std::size_t>(l.nranks));
  for (int r = 0; r < l.nranks; ++r) {
    std::size_t named = 0;
    for (const DistLayout::Plan& m : l.recv_plan[r])
      for (std::size_t i = m.slot; i < m.slot + m.count; ++i, ++named)
        DSMCPIC_CHECK_MSG(
            static_cast<std::size_t>(l.recv_idx[i]) >= l.owned[r].size(),
            "rank " << r << " receives halo into owned entry " << l.recv_idx[i]);
    DSMCPIC_CHECK_MSG(named == l.halo[r].size() &&
                          l.sizes[r] == static_cast<std::size_t>(l.local_size(r)),
                      "rank " << r << " receives " << named << " values for "
                              << l.halo[r].size() << " halo values");
  }
  return s;
}

}  // namespace

DistMatrix DistMatrix::build(const CsrMatrix& a, DistLayout layout) {
  DistMatrix dm;
  dm.layout = std::move(layout);
  const DistLayout& l = dm.layout;
  dm.local.resize(l.nranks);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  for (int r = 0; r < l.nranks; ++r) {
    std::vector<Triplet> trips;
    for (std::size_t row = 0; row < l.owned[r].size(); ++row) {
      const std::int32_t g = l.owned[r][row];
      for (std::int64_t e = rp[g]; e < rp[g + 1]; ++e) {
        const std::int32_t c = ci[static_cast<std::size_t>(e)];
        const std::int32_t lc = l.local_index(r, c);
        DSMCPIC_CHECK_MSG(lc >= 0, "column " << c << " missing from rank " << r
                                             << " local numbering");
        trips.push_back({static_cast<std::int32_t>(row), lc,
                         vals[static_cast<std::size_t>(e)]});
      }
    }
    dm.local[r] = CsrMatrix::from_triplets(
        static_cast<std::int32_t>(l.owned[r].size()), l.local_size(r), trips);
  }

  dm.factor.resize(l.nranks);
  for (int r = 0; r < l.nranks; ++r) {
    const CsrMatrix& m = dm.local[r];
    const auto& lrp = m.row_ptr();
    const auto& lci = m.col_idx();
    const auto& lv = m.values();
    const auto nowned = static_cast<std::int32_t>(l.owned[r].size());
    dm.factor[r].resize(static_cast<std::size_t>(nowned));
    for (std::int32_t i = 0; i < nowned; ++i) {
      const auto row = lci.begin() + lrp[i];
      const auto row_end = lci.begin() + lrp[i + 1];
      const auto lo = std::lower_bound(row, row_end, i);
      const auto up = std::upper_bound(lo, row_end, i);
      DistMatrix::RowFactor& f = dm.factor[r][static_cast<std::size_t>(i)];
      f.lower_end = lo - lci.begin();
      f.upper_begin = up - lci.begin();
      f.halo_begin = std::lower_bound(up, row_end, nowned) - lci.begin();
      // Local row diag is complete (diagonal entries live on the owner).
      const double d = (lo != up) ? lv[static_cast<std::size_t>(lo - lci.begin())]
                                  : 0.0;
      f.diag = (d == 0.0) ? 1.0 : d;
      f.inv_diag = 1.0 / f.diag;
    }
  }
  dm.halo = halo_scatter(l);
  return dm;
}

DistVector scatter_vector(const DistLayout& layout, std::span<const double> v) {
  DSMCPIC_CHECK(static_cast<std::int32_t>(v.size()) == layout.num_global());
  DistVector out(layout.nranks);
  for (int r = 0; r < layout.nranks; ++r) {
    out[r].resize(layout.owned[r].size());
    for (std::size_t i = 0; i < layout.owned[r].size(); ++i)
      out[r][i] = v[layout.owned[r][i]];
  }
  return out;
}

std::vector<double> gather_vector(const DistLayout& layout, const DistVector& v) {
  DSMCPIC_CHECK_MSG(static_cast<int>(v.size()) == layout.nranks,
                    "gather of a " << layout.nranks << "-rank layout given "
                                   << v.size() << " rank vectors");
  std::vector<double> out(layout.num_global(), 0.0);
  for (int r = 0; r < layout.nranks; ++r) {
    DSMCPIC_CHECK(v[r].size() >= layout.owned[r].size());
    for (std::size_t i = 0; i < layout.owned[r].size(); ++i)
      out[layout.owned[r][i]] = v[r][i];
  }
  return out;
}

void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local) {
  halo_scatter(layout).forward_insert(rt, phase, local);
}

void apply_precon(const DistMatrix& a, int rank, Precon kind,
                  std::span<const double> r, std::span<double> z,
                  std::span<double> scratch) {
  DSMCPIC_CHECK_MSG(rank >= 0 && rank < static_cast<int>(a.factor.size()),
                    "preconditioner of rank " << rank << " of "
                                              << a.factor.size());
  const std::vector<DistMatrix::RowFactor>& f = a.factor[rank];
  const std::size_t nowned = f.size();
  DSMCPIC_CHECK_MSG(r.size() >= nowned && z.size() >= nowned &&
                        scratch.size() >= nowned,
                    "rank " << rank << " owns " << nowned
                            << " rows; preconditioner spans hold r "
                            << r.size() << ", z " << z.size()
                            << ", scratch " << scratch.size());
  switch (kind) {
    case Precon::kNone:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = r[i];
      return;
    case Precon::kJacobi:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = f[i].inv_diag * r[i];
      return;
    case Precon::kBlockSsor:
      break;
  }
  const auto& ci = a.local[rank].col_idx();
  const auto& vals = a.local[rank].values();
  const auto& rp = a.local[rank].row_ptr();
  const std::span<double> u = scratch;
  // Forward solve (D+L) u = r over owned columns only.
  for (std::size_t i = 0; i < nowned; ++i) {
    double s = r[i];
    for (std::int64_t e = rp[i]; e < f[i].lower_end; ++e)
      s -= vals[static_cast<std::size_t>(e)] *
           u[static_cast<std::size_t>(ci[static_cast<std::size_t>(e)])];
    u[i] = s * f[i].inv_diag;
  }
  // Backward solve (D+U) z = D u over owned columns only.
  for (std::size_t i = nowned; i-- > 0;) {
    double s = f[i].diag * u[i];
    for (std::int64_t e = f[i].upper_begin; e < f[i].halo_begin; ++e)
      s -= vals[static_cast<std::size_t>(e)] *
           z[static_cast<std::size_t>(ci[static_cast<std::size_t>(e)])];
    z[i] = s * f[i].inv_diag;
  }
}

SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt) {
  const DistLayout& l = a.layout;
  const int nranks = l.nranks;
  DSMCPIC_CHECK(rt.active_ranks() == nranks);
  DSMCPIC_CHECK_MSG(static_cast<int>(b.size()) == nranks &&
                        static_cast<int>(x.size()) == nranks,
                    "CG of a " << nranks << "-rank layout given " << b.size()
                               << " right-hand-side and " << x.size()
                               << " solution rank vectors");

  // Per-rank state: owned-sized r, z, q, x; local-sized p (owned + halo).
  std::vector<std::vector<double>> rvec(nranks), zvec(nranks), qvec(nranks),
      pvec(nranks), scratch(nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto n = l.owned[r].size();
    DSMCPIC_CHECK(b[r].size() == n);
    if (x[r].size() != n) x[r].assign(n, 0.0);
    rvec[r].resize(n);
    zvec[r].resize(n);
    qvec[r].resize(n);
    scratch[r].resize(n);
    pvec[r].assign(static_cast<std::size_t>(l.local_size(r)), 0.0);
  }
  const double precon_flops =
      (opt.dist_precon == Precon::kBlockSsor) ? 4.0 : 1.0;
  auto precondition = [&](int r) {
    apply_precon(a, r, opt.dist_precon, rvec[r], zvec[r], scratch[r]);
  };

  std::vector<std::vector<double>> partials(nranks, std::vector<double>(2, 0.0));

  // Halo of pvec: the send piggybacks on whichever superstep produced the
  // new p (one superstep saved per CG iteration — the runtime's closure
  // dispatch is the simulator's hot path at 1536 virtual ranks).
  const par::Scatter& halo = a.halo;

  // r = b - A x  (x is the initial guess): needs one halo exchange of x.
  rt.superstep(
      phase,
      [&](par::Comm& c) {
        const int r = c.rank();
        std::copy(x[r].begin(), x[r].end(), pvec[r].begin());
        halo.forward_pack(c, pvec[r]);
      },
      halo.forward_round());
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    halo.forward_unpack(r, pvec[r]);
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

  // p = z, and ship its halo for the first iteration.
  rt.superstep(
      phase,
      [&](par::Comm& c) {
        const int r = c.rank();
        std::copy(zvec[r].begin(), zvec[r].end(), pvec[r].begin());
        halo.forward_pack(c, pvec[r]);
      },
      halo.forward_round());

  SolveResult res;
  // With Jacobi M, ||r||_M ~ ||r||; track true ||r|| via an extra partial.
  auto rnorm = [&]() {
    for (int r = 0; r < nranks; ++r) {
      double rr = 0.0;
      for (double v : rvec[r]) rr += v * v;
      partials[r][0] = rr;
      partials[r][1] = 0.0;
    }
    auto s = rt.allreduce_sum_vec(phase, partials);
    return std::sqrt(s[0]);
  };
  res.residual = rnorm() / bnorm;
  if (res.residual <= opt.rel_tol) {
    res.converged = true;
    return res;
  }

  for (int it = 0; it < opt.max_iterations; ++it) {
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      halo.forward_unpack(r, pvec[r]);
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
    rt.superstep(
        phase,
        [&](par::Comm& c) {
          const int r = c.rank();
          const auto n = l.owned[r].size();
          for (std::size_t i = 0; i < n; ++i)
            pvec[r][i] = zvec[r][i] + beta * pvec[r][i];
          c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(n));
          halo.forward_pack(c, pvec[r]);
        },
        halo.forward_round());
  }
  return res;
}

}  // namespace dsmcpic::linalg
