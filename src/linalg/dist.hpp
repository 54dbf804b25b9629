#pragma once
// Distributed sparse linear algebra on the virtual-rank runtime.
//
// This is the parallel half of the "PETSc KSP" substitute: each virtual rank
// owns a contiguous set of matrix rows (grid nodes), holds halo copies of
// the off-rank columns its rows touch, and the preconditioned CG recurrence
// runs with one halo exchange and two allreduce rounds per iteration — the
// communication-to-computation ratio that makes Poisson_Solve the paper's
// scalability bottleneck (Table IV) emerges from exactly these messages.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/krylov.hpp"
#include "par/runtime.hpp"
#include "par/scatter.hpp"

namespace dsmcpic::linalg {

/// Row-ownership layout. As a par::ScatterPlan it is the halo exchange:
/// owned values go to the ranks that hold them as halo, into each rank's
/// local vector of local_size (owned, then halo).
struct DistLayout : par::ScatterPlan {
  int nranks = 1;
  std::vector<std::int32_t> owner;  // global row -> owning rank

  std::vector<std::vector<std::int32_t>> owned;  // per rank, sorted global ids
  std::vector<std::vector<std::int32_t>> halo;   // per rank, sorted global ids

  /// Derives the layout from a row->rank map and the sparsity pattern of the
  /// (square) matrix: rank r's halo is every column referenced by its rows
  /// but owned elsewhere.
  static DistLayout build(int nranks, std::span<const std::int32_t> row_owner,
                          const CsrMatrix& pattern);

  std::int32_t num_global() const {
    return static_cast<std::int32_t>(owner.size());
  }
  std::int32_t local_size(int r) const {
    return static_cast<std::int32_t>(owned[r].size() + halo[r].size());
  }
  /// Local index of global row g on rank r (owned first, halo after);
  /// -1 when not present.
  std::int32_t local_index(int r, std::int32_t g) const;
};

/// The distributed matrix: per-rank CSR blocks with columns renumbered into
/// local (owned-then-halo) indices.
struct DistMatrix {
  DistLayout layout;
  std::vector<CsrMatrix> local;  // per rank: rows = #owned, cols = local_size

  /// One owned row's preconditioner data, fixed per layout. Local columns
  /// are sorted and owned columns precede halo ones, so row i's entries are
  /// [cols < i | diagonal | i < cols < #owned | halo cols]; the sweeps read
  /// those ranges in place (no values are copied). One record per row keeps
  /// a sweep's per-row reads on one cache line.
  struct RowFactor {
    std::int64_t lower_end = 0;    // first entry with col >= i
    std::int64_t upper_begin = 0;  // first entry with col > i
    std::int64_t halo_begin = 0;   // first entry with col >= #owned
    double diag = 1.0;             // stored diagonal, 1 where it is zero
    double inv_diag = 1.0;         // 1 / diag
  };
  std::vector<std::vector<RowFactor>> factor;  // per rank, per owned row

  /// The layout's halo exchange, built, checked and priced once per layout.
  par::Scatter halo;

  static DistMatrix build(const CsrMatrix& a, DistLayout layout);
};

/// Per-rank owned-row vectors (b, x).
using DistVector = std::vector<std::vector<double>>;

/// Scatters a global vector into per-rank owned segments / gathers it back.
/// gather_vector throws dsmcpic::Error unless `v` holds one vector per rank.
DistVector scatter_vector(const DistLayout& layout, std::span<const double> v);
std::vector<double> gather_vector(const DistLayout& layout, const DistVector& v);

/// Applies rank `rank`'s local preconditioner z = M^-1 r over its owned
/// rows. For kBlockSsor, M = (D+L) D^-1 (D+U) restricted to owned columns
/// (block Jacobi across ranks); SPD, so CG-safe. `r`, `z` and `scratch`
/// must each hold at least the rank's owned rows (else dsmcpic::Error).
void apply_precon(const DistMatrix& a, int rank, Precon kind,
                  std::span<const double> r, std::span<double> z,
                  std::span<double> scratch);

/// Preconditioned CG across virtual ranks. `x` is the initial guess on
/// input and the solution on output. All communication costs are charged
/// under `phase` on `rt`. Throws dsmcpic::Error unless `b` and `x` hold one
/// vector per rank of the layout.
SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt = {});

/// One halo exchange (two supersteps): the forward insert of a par::Scatter
/// built from `layout`. `local` holds per-rank vectors of local_size (owned
/// then halo); the owned prefix must be filled on entry, the halo suffix is
/// filled on return. Throws dsmcpic::Error when the plans do not fill each
/// halo value exactly once, or `local` or the active rank count does not
/// fit the layout.
void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local);

}  // namespace dsmcpic::linalg
