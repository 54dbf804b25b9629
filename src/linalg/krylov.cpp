#include "linalg/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::linalg {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

/// Inverse-diagonal entries for Jacobi preconditioning (1 where diag == 0).
std::vector<double> inv_diag(const CsrMatrix& a) {
  std::vector<double> d = a.diagonal();
  for (double& v : d) v = (v != 0.0) ? 1.0 / v : 1.0;
  return d;
}

}  // namespace

SolveResult cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opt) {
  const std::int32_t n = a.rows();
  DSMCPIC_CHECK(a.cols() == n);
  DSMCPIC_CHECK(static_cast<std::int32_t>(b.size()) == n);
  DSMCPIC_CHECK(static_cast<std::int32_t>(x.size()) == n);

  const std::vector<double> minv = inv_diag(a);

  std::vector<double> r(n), z(n), p(n), q(n);
  a.matvec(x, r);
  for (std::int32_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const double bnorm = std::max(norm(b), 1e-300);

  for (std::int32_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
  p = z;
  double rz = dot(r, z);

  SolveResult res;
  res.residual = norm(r) / bnorm;
  if (res.residual <= opt.rel_tol) {
    res.converged = true;
    return res;
  }

  for (int it = 0; it < opt.max_iterations; ++it) {
    a.matvec(p, q);
    const double pq = dot(p, q);
    if (pq == 0.0) break;  // breakdown (singular or zero search direction)
    const double alpha = rz / pq;
    for (std::int32_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    res.iterations = it + 1;
    res.residual = norm(r) / bnorm;
    if (res.residual <= opt.rel_tol) {
      res.converged = true;
      return res;
    }
    for (std::int32_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::int32_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return res;
}

}  // namespace dsmcpic::linalg
