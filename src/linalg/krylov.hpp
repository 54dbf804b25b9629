#pragma once
// Krylov solver options and the serial CG (the "KSP" substitute, Sec.
// IV-C). The serial CG is the test oracle for the distributed CG in
// dist.hpp, which runs the same recurrence across virtual ranks.

#include <span>

#include "linalg/csr.hpp"

namespace dsmcpic::linalg {

struct SolveResult {
  int iterations = 0;
  double residual = 0.0;  // final relative residual ||r|| / ||b||
  bool converged = false;
};

/// Preconditioner selection for the distributed CG. kBlockSsor applies a
/// symmetric Gauss-Seidel sweep on each rank's owned diagonal block (block
/// Jacobi between ranks — the same flavour as PETSc's default block
/// Jacobi/ILU, and like it, its strength decreases as ranks grow).
enum class Precon { kNone, kJacobi, kBlockSsor };

struct SolveOptions {
  double rel_tol = 1e-8;
  int max_iterations = 1000;
  Precon dist_precon = Precon::kBlockSsor;  // distributed CG
};

/// Jacobi-preconditioned conjugate gradient; A must be symmetric positive
/// (semi-)definite. x is the initial guess on input and the solution on
/// output.
SolveResult cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opt = {});

}  // namespace dsmcpic::linalg
