#pragma once
// Immutable per-case geometry, shareable across solver instances.
//
// Building a case's meshes is pure: the coarse nozzle grid, its nested red
// refinement, and the precomputed FacePlane/BaryCache tables inside both
// TetMeshes depend only on the NozzleSpec. The fleet service (src/fleet)
// runs many solvers of the same scenario concurrently in one process, so
// these tables are built once and handed to every instance as a
// shared_ptr<const CaseGeometry>. The meshes are immutable after build(), so
// concurrent runs read them without synchronization; one mutex guards the
// Poisson systems poisson() assembles on first request.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "mesh/tetmesh.hpp"
#include "pic/poisson.hpp"

namespace dsmcpic::core {

struct CaseGeometry {
  mesh::NozzleSpec spec;
  mesh::TetMesh coarse;
  mesh::RefinedMesh refined;

  /// Builds the coarse grid + nested refinement for `spec` (what the
  /// CoupledSolver constructor does when no shared geometry is supplied).
  static std::shared_ptr<const CaseGeometry> build(const mesh::NozzleSpec& spec);

  /// The fine grid's FEM Poisson system under `bcs` (paper Sec. III-C), a
  /// pure function of the refined mesh and the boundary values: assembled
  /// on the first request for those values, then shared by every later
  /// caller. Lazy, so mesh-only users never pay for the assembly. Safe to
  /// call from any thread; concurrent first requests assemble once.
  std::shared_ptr<const pic::PoissonSystem> poisson(
      const pic::PoissonBCs& bcs) const;

 private:
  mutable std::mutex poisson_mu_;
  /// Assembled systems keyed by their boundary values (few per geometry).
  mutable std::vector<
      std::pair<pic::PoissonBCs, std::shared_ptr<const pic::PoissonSystem>>>
      poisson_;
};

}  // namespace dsmcpic::core
