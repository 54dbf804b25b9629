#pragma once
// Fine-grid helper: wraps the nested PIC mesh (8 children per coarse DSMC
// cell, paper Fig. 2) with parent-aware point location and the linear-FEM
// basis gradients used for deposition, field evaluation and assembly.

#include <array>
#include <cstdint>
#include <span>

#include "mesh/refine.hpp"
#include "mesh/tetmesh.hpp"

namespace dsmcpic::pic {

/// A fine tet's four nodes (in TetMesh::tet order) as "slots": positions in
/// one rank's ascending node list, which index that rank's compact nodal
/// vectors (potential, deposited charge).
using TetSlots = std::array<std::int32_t, 4>;

class FineGrid {
 public:
  FineGrid(const mesh::TetMesh& coarse, const mesh::RefinedMesh& refined)
      : coarse_(&coarse), fine_(&refined.mesh) {}

  const mesh::TetMesh& coarse() const { return *coarse_; }
  const mesh::TetMesh& fine() const { return *fine_; }

  std::int32_t parent_of(std::int32_t fine_cell) const { return fine_cell / 8; }
  std::int32_t first_child(std::int32_t coarse_cell) const {
    return coarse_cell * 8;
  }

  /// Locates the fine cell containing p, given its coarse cell: tries the 8
  /// nested children, then falls back to a walk on the fine mesh. Returns -1
  /// only if p is genuinely outside.
  std::int32_t locate(std::int32_t coarse_cell, const Vec3& p) const;

  /// Gradients of the four linear basis functions on a fine tet (constant
  /// per tet): grad(lambda_i) such that lambda_i(node_j) = delta_ij.
  std::array<Vec3, 4> basis_gradients(std::int32_t fine_cell) const;

  /// The slots of fine_cell's four nodes in `sorted_nodes` (ascending global
  /// fine-node ids), by binary search. Throws dsmcpic::Error if one of the
  /// nodes is missing from the list.
  TetSlots find_slots(std::int32_t fine_cell,
                      std::span<const std::int32_t> sorted_nodes) const;

 private:
  const mesh::TetMesh* coarse_;
  const mesh::TetMesh* fine_;
};

}  // namespace dsmcpic::pic
