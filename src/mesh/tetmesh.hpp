#pragma once
// Unstructured tetrahedral mesh: the geometric substrate for both the coarse
// DSMC grid and the nested fine PIC grid (paper Sec. IV-A, Fig. 2).
//
// Conventions:
//  * Tet `t` has node ids tets()[t] = {a,b,c,d} with positive signed volume.
//  * Local face `f` of a tet is the face *opposite* local vertex `f`
//    (i.e. face 0 = {b,c,d}, face 1 = {a,d,c}, ... with outward orientation).
//  * neighbor(t, f) is the adjacent tet across face f, or -1 on boundary.
//  * Boundary faces carry a BoundaryKind used by the DSMC mover (wall
//    reflection, outlet removal) and the Poisson solver (Dirichlet BCs).

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/vec3.hpp"

namespace dsmcpic::mesh {

enum class BoundaryKind : std::uint8_t {
  kNone = 0,  // interior face
  kInlet,     // particle injection surface; Dirichlet phi = phi_inlet
  kOutlet,    // particles leave; Dirichlet phi = 0
  kWall,      // particles reflect; homogeneous Neumann for phi
};

/// A boundary face handle: owning tet, local face index, kind.
struct BoundaryFace {
  std::int32_t tet = -1;
  std::int32_t face = -1;
  BoundaryKind kind = BoundaryKind::kNone;
};

/// Classifier callback: decides the kind of a boundary face from its
/// centroid and outward normal. Supplied by the geometry generator.
using BoundaryClassifier =
    std::function<BoundaryKind(const Vec3& centroid, const Vec3& outward_normal)>;

class TetMesh {
 public:
  /// Per-face plane cache: the outward cross-product normal (unnormalized,
  /// exactly as the recomputing path derives it from the face_nodes
  /// ordering), the position of face node 0 (the plane anchor), and the
  /// unit normal. Precomputed once at mesh build so ray_exit_face is four
  /// dot products instead of four cross products.
  struct FacePlane {
    Vec3 normal;       // cross(n1 - n0, n2 - n0), points out of the tet
    Vec3 anchor;       // position of face node 0
    Vec3 unit_normal;  // normal.normalized()
  };

  /// Per-tet barycentric solve cache: the inverse edge matrix stored as
  /// rows, so l[i+1] = dot(rows[i], p - anchor) and l[0] = 1 - l1 - l2 - l3.
  struct BaryCache {
    Vec3 anchor;                // position of tet node 0
    std::array<Vec3, 3> rows;   // rows of the 3x3 inverse of [e1 e2 e3]
  };

  TetMesh() = default;
  TetMesh(std::vector<Vec3> nodes, std::vector<std::array<std::int32_t, 4>> tets);

  std::int32_t num_nodes() const { return static_cast<std::int32_t>(nodes_.size()); }
  std::int32_t num_tets() const { return static_cast<std::int32_t>(tets_.size()); }

  const std::vector<Vec3>& nodes() const { return nodes_; }
  const std::vector<std::array<std::int32_t, 4>>& tets() const { return tets_; }
  const Vec3& node(std::int32_t n) const { return nodes_[n]; }
  const std::array<std::int32_t, 4>& tet(std::int32_t t) const { return tets_[t]; }

  double volume(std::int32_t t) const { return volumes_[t]; }
  const Vec3& centroid(std::int32_t t) const { return centroids_[t]; }
  std::span<const Vec3> centroids() const { return centroids_; }
  double total_volume() const;

  /// Adjacent tet across local face f of tet t; -1 if boundary.
  std::int32_t neighbor(std::int32_t t, int f) const { return neighbors_[t][f]; }

  /// Kind of local face f of tet t (kNone for interior faces).
  BoundaryKind face_kind(std::int32_t t, int f) const { return face_kinds_[t][f]; }

  /// The three node ids of local face f of tet t, ordered so that their
  /// cross-product normal points OUT of the tet.
  std::array<std::int32_t, 3> face_nodes(std::int32_t t, int f) const;

  /// Outward unit normal / area / centroid of local face f of tet t.
  Vec3 face_normal(std::int32_t t, int f) const;
  double face_area(std::int32_t t, int f) const;
  Vec3 face_centroid(std::int32_t t, int f) const;

  /// Barycentric coordinates of p with respect to tet t (sums to 1).
  std::array<double, 4> barycentric(std::int32_t t, const Vec3& p) const;

  /// True when p lies in tet t (barycentric coords >= -tol).
  bool contains(std::int32_t t, const Vec3& p, double tol = 1e-10) const;

  /// Point location by tet walking from `hint`; falls back to brute force.
  /// Returns -1 when p is outside the mesh. `steps_out` (optional)
  /// accumulates the number of tets visited, for work accounting.
  std::int32_t locate(const Vec3& p, std::int32_t hint = 0,
                      std::int64_t* steps_out = nullptr) const;

  /// Exhaustive point location (slow; used as fallback and in tests).
  std::int32_t locate_brute(const Vec3& p) const;

  /// Ray exit through tet t: first face crossed when travelling from
  /// `origin` along `dir`. Returns the local face index and sets `t_exit`
  /// (distance along dir, can exceed `dir` length). Returns -1 when no
  /// positive crossing exists (degenerate dir).
  int ray_exit_face(std::int32_t t, const Vec3& origin, const Vec3& dir,
                    double* t_exit) const;

  /// Recomputing variants, deriving everything from raw node coordinates on
  /// every call. No kernel calls them: they are the reference
  /// implementations for the cache equivalence test. ray_exit_face and
  /// face_normal are bit-identical to the cached paths; barycentric differs
  /// in rounding (volume ratios vs a precomputed matrix-vector product).
  std::array<double, 4> barycentric_recompute(std::int32_t t, const Vec3& p) const;
  Vec3 face_normal_recompute(std::int32_t t, int f) const;
  int ray_exit_face_recompute(std::int32_t t, const Vec3& origin,
                              const Vec3& dir, double* t_exit) const;

  /// Builds face adjacency; must be called after construction (the
  /// constructor does it automatically).
  void build_adjacency();

  /// Classifies every boundary face with the given classifier and records
  /// the list of boundary faces per kind.
  void classify_boundary(const BoundaryClassifier& classify);

  /// All boundary faces of one kind (after classify_boundary).
  const std::vector<BoundaryFace>& boundary_faces(BoundaryKind k) const;

  /// Dual graph of the mesh (tet = vertex, shared face = edge), in CSR form
  /// (xadj/adjncy as in METIS). Used by the partitioner.
  void dual_graph(std::vector<std::int64_t>& xadj,
                  std::vector<std::int32_t>& adjncy) const;

  /// Writes the mesh (+ optional per-cell scalar field) as legacy VTK, for
  /// visual inspection of example outputs.
  void write_vtk(const std::string& path,
                 std::span<const double> cell_scalar = {},
                 const std::string& scalar_name = "value") const;

 private:
  void compute_derived();
  void build_geometry_caches();

  std::vector<Vec3> nodes_;
  std::vector<std::array<std::int32_t, 4>> tets_;
  std::vector<std::array<std::int32_t, 4>> neighbors_;
  std::vector<std::array<BoundaryKind, 4>> face_kinds_;
  std::vector<double> volumes_;
  std::vector<Vec3> centroids_;
  std::vector<std::array<FacePlane, 4>> face_planes_;
  std::vector<BaryCache> bary_;
  std::array<std::vector<BoundaryFace>, 4> boundary_lists_;  // by kind
};

/// Signed volume of the tetrahedron (a,b,c,d); positive when d lies on the
/// side of plane (a,b,c) given by the right-hand rule.
double signed_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

}  // namespace dsmcpic::mesh
