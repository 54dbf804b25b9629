#pragma once
// Test-only tetrahedron quality metrics. DSMC statistics and FEM
// conditioning both degrade on sliver elements, so the tests hold the
// nozzle generator and red refinement to the standard measures: radius
// ratio (3 * inradius / circumradius, 1 for the regular tet), minimum
// dihedral angle, and edge-length ratio. The solver never runs these.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mesh/tetmesh.hpp"
#include "support/error.hpp"

namespace dsmcpic::mesh::reference {

struct TetQuality {
  double radius_ratio = 0.0;       // 3 r_in / r_circ, in (0, 1]
  double min_dihedral_deg = 0.0;   // smallest dihedral angle [degrees]
  double max_dihedral_deg = 0.0;
  double edge_ratio = 1.0;         // longest edge / shortest edge, >= 1
};

/// Inradius: 3V / total face area.
inline double inradius(const TetMesh& m, std::int32_t t) {
  double area = 0.0;
  for (int f = 0; f < 4; ++f) area += m.face_area(t, f);
  return 3.0 * m.volume(t) / area;
}

/// Circumradius: the distance from vertex 0 to the circumcenter, which
/// solves 2 [a;b;c] x = [|a|^2; |b|^2; |c|^2] for the edge vectors a, b, c
/// out of vertex 0.
inline double circumradius(const TetMesh& m, std::int32_t t) {
  const auto& v = m.tet(t);
  const Vec3& p0 = m.node(v[0]);
  const Vec3 a = m.node(v[1]) - p0;
  const Vec3 b = m.node(v[2]) - p0;
  const Vec3 c = m.node(v[3]) - p0;
  const double det = 2.0 * triple(a, b, c);
  DSMCPIC_CHECK_MSG(det != 0.0, "degenerate tet in circumradius");
  const Vec3 x = (cross(b, c) * a.norm2() + cross(c, a) * b.norm2() +
                  cross(a, b) * c.norm2()) /
                 det;
  return x.norm();
}

inline TetQuality tet_quality(const TetMesh& mesh, std::int32_t t) {
  TetQuality q;
  q.radius_ratio = 3.0 * inradius(mesh, t) / circumradius(mesh, t);

  // Dihedral angle along the edge shared by faces with outward normals
  // n1, n2: pi - angle(n1, n2).
  q.min_dihedral_deg = 180.0;
  q.max_dihedral_deg = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      const double c = std::clamp(
          dot(mesh.face_normal(t, i), mesh.face_normal(t, j)), -1.0, 1.0);
      const double angle = 180.0 - std::acos(c) * 180.0 / M_PI;
      q.min_dihedral_deg = std::min(q.min_dihedral_deg, angle);
      q.max_dihedral_deg = std::max(q.max_dihedral_deg, angle);
    }
  }

  const auto& v = mesh.tet(t);
  double shortest = std::numeric_limits<double>::infinity(), longest = 0.0;
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) {
      const double len = (mesh.node(v[i]) - mesh.node(v[j])).norm();
      shortest = std::min(shortest, len);
      longest = std::max(longest, len);
    }
  q.edge_ratio = longest / shortest;
  return q;
}

struct QualityReport {
  std::int32_t num_tets = 0;
  double min_radius_ratio = 1.0;
  double min_dihedral_deg = 180.0;
  double max_edge_ratio = 1.0;
  double min_volume = std::numeric_limits<double>::infinity();
  /// Tets with radius ratio below the sliver threshold (0.1).
  std::int32_t slivers = 0;
};

/// Worst-case quality over the whole mesh.
inline QualityReport assess_quality(const TetMesh& mesh) {
  QualityReport r;
  r.num_tets = mesh.num_tets();
  for (std::int32_t t = 0; t < mesh.num_tets(); ++t) {
    const TetQuality q = tet_quality(mesh, t);
    r.min_radius_ratio = std::min(r.min_radius_ratio, q.radius_ratio);
    r.min_dihedral_deg = std::min(r.min_dihedral_deg, q.min_dihedral_deg);
    r.max_edge_ratio = std::max(r.max_edge_ratio, q.edge_ratio);
    r.min_volume = std::min(r.min_volume, mesh.volume(t));
    if (q.radius_ratio < 0.1) ++r.slivers;
  }
  return r;
}

}  // namespace dsmcpic::mesh::reference
