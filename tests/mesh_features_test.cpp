// Mesh quality of the nozzle generator and red refinement, held to the
// test-only metrics in mesh_quality_reference.hpp, and the VTK writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "mesh_quality_reference.hpp"

namespace dsmcpic::mesh {
namespace {

using reference::assess_quality;
using reference::QualityReport;
using reference::tet_quality;
using reference::TetQuality;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

NozzleSpec small_spec() {
  NozzleSpec s;
  s.radial_divisions = 4;
  s.axial_divisions = 8;
  return s;
}

TEST(Quality, RegularTetIsPerfect) {
  // Regular tetrahedron: radius ratio 1, dihedral ~70.53 deg, edge ratio 1.
  const double s = 1.0 / std::sqrt(2.0);
  TetMesh m({{1, 0, -s}, {-1, 0, -s}, {0, 1, s}, {0, -1, s}},
            {{{0, 1, 2, 3}}});
  const TetQuality q = tet_quality(m, 0);
  EXPECT_NEAR(q.radius_ratio, 1.0, 1e-9);
  EXPECT_NEAR(q.min_dihedral_deg, 70.5288, 1e-3);
  EXPECT_NEAR(q.max_dihedral_deg, 70.5288, 1e-3);
  EXPECT_NEAR(q.edge_ratio, 1.0, 1e-12);
}

TEST(Quality, SliverIsDetected) {
  // Nearly flat tet: tiny radius ratio.
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.5, 0.5, 1e-3}},
            {{{0, 1, 2, 3}}});
  const TetQuality q = tet_quality(m, 0);
  EXPECT_LT(q.radius_ratio, 0.05);
  EXPECT_LT(q.min_dihedral_deg, 10.0);
}

TEST(Quality, NozzleMeshIsUsable) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  const QualityReport r = assess_quality(m);
  EXPECT_EQ(r.num_tets, m.num_tets());
  // Kuhn tets squeezed by the elliptical disc mapping are not beautiful,
  // but must stay usable (no true slivers below 0.05 radius ratio).
  EXPECT_GT(r.min_radius_ratio, 0.08);
  EXPECT_GT(r.min_dihedral_deg, 8.0);
  EXPECT_LT(r.max_edge_ratio, 6.0);
  EXPECT_EQ(r.slivers, 0);
  EXPECT_GT(r.min_volume, 0.0);
  // Refinement: corner children are similar to the parent; the octahedron
  // split can halve the worst radius ratio but no further.
  const RefinedMesh fine = red_refine(m);
  const QualityReport rf = assess_quality(fine.mesh);
  EXPECT_GT(rf.min_radius_ratio, 0.4 * r.min_radius_ratio);
  EXPECT_LT(rf.slivers, fine.mesh.num_tets() / 100);  // < 1% borderline
}

TEST(MeshIo, WriteVtkListsEveryTetAndCellScalar) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  std::vector<double> volume(static_cast<std::size_t>(m.num_tets()));
  for (std::int32_t t = 0; t < m.num_tets(); ++t) volume[t] = m.volume(t);
  const std::string path = temp_path("dsmcpic_mesh.vtk");
  m.write_vtk(path, volume, "volume");

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string token;
  bool saw_points = false, saw_cells = false, saw_types = false;
  bool saw_data = false;
  while (is >> token) {
    if (token == "POINTS") {
      std::int64_t n = 0;
      std::string type;
      is >> n >> type;
      EXPECT_EQ(n, m.num_nodes());
      EXPECT_EQ(type, "double");
      saw_points = true;
    } else if (token == "CELLS") {
      std::int64_t n = 0, total = 0;
      is >> n >> total;
      EXPECT_EQ(n, m.num_tets());
      EXPECT_EQ(total, 5 * n);  // "4 a b c d" per tet
      saw_cells = true;
    } else if (token == "CELL_TYPES") {
      std::int64_t n = 0;
      is >> n;
      EXPECT_EQ(n, m.num_tets());
      for (std::int64_t i = 0; i < n; ++i) {
        int type = 0;
        ASSERT_TRUE(static_cast<bool>(is >> type));
        ASSERT_EQ(type, 10) << "cell " << i;  // VTK_TETRA
      }
      saw_types = true;
    } else if (token == "CELL_DATA") {
      std::int64_t n = 0;
      std::string scalars, name, type;
      int ncomp = 0;
      is >> n >> scalars >> name >> type >> ncomp;
      EXPECT_EQ(n, m.num_tets());
      EXPECT_EQ(scalars, "SCALARS");
      EXPECT_EQ(name, "volume");
      EXPECT_EQ(type, "double");
      EXPECT_EQ(ncomp, 1);
      std::string lookup, table;
      is >> lookup >> table;
      EXPECT_EQ(lookup, "LOOKUP_TABLE");
      EXPECT_EQ(table, "default");
      for (std::int64_t i = 0; i < n; ++i) {
        double v = 0.0;
        ASSERT_TRUE(static_cast<bool>(is >> v));
        ASSERT_EQ(v, volume[i]) << "cell " << i;  // precision(17) round-trips
      }
      saw_data = true;
    }
  }
  EXPECT_TRUE(saw_points && saw_cells && saw_types && saw_data);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dsmcpic::mesh
