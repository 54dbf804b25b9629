#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "mesh/tetmesh.hpp"
#include "support/rng.hpp"

namespace dsmcpic::mesh {
namespace {

NozzleSpec small_spec() {
  NozzleSpec s;
  s.radius = 0.01;
  s.length = 0.05;
  s.inlet_radius_frac = 0.4;
  s.radial_divisions = 4;
  s.axial_divisions = 8;
  return s;
}

TEST(TetMesh, SingleTetBasics) {
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
            {{{0, 1, 2, 3}}});
  EXPECT_EQ(m.num_tets(), 1);
  EXPECT_NEAR(m.volume(0), 1.0 / 6.0, 1e-15);
  EXPECT_EQ(m.neighbor(0, 0), -1);
  // Barycentric coordinates at a vertex / centroid.
  const auto lv = m.barycentric(0, {0, 0, 0});
  EXPECT_NEAR(lv[0], 1.0, 1e-12);
  const auto lc = m.barycentric(0, m.centroid(0));
  for (const double l : lc) EXPECT_NEAR(l, 0.25, 1e-12);
  EXPECT_TRUE(m.contains(0, {0.1, 0.1, 0.1}));
  EXPECT_FALSE(m.contains(0, {1.0, 1.0, 1.0}));
}

TEST(TetMesh, NegativeOrientationIsFixed) {
  // Swapped vertices give negative volume; constructor must repair it.
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
            {{{1, 0, 2, 3}}});
  EXPECT_GT(m.volume(0), 0.0);
}

TEST(TetMesh, FaceNormalsPointOutward) {
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
            {{{0, 1, 2, 3}}});
  for (int f = 0; f < 4; ++f) {
    const Vec3 n = m.face_normal(0, f);
    const Vec3 to_center = m.centroid(0) - m.face_centroid(0, f);
    EXPECT_LT(dot(n, to_center), 0.0) << "face " << f;
    EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  }
}

TEST(TetMesh, TwoTetAdjacency) {
  // Two tets sharing face {1,2,3}.
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}},
            {{{0, 1, 2, 3}}, {{4, 1, 2, 3}}});
  int shared = 0;
  for (int f = 0; f < 4; ++f) {
    if (m.neighbor(0, f) == 1) ++shared;
    if (m.neighbor(1, f) >= 0) {
      EXPECT_EQ(m.neighbor(1, f), 0);
    }
  }
  EXPECT_EQ(shared, 1);
}

TEST(Nozzle, VolumeApproximatesCylinder) {
  const NozzleSpec s = small_spec();
  const TetMesh m = make_cylinder_nozzle(s);
  EXPECT_EQ(m.num_tets(), s.expected_tets());
  const double exact = M_PI * s.radius * s.radius * s.length;
  // The mapped-lattice disk slightly under-covers the circle.
  EXPECT_NEAR(m.total_volume(), exact, 0.06 * exact);
  EXPECT_GT(m.total_volume(), 0.85 * exact);
}

TEST(Nozzle, AdjacencyIsSymmetric) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  for (std::int32_t t = 0; t < m.num_tets(); ++t) {
    for (int f = 0; f < 4; ++f) {
      const std::int32_t nb = m.neighbor(t, f);
      if (nb < 0) continue;
      bool back = false;
      for (int g = 0; g < 4; ++g) back |= (m.neighbor(nb, g) == t);
      ASSERT_TRUE(back) << "tet " << t << " face " << f;
    }
  }
}

TEST(Nozzle, BoundaryClassification) {
  const NozzleSpec s = small_spec();
  const TetMesh m = make_cylinder_nozzle(s);
  const auto& inlet = m.boundary_faces(BoundaryKind::kInlet);
  const auto& outlet = m.boundary_faces(BoundaryKind::kOutlet);
  const auto& wall = m.boundary_faces(BoundaryKind::kWall);
  EXPECT_FALSE(inlet.empty());
  EXPECT_FALSE(outlet.empty());
  EXPECT_FALSE(wall.empty());
  // Inlet faces sit at z=0 within the inlet radius.
  for (const auto& bf : inlet) {
    const Vec3 c = m.face_centroid(bf.tet, bf.face);
    EXPECT_LT(c.z, 1e-9);
    EXPECT_LE(std::hypot(c.x, c.y), s.inlet_radius() + 1e-12);
  }
  for (const auto& bf : outlet)
    EXPECT_NEAR(m.face_centroid(bf.tet, bf.face).z, s.length, 1e-9);
  // Inlet + outlet disc areas are each ~ the full / partial circle area.
  double inlet_area = 0.0, outlet_area = 0.0;
  for (const auto& bf : inlet) inlet_area += m.face_area(bf.tet, bf.face);
  for (const auto& bf : outlet) outlet_area += m.face_area(bf.tet, bf.face);
  EXPECT_NEAR(outlet_area, M_PI * s.radius * s.radius,
              0.08 * M_PI * s.radius * s.radius);
  EXPECT_LT(inlet_area, outlet_area);
}

TEST(Nozzle, LocateFindsRandomInteriorPoints) {
  const NozzleSpec s = small_spec();
  const TetMesh m = make_cylinder_nozzle(s);
  Rng rng(5);
  int found = 0;
  for (int i = 0; i < 200; ++i) {
    const double r = 0.8 * s.radius * std::sqrt(rng.uniform());
    const double th = 2 * M_PI * rng.uniform();
    const Vec3 p{r * std::cos(th), r * std::sin(th),
                 s.length * (0.05 + 0.9 * rng.uniform())};
    const std::int32_t cell = m.locate(p, 0);
    ASSERT_GE(cell, 0) << "point " << p;
    EXPECT_TRUE(m.contains(cell, p, 1e-9));
    ++found;
  }
  EXPECT_EQ(found, 200);
  // Points outside the cylinder are not located.
  EXPECT_EQ(m.locate({2 * s.radius, 0, s.length / 2}, 0), -1);
  EXPECT_EQ(m.locate({0, 0, -s.length}, 0), -1);
}

TEST(Nozzle, LocateMatchesBruteForce) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Vec3 p{0.004 * (rng.uniform() - 0.5), 0.004 * (rng.uniform() - 0.5),
                 0.05 * rng.uniform()};
    const std::int32_t walk = m.locate(p, m.num_tets() / 2);
    const std::int32_t brute = m.locate_brute(p);
    if (brute >= 0) {
      ASSERT_GE(walk, 0);
      EXPECT_TRUE(m.contains(walk, p, 1e-9));
    } else {
      EXPECT_EQ(walk, -1);
    }
  }
}

TEST(TetMesh, RayExitFace) {
  TetMesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
            {{{0, 1, 2, 3}}});
  // Ray from centroid towards +x must exit through the face opposite the
  // origin-side; the exit distance must be positive and finite.
  double t_exit = 0.0;
  const int f = m.ray_exit_face(0, m.centroid(0), {1, 0, 0}, &t_exit);
  ASSERT_GE(f, 0);
  EXPECT_GT(t_exit, 0.0);
  const Vec3 hit = m.centroid(0) + Vec3{1, 0, 0} * t_exit;
  // Exit point lies on the diagonal face x+y+z=1 or on y=0/z=0 planes.
  EXPECT_TRUE(m.contains(0, hit, 1e-9));
}

TEST(TetMesh, DualGraphMatchesAdjacency) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  std::vector<std::int64_t> xadj;
  std::vector<std::int32_t> adjncy;
  m.dual_graph(xadj, adjncy);
  ASSERT_EQ(static_cast<std::int32_t>(xadj.size()), m.num_tets() + 1);
  for (std::int32_t t = 0; t < m.num_tets(); ++t) {
    std::set<std::int32_t> expect;
    for (int f = 0; f < 4; ++f)
      if (m.neighbor(t, f) >= 0) expect.insert(m.neighbor(t, f));
    std::set<std::int32_t> got(adjncy.begin() + xadj[t],
                               adjncy.begin() + xadj[t + 1]);
    EXPECT_EQ(got, expect);
  }
}

TEST(Refine, EightChildrenTileParent) {
  const NozzleSpec s = small_spec();
  const TetMesh coarse = make_cylinder_nozzle(s);
  const RefinedMesh fine = red_refine(coarse, nozzle_classifier(s));
  ASSERT_EQ(fine.mesh.num_tets(), coarse.num_tets() * 8);
  for (std::int32_t t = 0; t < coarse.num_tets(); ++t) {
    double child_vol = 0.0;
    for (int k = 0; k < 8; ++k) {
      ASSERT_EQ(fine.parent[t * 8 + k], t);
      child_vol += fine.mesh.volume(t * 8 + k);
    }
    ASSERT_NEAR(child_vol, coarse.volume(t), 1e-12 * coarse.volume(t) + 1e-30);
  }
  EXPECT_NEAR(fine.mesh.total_volume(), coarse.total_volume(),
              1e-9 * coarse.total_volume());
}

TEST(Refine, ChildrenContainParentPoints) {
  const NozzleSpec s = small_spec();
  const TetMesh coarse = make_cylinder_nozzle(s);
  const RefinedMesh fine = red_refine(coarse, nozzle_classifier(s));
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto t = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(coarse.num_tets())));
    // Random point inside tet t via barycentric sampling.
    double w[4] = {rng.uniform_pos(), rng.uniform_pos(), rng.uniform_pos(),
                   rng.uniform_pos()};
    const double sum = w[0] + w[1] + w[2] + w[3];
    Vec3 p;
    for (int k = 0; k < 4; ++k) p += coarse.node(coarse.tet(t)[k]) * (w[k] / sum);
    // One of the 8 children must contain it.
    bool found = false;
    for (int k = 0; k < 8 && !found; ++k)
      found = fine.mesh.contains(t * 8 + k, p, 1e-9);
    EXPECT_TRUE(found) << "trial " << trial;
  }
}

TEST(Refine, BoundaryKindsAreInherited) {
  const NozzleSpec s = small_spec();
  const TetMesh coarse = make_cylinder_nozzle(s);
  const RefinedMesh fine = red_refine(coarse, nozzle_classifier(s));
  auto kind_area = [](const TetMesh& m, BoundaryKind k) {
    double a = 0.0;
    for (const auto& bf : m.boundary_faces(k)) a += m.face_area(bf.tet, bf.face);
    return a;
  };
  // Total boundary area and the outlet disc are preserved exactly (each
  // coarse boundary face splits into 4 coplanar fine faces).
  double coarse_total = 0.0, fine_total = 0.0;
  for (const BoundaryKind k :
       {BoundaryKind::kInlet, BoundaryKind::kOutlet, BoundaryKind::kWall}) {
    coarse_total += kind_area(coarse, k);
    fine_total += kind_area(fine.mesh, k);
  }
  EXPECT_NEAR(fine_total, coarse_total, 1e-9 * coarse_total);
  EXPECT_NEAR(kind_area(fine.mesh, BoundaryKind::kOutlet),
              kind_area(coarse, BoundaryKind::kOutlet),
              1e-9 * kind_area(coarse, BoundaryKind::kOutlet));
  // The inlet/wall split on the z=0 disc is re-resolved geometrically at the
  // finer resolution (centroid-in-radius test per face), so the fine inlet
  // area approximates the true disc area pi*r_inlet^2 at least as well as
  // the coarse one.
  const double exact_inlet = M_PI * s.inlet_radius() * s.inlet_radius();
  const double ci = kind_area(coarse, BoundaryKind::kInlet);
  const double fi = kind_area(fine.mesh, BoundaryKind::kInlet);
  EXPECT_LE(std::abs(fi - exact_inlet), std::abs(ci - exact_inlet) + 1e-12);
  EXPECT_NEAR(fi, exact_inlet, 0.35 * exact_inlet);
}

TEST(Refine, NodeCountMatchesEdgeMidpoints) {
  const TetMesh coarse = make_cylinder_nozzle(small_spec());
  const RefinedMesh fine = red_refine(coarse);
  // fine nodes = coarse nodes + unique coarse edges.
  std::set<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t t = 0; t < coarse.num_tets(); ++t) {
    const auto& v = coarse.tet(t);
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j)
        edges.emplace(std::min(v[i], v[j]), std::max(v[i], v[j]));
  }
  EXPECT_EQ(fine.mesh.num_nodes(),
            coarse.num_nodes() + static_cast<std::int32_t>(edges.size()));
}

/// Property sweep: cylinder mesh invariants across resolutions.
class NozzleResolutionTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(NozzleResolutionTest, VolumeAndEulerInvariants) {
  const auto [n, nz] = GetParam();
  NozzleSpec s = small_spec();
  s.radial_divisions = n;
  s.axial_divisions = nz;
  const TetMesh m = make_cylinder_nozzle(s);
  EXPECT_EQ(m.num_tets(), 6 * n * n * nz);
  EXPECT_EQ(m.num_nodes(), (n + 1) * (n + 1) * (nz + 1));
  const double exact = M_PI * s.radius * s.radius * s.length;
  EXPECT_GT(m.total_volume(), 0.8 * exact);
  EXPECT_LT(m.total_volume(), exact);
  // Every boundary face classified.
  std::size_t boundary = 0;
  for (std::int32_t t = 0; t < m.num_tets(); ++t)
    for (int f = 0; f < 4; ++f)
      if (m.neighbor(t, f) < 0) {
        ++boundary;
        EXPECT_NE(m.face_kind(t, f), BoundaryKind::kNone);
      }
  EXPECT_EQ(boundary, m.boundary_faces(BoundaryKind::kInlet).size() +
                          m.boundary_faces(BoundaryKind::kOutlet).size() +
                          m.boundary_faces(BoundaryKind::kWall).size());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, NozzleResolutionTest,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 5},
                                           std::pair{4, 8}, std::pair{6, 10},
                                           std::pair{8, 4}));

}  // namespace
}  // namespace dsmcpic::mesh
