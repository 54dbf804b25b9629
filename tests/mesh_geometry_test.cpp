// Equivalence of the precomputed geometry caches (face planes + barycentric
// inverses, built at mesh construction) against the recomputing reference
// implementations, on the nozzle mesh and its red-refined child. The cached
// ray_exit_face / face_normal store exactly the values the recomputing path
// derives, so those comparisons are bitwise; the cached barycentric is a
// matrix-vector product instead of four volume ratios, so it agrees to
// rounding only.

#include <gtest/gtest.h>

#include <cstdint>

#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "support/rng.hpp"

namespace dsmcpic::mesh {
namespace {

NozzleSpec small_spec() {
  NozzleSpec s;
  s.radial_divisions = 4;
  s.axial_divisions = 6;
  return s;
}

Vec3 random_point_near(Rng& rng, const TetMesh& m, std::int32_t t) {
  // Random point in the tet's neighborhood: barycentric-ish combination of
  // its nodes with weights in [-0.2, 1.2) (deliberately not confined to the
  // interior so negative coordinates and misses are exercised too).
  const auto& tt = m.tet(t);
  Vec3 p{0, 0, 0};
  for (int k = 0; k < 4; ++k)
    p += m.node(tt[k]) * (rng.uniform() * 1.4 - 0.2);
  return p;
}

void expect_cache_matches_recompute(const TetMesh& m) {
  Rng rng(0x5eedULL);
  for (std::int32_t t = 0; t < m.num_tets(); ++t) {
    // Face planes: bitwise identical unit normals.
    for (int f = 0; f < 4; ++f) {
      const Vec3 cached = m.face_normal(t, f);
      const Vec3 ref = m.face_normal_recompute(t, f);
      EXPECT_EQ(cached.x, ref.x);
      EXPECT_EQ(cached.y, ref.y);
      EXPECT_EQ(cached.z, ref.z);
    }

    // Ray exits: bitwise identical face choice and exit distance.
    const Vec3 origin = m.centroid(t);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec3 dir{rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0,
                     rng.uniform() * 2.0 - 1.0};
      double t_cached = 0.0, t_ref = 0.0;
      const int f_cached = m.ray_exit_face(t, origin, dir, &t_cached);
      const int f_ref = m.ray_exit_face_recompute(t, origin, dir, &t_ref);
      EXPECT_EQ(f_cached, f_ref) << "tet " << t;
      EXPECT_EQ(t_cached, t_ref) << "tet " << t;
    }

    // Barycentric coordinates: same up to rounding, partition of unity.
    for (int trial = 0; trial < 4; ++trial) {
      const Vec3 p = random_point_near(rng, m, t);
      const auto lc = m.barycentric(t, p);
      const auto lr = m.barycentric_recompute(t, p);
      double sum = 0.0;
      for (int k = 0; k < 4; ++k) {
        EXPECT_NEAR(lc[k], lr[k], 1e-9) << "tet " << t;
        sum += lc[k];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(GeometryCache, NozzleMeshMatchesRecompute) {
  expect_cache_matches_recompute(make_cylinder_nozzle(small_spec()));
}

TEST(GeometryCache, RefinedMeshMatchesRecompute) {
  const NozzleSpec s = small_spec();
  const TetMesh coarse = make_cylinder_nozzle(s);
  const RefinedMesh fine = red_refine(coarse, nozzle_classifier(s));
  expect_cache_matches_recompute(fine.mesh);
}

// locate, walking with the cached barycentric, must find each centroid's
// own tet, and the recomputing barycentric must agree that the centroid is
// inside it (centroids are deep inside their tets, far from any
// rounding-sensitive boundary).
TEST(GeometryCache, LocateAgreesWithCacheDisabled) {
  const TetMesh m = make_cylinder_nozzle(small_spec());
  for (std::int32_t t = 0; t < m.num_tets(); ++t) {
    const Vec3 p = m.centroid(t);
    EXPECT_EQ(m.locate(p, /*hint=*/0), t);
    for (const double l : m.barycentric_recompute(t, p)) EXPECT_GT(l, 0.0);
  }
}

}  // namespace
}  // namespace dsmcpic::mesh
