#include "mesh/tetmesh.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"

namespace dsmcpic::mesh {

double signed_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  return triple(b - a, c - a, d - a) / 6.0;
}

TetMesh::TetMesh(std::vector<Vec3> nodes,
                 std::vector<std::array<std::int32_t, 4>> tets)
    : nodes_(std::move(nodes)), tets_(std::move(tets)) {
  compute_derived();
  build_adjacency();
}

void TetMesh::compute_derived() {
  const auto n = tets_.size();
  volumes_.resize(n);
  centroids_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    auto& tt = tets_[t];
    double v = signed_volume(nodes_[tt[0]], nodes_[tt[1]], nodes_[tt[2]],
                             nodes_[tt[3]]);
    if (v < 0.0) {  // enforce positive orientation
      std::swap(tt[0], tt[1]);
      v = -v;
    }
    DSMCPIC_CHECK_MSG(v > 0.0, "degenerate tetrahedron " << t);
    volumes_[t] = v;
    centroids_[t] =
        (nodes_[tt[0]] + nodes_[tt[1]] + nodes_[tt[2]] + nodes_[tt[3]]) / 4.0;
  }
  build_geometry_caches();
}

void TetMesh::build_geometry_caches() {
  const auto n = tets_.size();
  face_planes_.resize(n);
  bary_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto ti = static_cast<std::int32_t>(t);
    for (int f = 0; f < 4; ++f) {
      // Same expressions as the recomputing path, so the cached plane data
      // is bitwise what ray_exit_face_recompute / face_normal_recompute
      // would derive on the fly.
      const auto fn = face_nodes(ti, f);
      const Vec3& p0 = nodes_[fn[0]];
      const Vec3 nrm = cross(nodes_[fn[1]] - p0, nodes_[fn[2]] - p0);
      face_planes_[t][f] = {nrm, p0, nrm.normalized()};
    }
    const auto& tt = tets_[t];
    const Vec3& a = nodes_[tt[0]];
    const Vec3 e1 = nodes_[tt[1]] - a;
    const Vec3 e2 = nodes_[tt[2]] - a;
    const Vec3 e3 = nodes_[tt[3]] - a;
    const double det = triple(e1, e2, e3);  // = 6 * volume > 0 after reorient
    bary_[t].anchor = a;
    bary_[t].rows = {cross(e2, e3) / det, cross(e3, e1) / det,
                     cross(e1, e2) / det};
  }
}

namespace {

struct FaceKey {
  std::int32_t a, b, c;  // sorted ascending
  bool operator==(const FaceKey& o) const {
    return a == o.a && b == o.b && c == o.c;
  }
};

struct FaceKeyHash {
  std::size_t operator()(const FaceKey& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.a) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(k.b) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    h ^= static_cast<std::uint64_t>(k.c) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

FaceKey make_key(std::int32_t x, std::int32_t y, std::int32_t z) {
  if (x > y) std::swap(x, y);
  if (y > z) std::swap(y, z);
  if (x > y) std::swap(x, y);
  return {x, y, z};
}

}  // namespace

void TetMesh::build_adjacency() {
  const auto n = tets_.size();
  neighbors_.assign(n, {-1, -1, -1, -1});
  face_kinds_.assign(n, {BoundaryKind::kNone, BoundaryKind::kNone,
                         BoundaryKind::kNone, BoundaryKind::kNone});
  std::unordered_map<FaceKey, std::pair<std::int32_t, int>, FaceKeyHash> open;
  open.reserve(n * 2);
  for (std::size_t t = 0; t < n; ++t) {
    const auto& tt = tets_[t];
    for (int f = 0; f < 4; ++f) {
      const FaceKey key =
          make_key(tt[(f + 1) & 3], tt[(f + 2) & 3], tt[(f + 3) & 3]);
      auto it = open.find(key);
      if (it == open.end()) {
        open.emplace(key, std::make_pair(static_cast<std::int32_t>(t), f));
      } else {
        const auto [ot, of] = it->second;
        DSMCPIC_CHECK_MSG(neighbors_[ot][of] == -1,
                          "non-manifold face shared by more than two tets");
        neighbors_[t][f] = ot;
        neighbors_[ot][of] = static_cast<std::int32_t>(t);
        open.erase(it);
      }
    }
  }
}

double TetMesh::total_volume() const {
  double v = 0.0;
  for (double x : volumes_) v += x;
  return v;
}

std::array<std::int32_t, 3> TetMesh::face_nodes(std::int32_t t, int f) const {
  const auto& tt = tets_[t];
  std::array<std::int32_t, 3> fn = {tt[(f + 1) & 3], tt[(f + 2) & 3],
                                    tt[(f + 3) & 3]};
  // Orient so the cross-product normal points away from the opposite vertex.
  const Vec3& p0 = nodes_[fn[0]];
  const Vec3 nrm = cross(nodes_[fn[1]] - p0, nodes_[fn[2]] - p0);
  if (dot(nrm, nodes_[tt[f]] - p0) > 0.0) std::swap(fn[1], fn[2]);
  return fn;
}

Vec3 TetMesh::face_normal(std::int32_t t, int f) const {
  return face_planes_[t][f].unit_normal;
}

Vec3 TetMesh::face_normal_recompute(std::int32_t t, int f) const {
  const auto fn = face_nodes(t, f);
  const Vec3& p0 = nodes_[fn[0]];
  return cross(nodes_[fn[1]] - p0, nodes_[fn[2]] - p0).normalized();
}

double TetMesh::face_area(std::int32_t t, int f) const {
  const auto fn = face_nodes(t, f);
  const Vec3& p0 = nodes_[fn[0]];
  return 0.5 * cross(nodes_[fn[1]] - p0, nodes_[fn[2]] - p0).norm();
}

Vec3 TetMesh::face_centroid(std::int32_t t, int f) const {
  const auto fn = face_nodes(t, f);
  return (nodes_[fn[0]] + nodes_[fn[1]] + nodes_[fn[2]]) / 3.0;
}

std::array<double, 4> TetMesh::barycentric(std::int32_t t, const Vec3& p) const {
  const BaryCache& bc = bary_[t];
  const Vec3 r = p - bc.anchor;
  const double l1 = dot(bc.rows[0], r);
  const double l2 = dot(bc.rows[1], r);
  const double l3 = dot(bc.rows[2], r);
  return {1.0 - l1 - l2 - l3, l1, l2, l3};
}

std::array<double, 4> TetMesh::barycentric_recompute(std::int32_t t,
                                                     const Vec3& p) const {
  const auto& tt = tets_[t];
  const Vec3& a = nodes_[tt[0]];
  const Vec3& b = nodes_[tt[1]];
  const Vec3& c = nodes_[tt[2]];
  const Vec3& d = nodes_[tt[3]];
  const double v = volumes_[t];
  return {signed_volume(p, b, c, d) / v, signed_volume(a, p, c, d) / v,
          signed_volume(a, b, p, d) / v, signed_volume(a, b, c, p) / v};
}

bool TetMesh::contains(std::int32_t t, const Vec3& p, double tol) const {
  const auto l = barycentric(t, p);
  return l[0] >= -tol && l[1] >= -tol && l[2] >= -tol && l[3] >= -tol;
}

std::int32_t TetMesh::locate(const Vec3& p, std::int32_t hint,
                             std::int64_t* steps_out) const {
  if (num_tets() == 0) return -1;
  std::int32_t t = (hint >= 0 && hint < num_tets()) ? hint : 0;
  const double tol = 1e-12;
  // Walk towards p; the step cap guards against cycles on degenerate input.
  const std::int64_t cap = 4 + 2 * static_cast<std::int64_t>(num_tets());
  for (std::int64_t step = 0; step < cap; ++step) {
    if (steps_out) ++*steps_out;
    const auto l = barycentric(t, p);
    int worst = 0;
    for (int i = 1; i < 4; ++i)
      if (l[i] < l[worst]) worst = i;
    if (l[worst] >= -tol) return t;
    const std::int32_t next = neighbors_[t][worst];
    if (next >= 0) {
      t = next;
      continue;
    }
    // Blocked by a boundary: try the other negative directions before
    // declaring the point outside.
    std::int32_t alt = -1;
    double alt_l = -tol;
    for (int i = 0; i < 4; ++i) {
      if (i == worst || l[i] >= -tol) continue;
      if (neighbors_[t][i] >= 0 && l[i] < alt_l) {
        alt = neighbors_[t][i];
        alt_l = l[i];
      }
    }
    if (alt >= 0) {
      t = alt;
      continue;
    }
    return -1;  // outside the domain through a boundary face
  }
  return locate_brute(p);
}

std::int32_t TetMesh::locate_brute(const Vec3& p) const {
  for (std::int32_t t = 0; t < num_tets(); ++t)
    if (contains(t, p)) return t;
  return -1;
}

int TetMesh::ray_exit_face(std::int32_t t, const Vec3& origin, const Vec3& dir,
                           double* t_exit) const {
  const auto& planes = face_planes_[t];
  int best_face = -1;
  double best_t = std::numeric_limits<double>::infinity();
  for (int f = 0; f < 4; ++f) {
    const FacePlane& pl = planes[f];
    const double denom = dot(dir, pl.normal);
    if (denom <= 0.0) continue;  // moving away from (or parallel to) face
    const double tf = dot(pl.anchor - origin, pl.normal) / denom;
    if (tf >= -1e-14 && tf < best_t) {
      best_t = tf;
      best_face = f;
    }
  }
  if (t_exit) *t_exit = best_t;
  return best_face;
}

int TetMesh::ray_exit_face_recompute(std::int32_t t, const Vec3& origin,
                                     const Vec3& dir, double* t_exit) const {
  int best_face = -1;
  double best_t = std::numeric_limits<double>::infinity();
  for (int f = 0; f < 4; ++f) {
    const auto fn = face_nodes(t, f);
    const Vec3& p0 = nodes_[fn[0]];
    const Vec3 nrm = cross(nodes_[fn[1]] - p0, nodes_[fn[2]] - p0);
    const double denom = dot(dir, nrm);
    if (denom <= 0.0) continue;  // moving away from (or parallel to) face
    const double tf = dot(p0 - origin, nrm) / denom;
    if (tf >= -1e-14 && tf < best_t) {
      best_t = tf;
      best_face = f;
    }
  }
  if (t_exit) *t_exit = best_t;
  return best_face;
}

void TetMesh::classify_boundary(const BoundaryClassifier& classify) {
  for (auto& lst : boundary_lists_) lst.clear();
  for (std::int32_t t = 0; t < num_tets(); ++t) {
    for (int f = 0; f < 4; ++f) {
      if (neighbors_[t][f] != -1) continue;
      const BoundaryKind k = classify(face_centroid(t, f), face_normal(t, f));
      DSMCPIC_CHECK_MSG(k != BoundaryKind::kNone,
                        "classifier returned kNone for a boundary face");
      face_kinds_[t][f] = k;
      boundary_lists_[static_cast<int>(k)].push_back({t, f, k});
    }
  }
}

const std::vector<BoundaryFace>& TetMesh::boundary_faces(BoundaryKind k) const {
  return boundary_lists_[static_cast<int>(k)];
}

void TetMesh::dual_graph(std::vector<std::int64_t>& xadj,
                         std::vector<std::int32_t>& adjncy) const {
  xadj.assign(num_tets() + 1, 0);
  adjncy.clear();
  for (std::int32_t t = 0; t < num_tets(); ++t) {
    for (int f = 0; f < 4; ++f)
      if (neighbors_[t][f] >= 0) ++xadj[t + 1];
  }
  for (std::int32_t t = 0; t < num_tets(); ++t) xadj[t + 1] += xadj[t];
  adjncy.resize(static_cast<std::size_t>(xadj[num_tets()]));
  std::vector<std::int64_t> cursor(xadj.begin(), xadj.end() - 1);
  for (std::int32_t t = 0; t < num_tets(); ++t) {
    for (int f = 0; f < 4; ++f) {
      const std::int32_t nb = neighbors_[t][f];
      if (nb >= 0) adjncy[static_cast<std::size_t>(cursor[t]++)] = nb;
    }
  }
}

void TetMesh::write_vtk(const std::string& path,
                        std::span<const double> cell_scalar,
                        const std::string& scalar_name) const {
  std::ofstream os(path);
  DSMCPIC_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  os.precision(17);  // round-trippable doubles
  os << "# vtk DataFile Version 3.0\ndsmcpic mesh\nASCII\n"
     << "DATASET UNSTRUCTURED_GRID\n";
  os << "POINTS " << num_nodes() << " double\n";
  for (const auto& p : nodes_) os << p.x << " " << p.y << " " << p.z << "\n";
  os << "CELLS " << num_tets() << " " << num_tets() * 5 << "\n";
  for (const auto& t : tets_)
    os << "4 " << t[0] << " " << t[1] << " " << t[2] << " " << t[3] << "\n";
  os << "CELL_TYPES " << num_tets() << "\n";
  for (std::int32_t t = 0; t < num_tets(); ++t) os << "10\n";
  if (!cell_scalar.empty()) {
    DSMCPIC_CHECK(static_cast<std::int32_t>(cell_scalar.size()) == num_tets());
    os << "CELL_DATA " << num_tets() << "\nSCALARS " << scalar_name
       << " double 1\nLOOKUP_TABLE default\n";
    for (double v : cell_scalar) os << v << "\n";
  }
}

}  // namespace dsmcpic::mesh
