#include "core/case_geometry.hpp"

#include <bit>
#include <cstdint>

namespace dsmcpic::core {

std::shared_ptr<const CaseGeometry> CaseGeometry::build(
    const mesh::NozzleSpec& spec) {
  auto g = std::make_shared<CaseGeometry>();
  g->spec = spec;
  g->coarse = mesh::make_cylinder_nozzle(spec);
  g->refined = mesh::red_refine(g->coarse, mesh::nozzle_classifier(spec));
  return g;
}

std::shared_ptr<const pic::PoissonSystem> CaseGeometry::poisson(
    const pic::PoissonBCs& bcs) const {
  // Bitwise keys: equal bits assemble an identical system, while == would
  // merge 0.0 with -0.0 (whose signed zeros reach the right-hand side).
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  std::lock_guard<std::mutex> lock(poisson_mu_);
  for (const auto& [key, sys] : poisson_)
    if (same(key.phi_inlet, bcs.phi_inlet) &&
        same(key.phi_outlet, bcs.phi_outlet))
      return sys;
  auto sys = std::make_shared<const pic::PoissonSystem>(refined.mesh, bcs);
  poisson_.emplace_back(bcs, sys);
  return sys;
}

}  // namespace dsmcpic::core
