#pragma once
// Species table and physical constants for the hydrogen plasma plume
// (paper Sec. VI-C: H atoms and H+ ions in a pulsed-vacuum-arc plume).

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::dsmc {

namespace constants {
inline constexpr double kBoltzmann = 1.380649e-23;      // J/K
inline constexpr double kElementaryCharge = 1.602176634e-19;  // C
inline constexpr double kEpsilon0 = 8.8541878128e-12;   // F/m
inline constexpr double kAmu = 1.66053906660e-27;       // kg
inline constexpr double kHydrogenMass = 1.00784 * kAmu; // kg
inline constexpr double kIonizationEnergyH = 13.6 * kElementaryCharge;  // J
}  // namespace constants

/// One particle species with its VHS (variable hard sphere) collision
/// parameters and the simulation scaling factor Fnum (the paper's Table I
/// "scaling factor": real particles represented per simulation particle).
struct Species {
  std::string name;
  double mass = constants::kHydrogenMass;  // kg
  double charge = 0.0;                     // C
  double diameter = 2.92e-10;              // VHS reference diameter [m]
  double omega = 0.75;                     // VHS viscosity-temperature exponent
  double t_ref = 273.0;                    // VHS reference temperature [K]
  double fnum = 1.0;                       // real particles per sim particle

  bool charged() const { return charge != 0.0; }
};

/// Species ids used throughout the solver.
enum SpeciesId : std::int32_t { kSpeciesH = 0, kSpeciesHPlus = 1 };

class SpeciesTable {
 public:
  /// Builds the standard H / H+ pair with the given scaling factors.
  static SpeciesTable hydrogen(double fnum_h, double fnum_hplus);

  std::int32_t add(Species s);
  std::int32_t size() const { return static_cast<std::int32_t>(list_.size()); }
  const Species& operator[](std::int32_t id) const {
    DSMCPIC_CHECK(id >= 0 && id < size());
    return list_[id];
  }
  const std::vector<Species>& all() const { return list_; }

 private:
  std::vector<Species> list_;
};

}  // namespace dsmcpic::dsmc
