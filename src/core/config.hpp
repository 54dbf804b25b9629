#pragma once
// Configuration for the coupled DSMC/PIC solver (paper Secs. III, VI).

#include <cstdint>

#include "balance/rebalancer.hpp"
#include "dsmc/chemistry.hpp"
#include "dsmc/collide.hpp"
#include "dsmc/injector.hpp"
#include "dsmc/mover.hpp"
#include "exchange/exchange.hpp"
#include "linalg/krylov.hpp"
#include "mesh/nozzle.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "pic/poisson.hpp"

namespace dsmcpic::core {

/// Test-only fault injection (tests/obs_test.cpp). The faults corrupt the
/// run *mid-step* — after an exchange, inside a deposit — exactly where the
/// health auditor's ledgers look, so end-to-end detection can be asserted:
///  * kDropParticle: silently discards one particle per step right after
///    DSMC_Exchange (a leak the particle-books invariant must flag);
///  * kSkewDeposit: adds a spurious charge to one node after deposition
///    (a scatter bug the charge-balance invariant must flag);
///  * kSkewRebalanceCost: inflates the policy's rebalance-cost estimate
///    1000x before the post-rebalance audit (a broken cost feedback loop
///    the rebalance-cost invariant must flag).
enum class FaultInjection { kNone, kDropParticle, kSkewDeposit, kSkewRebalanceCost };

/// Physics + numerics of one simulation case.
struct SolverConfig {
  mesh::NozzleSpec nozzle;

  // Inlet plasma source (paper Sec. VI-C / VII-A).
  double density_h = 7e18;       // H number density [1/m^3]
  double density_hplus = 3e8;    // H+ number density [1/m^3]
  double fnum_h = 1e12;          // scaling factor (real per sim particle)
  double fnum_hplus = 6000.0;
  double inlet_temperature = 300.0;  // K
  double drift_speed = 1e4;          // m/s (paper: 10000 m/s)

  // Timestepping: one DSMC step contains `pic_substeps` PIC steps (paper
  // runs 100 DSMC steps with 2 PIC steps each).
  double dt_dsmc = 2e-7;  // s
  int pic_substeps = 2;

  /// Distribute injection work round-robin over ranks (new particles reach
  /// their owners via DSMC_Exchange) — matches the paper's near-perfectly
  /// scaling Inject phase. When false, only inlet-cell owners inject.
  bool inject_round_robin = true;

  /// Time-varying injection (fleet scenario corpus): scales the inflow of
  /// BOTH species per DSMC step by 1 + amplitude * sin(2*pi*step / period),
  /// clamped at >= 0. Amplitude 0 or period 0 keeps the constant-inflow
  /// path bit-identical to before the knob existed. The modulation is a
  /// pure function of the step index, so it needs no checkpoint state.
  double inject_pulse_amplitude = 0.0;
  int inject_pulse_period = 0;

  dsmc::MoverConfig mover;          // wall model / temperature
  dsmc::CollisionConfig collisions;
  dsmc::ChemistryConfig chemistry;
  pic::PoissonBCs poisson_bcs;
  linalg::SolveOptions poisson;     // KSP substitute settings
  Vec3 magnetic_field{};            // constant B (paper: 0 or user constant)

  std::uint64_t seed = 42;

  /// Periodic cell sort (DESIGN.md §2g): every `sort_every` DSMC steps each
  /// rank's particle store is reordered cell-major (stable counting sort) so
  /// each cell's particles occupy one contiguous slot range for the
  /// collide/deposit traversals. 0 disables. Pure
  /// memory-layout work: results, digests and virtual clocks are
  /// bit-identical for ANY value, and like kernel_threads it is not part of
  /// the checkpoint fingerprint.
  int sort_every = 0;

  /// Deliberate corruption for auditor tests; kNone outside of tests.
  FaultInjection fault = FaultInjection::kNone;

  double dt_pic() const { return dt_dsmc / pic_substeps; }

  /// Retunes the two scaling factors so a quasi-steady run holds roughly
  /// `target_h` / `target_hplus` simulation particles (the knob the paper
  /// turns via Table I's scaling factors).
  void set_target_particles(std::int64_t target_h, std::int64_t target_hplus);
};

/// The virtual-machine / parallelization side of a run.
struct ParallelConfig {
  int nranks = 4;
  par::MachineProfile profile = par::MachineProfile::tianhe2();
  par::Placement placement = par::Placement::kInnerFrame;
  /// Cost-model scales mapping this scaled-down run onto paper-magnitude
  /// virtual seconds: particle-proportional work x particle_scale
  /// (paper particles / our particles), grid-proportional work x grid_scale
  /// (paper cells / our cells).
  double particle_scale = 1.0;
  double grid_scale = 1.0;
  exchange::Strategy strategy = exchange::Strategy::kDistributed;
  balance::RebalanceConfig balance;
  /// Superstep execution backend. kThreaded runs rank bodies on a worker
  /// pool; results (virtual clocks, diagnostics, physics) are bit-identical
  /// to kSequential — only wall-clock changes. Not part of the checkpoint
  /// fingerprint, so a threaded run may restore a sequential checkpoint and
  /// vice versa.
  par::ExecMode exec_mode = par::ExecMode::kSequential;
  /// Worker lanes for kThreaded; <= 0 means one per hardware thread.
  int exec_threads = 0;
  /// Intra-rank kernel lanes (the second level of the execution model,
  /// DESIGN.md §2d): move/collide/react/deposit chunk their particle or
  /// cell ranges across a dedicated pool. Orthogonal to exec_mode; results
  /// and virtual clocks are bit-identical to serial for any value. <= 1
  /// means serial kernels. Not part of the checkpoint fingerprint.
  int kernel_threads = 1;
};

/// Phase labels (paper Fig. 1). Used as runtime phase keys everywhere so
/// breakdown tables match the paper's rows.
namespace phases {
inline constexpr const char* kInit = "Init";
inline constexpr const char* kInject = "Inject";
inline constexpr const char* kDsmcMove = "DSMC_Move";
inline constexpr const char* kDsmcExchange = "DSMC_Exchange";
inline constexpr const char* kReindex = "Reindex";
inline constexpr const char* kColliReact = "Colli_React";
inline constexpr const char* kPicMove = "PIC_Move";
inline constexpr const char* kPicExchange = "PIC_Exchange";
inline constexpr const char* kPoissonSolve = "Poisson_Solve";
inline constexpr const char* kRebalance = "Rebalance";
}  // namespace phases

}  // namespace dsmcpic::core
