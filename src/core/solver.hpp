#pragma once
// The coupled DSMC/PIC solver — the paper's Fig. 1 workflow on the virtual
// distributed machine:
//
//   Init -> per DSMC step:
//     Inject -> DSMC_Move -> DSMC_Exchange -> Reindex -> Colli_React
//       -> { PIC_Move -> PIC_Exchange -> Poisson_Solve } x pic_substeps
//       -> Rebalance (dynamic load balancer, Algorithm 1)
//
// Only the coarse grid is decomposed (the fine PIC grid is nested, Fig. 2);
// each rank simulates the particles living in its coarse cells and the
// Poisson rows of its owned fine-grid nodes. Setting nranks = 1 yields the
// serial reference implementation used by the validation experiment.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "balance/rebalancer.hpp"
#include "core/case_geometry.hpp"
#include "core/config.hpp"
#include "dsmc/collide.hpp"
#include "dsmc/injector.hpp"
#include "dsmc/mover.hpp"
#include "dsmc/sampling.hpp"
#include "linalg/dist.hpp"
#include "mesh/refine.hpp"
#include "obs/step_record.hpp"
#include "par/runtime.hpp"
#include "pic/deposit.hpp"
#include "pic/fine_grid.hpp"
#include "pic/node_exchange.hpp"
#include "pic/poisson.hpp"
#include "support/kernel_exec.hpp"

namespace dsmcpic::obs {
class HealthAuditor;
class HostProfiler;
class TelemetryHub;
}

namespace dsmcpic::core {

/// Per-DSMC-step diagnostics; defined with the step record it feeds.
using StepDiagnostics = obs::StepDiagnostics;

/// End-of-run accounting used by the bench harness.
struct RunSummary {
  double total_time = 0.0;  // end-to-end virtual seconds
  std::vector<obs::PhaseRecord> phases;  // every phase run, in first-run order
  balance::RebalanceStats rebalance;
  /// Every periodic when-to-rebalance decision the policy made.
  std::vector<balance::PolicyDecision> decisions;
  /// Every periodic ensemble resize decision (empty unless elastic).
  std::vector<balance::EnsembleDecision> ensemble_decisions;
  std::int64_t final_particles = 0;
  std::uint64_t supersteps = 0;  // runtime supersteps executed end-to-end
  int active_ranks = 0;          // active count at end of run

  /// Sum of per-rank busy seconds across every phase — the "node-seconds"
  /// the run consumed (what an elastic ensemble tries to shrink).
  double busy_sum_total() const;

  double phase_max(const std::string& name) const;
};

class CoupledSolver {
 public:
  CoupledSolver(SolverConfig cfg, ParallelConfig par);
  /// Shares pre-built immutable geometry (coarse grid + nested refinement,
  /// including the FacePlane/BaryCache tables) across solver instances —
  /// the fleet service builds each scenario's meshes once and hands the
  /// same CaseGeometry to every concurrent run. `geom` must have been built
  /// from the SAME NozzleSpec as cfg.nozzle (checked); nullptr builds
  /// privately, identical to the two-argument constructor.
  CoupledSolver(SolverConfig cfg, ParallelConfig par,
                std::shared_ptr<const CaseGeometry> geom);
  /// Resumes the run saved in `checkpoint`: equal to the three-argument
  /// constructor followed by restore_checkpoint(checkpoint), without the
  /// initial partition, layout charge, field solve and busy baseline that
  /// the restore overwrites. Throws dsmcpic::Error if the file cannot be
  /// loaded. Payload-pool counters are host-side and not checkpointed: they
  /// start from pools those skipped supersteps did not warm.
  CoupledSolver(SolverConfig cfg, ParallelConfig par,
                std::shared_ptr<const CaseGeometry> geom,
                const std::string& checkpoint);
  ~CoupledSolver();

  /// Runs `n` DSMC steps (each containing cfg.pic_substeps PIC steps).
  void run(int n);
  /// One DSMC step; diagnostics are also appended to history().
  StepDiagnostics step();

  // ---- inspection --------------------------------------------------------
  par::Runtime& runtime() { return *rt_; }
  const par::Runtime& runtime() const { return *rt_; }
  const SolverConfig& config() const { return cfg_; }
  const ParallelConfig& parallel_config() const { return pcfg_; }
  const mesh::TetMesh& coarse_grid() const { return coarse_; }
  const pic::FineGrid& fine_grid() const { return *fine_; }
  /// The Poisson system, shared with every solver of this geometry and
  /// boundary values (CaseGeometry::poisson).
  const pic::PoissonSystem& poisson_system() const { return *psys_; }
  const dsmc::SpeciesTable& species() const { return species_; }
  const dsmc::CellSampler& sampler() const { return sampler_; }
  std::span<const std::int32_t> owner() const { return owner_; }
  int current_step() const { return step_; }
  const std::vector<StepDiagnostics>& history() const { return history_; }
  const balance::RebalanceStats& rebalance_stats() const { return lb_stats_; }
  /// Timer-augmented cost model state (DESIGN.md §2h).
  const balance::CostModel& cost_model() const { return cost_model_; }
  /// When-to-rebalance policy state and its recorded decisions.
  const balance::RebalancePolicy& policy() const { return policy_; }
  /// Elastic-ensemble policy state and its recorded decisions (§2i).
  const balance::EnsemblePolicy& ensemble() const { return ensemble_; }
  /// Ranks currently participating (== nranks unless the ensemble shrank).
  int active_ranks() const { return active_; }
  /// Per-rank partition-adjacency neighbor lists (built for Strategy::
  /// kNeighbor; empty otherwise).
  const std::vector<std::vector<int>>& neighbors() const { return neighbors_; }

  std::vector<std::int64_t> particles_per_rank() const;
  std::int64_t total_particles() const;
  /// Read-only view of the per-rank particle stores (inspection/tests).
  const std::vector<dsmc::ParticleStore>& stores() const { return stores_; }
  /// Global electric potential on fine-grid nodes (last solve).
  const std::vector<double>& potential() const { return phi_global_; }

  RunSummary summary() const;

  // ---- observability (DESIGN.md §2f) -------------------------------------
  /// Attaches a health auditor; nullptr detaches. Audit hooks run on the
  /// driver thread between supersteps, read accounting state only (plus one
  /// read-only particle re-sum for the charge balance) and never draw
  /// randomness, so attaching an auditor cannot perturb golden digests or
  /// trace bytes. The auditor must outlive the attachment.
  void set_auditor(obs::HealthAuditor* auditor) { auditor_ = auditor; }
  obs::HealthAuditor* auditor() const { return auditor_; }

  /// Attaches a host wall-clock profiler; nullptr detaches. Scopes open
  /// inside superstep bodies (inject/move/reindex/sort/collide/react/
  /// deposit) and around the stages run between supersteps (field_solve/
  /// exchange/rebalance); samples live only in the profiler, strictly
  /// outside deterministic state.
  void set_host_profiler(obs::HostProfiler* prof) { prof_ = prof; }
  obs::HostProfiler* host_profiler() const { return prof_; }

  /// Attaches a live telemetry hub; nullptr detaches. Sampled once per DSMC
  /// step on the driver thread from accounting state only (same contract as
  /// the auditor: read-only, no randomness), so attaching a hub cannot
  /// perturb golden digests, traces or reports. On a HealthAuditor abort
  /// (or any error escaping step()), a fault-injection trip, or a park the
  /// hub's flight recorder is dumped to its postmortem path. The hub must
  /// outlive the attachment.
  void set_telemetry(obs::TelemetryHub* hub) { telemetry_ = hub; }
  obs::TelemetryHub* telemetry() const { return telemetry_; }

  // ---- checkpoint / restart ----------------------------------------------
  /// Writes the complete simulation state (particles, potential, ownership,
  /// RNG stream positions, accounting clocks) to a binary file. Call
  /// between steps.
  void save_checkpoint(const std::string& path) const;
  /// Restores state saved by save_checkpoint into a solver constructed with
  /// the SAME SolverConfig/ParallelConfig (verified by fingerprint).
  /// Continuing the run reproduces the uninterrupted run exactly. A throw
  /// leaves this solver half-restored; the checkpoint constructor does not.
  void restore_checkpoint(const std::string& path);

 private:
  struct Undecomposed {};
  /// Builds what every solver needs (runtime, stores, kernels, Poisson
  /// system, policies) but no decomposition: the public constructors
  /// finish with decompose() or restore_checkpoint().
  CoupledSolver(SolverConfig cfg, ParallelConfig par,
                std::shared_ptr<const CaseGeometry> geom, Undecomposed);
  /// The initial decomposition: an unweighted k-way partition (Sec. IV-A),
  /// its charged layout, the boundary-only field solve and the first busy
  /// window's baseline.
  void decompose();
  /// (Re)builds rank-local cell lists, node exchange, and the distributed
  /// Poisson operator for the current owner_ map; charges setup work under
  /// `phase` when charge_costs is true.
  void rebuild_parallel_structures(const std::string& phase, bool charge_costs);

  /// Bytes and messages routed so far by the three particle-exchange
  /// phases (DSMC_Exchange, PIC_Exchange, Rebalance).
  struct ExchangeVolume {
    double bytes = 0.0;
    std::uint64_t messages = 0;
  };
  ExchangeVolume exchange_volume() const;

  /// Builds the step's obs::StepRecord — the one per-step source of every
  /// observability sink — and feeds it to the attached trace recorder's
  /// counters and the telemetry hub. `start` is exchange_volume() at the
  /// start of this step. Reads accounting state only, so it cannot perturb
  /// the run.
  void record_step(const StepDiagnostics& diag, const ExchangeVolume& start);
  /// step() body; step() wraps it to dump the flight recorder on abort.
  StepDiagnostics step_impl();

  /// Number of removal-flagged particles across all ranks — the drop count
  /// the next exchange must produce. Audit-only read.
  std::int64_t flagged_count() const;

  void do_inject(StepDiagnostics& diag);
  void do_dsmc_move(StepDiagnostics& diag);
  void do_reindex();
  void do_colli_react(StepDiagnostics& diag);
  void do_pic_substep(int substep, StepDiagnostics& diag);
  void do_poisson_solve(StepDiagnostics& diag);
  void maybe_rebalance(StepDiagnostics& diag);
  /// Elastic-ensemble resize check at rebalance-period boundaries (§2i).
  void maybe_resize_ensemble(StepDiagnostics& diag);
  /// Repartitions into `target` parts by plain Eq.-7 weights and
  /// redistributes. A grow activates the new ranks before the repartition
  /// so they can receive; redistribute() parks the ranks of a shrink.
  void resize_active(int target);

  /// Moves every particle to the rank owning its cell under `owner`, under
  /// the auditor's exchange checks; null `neighbors` means dense handshakes.
  exchange::ExchangeStats migrate(
      const char* phase, std::span<const std::int32_t> owner,
      const std::vector<std::vector<int>>* neighbors);
  /// The tail of a rebalance and of a resize: migrates to `new_owner` and
  /// installs it, parks the ranks of a shrink to `target` (now drained),
  /// rebuilds the layout and refreshes the cost model's prediction.
  void redistribute(std::vector<std::int32_t> new_owner, int target);

  struct CellCounts {  // live particles per coarse cell
    std::vector<std::int64_t> neutrals, charged;
  };
  CellCounts count_cells() const;
  /// Eq. 7 summed over each rank's cells: the static model's per-rank load.
  std::vector<double> predicted_loads() const;

  /// Per-rank busy seconds at a window boundary: Eq. 6's total, migration
  /// and Poisson rows, and the cost model's particle phases.
  struct BusyWindow {
    std::vector<double> total, pm, poi, particle;
  };
  BusyWindow capture_busy() const;

  SolverConfig cfg_;
  ParallelConfig pcfg_;

  dsmc::SpeciesTable species_;
  /// Owns the meshes (possibly shared with other solver instances); the
  /// references below alias into it so every existing call site reads
  /// `coarse_` / `refined_` unchanged. Declared before them: member init
  /// order is declaration order.
  std::shared_ptr<const CaseGeometry> geom_;
  const mesh::TetMesh& coarse_;
  const mesh::RefinedMesh& refined_;
  std::unique_ptr<pic::FineGrid> fine_;
  partition::Graph dual_;

  std::unique_ptr<par::Runtime> rt_;
  int active_ = 0;                              // active rank prefix [0, n)
  std::vector<std::int32_t> owner_;             // coarse cell -> rank
  std::vector<std::vector<std::int32_t>> my_cells_;  // per rank (nominal size;
                                                     // parked lists empty)
  std::vector<std::vector<int>> neighbors_;     // partition adjacency (NC)

  std::vector<dsmc::ParticleStore> stores_;          // per rank
  std::vector<std::vector<std::uint8_t>> removed_;   // per rank flags

  // Intra-rank kernel executor (pcfg_.kernel_threads lanes; shared by all
  // rank bodies — batches serialize on its pool) and per-rank reusable
  // scratch so chunking allocates nothing in steady state.
  std::unique_ptr<support::KernelExec> kexec_;
  std::vector<dsmc::CellIndex> cell_index_;  // per rank: built by Reindex,
                                             // reused by Colli_React
  std::vector<dsmc::CollideScratch> collide_scratch_;
  std::vector<pic::DepositScratch> deposit_scratch_;
  std::vector<dsmc::SortScratch> sort_scratch_;      // periodic cell sort

  std::unique_ptr<dsmc::MaxwellianInjector> inject_h_;
  std::unique_ptr<dsmc::MaxwellianInjector> inject_hplus_;
  std::unique_ptr<dsmc::Mover> mover_;
  std::unique_ptr<dsmc::Chemistry> chemistry_;
  std::unique_ptr<dsmc::CollisionKernel> collide_;

  std::shared_ptr<const pic::PoissonSystem> psys_;  // from geom_
  std::unique_ptr<pic::NodeExchange> nodex_;
  linalg::DistMatrix dmat_;
  linalg::DistVector x_;                        // per-rank owned phi
  std::vector<std::vector<double>> phi_local_;  // per-rank, rank_nodes order
  // Per rank: owned row i's slot in rank_nodes (indexes phi_local_).
  std::vector<std::vector<std::int32_t>> owned_slot_;
  std::vector<double> phi_global_;              // driver-side mirror

  dsmc::CellSampler sampler_;

  int step_ = 0;
  int steps_since_rebalance_ = 0;
  BusyWindow prev_busy_;
  std::vector<double> prev_predicted_;  // last step's static wlm per rank
  balance::RebalanceStats lb_stats_;
  balance::CostModel cost_model_;
  balance::RebalancePolicy policy_;
  balance::EnsemblePolicy ensemble_;
  std::vector<StepDiagnostics> history_;

  obs::HealthAuditor* auditor_ = nullptr;  // not owned
  obs::HostProfiler* prof_ = nullptr;      // not owned
  obs::TelemetryHub* telemetry_ = nullptr;  // not owned
  bool fault_fired_ = false;  // a fault-injection site was reached
};

}  // namespace dsmcpic::core
