#include "core/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/telemetry.hpp"
#include "pic/boris.hpp"
#include "pic/deposit.hpp"
#include "pic/field.hpp"
#include "support/error.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {

namespace {

/// Every phase the runtime has run, with its cumulative accounting.
std::vector<obs::PhaseRecord> phase_records(const par::Runtime& rt) {
  std::vector<obs::PhaseRecord> out;
  for (const std::string& name : rt.phases()) {
    const par::PhaseStats ps = rt.phase_stats(name);
    out.push_back({name, ps.busy_max, ps.busy_min, ps.busy_sum,
                   ps.transactions, ps.bytes});
  }
  return out;
}

}  // namespace

double RunSummary::phase_max(const std::string& name) const {
  for (const obs::PhaseRecord& p : phases)
    if (p.name == name) return p.busy_max;
  return 0.0;
}

double RunSummary::busy_sum_total() const {
  double s = 0.0;
  for (const obs::PhaseRecord& p : phases) s += p.busy_sum;
  return s;
}

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par)
    : CoupledSolver(std::move(cfg), par, nullptr) {}

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par,
                             std::shared_ptr<const CaseGeometry> geom)
    : CoupledSolver(std::move(cfg), par, std::move(geom), Undecomposed{}) {
  decompose();
}

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par,
                             std::shared_ptr<const CaseGeometry> geom,
                             const std::string& checkpoint)
    : CoupledSolver(std::move(cfg), par, std::move(geom), Undecomposed{}) {
  restore_checkpoint(checkpoint);
}

CoupledSolver::~CoupledSolver() = default;

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par,
                             std::shared_ptr<const CaseGeometry> geom,
                             Undecomposed)
    : cfg_(cfg),
      pcfg_(par),
      species_(dsmc::SpeciesTable::hydrogen(cfg.fnum_h, cfg.fnum_hplus)),
      geom_(geom ? std::move(geom) : CaseGeometry::build(cfg_.nozzle)),
      coarse_(geom_->coarse),
      refined_(geom_->refined),
      sampler_(coarse_, species_) {
  DSMCPIC_CHECK_MSG(geom_->spec == cfg_.nozzle,
                    "shared CaseGeometry was built from a different NozzleSpec "
                    "than cfg.nozzle");
  const int nranks = pcfg_.nranks;
  DSMCPIC_CHECK_MSG(nranks >= 1, "need at least one rank");

  fine_ = std::make_unique<pic::FineGrid>(coarse_, refined_);

  // Elastic ensemble (§2i): the machine keeps `nranks` nominal ranks but the
  // solver decomposes onto — and the runtime dispatches — only the active
  // prefix. The fixed default (active == nranks) is the dense path.
  ensemble_ = balance::EnsemblePolicy(pcfg_.balance.ensemble, nranks);
  active_ = ensemble_.initial_active();

  // Dual graph of the coarse grid (the only grid that is decomposed).
  coarse_.dual_graph(dual_.xadj, dual_.adjncy);

  rt_ = std::make_unique<par::Runtime>(
      nranks, par::Topology(pcfg_.profile, nranks, pcfg_.placement),
      pcfg_.particle_scale, pcfg_.grid_scale,
      par::ExecOptions{pcfg_.exec_mode, pcfg_.exec_threads});
  if (active_ < nranks) rt_->set_active_ranks(active_);

  psys_ = geom_->poisson(cfg_.poisson_bcs);
  phi_global_.assign(static_cast<std::size_t>(psys_->num_nodes()), 0.0);

  stores_.resize(nranks);
  removed_.assign(nranks, {});

  kexec_ = std::make_unique<support::KernelExec>(pcfg_.kernel_threads);
  cell_index_.resize(nranks);
  collide_scratch_.resize(nranks);
  deposit_scratch_.resize(nranks);
  sort_scratch_.resize(nranks);

  inject_h_ = std::make_unique<dsmc::MaxwellianInjector>(
      coarse_, mesh::BoundaryKind::kInlet,
      dsmc::InjectionSpec{dsmc::kSpeciesH, cfg_.density_h,
                          cfg_.inlet_temperature, cfg_.drift_speed,
                          cfg_.inject_pulse_amplitude,
                          cfg_.inject_pulse_period},
      cfg_.seed);
  inject_hplus_ = std::make_unique<dsmc::MaxwellianInjector>(
      coarse_, mesh::BoundaryKind::kInlet,
      dsmc::InjectionSpec{dsmc::kSpeciesHPlus, cfg_.density_hplus,
                          cfg_.inlet_temperature, cfg_.drift_speed,
                          cfg_.inject_pulse_amplitude,
                          cfg_.inject_pulse_period},
      cfg_.seed ^ 0x517cc1b727220a95ULL);

  dsmc::MoverConfig mcfg = cfg_.mover;
  mcfg.seed = cfg_.seed ^ 0x2545f4914f6cdd1dULL;
  mover_ = std::make_unique<dsmc::Mover>(coarse_, species_, mcfg);

  chemistry_ = std::make_unique<dsmc::Chemistry>(species_, cfg_.chemistry);
  dsmc::CollisionConfig ccfg = cfg_.collisions;
  ccfg.seed = cfg_.seed ^ 0x94d049bb133111ebULL;
  collide_ =
      std::make_unique<dsmc::CollisionKernel>(coarse_, species_, ccfg,
                                              chemistry_.get());

  cost_model_ = balance::CostModel(pcfg_.balance.cost_model, pcfg_.nranks);
  policy_ = balance::RebalancePolicy(pcfg_.balance.policy,
                                     pcfg_.balance.threshold, pcfg_.nranks);
}

void CoupledSolver::decompose() {
  // First decomposition: unweighted, as in the paper (Sec. IV-A).
  if (active_ == 1) {
    owner_.assign(static_cast<std::size_t>(coarse_.num_tets()), 0);
  } else {
    partition::PartitionOptions opt = pcfg_.balance.partition_options;
    owner_ = partition::part_graph_kway(dual_, active_, opt).part;
  }

  rebuild_parallel_structures(phases::kInit, /*charge_costs=*/true);

  // Initial electrostatic field (no charge yet: pure boundary solve).
  StepDiagnostics dummy;
  do_poisson_solve(dummy);

  prev_busy_ = capture_busy();  // baseline for the first window
}

CoupledSolver::BusyWindow CoupledSolver::capture_busy() const {
  return {rt_->busy_all(),
          rt_->busy_totals(std::array<std::string, 2>{phases::kDsmcExchange,
                                                      phases::kPicExchange}),
          rt_->busy_totals(std::array<std::string, 1>{phases::kPoissonSolve}),
          // Particle-proportional phases only: Inject is deliberately
          // excluded — its work is sharded evenly across ranks
          // (round-robin), so including it would flatten the measured
          // shares and make heavily loaded cells look cheaper than they are.
          rt_->busy_totals(std::array<std::string, 3>{
              phases::kDsmcMove, phases::kColliReact, phases::kPicMove})};
}

void CoupledSolver::rebuild_parallel_structures(const std::string& phase,
                                                bool charge_costs) {
  // my_cells_ keeps nominal size so per-rank observers stay stable; parked
  // ranks own nothing and their lists stay empty. Everything that scales
  // with participants (node exchange, Poisson layout) is built active-sized.
  const int nranks = pcfg_.nranks;
  const int active = active_;
  my_cells_.assign(nranks, {});
  for (std::int32_t c = 0; c < coarse_.num_tets(); ++c)
    my_cells_[owner_[c]].push_back(c);

  // Partition adjacency for the neighbor exchange (§2i): rank p neighbors
  // rank q iff some coarse cell of p shares a dual edge with a cell of q.
  neighbors_.assign(nranks, {});
  if (pcfg_.strategy == exchange::Strategy::kNeighbor) {
    for (std::int32_t c = 0; c < coarse_.num_tets(); ++c)
      for (const std::int32_t d : dual_.neighbors(c))
        if (owner_[c] != owner_[d]) neighbors_[owner_[c]].push_back(owner_[d]);
    for (auto& nb : neighbors_) {
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
  }

  nodex_.reset();  // the old layout's tables go before the new ones exist
  nodex_ = std::make_unique<pic::NodeExchange>(*fine_, owner_, active);
  linalg::DistLayout layout =
      linalg::DistLayout::build(active, nodex_->node_owner(), psys_->matrix());
  dmat_ = linalg::DistMatrix::build(psys_->matrix(), std::move(layout));

  // Per-rank potentials from the driver-side mirror; the solve zeroes x_.
  x_.assign(active, {});
  phi_local_.assign(active, {});
  owned_slot_.assign(active, {});
  for (int r = 0; r < active; ++r) {
    const auto& owned = dmat_.layout.owned[r];
    x_[r].resize(owned.size());
    owned_slot_[r].resize(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const std::int32_t li = nodex_->local_index(r, owned[i]);
      DSMCPIC_CHECK_MSG(li >= 0, "rank " << r << " owns row " << owned[i]
                                         << " outside its node list");
      owned_slot_[r][i] = li;
    }
    const auto& nodes = nodex_->rank_nodes(r);
    phi_local_[r].resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      phi_local_[r][i] = phi_global_[nodes[i]];
  }

  if (charge_costs) {
    rt_->superstep(phase, [&](par::Comm& c) {
      // Local FEM block extraction: 8 fine elements per owned coarse cell.
      c.charge(par::WorkKind::kAssemble,
               8.0 * static_cast<double>(my_cells_[c.rank()].size()));
    });
    // Redistributing the potential to the new owners.
    rt_->charge_bcast(phase, 0, 8.0 * static_cast<double>(phi_global_.size()));
  }
}

void CoupledSolver::do_inject(StepDiagnostics& diag) {
  // Per-rank accumulation: superstep bodies may run concurrently, so each
  // rank writes its own slot; the driver reduces afterwards.
  std::vector<std::int64_t> injected(pcfg_.nranks, 0);
  if (cfg_.inject_round_robin) {
    inject_h_->begin_step(species_, cfg_.dt_dsmc, step_);
    inject_hplus_->begin_step(species_, cfg_.dt_dsmc, step_);
  }
  rt_->superstep(phases::kInject, [&](par::Comm& c) {
    const int r = c.rank();
    const obs::HostProfiler::Scope prof(prof_, "inject");
    std::int64_t n_h = 0, n_hp = 0;
    if (cfg_.inject_round_robin) {
      // Shard over the ACTIVE set: parked ranks never run a body, so
      // sharding over the nominal count would silently drop their share.
      n_h = inject_h_->inject_shard(stores_[r], species_, r, active_);
      n_hp = inject_hplus_->inject_shard(stores_[r], species_, r, active_);
    } else {
      n_h = inject_h_->inject(stores_[r], species_, cfg_.dt_dsmc, step_,
                              owner_, r);
      n_hp = inject_hplus_->inject(stores_[r], species_, cfg_.dt_dsmc, step_,
                                   owner_, r);
    }
    removed_[r].resize(stores_[r].size(), 0);
    c.charge(par::WorkKind::kInject, static_cast<double>(n_h + n_hp));
    injected[r] = n_h + n_hp;
  });
  for (const std::int64_t n : injected) diag.injected += n;
  if (auditor_) auditor_->on_injected(diag.injected);
}

std::int64_t CoupledSolver::flagged_count() const {
  std::int64_t n = 0;
  for (const auto& flags : removed_)
    for (const std::uint8_t f : flags) n += (f != 0);
  return n;
}

void CoupledSolver::do_dsmc_move(StepDiagnostics& diag) {
  std::vector<std::int64_t> exited(pcfg_.nranks, 0);
  rt_->superstep(phases::kDsmcMove, [&](par::Comm& c) {
    const int r = c.rank();
    const obs::HostProfiler::Scope prof(prof_, "move");
    const dsmc::MoveStats st = mover_->move_all(
        stores_[r], cfg_.dt_dsmc, step_, removed_[r],
        dsmc::MoveFilter::kNeutralOnly, kexec_.get());
    c.charge(par::WorkKind::kMove, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kWalkStep, static_cast<double>(st.walk_steps));
    exited[r] = st.exited;
  });
  for (const std::int64_t n : exited) diag.exited_dsmc += n;

  diag.migrated_dsmc =
      migrate(phases::kDsmcExchange, owner_, &neighbors_).migrated;

  if (cfg_.fault == FaultInjection::kDropParticle) {
    fault_fired_ = true;
    for (int r = 0; r < pcfg_.nranks; ++r) {
      if (stores_[r].empty()) continue;
      stores_[r].remove_swap(stores_[r].size() - 1);
      removed_[r].resize(stores_[r].size());
      break;
    }
  }
}

void CoupledSolver::do_reindex() {
  std::vector<std::int64_t> counts(active_, 0);
  for (int r = 0; r < active_; ++r)
    counts[r] = static_cast<std::int64_t>(stores_[r].size());
  const std::vector<std::int64_t> offsets =
      rt_->exscan_sum(phases::kReindex, counts);
  rt_->superstep(phases::kReindex, [&](par::Comm& c) {
    const int r = c.rank();
    const obs::HostProfiler::Scope prof(prof_, "reindex");
    // Canonical cell-major renumbering: ids are assigned by ascending coarse
    // cell, ascending PREVIOUS id within each cell (CellIndex sorts its
    // per-cell lists by id). Previous ids are canonical by induction —
    // injector ids are (facet, sequence), spawned-ion ids come from
    // per-(cell, step) streams drawn in canonical collide order — so the
    // new ids, and every id-keyed RNG stream downstream (diffuse wall
    // reflection), do not depend on the store's memory layout, i.e. on
    // whether or when the periodic cell sort ran. The new ids ascend along
    // the index, so it stays valid for Colli_React (DESIGN.md §2g).
    dsmc::CellIndex& index = cell_index_[r];
    index.rebuild(stores_[r], coarse_.num_tets());
    auto ids = stores_[r].ids();
    std::int64_t next = offsets[r];
    for (const std::int32_t p : index.items()) ids[p] = next++;
    DSMCPIC_CHECK(next == offsets[r] + counts[r]);
    c.charge(par::WorkKind::kReindex, static_cast<double>(ids.size()));
  });
}

void CoupledSolver::do_colli_react(StepDiagnostics& diag) {
  struct RankStats {
    std::int64_t collisions = 0, ionizations = 0, recombinations = 0;
  };
  std::vector<RankStats> per_rank(pcfg_.nranks);
  // Periodic cell sort (DESIGN.md §2g): reorder each store cell-major so
  // each cell's particles occupy one contiguous slot range for the collide
  // and deposit traversals. The sort only changes memory layout — traversal
  // semantics are owned by CellIndex, whose per-cell lists are canonicalized
  // by particle id — so every observable is bit-identical for any
  // sort_every. Layout work has no physical analogue, so it charges no
  // virtual time (wall-clock cost is visible via the "sort" host-profiler
  // scope and a trace instant).
  const bool sorted =
      cfg_.sort_every > 0 && step_ % cfg_.sort_every == 0;
  rt_->superstep(phases::kColliReact, [&](par::Comm& c) {
    const int r = c.rank();
    // Reindex built this step's index on the same store; only a sort,
    // which moves particles between slots, makes it stale.
    dsmc::CellIndex& index = cell_index_[r];
    if (sorted) {
      {
        const obs::HostProfiler::Scope prof(prof_, "sort");
        stores_[r].sort_by_cell(coarse_.num_tets(), sort_scratch_[r],
                                removed_[r]);
      }
      index.rebuild(stores_[r], coarse_.num_tets());
    }
    dsmc::CollisionStats cs;
    {
      const obs::HostProfiler::Scope prof(prof_, "collide");
      cs = collide_->collide_cells(stores_[r], index, my_cells_[r],
                                   cfg_.dt_dsmc, step_, kexec_.get(),
                                   &collide_scratch_[r]);
    }
    removed_[r].resize(stores_[r].size(), 0);  // chemistry appended ions
    dsmc::ChemistryStats rs;
    {
      const obs::HostProfiler::Scope prof(prof_, "react");
      rs = chemistry_->recombine(stores_[r], index, my_cells_[r], coarse_,
                                 cfg_.dt_dsmc, step_, removed_[r],
                                 kexec_.get());
    }
    c.charge(par::WorkKind::kCollide, static_cast<double>(cs.candidates));
    c.charge(par::WorkKind::kReact,
             static_cast<double>(cs.ionizations + rs.recombinations));
    per_rank[r] = {cs.collisions, cs.ionizations, rs.recombinations};
  });
  for (const RankStats& s : per_rank) {
    diag.collisions += s.collisions;
    diag.ionizations += s.ionizations;
    diag.recombinations += s.recombinations;
  }
  // Each ionization appended one H+ to a store; recombination flags are
  // consumed by the next exchange (counted there via flagged_count).
  if (auditor_) auditor_->on_spawned(diag.ionizations);
  if (sorted)
    if (trace::TraceRecorder* tr = rt_->tracer())
      tr->add_instant(-1, "sort @ step " + std::to_string(step_),
                      rt_->total_time());
}

void CoupledSolver::do_pic_substep(int substep, StepDiagnostics& diag) {
  const double dt = cfg_.dt_pic();
  const int pic_step = step_ * cfg_.pic_substeps + substep;
  std::vector<std::int64_t> exited(pcfg_.nranks, 0), lost(pcfg_.nranks, 0);
  rt_->superstep(phases::kPicMove, [&](par::Comm& c) {
    const int r = c.rank();
    const obs::HostProfiler::Scope prof(prof_, "move");
    // Gather E from the previous timestep's field at the ion's fine tet
    // (paper Sec. III-B) and Boris-push it; an ion the fine locate cannot
    // place is dropped before its flight.
    const auto gather_push = [&](const Vec3& pos, Vec3& vel,
                                 std::int32_t cell, std::int32_t species) {
      const std::int32_t fc = fine_->locate(cell, pos);
      if (fc < 0) return false;
      const Vec3 e = pic::efield_in_cell(*fine_, fc, nodex_->tet_slots(r, fc),
                                         phi_local_[r]);
      const dsmc::Species& sp = species_[species];
      vel = pic::boris_push(vel, e, cfg_.magnetic_field, sp.charge / sp.mass,
                            dt);
      return true;
    };
    const dsmc::MoveStats st = mover_->move_all(
        stores_[r], dt, pic_step, removed_[r], dsmc::MoveFilter::kChargedOnly,
        kexec_.get(), gather_push);
    // `moved` counts every pushed ion: each one flies exactly once.
    c.charge(par::WorkKind::kFieldGather, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kBorisPush, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kMove, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kWalkStep, static_cast<double>(st.walk_steps));
    exited[r] = st.exited;
    lost[r] = st.lost;
  });
  for (int r = 0; r < pcfg_.nranks; ++r) {
    diag.exited_pic += exited[r];
    diag.pic_lost += lost[r];
  }

  diag.migrated_pic +=
      migrate(phases::kPicExchange, owner_, &neighbors_).migrated;
  do_poisson_solve(diag);
}

exchange::ExchangeStats CoupledSolver::migrate(
    const char* phase, std::span<const std::int32_t> owner,
    const std::vector<std::vector<int>>* neighbors) {
  if (auditor_) auditor_->on_flagged(flagged_count());
  const std::int64_t before = auditor_ ? total_particles() : 0;
  exchange::ExchangeStats ex;
  {
    const obs::HostProfiler::Scope prof(prof_, "exchange");
    ex = exchange::exchange_particles(*rt_, phase, pcfg_.strategy, stores_,
                                      removed_, owner, /*root=*/0, neighbors);
  }
  if (auditor_)
    auditor_->check_exchange(phase, before, ex.dropped, total_particles());
  return ex;
}

void CoupledSolver::do_poisson_solve(StepDiagnostics& diag) {
  const std::string phase = phases::kPoissonSolve;
  auto node_charge = nodex_->make_values();

  rt_->superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    const obs::HostProfiler::Scope prof(prof_, "deposit");
    const pic::DepositStats st = pic::deposit_charge(
        stores_[r], *fine_, species_, *nodex_, r, removed_[r], node_charge[r],
        kexec_.get(), &deposit_scratch_[r]);
    c.charge(par::WorkKind::kDeposit, static_cast<double>(st.deposited));
  });
  if (cfg_.fault == FaultInjection::kSkewDeposit && !node_charge[0].empty()) {
    node_charge[0][0] += 1.0;  // one spurious coulomb on one node
    fault_fired_ = true;
  }
  nodex_->reduce_to_owners(*rt_, phase, node_charge);

  if (auditor_) {
    // Re-sum the charge the deposit should have scattered: every live
    // charged particle the fine locate can place, q * fnum each. Pure read;
    // particle order differs from the scatter order, hence the rel tol.
    double expected = 0.0;
    for (int r = 0; r < pcfg_.nranks; ++r) {
      const auto& store = stores_[r];
      const auto cells = store.cells();
      const auto spec = store.species();
      for (std::size_t i = 0; i < store.size(); ++i) {
        if (removed_[r][i]) continue;
        const dsmc::Species& sp = species_[spec[i]];
        if (!sp.charged()) continue;
        if (fine_->locate(cells[i], store.position(i)) < 0) continue;
        expected += sp.charge * sp.fnum;
      }
    }
    auditor_->check_charge(expected, nodex_->sum_owned(node_charge));
  }

  // Per-rank RHS over owned rows.
  linalg::DistVector b(active_);
  rt_->superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    const auto& owned = dmat_.layout.owned[r];
    const auto& slot = owned_slot_[r];
    b[r].resize(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i)
      b[r][i] = psys_->rhs_at(owned[i], node_charge[r][slot[i]]);
    c.charge(par::WorkKind::kVecFlop, static_cast<double>(owned.size()));
  });

  // PETSc's KSP defaults to a zero initial guess, which is why the paper's
  // Poisson_Solve pays the full iteration count every PIC substep.
  for (auto& xr : x_) std::fill(xr.begin(), xr.end(), 0.0);
  linalg::SolveResult res;
  {
    const obs::HostProfiler::Scope prof(prof_, "field_solve");
    res = linalg::dist_cg(*rt_, phase, dmat_, b, x_, cfg_.poisson);
  }
  diag.poisson_iterations = res.iterations;
  if (auditor_)
    auditor_->check_poisson(res.iterations, res.residual, cfg_.poisson.rel_tol,
                            res.converged);

  // Refresh the driver mirror and the per-rank nodal potentials.
  for (int r = 0; r < active_; ++r) {
    const auto& owned = dmat_.layout.owned[r];
    for (std::size_t i = 0; i < owned.size(); ++i)
      phi_global_[owned[i]] = x_[r][i];
  }
  rt_->superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    const auto& slot = owned_slot_[r];
    for (std::size_t i = 0; i < slot.size(); ++i)
      phi_local_[r][slot[i]] = x_[r][i];
  });
  nodex_->broadcast_from_owners(*rt_, phase, phi_local_);
}

void CoupledSolver::maybe_rebalance(StepDiagnostics& diag) {
  if (pcfg_.nranks <= 1) return;
  ++steps_since_rebalance_;

  // Eq. (6) inputs over the window since the previous step: per-rank total
  // busy time minus the particle-migration and Poisson components.
  const BusyWindow cur = capture_busy();
  const BusyWindow& prev = prev_busy_;
  // lii/policy windows cover the ACTIVE prefix (parked ranks do no work);
  // wpart stays nominal-sized — the cost model's per-rank guards skip parked
  // ranks (their predicted load is zero).
  std::vector<double> wt(active_), wpm(active_), wpoi(active_), wcomp(active_);
  std::vector<double> wpart(pcfg_.nranks);
  for (int r = 0; r < active_; ++r) {
    wt[r] = cur.total[r] - prev.total[r];
    wpm[r] = cur.pm[r] - prev.pm[r];
    wpoi[r] = cur.poi[r] - prev.poi[r];
    // The Eq.-6 signal per rank: pure compute, migration and Poisson out.
    wcomp[r] = wt[r] - wpm[r] - wpoi[r];
  }
  for (int r = 0; r < pcfg_.nranks; ++r)
    wpart[r] = cur.particle[r] - prev.particle[r];
  prev_busy_ = cur;

  const double lii = balance::load_imbalance_indicator(wt, wpm, wpoi);
  diag.lii = lii;
  lb_stats_.last_lii = lii;
  ++lb_stats_.checks;

  const balance::RebalanceConfig& lb = pcfg_.balance;
  const bool elastic = lb.ensemble.kind == balance::EnsembleKind::kElastic;
  if (!lb.enabled && !elastic) return;
  // Measuring lii requires an allgather of the per-rank timings.
  rt_->allgather(phases::kRebalance, wt);

  // Feed the per-step signals every step (EWMAs need the full history, not
  // just period boundaries). Both consume virtual time only.
  policy_.observe_step(wcomp);
  if (elastic) {
    double step_total = 0.0;
    for (const double w : wt) step_total += w;
    ensemble_.observe_step(wcomp, step_total);
  }
  if (cost_model_.config().kind != balance::CostModelKind::kStatic) {
    // The measured window is the work of the particles present at the
    // *start* of this step, so it is regressed against the PREVIOUS step's
    // static prediction — pairing it with end-of-step counts would make
    // fast-growing ranks look cheap and under-provision exactly where the
    // load is arriving.
    std::vector<double> predicted = predicted_loads();
    if (!prev_predicted_.empty())
      cost_model_.observe_step(wpart, prev_predicted_);
    prev_predicted_ = std::move(predicted);
  }

  if (steps_since_rebalance_ < lb.period) return;

  // The ensemble moves first at a period boundary: a resize already
  // repartitions onto the new active set, so a same-step rebalance would be
  // redundant churn. steps_since_rebalance_ resets inside on a resize.
  maybe_resize_ensemble(diag);
  if (steps_since_rebalance_ == 0) return;

  if (!lb.enabled || !policy_.decide(step_, lii).rebalance) return;

  const CellCounts counts = count_cells();
  const std::vector<double> weights = cost_model_.cell_weights(
      owner_, counts.neutrals, counts.charged, lb.weight_ratio,
      lb.cell_weight);

  // Measured cost of the whole event (repartition + KM + migration +
  // rebuild) in virtual time: the busy_max span of the Rebalance phase.
  const double rb_busy_before = rt_->phase_stats(phases::kRebalance).busy_max;
  const bool estimate_learned = policy_.rebalances_observed() > 0;
  const double estimate_before = policy_.rebalance_cost_estimate();

  const obs::HostProfiler::Scope prof_rb(prof_, "rebalance");
  redistribute(balance::redecompose(*rt_, phases::kRebalance, dual_,
                                    coarse_.centroids(), weights, owner_, lb,
                                    lb_stats_, /*nparts=*/0, prof_),
               active_);

  const double rb_measured = std::max(
      0.0, rt_->phase_stats(phases::kRebalance).busy_max - rb_busy_before);
  policy_.observe_rebalance(rb_measured);
  if (cfg_.fault == FaultInjection::kSkewRebalanceCost) fault_fired_ = true;
  // Audit the cost feedback loop — but only once the policy has a learned
  // estimate to hold to account (the first event is by definition a guess).
  if (auditor_ && estimate_learned) {
    const double skew =
        cfg_.fault == FaultInjection::kSkewRebalanceCost ? 1000.0 : 1.0;
    auditor_->check_rebalance_cost(estimate_before * skew, rb_measured);
  }

  steps_since_rebalance_ = 0;
  diag.rebalanced = true;
}

void CoupledSolver::maybe_resize_ensemble(StepDiagnostics& diag) {
  if (pcfg_.balance.ensemble.kind != balance::EnsembleKind::kElastic) return;
  const int target = ensemble_.decide(step_, active_);
  if (target == active_) return;
  {
    const obs::HostProfiler::Scope prof(prof_, "rebalance");
    resize_active(target);
  }
  steps_since_rebalance_ = 0;
  diag.rebalanced = true;
  if (trace::TraceRecorder* tr = rt_->tracer())
    tr->add_instant(-1,
                    "ensemble resize -> " + std::to_string(active_) +
                        " @ step " + std::to_string(step_),
                    rt_->total_time());
}

void CoupledSolver::resize_active(int target) {
  DSMCPIC_CHECK(target >= 1 && target <= pcfg_.nranks);
  const balance::RebalanceConfig& lb = pcfg_.balance;
  const CellCounts counts = count_cells();
  std::vector<double> weights(counts.neutrals.size());
  for (std::size_t c = 0; c < weights.size(); ++c)
    weights[c] = balance::wlm_per_cell(counts.neutrals[c], counts.charged[c],
                                       lb.weight_ratio, lb.cell_weight);

  if (target > active_) {
    rt_->set_active_ranks(target);
    active_ = target;
  }
  redistribute(balance::redecompose(*rt_, phases::kRebalance, dual_,
                                    coarse_.centroids(), weights, owner_, lb,
                                    lb_stats_, /*nparts=*/target, prof_),
               target);
}

void CoupledSolver::redistribute(std::vector<std::int32_t> new_owner,
                                 int target) {
  // Dense handshakes even under Strategy::kNeighbor: the adjacency lists
  // belong to the old partition, and a redistribution moves cells wholesale.
  migrate(phases::kRebalance, new_owner, /*neighbors=*/nullptr);
  owner_ = std::move(new_owner);
  // Every rank was still dispatched for the migration, so the parked ranks
  // of a shrink have drained; they leave the dispatch set before the rebuild.
  if (target < active_) {
    rt_->set_active_ranks(target);
    active_ = target;
  }
  rebuild_parallel_structures(phases::kRebalance, /*charge_costs=*/true);

  // The decomposition and each rank's population just changed: the next
  // measured window must regress against the post-migration counts, not the
  // stale pre-redistribution ones.
  if (!prev_predicted_.empty()) prev_predicted_ = predicted_loads();
}

CoupledSolver::CellCounts CoupledSolver::count_cells() const {
  CellCounts n{std::vector<std::int64_t>(coarse_.num_tets(), 0),
               std::vector<std::int64_t>(coarse_.num_tets(), 0)};
  for (int r = 0; r < pcfg_.nranks; ++r) {
    const auto cells = stores_[r].cells();
    const auto spec = stores_[r].species();
    for (std::size_t i = 0; i < stores_[r].size(); ++i) {
      if (removed_[r][i]) continue;
      auto& count = species_[spec[i]].charged() ? n.charged : n.neutrals;
      ++count[cells[i]];
    }
  }
  return n;
}

std::vector<double> CoupledSolver::predicted_loads() const {
  const balance::RebalanceConfig& lb = pcfg_.balance;
  std::vector<double> load(pcfg_.nranks);
  for (int r = 0; r < pcfg_.nranks; ++r)
    load[r] = balance::wlm(
        stores_[r].count_species(dsmc::kSpeciesH),
        stores_[r].count_species(dsmc::kSpeciesHPlus),
        static_cast<std::int64_t>(my_cells_[r].size()), lb.weight_ratio,
        lb.cell_weight);
  return load;
}

CoupledSolver::ExchangeVolume CoupledSolver::exchange_volume() const {
  ExchangeVolume v;
  for (const char* phase :
       {phases::kDsmcExchange, phases::kPicExchange, phases::kRebalance}) {
    const par::PhaseStats ps = rt_->phase_stats(phase);
    v.bytes += ps.bytes;
    v.messages += ps.transactions;
  }
  return v;
}

void CoupledSolver::record_step(const StepDiagnostics& diag,
                                const ExchangeVolume& start) {
  obs::StepRecord rec;
  rec.diag = diag;
  rec.supersteps = rt_->supersteps();
  rec.virtual_time = rt_->total_time();
  rec.active_ranks = active_;
  rec.particles = total_particles();

  rec.phases = phase_records(*rt_);
  const ExchangeVolume end = exchange_volume();
  rec.exchange_bytes = end.bytes - start.bytes;
  rec.exchange_messages = end.messages - start.messages;
  const par::PoolStats pool = rt_->pool_stats();
  rec.pool_acquires = pool.acquires;
  rec.pool_misses = pool.misses;
  rec.pool_recycles = pool.recycles;

  double scale_sum = 0.0;
  for (int r = 0; r < active_; ++r) {
    const double sc = cost_model_.rank_scale(r);
    if (r == 0 || sc < rec.cost_scale_min) rec.cost_scale_min = sc;
    if (r == 0 || sc > rec.cost_scale_max) rec.cost_scale_max = sc;
    scale_sum += sc;
  }
  if (active_ > 0) rec.cost_scale_mean = scale_sum / active_;

  const std::vector<balance::PolicyDecision>& decisions = policy_.decisions();
  auto first = decisions.end();
  while (first != decisions.begin() && (first - 1)->step == diag.dsmc_step)
    --first;
  rec.decisions.assign(first, decisions.end());

  if (auditor_) {
    rec.audit_checks = auditor_->report().checks();
    rec.audit_violations = auditor_->report().violations();
  }

  for (int r = 0; r < pcfg_.nranks; ++r) {
    rec.cells_owned.push_back(static_cast<std::int64_t>(my_cells_[r].size()));
    rec.rank_clocks.push_back(rt_->clock(r));
  }

  if (trace::TraceRecorder* tr = rt_->tracer())
    obs::record_trace_counters(*tr, rec);
  if (telemetry_) telemetry_->on_step(rec);
}

StepDiagnostics CoupledSolver::step() {
  try {
    StepDiagnostics diag = step_impl();
    // A fault-injection mode tripping is a postmortem trigger: the first
    // faulty step dumps the flight recorder (including its own sample), so
    // the forensics cover the exact boundary where the books went wrong.
    if (telemetry_ && fault_fired_ && !telemetry_->postmortem_written()) {
      const char* reason = "fault";
      switch (cfg_.fault) {
        case FaultInjection::kDropParticle: reason = "fault_drop_particle"; break;
        case FaultInjection::kSkewDeposit: reason = "fault_skew_deposit"; break;
        case FaultInjection::kSkewRebalanceCost:
          reason = "fault_skew_rebalance_cost";
          break;
        case FaultInjection::kNone: break;
      }
      telemetry_->dump_postmortem(reason);
    }
    return diag;
  } catch (...) {
    // HealthAuditor kAbort (or any error escaping the step) — dump the
    // completed supersteps before the exception unwinds the run.
    if (telemetry_) telemetry_->dump_postmortem("abort");
    throw;
  }
}

StepDiagnostics CoupledSolver::step_impl() {
  StepDiagnostics diag;
  diag.dsmc_step = step_;
  // The step record's exchange volume is the difference to this snapshot,
  // so it stays per-step across checkpoint restores.
  const bool observed = telemetry_ != nullptr || rt_->tracer() != nullptr;
  const ExchangeVolume exch_start =
      observed ? exchange_volume() : ExchangeVolume{};

  if (auditor_) auditor_->begin_step(step_, total_particles());
  do_inject(diag);
  do_dsmc_move(diag);
  do_reindex();
  do_colli_react(diag);
  for (int k = 0; k < cfg_.pic_substeps; ++k) do_pic_substep(k, diag);

  sampler_.begin_snapshot();
  for (const auto& store : stores_) sampler_.accumulate(store);
  maybe_rebalance(diag);

  diag.particles_per_rank = particles_per_rank();
  for (const auto& store : stores_) {
    diag.total_h += store.count_species(dsmc::kSpeciesH);
    diag.total_hplus += store.count_species(dsmc::kSpeciesHPlus);
  }

  if (auditor_) {
    auditor_->check_ownership(owner_, active_, my_cells_);
    auditor_->end_step(
        total_particles(),
        static_cast<std::int64_t>(rt_->undelivered_messages()));
  }
  // After the auditor closed the step, so the record carries this step's
  // full audit tallies; an abort above leaves this step out of every sink
  // (only COMPLETED steps are recorded).
  if (observed) record_step(diag, exch_start);

  ++step_;
  history_.push_back(diag);
  return diag;
}

void CoupledSolver::run(int n) {
  for (int i = 0; i < n; ++i) step();
}

std::vector<std::int64_t> CoupledSolver::particles_per_rank() const {
  std::vector<std::int64_t> out(pcfg_.nranks, 0);
  for (int r = 0; r < pcfg_.nranks; ++r)
    out[r] = static_cast<std::int64_t>(stores_[r].size());
  return out;
}

std::int64_t CoupledSolver::total_particles() const {
  std::int64_t n = 0;
  for (const auto& s : stores_) n += static_cast<std::int64_t>(s.size());
  return n;
}

RunSummary CoupledSolver::summary() const {
  RunSummary s;
  s.total_time = rt_->total_time();
  s.phases = phase_records(*rt_);
  s.rebalance = lb_stats_;
  s.decisions = policy_.decisions();
  s.ensemble_decisions = ensemble_.decisions();
  s.final_particles = total_particles();
  s.supersteps = rt_->supersteps();
  s.active_ranks = active_;
  return s;
}

}  // namespace dsmcpic::core
