// Step ledger: the host cost of the coupled DSMC/PIC step, end to end and
// layer by layer. README.md in this directory lists the workloads, the
// metrics and what each layer metric should move.
//
// Every workload repeats one fixed unit of work, a batch, as many times as
// fit in --seconds at the time budgeted per batch (batch_count):
//  * a solver workload runs the DSMC-step window [W, W+B). The solver is
//    stepped to W once and checkpointed; the uninterrupted pass through the
//    window is the first batch and the reference. Every later batch
//    restores the checkpoint and runs the window again, and its digest must
//    equal the reference's. On wide-1024, whose rebalance step costs two
//    ordinary steps, that step also runs on its own after every batch,
//    from a checkpoint taken just before it.
//  * fleet-lease runs FleetRunner::run_all over a fixed job list; every
//    run must finish, with the digest it had in the first batch.
// A timing is each repeated unit's (window step's, fleet job's) fastest
// repetition, then the median or (window) sum over the units; set-up is the
// median of repeated set-ups.
//
// --trace 1 gives the per-layer metrics. Untraced and traced batches
// alternate. A traced batch attaches a HealthAuditor and, between step()
// calls, replays each module's public calls on copies of the solver's state,
// read through its const accessors, on a private par::Runtime, so the
// replays cannot move the run: the traced digest must equal the untraced
// one. Spans stay in memory and are written once, at the end.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/case_geometry.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "exchange/exchange.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "linalg/dist.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "obs/health_auditor.hpp"
#include "partition/partitioner.hpp"
#include "pic/deposit.hpp"
#include "pic/node_exchange.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "trace/json_writer.hpp"

using namespace dsmcpic;

namespace {

using Clock = std::chrono::steady_clock;
namespace ph = core::phases;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear interpolation between the closest ranks (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Timings of repeated identical work: one row per repetition, each row
/// timing the same units (window steps, fleet jobs) in the same order.
using Repeats = std::vector<std::vector<double>>;

/// Each unit's fastest repetition. Interference from other tenants of a
/// shared host only ever adds time, so the fastest of several identical
/// repetitions is the steadiest estimate of a unit's cost (Chen & Revels,
/// "Robust benchmarking in noisy environments", arXiv:1608.04295).
std::vector<double> best_of(const Repeats& reps) {
  std::vector<double> best = reps.front();
  for (const std::vector<double>& row : reps)
    for (std::size_t k = 0; k < best.size(); ++k)
      best[k] = std::min(best[k], row[k]);
  return best;
}

std::size_t samples_in(const Repeats& reps) {
  return reps.size() * reps.front().size();
}

/// CPUs this process may run on (its affinity mask, not the machine's).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Spreads repetitions over the usable CPUs: pin(k) moves the calling
/// thread to the k-th of them, round robin, and release() (or the
/// destructor) restores the full mask. On a shared host a co-tenant can
/// slow one CPU for seconds at a time; with repetitions on every CPU it
/// cannot slow them all, so best-of and median statistics stay steady.
/// Threads started while pinned inherit the pin, so release() before
/// starting a thread pool.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- spans and samples -------------------------------------------------------

/// The spans of a traced run, kept in memory and written once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, std::string layer, int step, int parent) {
    spans_.push_back(
        {std::move(name), std::move(layer), step, now_us(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in milliseconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) / 1000.0;
  }
  template <class Fn>
  double time(std::string name, std::string layer, int step, int parent,
              Fn&& fn) {
    const int id = open(std::move(name), std::move(layer), step, parent);
    fn();
    return close(id);
  }

  void write(const std::string& path) const {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    DSMCPIC_CHECK_MSG(os.good(), "cannot write " << path);
    trace::JsonWriter w(os);
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("layer", s.layer);
      w.kv("step", s.step);
      w.kv("start_us", s.start_us);
      w.kv("end_us", s.end_us);
      w.kv("parent", s.parent);
      w.end_object();
    }
    w.end_array();
    w.finish();
    os << "\n";
  }

 private:
  struct Span {
    std::string name, layer;
    int step;
    double start_us, end_us;
    int parent;  // index into spans_, -1 for a root
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Samples per metric name; a reported metric is the median of its samples.
using Samples = std::map<std::string, std::vector<double>>;

struct Result {
  std::int64_t attempted = 0;  // steps (solver workloads) or runs (fleet)
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  std::int64_t final_particles = 0;
  int fleet_slots = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::int64_t> samples;  // count behind each metric
  std::map<std::string, double> calibration;    // printed, not gated

  void set(const std::string& name, double value, std::size_t n) {
    metrics[name] = value;
    samples[name] = static_cast<std::int64_t>(n);
  }
  void set_median(const std::string& name, const Samples& smp) {
    const auto it = smp.find(name);
    if (it == smp.end()) {
      set(name, 0.0, 0);
    } else {
      set(name, median(it->second), it->second.size());
    }
  }
  void fail(std::int64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- virtual-time window -------------------------------------------------------

constexpr std::array<const char*, 9> kPaperPhases = {
    ph::kInject,      ph::kDsmcMove,    ph::kDsmcExchange,
    ph::kReindex,     ph::kColliReact,  ph::kPicMove,
    ph::kPicExchange, ph::kPoissonSolve, ph::kRebalance};
constexpr std::array<const char*, 4> kMessagePhases = {
    ph::kDsmcExchange, ph::kPicExchange, ph::kPoissonSolve, ph::kRebalance};

struct PhaseWindow {
  double busy_max = 0.0;  // busiest rank's virtual seconds in the window
  double wait = 0.0;      // busy_max - mean busy: the imbalance wait
  double msgs = 0.0;
  double bytes = 0.0;
};
using PhaseWindows = std::map<std::string, PhaseWindow>;

/// Cumulative per-rank busy time and traffic of every paper phase; two
/// snapshots bound one window's virtual-time breakdown.
struct VirtualSnapshot {
  std::map<std::string, std::vector<double>> busy;
  std::map<std::string, par::PhaseStats> stats;

  static VirtualSnapshot take(const par::Runtime& rt) {
    VirtualSnapshot s;
    for (const char* p : kPaperPhases) {
      s.busy[p] = rt.phase_busy(p);
      s.stats[p] = rt.phase_stats(p);
    }
    return s;
  }
};

PhaseWindows window_between(const VirtualSnapshot& a, const VirtualSnapshot& b,
                            int active) {
  PhaseWindows out;
  for (const char* p : kPaperPhases) {
    double max = 0.0, sum = 0.0;
    for (int r = 0; r < active; ++r) {
      const double d = b.busy.at(p)[r] - a.busy.at(p)[r];
      max = std::max(max, d);
      sum += d;
    }
    PhaseWindow& w = out[p];
    w.busy_max = max;
    w.wait = std::max(0.0, max - sum / active);  // no rounding below zero
    w.msgs = static_cast<double>(b.stats.at(p).transactions -
                                 a.stats.at(p).transactions);
    w.bytes = b.stats.at(p).bytes - a.stats.at(p).bytes;
  }
  return out;
}

// ---- one pass over solver steps -------------------------------------------------

struct Pass {
  std::vector<double> step_ms;
  std::uint64_t digest = 0;  // fleet::RunDigest of the pass's steps
  std::int64_t particles = 0;
  int steps = 0;
  int rebalances = 0;
  std::uint64_t supersteps = 0;
  PhaseWindows phases;
  double virtual_s = 0.0;  // end-to-end virtual seconds at the pass's end
};

/// Runs `steps` DSMC steps, timing each one; `between` runs after every
/// step, outside its timing. With `spans`, each step is also a span.
template <class Between>
Pass run_pass(core::CoupledSolver& s, int steps, SpanLog* spans,
              Between&& between) {
  Pass p;
  p.steps = steps;
  fleet::RunDigest digest;
  const VirtualSnapshot v0 = VirtualSnapshot::take(s.runtime());
  const int rb0 = s.rebalance_stats().rebalances;
  const std::uint64_t ss0 = s.runtime().supersteps();
  for (int i = 0; i < steps; ++i) {
    const int span = spans ? spans->open("step", "core", s.current_step(), -1)
                           : -1;
    const auto ts = Clock::now();
    const core::StepDiagnostics d = s.step();
    p.step_ms.push_back(ms_since(ts));
    if (spans) spans->close(span);
    digest.absorb(d);
    between(d);
  }
  digest.absorb_final(s.runtime());
  p.digest = digest.value();
  p.particles = s.total_particles();
  p.rebalances = s.rebalance_stats().rebalances - rb0;
  p.supersteps = s.runtime().supersteps() - ss0;
  p.phases = window_between(v0, VirtualSnapshot::take(s.runtime()),
                            s.active_ranks());
  p.virtual_s = s.runtime().total_time();
  return p;
}

/// Sums a pass into an aggregate over several runs (the fleet's scenarios).
void accumulate(Pass& into, const Pass& p) {
  into.step_ms.insert(into.step_ms.end(), p.step_ms.begin(), p.step_ms.end());
  into.steps += p.steps;
  into.rebalances += p.rebalances;
  into.supersteps += p.supersteps;
  into.virtual_s += p.virtual_s;
  for (const auto& [name, w] : p.phases) {
    PhaseWindow& t = into.phases[name];
    t.busy_max += w.busy_max;
    t.wait += w.wait;
    t.msgs += w.msgs;
    t.bytes += w.bytes;
  }
}

// ---- per-layer replays ------------------------------------------------------------

/// The replays' own mesh stack, built call by call as the solver builds it;
/// its build time is the mesh layer's metric.
struct MeshStack {
  mesh::TetMesh coarse;
  mesh::RefinedMesh refined;
  std::unique_ptr<pic::PoissonSystem> poisson;
};

std::unique_ptr<MeshStack> build_mesh(const core::SolverConfig& cfg,
                                      SpanLog& spans, Samples& smp) {
  auto m = std::make_unique<MeshStack>();
  const int root = spans.open("mesh.build", "mesh", -1, -1);
  spans.time("mesh.make_cylinder_nozzle", "mesh", -1, root,
             [&] { m->coarse = mesh::make_cylinder_nozzle(cfg.nozzle); });
  spans.time("mesh.red_refine", "mesh", -1, root, [&] {
    m->refined =
        mesh::red_refine(m->coarse, mesh::nozzle_classifier(cfg.nozzle));
  });
  spans.time("pic.fine_grid", "pic", -1, root, [&] {
    const pic::FineGrid fine(m->coarse, m->refined);
    (void)fine;
  });
  spans.time("pic.poisson_assembly", "pic", -1, root, [&] {
    m->poisson =
        std::make_unique<pic::PoissonSystem>(m->refined.mesh, cfg.poisson_bcs);
  });
  smp["mesh.build_s"].push_back(spans.close(root) / 1000.0);
  return m;
}

dsmc::InjectionSpec injection(const core::SolverConfig& cfg,
                              std::int32_t species, double density) {
  return {species,
          density,
          cfg.inlet_temperature,
          cfg.drift_speed,
          cfg.inject_pulse_amplitude,
          cfg.inject_pulse_period};
}

/// Replays one DSMC step's public module calls on copies of a solver's
/// state — inject, move, exchange, sort, index, collide, deposit, reduce,
/// CG, halo, partition, KM and an empty superstep — timing each call as a
/// span. It reads the solver only through const accessors and charges its
/// virtual time to a private runtime, so a replay cannot perturb the run.
class Replayer {
 public:
  Replayer(const core::CoupledSolver& s, const pic::PoissonSystem& poisson,
           SpanLog& spans, Samples& smp)
      : s_(s),
        poisson_(poisson),
        spans_(spans),
        smp_(smp),
        rt_(s.parallel_config().nranks,
            par::Topology(s.parallel_config().profile,
                          s.parallel_config().nranks,
                          s.parallel_config().placement),
            s.parallel_config().particle_scale,
            s.parallel_config().grid_scale),
        inject_h_(s.coarse_grid(), mesh::BoundaryKind::kInlet,
                  injection(s.config(), dsmc::kSpeciesH, s.config().density_h),
                  s.config().seed),
        inject_hplus_(s.coarse_grid(), mesh::BoundaryKind::kInlet,
                      injection(s.config(), dsmc::kSpeciesHPlus,
                                s.config().density_hplus),
                      s.config().seed + 1),
        mover_(s.coarse_grid(), s.species(), s.config().mover),
        chemistry_(s.species(), s.config().chemistry),
        collide_(s.coarse_grid(), s.species(), s.config().collisions,
                 &chemistry_) {
    s.coarse_grid().dual_graph(dual_.xadj, dual_.adjncy);
    const auto n = static_cast<std::size_t>(s.parallel_config().nranks);
    index_.resize(n);
    sort_.resize(n);
    collide_scratch_.resize(n);
    deposit_.resize(n);
  }

  /// Replays step `step` on the solver's current state. An unrecorded
  /// replay only grows the per-rank scratch to the window's size, so the
  /// recorded ones time warm buffers, as the solver's own steps do.
  void replay(int step, bool record = true);

 private:
  const core::CoupledSolver& s_;
  const pic::PoissonSystem& poisson_;
  SpanLog& spans_;
  Samples& smp_;
  par::Runtime rt_;
  dsmc::MaxwellianInjector inject_h_, inject_hplus_;
  dsmc::Mover mover_;
  dsmc::Chemistry chemistry_;  // before collide_, which points at it
  dsmc::CollisionKernel collide_;
  partition::Graph dual_;
  std::vector<dsmc::CellIndex> index_;
  std::vector<dsmc::SortScratch> sort_;
  std::vector<dsmc::CollideScratch> collide_scratch_;
  std::vector<pic::DepositScratch> deposit_;
};

void Replayer::replay(int step, bool record) {
  const core::SolverConfig& cfg = s_.config();
  const core::ParallelConfig& pcfg = s_.parallel_config();
  const dsmc::SpeciesTable& species = s_.species();
  const std::span<const std::int32_t> owner = s_.owner();
  const std::int32_t ncells = s_.coarse_grid().num_tets();
  const int active = s_.active_ranks();
  if (rt_.active_ranks() != active) rt_.set_active_ranks(active);

  const int root =
      spans_.open(record ? "replay" : "replay.warmup", "bench", step, -1);
  auto timed = [&](const char* name, const char* layer, auto&& fn) {
    return spans_.time(name, layer, step, root, fn);
  };

  std::vector<dsmc::ParticleStore> stores = s_.stores();
  std::vector<std::vector<std::uint8_t>> removed(stores.size());
  std::vector<std::vector<std::int32_t>> my_cells(
      static_cast<std::size_t>(active));
  for (std::int32_t c = 0; c < ncells; ++c) my_cells[owner[c]].push_back(c);

  // dsmc: inject, as the solver shards it (or per inlet-cell owner).
  std::int64_t injected = 0;
  const double inject_ms = timed("dsmc.inject", "dsmc", [&] {
    if (cfg.inject_round_robin) {
      inject_h_.begin_step(species, cfg.dt_dsmc, step);
      inject_hplus_.begin_step(species, cfg.dt_dsmc, step);
    }
    for (int r = 0; r < active; ++r) {
      if (cfg.inject_round_robin) {
        injected += inject_h_.inject_shard(stores[r], species, r, active);
        injected += inject_hplus_.inject_shard(stores[r], species, r, active);
      } else {
        injected += inject_h_.inject(stores[r], species, cfg.dt_dsmc, step,
                                     owner, r);
        injected += inject_hplus_.inject(stores[r], species, cfg.dt_dsmc,
                                         step, owner, r);
      }
    }
  });
  for (std::size_t r = 0; r < stores.size(); ++r)
    removed[r].assign(stores[r].size(), 0);

  // dsmc: free flight of the neutrals (DSMC_Move).
  dsmc::MoveStats mv;
  const double move_ms = timed("dsmc.move", "dsmc", [&] {
    for (int r = 0; r < active; ++r) {
      const dsmc::MoveStats st =
          mover_.move_all(stores[r], cfg.dt_dsmc, step, removed[r],
                          dsmc::MoveFilter::kNeutralOnly);
      mv.moved += st.moved;
      mv.walk_steps += st.walk_steps;
    }
  });

  // exchange: migrate the moved copies (DSMC_Exchange).
  exchange::ExchangeStats ex;
  const double exchange_ms = timed("exchange.particles", "exchange", [&] {
    ex = exchange::exchange_particles(rt_, ph::kDsmcExchange, pcfg.strategy,
                                      stores, removed, owner, /*root=*/0,
                                      &s_.neighbors());
  });

  // dsmc: cell sort, cell index, NTC collisions (Colli_React).
  const double sort_ms = timed("dsmc.sort", "dsmc", [&] {
    for (int r = 0; r < active; ++r)
      stores[r].sort_by_cell(ncells, sort_[r], removed[r]);
  });
  const double index_ms = timed("dsmc.index", "dsmc", [&] {
    for (int r = 0; r < active; ++r) index_[r].rebuild(stores[r], ncells);
  });
  dsmc::CollisionStats cs;
  const double collide_ms = timed("dsmc.collide", "dsmc", [&] {
    for (int r = 0; r < active; ++r) {
      const dsmc::CollisionStats st = collide_.collide_cells(
          stores[r], index_[r], my_cells[r], cfg.dt_dsmc, step,
          /*exec=*/nullptr, &collide_scratch_[r]);
      cs.candidates += st.candidates;
      cs.collisions += st.collisions;
    }
  });
  for (std::size_t r = 0; r < stores.size(); ++r)
    removed[r].resize(stores[r].size(), 0);  // chemistry appended ions

  // pic: charge deposit and the shared-node reduction (Poisson_Solve).
  const pic::NodeExchange nodex(s_.fine_grid(), owner, active);
  std::vector<std::vector<double>> charge = nodex.make_values();
  std::int64_t deposited = 0;
  const double deposit_ms = timed("pic.deposit", "pic", [&] {
    for (int r = 0; r < active; ++r)
      deposited += pic::deposit_charge(stores[r], s_.fine_grid(), species,
                                       nodex.rank_nodes(r), removed[r],
                                       charge[r], /*exec=*/nullptr,
                                       &deposit_[r])
                       .deposited;
  });
  const double reduce_ms = timed("pic.reduce", "pic", [&] {
    nodex.reduce_to_owners(rt_, ph::kPoissonSolve, charge);
  });

  // linalg: distributed CG on the solver's row layout, from a zero guess.
  const linalg::DistMatrix dmat = linalg::DistMatrix::build(
      poisson_.matrix(), linalg::DistLayout::build(active, nodex.node_owner(),
                                                   poisson_.matrix()));
  linalg::DistVector b(static_cast<std::size_t>(active));
  linalg::DistVector x(static_cast<std::size_t>(active));
  for (int r = 0; r < active; ++r) {
    const auto& owned = dmat.layout.owned[r];
    b[r].resize(owned.size());
    x[r].assign(owned.size(), 0.0);
    for (std::size_t i = 0; i < owned.size(); ++i)
      b[r][i] = poisson_.rhs_at(owned[i],
                                charge[r][nodex.local_index(r, owned[i])]);
  }
  linalg::SolveResult sr;
  const double cg_ms = timed("linalg.cg", "linalg", [&] {
    sr = linalg::dist_cg(rt_, ph::kPoissonSolve, dmat, b, x, cfg.poisson);
  });
  std::vector<std::vector<double>> local(static_cast<std::size_t>(active));
  for (int r = 0; r < active; ++r) {
    local[r].assign(static_cast<std::size_t>(dmat.layout.local_size(r)), 0.0);
    std::copy(x[r].begin(), x[r].end(), local[r].begin());
  }
  std::vector<double> halo_us;
  for (int k = 0; k < 5; ++k)
    halo_us.push_back(1000.0 * timed("linalg.halo", "linalg", [&] {
      linalg::halo_exchange(rt_, ph::kPoissonSolve, dmat.layout, local);
    }));

  // partition + balance: repartition the live particles' Eq.-7 weights,
  // scaled to integers the way balance::redecompose does, then KM-remap.
  const balance::RebalanceConfig& lb = pcfg.balance;
  std::vector<double> wlm(static_cast<std::size_t>(ncells), lb.cell_weight);
  for (const dsmc::ParticleStore& st : s_.stores()) {
    const auto cells = st.cells();
    const auto spec = st.species();
    for (std::size_t i = 0; i < st.size(); ++i)
      wlm[cells[i]] += species[spec[i]].charged() ? lb.weight_ratio : 1.0;
  }
  partition::Graph weighted = dual_;
  weighted.vwgt.resize(static_cast<std::size_t>(ncells));
  std::vector<double> keep(static_cast<std::size_t>(ncells));
  for (std::int32_t c = 0; c < ncells; ++c) {
    weighted.vwgt[c] =
        std::max<std::int64_t>(1, std::llround(wlm[c] * 16.0));
    keep[c] = static_cast<double>(weighted.vwgt[c]);
  }
  partition::PartitionResult pr;
  const double kway_ms = timed("partition.kway", "partition", [&] {
    pr = partition::part_graph_kway(weighted, active, lb.partition_options);
  });
  std::int64_t km_ops = 0;
  const double km_ms = timed("balance.km", "balance", [&] {
    balance::km_remap(owner, pr.part, keep, active, &km_ops);
  });

  // par: dispatch cost of an empty superstep at this rank count.
  std::vector<double> superstep_us;
  for (int k = 0; k < 10; ++k)
    superstep_us.push_back(1000.0 * timed("par.superstep", "par", [&] {
      rt_.superstep("bench.empty", [](par::Comm&) {});
    }));
  spans_.close(root);
  if (!record) return;

  auto add = [&](const std::string& name, double v) {
    smp_[name].push_back(v);
  };
  for (const double us : halo_us) add("linalg.halo.us_per_call", us);
  for (const double us : superstep_us) add("par.superstep_us", us);
  add("dsmc.inject.ms_per_step", inject_ms);
  add("dsmc.inject.particles", static_cast<double>(injected));
  add("dsmc.move.ms_per_step", move_ms);
  add("dsmc.move.particles_per_s", ratio(mv.moved, move_ms / 1000.0));
  add("dsmc.move.face_crossings", static_cast<double>(mv.walk_steps));
  add("exchange.ms_per_call", exchange_ms);
  add("exchange.migrated", static_cast<double>(ex.migrated));
  add("exchange.us_per_migrated", ratio(1000.0 * exchange_ms, ex.migrated));
  add("dsmc.sort.ms_per_call", sort_ms / active);
  add("dsmc.sort.ms_per_step", sort_ms);
  add("dsmc.index.ms_per_call", index_ms / active);
  add("dsmc.index.ms_per_step", index_ms);
  add("dsmc.collide.ms_per_step", collide_ms);
  add("dsmc.collide.candidates_per_s",
      ratio(static_cast<double>(cs.candidates), collide_ms / 1000.0));
  add("dsmc.collide.accept_ratio", ratio(cs.collisions, cs.candidates));
  add("pic.deposit.ms_per_step", deposit_ms);
  add("pic.deposit.particles_per_s", ratio(deposited, deposit_ms / 1000.0));
  add("pic.reduce.ms_per_call", reduce_ms);
  add("linalg.cg.ms_per_solve", cg_ms);
  add("linalg.cg.iterations", sr.iterations);
  add("linalg.cg.us_per_iteration", ratio(1000.0 * cg_ms, sr.iterations));
  add("linalg.cg.unconverged", sr.converged ? 0.0 : 1.0);
  add("partition.kway.ms_per_call", kway_ms);
  add("partition.edge_cut", static_cast<double>(pr.cut));
  add("partition.imbalance", pr.imbalance);
  add("balance.km.ms_per_call", km_ms);
  add("balance.km.ops", static_cast<double>(km_ops));
}

/// Per-layer metrics reported as the median of their samples (replays,
/// checkpoint round trips, mesh builds).
const std::vector<std::string> kMedianMetrics = {
    "dsmc.move.ms_per_step",     "dsmc.move.particles_per_s",
    "dsmc.move.face_crossings",  "dsmc.inject.ms_per_step",
    "dsmc.inject.particles",     "dsmc.index.ms_per_call",
    "dsmc.sort.ms_per_call",     "dsmc.collide.ms_per_step",
    "dsmc.collide.candidates_per_s", "dsmc.collide.accept_ratio",
    "pic.deposit.ms_per_step",   "pic.deposit.particles_per_s",
    "pic.reduce.ms_per_call",    "linalg.cg.ms_per_solve",
    "linalg.cg.iterations",      "linalg.cg.us_per_iteration",
    "linalg.halo.us_per_call",   "exchange.ms_per_call",
    "exchange.migrated",         "exchange.us_per_migrated",
    "partition.kway.ms_per_call", "partition.edge_cut",
    "partition.imbalance",       "balance.km.ms_per_call",
    "balance.km.ops",            "par.superstep_us",
    "core.checkpoint.save_ms",   "core.checkpoint.restore_ms",
    "core.checkpoint.bytes",     "mesh.build_s"};

/// Spearman rank correlation (average ranks for ties).
double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t i, std::size_t j) { return v[i] < v[j]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size();) {
      std::size_t j = i;
      while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) ++j;
      for (std::size_t k = i; k <= j; ++k)
        r[idx[k]] = 0.5 * static_cast<double>(i + j);
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> ra = ranks(a), rb = ranks(b);
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i] / n;
    mb += rb[i] / n;
  }
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return ratio(cov, std::sqrt(va * vb));
}

/// Fills the per-layer metrics every workload reports from its replays and
/// its reference window `ref`; `untraced` / `traced` are the step timings
/// of untraced and traced batches of the same window.
void set_layer_metrics(Result& res, const Samples& smp, const Pass& ref,
                       const core::SolverConfig& cfg, double lii_last,
                       const Repeats& untraced, const Repeats& traced) {
  for (const std::string& name : kMedianMetrics) res.set_median(name, smp);
  const std::vector<double>& unconverged = smp.at("linalg.cg.unconverged");
  double unconverged_total = 0.0;
  for (const double u : unconverged) unconverged_total += u;
  res.set("linalg.cg.unconverged", unconverged_total, unconverged.size());

  const double steps = ref.steps;
  res.set("balance.rebalances", ref.rebalances, 1);
  res.set("balance.lii_last", lii_last, 1);
  res.set("par.supersteps_per_step",
          ratio(static_cast<double>(ref.supersteps), steps), 1);
  res.set("par.virtual_s", ref.virtual_s, 1);
  for (const char* p : kPaperPhases) {
    const std::string base = std::string("par.virtual.") + p;
    res.set(base + ".busy_max_s", ref.phases.at(p).busy_max, 1);
    res.set(base + ".wait_s", ref.phases.at(p).wait, 1);
  }
  for (const char* p : kMessagePhases) {
    const std::string base = std::string("par.virtual.") + p;
    res.set(base + ".msgs", ref.phases.at(p).msgs, 1);
    res.set(base + ".bytes", ref.phases.at(p).bytes, 1);
  }

  // Host ms per DSMC step of each paper phase a replay covers, counting
  // each replayed call as often as the solver makes it per step.
  auto med = [&](const char* name) { return median(smp.at(name)); };
  const double index = med("dsmc.index.ms_per_step");
  const double host_phase[] = {
      med("dsmc.inject.ms_per_step"),
      med("dsmc.move.ms_per_step"),
      med("exchange.ms_per_call"),
      index,
      index + med("dsmc.collide.ms_per_step") +
          (cfg.sort_every > 0 ? med("dsmc.sort.ms_per_step") / cfg.sort_every
                              : 0.0),
      cfg.pic_substeps * (med("pic.deposit.ms_per_step") +
                          med("pic.reduce.ms_per_call") +
                          med("linalg.cg.ms_per_solve")),
      ratio(ref.rebalances, steps) *
          (med("partition.kway.ms_per_call") + med("balance.km.ms_per_call"))};
  const char* host_phase_name[] = {ph::kInject,     ph::kDsmcMove,
                                   ph::kDsmcExchange, ph::kReindex,
                                   ph::kColliReact,  ph::kPoissonSolve,
                                   ph::kRebalance};
  std::vector<double> host, virt;
  double host_sum = 0.0, virt_sum = 0.0;
  for (std::size_t i = 0; i < std::size(host_phase); ++i) {
    host.push_back(host_phase[i]);
    virt.push_back(ref.phases.at(host_phase_name[i]).busy_max / steps);
    host_sum += host.back();
    virt_sum += virt.back();
  }
  for (std::size_t i = 0; i < host.size(); ++i) {
    const std::string base = std::string("calib.") + host_phase_name[i];
    res.calibration[base + ".virtual_share"] = ratio(virt[i], virt_sum);
    res.calibration[base + ".host_share"] = ratio(host[i], host_sum);
  }
  res.set("calib.rank_corr", spearman(virt, host), host.size());

  // The median step does not rebalance, so the Rebalance replays (the last
  // phase) are left out of what it is compared with.
  const double untraced_p50 = median(best_of(untraced));
  res.set("core.unattributed_ms_per_step",
          untraced_p50 - (host_sum - host.back()), samples_in(untraced));
  res.set("trace.overhead_pct",
          100.0 * (ratio(median(best_of(traced)), untraced_p50) - 1.0),
          samples_in(traced));
}

void set_checkpoint_samples(core::CoupledSolver& s, const std::string& path,
                            SpanLog& spans, Samples& smp) {
  smp["core.checkpoint.save_ms"].push_back(
      spans.time("core.checkpoint.save", "core", s.current_step(), -1,
                 [&] { s.save_checkpoint(path); }));
  smp["core.checkpoint.bytes"].push_back(
      static_cast<double>(std::filesystem::file_size(path)));
  smp["core.checkpoint.restore_ms"].push_back(
      spans.time("core.checkpoint.restore", "core", s.current_step(), -1,
                 [&] { s.restore_checkpoint(path); }));
}

const std::vector<std::string> kFleetMetrics = {
    "fleet.slot_utilization", "fleet.geometry_cache_hit_rate", "fleet.leases",
    "fleet.runs_per_s", "fleet.run_s_p50"};

// ---- solver workloads ------------------------------------------------------------

struct SolverWorkload {
  core::SolverConfig cfg;
  core::ParallelConfig par;
  int window_start = 0;  // W: steps run once before the checkpoint
  int window_steps = 0;  // B: steps per batch
  int replay_every = 10;
  int setup_reps = 9;
  // Untraced runs only: after every batch, each window step that rebalances
  // runs this many more times on its own, restored from a checkpoint taken
  // just before it. On wide-1024 the rebalance step costs two ordinary
  // steps and ~40% of the window, so it gets twice their repetitions.
  int rebalance_reps = 0;
  double batch_s = 2.0;  // run seconds budgeted per untraced batch
};

/// On a host slower than the one the batch budgets were set on, a run
/// starts no batch that would end past kOverrun x --seconds, so it makes
/// fewer batches rather than overrun the time the benchmark is given.
constexpr double kOverrun = 1.25;

/// The number of batches a run makes: as many as fit in `seconds` at the
/// budget of one, so every run of a workload takes the best of the same
/// number of repetitions. Stopping on the clock alone would give a run on a
/// busy host fewer repetitions, and so a worse best, on top of its slower
/// steps.
std::size_t batch_count(double seconds, double batch_s) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / batch_s));
}

/// The paper's balancer settings (Sec. VII-B) as its reproduction benches
/// use them: threshold 2.0, T = 10, R = pic_substeps, W_cell = 1. Execution
/// stays sequential with serial kernels, so the numbers measure the
/// program rather than the thread scheduler.
core::ParallelConfig paper_parallel(const core::Dataset& ds, int nranks,
                                    par::MachineProfile profile,
                                    exchange::Strategy strategy) {
  core::ParallelConfig par;
  par.nranks = nranks;
  par.profile = std::move(profile);
  par.strategy = strategy;
  par.balance.enabled = true;
  par.balance.threshold = 2.0;
  par.balance.period = 10;
  par.balance.weight_ratio = ds.config.pic_substeps;
  par.balance.cell_weight = 1.0;
  par.particle_scale = ds.paper_particle_scale;
  par.grid_scale = ds.paper_grid_scale;
  return par;
}

core::SolverConfig bench_config(const core::Dataset& ds, std::uint64_t seed) {
  core::SolverConfig cfg = ds.config;
  cfg.seed = seed;
  cfg.sort_every = 8;
  cfg.poisson.rel_tol = 1e-5;  // the paper benches' KSP-like tolerance
  cfg.poisson.max_iterations = 200;
  return cfg;
}

SolverWorkload solver_workload(const std::string& name, std::uint64_t seed,
                               bool smoke) {
  SolverWorkload w;
  if (name == "paper-d2" || name == "dense-inlet") {
    const core::Dataset ds = core::make_dataset(2);
    w.cfg = bench_config(ds, seed);
    if (name == "dense-inlet") {
      // A 3000x denser inflow retuned to the same particle count: fnum
      // grows 3000x, so only the NTC collision load changes.
      w.cfg.density_h *= 3000.0;
      w.cfg.set_target_particles(ds.target_h, ds.target_hplus);
      w.batch_s = 3.4;
    }
    w.par = paper_parallel(ds, 24, par::MachineProfile::tianhe2(),
                           exchange::Strategy::kDistributed);
    w.window_start = 50;
    w.window_steps = 20;
  } else if (name == "wide-1024") {
    core::Dataset ds = core::make_dataset(2);
    ds.config.nozzle.radial_divisions = 10;
    ds.config.nozzle.axial_divisions = 20;  // 12,000 coarse cells
    w.cfg = bench_config(ds, seed);
    w.par = paper_parallel(ds, 1024, par::MachineProfile::tianhe3(),
                           exchange::Strategy::kNeighbor);
    // Step 9 rebalances, so every batch holds one partition + KM event.
    w.window_start = 6;
    w.window_steps = 4;
    w.replay_every = 2;
    w.setup_reps = 3;
    w.rebalance_reps = 1;
    w.batch_s = 8.0;
  } else {
    DSMCPIC_CHECK_MSG(false, "unknown workload '"
                                 << name
                                 << "' (paper-d2 | dense-inlet | wide-1024 | "
                                    "fleet-lease)");
  }
  if (smoke) {
    w.window_start = 0;
    w.window_steps = 3;
    w.replay_every = 1;
    w.setup_reps = 1;
  }
  return w;
}

Result run_solver(const SolverWorkload& w, double seconds, SpanLog* spans,
                  const std::string& out, const std::string& name) {
  Result res;
  Samples smp;
  const CpuRotation cpus;

  // Set-up: meshes, refinement, FineGrid, Poisson assembly, initial
  // partition and distributed layout.
  std::unique_ptr<core::CoupledSolver> solver;
  for (int k = 0; k < w.setup_reps; ++k) {
    cpus.pin(static_cast<std::size_t>(k));
    solver.reset();
    const auto t0 = Clock::now();
    solver = std::make_unique<core::CoupledSolver>(
        w.cfg, w.par, core::CaseGeometry::build(w.cfg.nozzle));
    smp["setup_s"].push_back(ms_since(t0) / 1000.0);
  }
  core::CoupledSolver& s = *solver;

  std::unique_ptr<MeshStack> mesh;
  std::unique_ptr<Replayer> replayer;
  if (spans) {
    mesh = build_mesh(w.cfg, *spans, smp);
    replayer = std::make_unique<Replayer>(s, *mesh->poisson, *spans, smp);
  }

  s.run(w.window_start);
  const std::string ckpt = out + "/" + name + ".window.ckpt";
  s.save_checkpoint(ckpt);
  if (replayer) replayer->replay(s.current_step(), /*record=*/false);

  // A window step that rebalances, repeated on its own (rebalance_reps):
  // the checkpoint just before it and its one-step digest in the reference.
  struct Solo {
    std::size_t unit;
    std::string ckpt;
    std::uint64_t digest;
    std::vector<double> ms;
  };
  std::vector<Solo> solos;
  const bool want_solos = !spans && w.rebalance_reps > 0;
  std::string before = ckpt;  // the checkpoint before the next step
  int k = 0;

  // The uninterrupted pass through the window is the reference every
  // restored batch must reproduce, and the first untraced repetition.
  cpus.pin(0);
  const auto m0 = Clock::now();
  const Pass ref = run_pass(
      s, w.window_steps, nullptr, [&](const core::StepDiagnostics& d) {
        if (!want_solos) return;
        if (d.rebalanced) {
          fleet::RunDigest one;
          one.absorb(d);
          one.absorb_final(s.runtime());
          solos.push_back(
              {static_cast<std::size_t>(k), before, one.value(), {}});
        } else if (before != ckpt) {
          std::filesystem::remove(before);
        }
        before = out + "/" + name + ".step" + std::to_string(++k) + ".ckpt";
        if (k < w.window_steps) s.save_checkpoint(before);
      });
  res.attempted += w.window_steps;
  res.digest = ref.digest;
  res.final_particles = ref.particles;
  const double lii_last = s.rebalance_stats().last_lii;
  Repeats untraced{ref.step_ms}, traced;

  std::size_t solo_runs = 0;
  auto run_solos = [&] {
    for (int r = 0; r < w.rebalance_reps; ++r)
      for (Solo& so : solos) {
        cpus.pin(solo_runs++);
        s.restore_checkpoint(so.ckpt);
        const Pass p =
            run_pass(s, 1, nullptr, [](const core::StepDiagnostics&) {});
        so.ms.push_back(p.step_ms.front());
        res.attempted += 1;
        if (p.digest != so.digest)
          res.fail(1, "rebalance step " +
                          std::to_string(w.window_start + so.unit) +
                          " alone: digest " + hex(p.digest) +
                          " != reference " + hex(so.digest));
      }
  };
  run_solos();
  const std::size_t batches = batch_count(seconds, w.batch_s);
  double last_s = ms_since(m0) / 1000.0;  // the latest batch, with its solos
  for (;;) {
    const bool have_all = !spans || !traced.empty();
    if (have_all &&
        (untraced.size() + traced.size() >= batches ||
         ms_since(m0) / 1000.0 + last_s > kOverrun * seconds))
      break;
    const auto b0 = Clock::now();
    const bool tracing = spans && traced.size() < untraced.size();
    cpus.pin(tracing ? traced.size() : untraced.size());
    s.restore_checkpoint(ckpt);
    Pass p;
    if (!tracing) {
      p = run_pass(s, w.window_steps, nullptr,
                   [](const core::StepDiagnostics&) {});
      untraced.push_back(p.step_ms);
    } else {
      set_checkpoint_samples(s, out + "/" + name + ".scratch.ckpt", *spans,
                             smp);
      obs::HealthAuditor auditor(
          obs::AuditConfig{obs::AuditSeverity::kCountOnly});
      s.set_auditor(&auditor);
      p = run_pass(s, w.window_steps, spans,
                   [&](const core::StepDiagnostics& d) {
                     if (d.dsmc_step % w.replay_every == 0)
                       replayer->replay(d.dsmc_step);
                   });
      s.set_auditor(nullptr);
      if (auditor.report().violations() > 0)
        res.fail(w.window_steps, "audit violation: " +
                                     auditor.report().first_violation);
      traced.push_back(p.step_ms);
    }
    res.attempted += w.window_steps;
    if (p.digest != ref.digest)
      res.fail(w.window_steps, std::string(tracing ? "traced" : "untraced") +
                                   " batch digest " + hex(p.digest) +
                                   " != reference " + hex(ref.digest));
    run_solos();
    last_s = ms_since(b0) / 1000.0;
  }
  std::fprintf(stderr,
               "%s: %zu untraced + %zu traced batches of %d steps, %zu "
               "rebalance steps alone\n",
               name.c_str(), untraced.size(), traced.size(), w.window_steps,
               solo_runs);

  if (!spans) {
    std::vector<double> best = best_of(untraced);
    std::size_t n = samples_in(untraced);
    for (const Solo& so : solos) {
      best[so.unit] = std::min(
          best[so.unit], *std::min_element(so.ms.begin(), so.ms.end()));
      n += so.ms.size();
    }
    double window_ms = 0.0;
    for (const double ms : best) window_ms += ms;
    res.set_median("setup_s", smp);
    res.set("wall_s", window_ms / 1000.0, n);
    res.set("step_ms_p50", median(best), n);
    res.set("peak_rss_mb", peak_rss_mb(), 1);
  } else {
    set_layer_metrics(res, smp, ref, w.cfg, lii_last, untraced, traced);
    for (const std::string& m : kFleetMetrics) res.set(m, 0.0, 0);
  }
  return res;
}

// ---- fleet workload ----------------------------------------------------------------

struct FleetWorkload {
  int slots = 4;
  int runs = 16;  // round-robin over the corpus
  int steps = 60;
  int ranks = 6;
  int lease = 10;  // 6 leases, so 5 checkpoint save/restore cycles per run
  int replay_every = 10;
  int setup_reps = 8;  // per batch; one set-up takes ~3 ms
  double batch_s = 2.4;  // run seconds budgeted per batch
  std::uint64_t seed = 42;
};

FleetWorkload fleet_workload(std::uint64_t seed, bool smoke) {
  FleetWorkload w;
  w.seed = seed;
  w.slots = std::clamp(usable_cpus(), 1, 4);
  if (smoke) {
    w.runs = 4;
    w.steps = 6;
    w.lease = 2;
    w.replay_every = 2;
    w.setup_reps = 1;
  }
  return w;
}

struct FleetBatch {
  double wall_s = 0.0;
  fleet::FleetStats stats;
  std::vector<fleet::FleetRunResult> runs;
};

FleetBatch run_fleet_batch(const FleetWorkload& w,
                           const std::vector<std::string>& names,
                           std::shared_ptr<fleet::SharedAssets> assets,
                           const std::string& dir) {
  fleet::FleetOptions fo;
  fo.slots = w.slots;
  fo.results_dir = dir;
  fo.lease_steps = w.lease;
  fleet::FleetRunner runner(fo, std::move(assets));
  for (int i = 0; i < w.runs; ++i) {
    fleet::FleetJob job;
    job.scenario = names[static_cast<std::size_t>(i) % names.size()];
    job.steps = w.steps;
    job.ranks = w.ranks;
    job.seed = w.seed + static_cast<std::uint64_t>(i);
    runner.add(job);
  }
  FleetBatch b;
  const auto t0 = Clock::now();
  b.runs = runner.run_all();
  b.wall_s = ms_since(t0) / 1000.0;
  b.stats = runner.stats();
  return b;
}

Result run_fleet(const FleetWorkload& w, double seconds, SpanLog* spans,
                 const std::string& out) {
  Result res;
  Samples smp;
  res.fleet_slots = w.slots;
  const fleet::ScenarioCorpus corpus;
  std::vector<std::string> names;
  for (const fleet::Scenario& sc : corpus.all()) names.push_back(sc.name);
  const fleet::FleetOptions defaults;

  // Job i is the same run in every batch, so jobs are the repeated units;
  // the first batch's digests are the reference for the later ones.
  const std::string dir = out + "/fleet-lease.runs";
  std::shared_ptr<fleet::SharedAssets> assets;
  std::vector<double> walls;
  Repeats job_ms_per_step, job_s;
  std::vector<std::uint64_t> ref_digests;
  const CpuRotation cpus;
  const auto m0 = Clock::now();
  double last_s = 0.0;  // the latest batch, with its set-ups
  do {
    const auto b0 = Clock::now();
    // Set-up, before every batch so its samples span the run: a fresh
    // asset registry holding every scenario's geometry and the machine
    // profile, so the batch times scheduling and stepping only.
    for (int k = 0; k < w.setup_reps; ++k) {
      cpus.pin(static_cast<std::size_t>(k));
      const auto t0 = Clock::now();
      assets = std::make_shared<fleet::SharedAssets>();
      for (const fleet::Scenario& sc : corpus.all())
        assets->geometry(sc.config.nozzle);
      assets->machine(defaults.machine);
      smp["setup_s"].push_back(ms_since(t0) / 1000.0);
    }
    cpus.release();  // the slot pool needs every CPU
    const int span = spans ? spans->open("fleet.run_all", "fleet", -1, -1) : -1;
    const FleetBatch b = run_fleet_batch(w, names, assets, dir);
    if (spans) spans->close(span);
    walls.push_back(b.wall_s);
    smp["fleet.slot_utilization"].push_back(b.stats.slot_utilization);
    smp["fleet.runs_per_s"].push_back(b.stats.runs_per_sec);
    double leases = 0.0;
    job_ms_per_step.emplace_back();
    job_s.emplace_back();
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
      const fleet::FleetRunResult& r = b.runs[i];
      leases += r.leases;
      job_ms_per_step.back().push_back(ratio(r.wall_ms, r.steps_done));
      job_s.back().push_back(r.wall_ms / 1000.0);
      ++res.attempted;
      if (ref_digests.size() == i) {
        ref_digests.push_back(r.digest);
        res.final_particles += r.final_particles;
      }
      if (r.state != fleet::RunState::kDone)
        res.fail(1, r.run_id + " did not finish");
      else if (r.digest != ref_digests[i])
        res.fail(1, r.run_id + " ended with digest " + hex(r.digest) +
                        " instead of " + hex(ref_digests[i]));
    }
    smp["fleet.leases"].push_back(leases);
    const auto& cache = b.stats.cache;
    smp["fleet.geometry_cache_hit_rate"] = {
        ratio(cache.geometry_hits, cache.geometry_hits + cache.geometry_misses)};
    last_s = ms_since(b0) / 1000.0;
  } while (walls.size() < batch_count(seconds, w.batch_s) &&
           ms_since(m0) / 1000.0 + last_s <= kOverrun * seconds);
  res.digest = ref_digests.front();
  std::fprintf(stderr, "fleet-lease: %zu batches of %d runs\n", walls.size(),
               w.runs);

  if (!spans) {
    res.set_median("setup_s", smp);
    res.set("wall_s", *std::min_element(walls.begin(), walls.end()),
            walls.size());
    res.set("step_ms_p50", median(best_of(job_ms_per_step)),
            samples_in(job_ms_per_step));
    res.set("peak_rss_mb", peak_rss_mb(), 1);
    return res;
  }

  smp["fleet.run_s_p50"] = best_of(job_s);
  for (const std::string& m : kFleetMetrics) res.set_median(m, smp);

  // Solver layers: run each scenario's first job inline, untraced and then
  // traced with replays; both digests must equal the fleet's leased run.
  Pass untraced_all, traced_all;
  double lii_last = 0.0;
  core::SolverConfig cfg;
  for (std::size_t k = 0; k < names.size(); ++k) {
    const fleet::Scenario& sc = corpus.by_name(names[k]);
    cfg = sc.config;
    cfg.seed = w.seed + k;
    cfg.sort_every = defaults.sort_every;
    core::ParallelConfig par = fleet::canonical_parallel(w.ranks);
    par.profile = assets->machine(defaults.machine);
    const auto geom = assets->geometry(sc.config.nozzle);

    core::CoupledSolver plain(cfg, par, geom);
    const Pass u =
        run_pass(plain, w.steps, nullptr, [](const core::StepDiagnostics&) {});

    core::CoupledSolver s(cfg, par, geom);
    const std::unique_ptr<MeshStack> mesh = build_mesh(cfg, *spans, smp);
    Replayer replayer(s, *mesh->poisson, *spans, smp);
    obs::HealthAuditor auditor(obs::AuditConfig{obs::AuditSeverity::kCountOnly});
    s.set_auditor(&auditor);
    const std::string ckpt = out + "/fleet-lease.scratch.ckpt";
    const Pass t = run_pass(s, w.steps, spans, [&](const core::StepDiagnostics& d) {
      if (d.dsmc_step % w.replay_every == 0) replayer.replay(d.dsmc_step);
      if (s.current_step() == std::min(10, w.steps))
        set_checkpoint_samples(s, ckpt, *spans, smp);
    });
    s.set_auditor(nullptr);
    res.attempted += 2 * w.steps;
    if (auditor.report().violations() > 0)
      res.fail(w.steps, "audit violation: " + auditor.report().first_violation);
    for (const Pass* p : {&u, &t})
      if (p->digest != ref_digests[k])
        res.fail(w.steps, names[k] + " inline digest " + hex(p->digest) +
                              " != leased " + hex(ref_digests[k]));
    accumulate(untraced_all, u);
    accumulate(traced_all, t);
    lii_last = s.rebalance_stats().last_lii;
  }
  // The untraced passes are the reference window, summed over scenarios.
  set_layer_metrics(res, smp, untraced_all, cfg, lii_last,
                    Repeats{untraced_all.step_ms}, Repeats{traced_all.step_ms});
  return res;
}

void write_result(const std::string& path, const std::string& workload,
                  std::uint64_t seed, int trace, const Result& r) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DSMCPIC_CHECK_MSG(os.good(), "cannot write " << path);
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  w.kv("trace", trace);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  w.kv("digest", hex(r.digest));
  w.kv("final_particles", r.final_particles);
  w.key("host");
  w.begin_object();
  w.kv("compiler", STEPBENCH_COMPILER);
  w.kv("build_type", STEPBENCH_BUILD_TYPE);
  w.kv("usable_cpus", usable_cpus());
  w.kv("fleet_slots", r.fleet_slots);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, v] : r.metrics) w.kv(name, v);
  w.end_object();
  w.key("samples");
  w.begin_object();
  for (const auto& [name, n] : r.samples) w.kv(name, n);
  w.end_object();
  w.key("calibration");
  w.begin_object();
  for (const auto& [name, v] : r.calibration) w.kv(name, v);
  w.end_object();
  w.end_object();
  w.finish();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Cli cli(
      "Step ledger: host cost of the coupled DSMC/PIC step, end to end "
      "(--trace 0) and per layer from replayed module calls (--trace 1)");
  const std::string* workload = cli.add_string(
      "workload", "paper-d2",
      "paper-d2 | dense-inlet | wide-1024 | fleet-lease");
  const std::int64_t* seed = cli.add_int(
      "seed", 42, "workload seed: the solver's RNG seed (fleet job i: +i)");
  const double* seconds = cli.add_double(
      "seconds", 10.0,
      "measurement time; batches repeat until it is spent (at least one)");
  const std::int64_t* trace = cli.add_int(
      "trace", 0, "0: end-to-end metrics, 1: per-layer replay metrics");
  const std::string* out = cli.add_string(
      "out", "stepbench_results",
      "directory for the result JSON, spans and checkpoints");
  const bool* smoke = cli.add_flag(
      "smoke", false, "3-step windows, one batch each: checks the wiring only");
  try {
    if (!cli.parse(argc, argv)) return 0;
    DSMCPIC_CHECK_MSG(cli.positional().empty(),
                      "unexpected argument '" << cli.positional().front()
                                              << "'");
    DSMCPIC_CHECK_MSG(*trace == 0 || *trace == 1, "--trace must be 0 or 1");
    DSMCPIC_CHECK_MSG(*seconds > 0.0, "--seconds must be positive");
    std::filesystem::create_directories(*out);
    const auto seed_u = static_cast<std::uint64_t>(*seed);
    std::unique_ptr<SpanLog> spans;
    if (*trace == 1) spans = std::make_unique<SpanLog>(origin);

    const Result res =
        *workload == "fleet-lease"
            ? run_fleet(fleet_workload(seed_u, *smoke), *seconds, spans.get(),
                        *out)
            : run_solver(solver_workload(*workload, seed_u, *smoke), *seconds,
                         spans.get(), *out, *workload);
    if (spans) spans->write(*out + "/" + *workload + ".spans.json");
    write_result(*out + "/" + *workload +
                     (*trace == 1 ? ".traced" : ".untraced") + ".raw.json",
                 *workload, seed_u, static_cast<int>(*trace), res);
    for (const std::string& e : res.errors)
      std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_step: %s\n", e.what());
    return 1;
  }
}
