#include "obs/step_record.hpp"

#include "trace/json_writer.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::obs {

void StepTotals::add(const StepDiagnostics& d) {
  injected += d.injected;
  migrated_dsmc += d.migrated_dsmc;
  migrated_pic += d.migrated_pic;
  collisions += d.collisions;
  ionizations += d.ionizations;
  recombinations += d.recombinations;
  exited += d.exited_dsmc + d.exited_pic;
  pic_lost += d.pic_lost;
  rebalances += d.rebalanced ? 1 : 0;
}

void write_phases(trace::JsonWriter& w,
                  const std::vector<PhaseRecord>& phases) {
  w.begin_array();
  for (const PhaseRecord& p : phases) {
    w.begin_object();
    w.kv("phase", p.name);
    w.kv("busy_max", p.busy_max);
    w.kv("busy_min", p.busy_min);
    w.kv("busy_sum", p.busy_sum);
    w.kv("transactions", p.transactions);
    w.kv("bytes", p.bytes);
    w.end_object();
  }
  w.end_array();
}

void write_decisions(trace::JsonWriter& w,
                     const std::vector<DecisionRecord>& decisions) {
  w.begin_array();
  for (const DecisionRecord& d : decisions) {
    w.begin_object();
    w.kv("step", d.step);
    w.kv("lii", d.lii);
    w.kv("imbalance_per_step", d.imbalance_per_step);
    w.kv("projected_imbalance_cost", d.projected_imbalance_cost);
    w.kv("rebalance_cost_estimate", d.rebalance_cost_estimate);
    w.kv("rebalance", d.rebalance);
    w.end_object();
  }
  w.end_array();
}

void record_trace_counters(trace::TraceRecorder& tr, const StepRecord& rec) {
  trace::MetricsRegistry& m = tr.metrics();
  const StepDiagnostics& d = rec.diag;
  const std::int64_t step = d.dsmc_step;
  for (std::size_t r = 0; r < rec.rank_clocks.size(); ++r) {
    const int rank = static_cast<int>(r);
    m.add("particles_owned", step, rank,
          static_cast<double>(d.particles_per_rank[r]), rec.rank_clocks[r]);
    m.add("cells_owned", step, rank, static_cast<double>(rec.cells_owned[r]),
          rec.rank_clocks[r]);
  }
  const double t = rec.virtual_time;
  m.add("lii", step, -1, d.lii, t);
  m.add("migrated_dsmc", step, -1, static_cast<double>(d.migrated_dsmc), t);
  m.add("migrated_pic", step, -1, static_cast<double>(d.migrated_pic), t);
  m.add("bytes_migrated", step, -1, rec.exchange_bytes, t);
  if (d.rebalanced)
    tr.add_instant(-1, "rebalance @ step " + std::to_string(step), t);
}

}  // namespace dsmcpic::obs
