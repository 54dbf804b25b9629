#include "obs/telemetry.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/host_profiler.hpp"
#include "support/error.hpp"
#include "trace/chrome_writer.hpp"  // format_double, escape_json
#include "trace/json_writer.hpp"

namespace dsmcpic::obs {

// ---- Prometheus text format ----------------------------------------------

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + escape_label(value) + "\"";
}

PromFamily::PromFamily(std::ostream& os, const std::string& run_label,
                       const std::string& name, const char* type,
                       const char* help)
    : os_(os), name_(name) {
  if (!run_label.empty()) run_ = label("run", run_label);
  os_ << "# HELP " << name_ << " " << help << "\n";
  os_ << "# TYPE " << name_ << " " << type << "\n";
}

void PromFamily::sample(double value, const std::string& extra_labels) {
  os_ << name_;
  if (!run_.empty() || !extra_labels.empty()) {
    os_ << "{" << run_;
    if (!run_.empty() && !extra_labels.empty()) os_ << ",";
    os_ << extra_labels << "}";
  }
  os_ << " " << trace::format_double(value) << "\n";
}

// ---- TelemetrySeries -------------------------------------------------------

TelemetrySeries::TelemetrySeries(int capacity) : capacity_(capacity) {
  DSMCPIC_CHECK_MSG(capacity_ >= 2, "telemetry series capacity must be >= 2");
  points_.reserve(static_cast<std::size_t>(capacity_));
}

void TelemetrySeries::push(std::int64_t step, double value) {
  if (step % stride_ != 0) return;
  points_.push_back(Point{step, value});
  if (static_cast<int>(points_.size()) < capacity_) return;
  // Full: keep every other sample (even positions). Retained steps were
  // the multiples of the old stride in ascending order, so the survivors
  // are exactly the multiples of the doubled stride.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < points_.size(); i += 2) points_[keep++] = points_[i];
  points_.resize(keep);
  stride_ *= 2;
}

// ---- TelemetryHub ----------------------------------------------------------

TelemetryHub::TelemetryHub(TelemetryConfig cfg) : cfg_(std::move(cfg)) {
  DSMCPIC_CHECK_MSG(cfg_.series_capacity >= 2,
                    "telemetry series capacity must be >= 2");
  DSMCPIC_CHECK_MSG(cfg_.flight_recorder >= 1,
                    "--flight-recorder must be >= 1");
  DSMCPIC_CHECK_MSG(cfg_.metrics_interval >= 1,
                    "--metrics-interval must be >= 1");
}

void TelemetryHub::push_series(const std::string& name, std::int64_t step,
                               double value) {
  auto it = series_.find(name);
  if (it == series_.end())
    it = series_.emplace(name, TelemetrySeries(cfg_.series_capacity)).first;
  it->second.push(step, value);
}

void TelemetryHub::on_step(const StepRecord& rec) {
  const StepDiagnostics& d = rec.diag;
  const std::int64_t step = d.dsmc_step;
  push_series("particles", step, static_cast<double>(rec.particles));
  push_series("particles_h", step, static_cast<double>(d.total_h));
  push_series("particles_hplus", step, static_cast<double>(d.total_hplus));
  push_series("injected", step, static_cast<double>(d.injected));
  push_series("migrated_dsmc", step, static_cast<double>(d.migrated_dsmc));
  push_series("migrated_pic", step, static_cast<double>(d.migrated_pic));
  push_series("collisions", step, static_cast<double>(d.collisions));
  push_series("ionizations", step, static_cast<double>(d.ionizations));
  push_series("recombinations", step, static_cast<double>(d.recombinations));
  push_series("lii", step, d.lii);
  push_series("rebalanced", step, d.rebalanced ? 1.0 : 0.0);
  push_series("poisson_iterations", step,
              static_cast<double>(d.poisson_iterations));
  push_series("active_ranks", step, static_cast<double>(rec.active_ranks));
  push_series("virtual_seconds", step, rec.virtual_time);
  push_series("exchange_bytes", step, rec.exchange_bytes);
  push_series("exchange_messages", step,
              static_cast<double>(rec.exchange_messages));
  push_series("pool_acquires", step, static_cast<double>(rec.pool_acquires));
  push_series("pool_misses", step, static_cast<double>(rec.pool_misses));
  push_series("pool_recycles", step, static_cast<double>(rec.pool_recycles));
  push_series("cost_scale_min", step, rec.cost_scale_min);
  push_series("cost_scale_max", step, rec.cost_scale_max);
  push_series("cost_scale_mean", step, rec.cost_scale_mean);
  push_series("audit_checks", step, static_cast<double>(rec.audit_checks));
  push_series("audit_violations", step,
              static_cast<double>(rec.audit_violations));
  for (const PhaseRecord& p : rec.phases)
    push_series("phase_busy_max/" + p.name, step, p.busy_max);
  if (prof_) push_series("host_ms", step, prof_->total_ms());

  totals_.add(d);
  exchange_bytes_total_ += rec.exchange_bytes;
  exchange_messages_total_ += rec.exchange_messages;

  flight_.push_back(rec);
  while (static_cast<int>(flight_.size()) > cfg_.flight_recorder)
    flight_.pop_front();

  ++samples_seen_;
  if (samples_seen_ % cfg_.metrics_interval == 0) publish();
}

void TelemetryHub::publish() {
  if (!cfg_.metrics_prom_path.empty()) {
    std::ostringstream os;
    write_prometheus(os);
    atomic_write_file(cfg_.metrics_prom_path, os.str());
  }
  if (!cfg_.metrics_json_path.empty()) {
    std::ostringstream os;
    write_json_snapshot(os);
    atomic_write_file(cfg_.metrics_json_path, os.str());
  }
  ++publishes_;
}

void TelemetryHub::write_prometheus(std::ostream& os) const {
  // Before the first step every gauge reads the empty record's defaults.
  const StepRecord none;
  const StepRecord& last = flight_.empty() ? none : flight_.back();
  const StepDiagnostics& d = last.diag;
  const std::string& run = cfg_.run_label;
  const auto single = [&](const char* name, const char* type,
                          const char* help, double value) {
    PromFamily(os, run, name, type, help).sample(value);
  };

  single("dsmcpic_step", "gauge", "current DSMC step", d.dsmc_step);
  single("dsmcpic_supersteps_total", "counter", "runtime supersteps executed",
         static_cast<double>(last.supersteps));
  single("dsmcpic_virtual_seconds_total", "counter",
         "end-to-end virtual time (cost-model seconds)", last.virtual_time);
  single("dsmcpic_active_ranks", "gauge", "virtual ranks currently active",
         last.active_ranks);
  single("dsmcpic_particles", "gauge", "particles alive across all ranks",
         static_cast<double>(last.particles));
  {
    PromFamily f(os, run, "dsmcpic_particles_species", "gauge",
                 "particles alive by species");
    f.sample(static_cast<double>(d.total_h), label("species", "H"));
    f.sample(static_cast<double>(d.total_hplus), label("species", "Hplus"));
  }
  single("dsmcpic_lii", "gauge", "load imbalance indicator (last step)",
         d.lii);
  single("dsmcpic_poisson_iterations", "gauge",
         "CG iterations of the last Poisson solve", d.poisson_iterations);
  single("dsmcpic_injected_total", "counter", "particles injected",
         static_cast<double>(totals_.injected));
  {
    PromFamily f(os, run, "dsmcpic_migrated_total", "counter",
                 "particles migrated between ranks, by exchange path");
    f.sample(static_cast<double>(totals_.migrated_dsmc),
             label("path", "dsmc"));
    f.sample(static_cast<double>(totals_.migrated_pic), label("path", "pic"));
  }
  single("dsmcpic_collisions_total", "counter", "DSMC collisions",
         static_cast<double>(totals_.collisions));
  single("dsmcpic_ionizations_total", "counter", "ionization events",
         static_cast<double>(totals_.ionizations));
  single("dsmcpic_recombinations_total", "counter", "recombination events",
         static_cast<double>(totals_.recombinations));
  single("dsmcpic_exited_total", "counter", "particles removed at boundaries",
         static_cast<double>(totals_.exited));
  single("dsmcpic_pic_lost_total", "counter",
         "charged particles the fine locate lost",
         static_cast<double>(totals_.pic_lost));
  single("dsmcpic_rebalances_total", "counter", "rebalance events",
         static_cast<double>(totals_.rebalances));
  single("dsmcpic_exchange_bytes_total", "counter",
         "scaled payload bytes migrated", exchange_bytes_total_);
  single("dsmcpic_exchange_messages_total", "counter",
         "point-to-point messages routed by the exchanges",
         static_cast<double>(exchange_messages_total_));
  single("dsmcpic_pool_acquires_total", "counter",
         "payload-pool buffers handed out",
         static_cast<double>(last.pool_acquires));
  single("dsmcpic_pool_misses_total", "counter",
         "payload-pool acquires that allocated fresh memory",
         static_cast<double>(last.pool_misses));
  single("dsmcpic_pool_recycles_total", "counter",
         "delivered payloads returned to a pool",
         static_cast<double>(last.pool_recycles));
  single("dsmcpic_audit_checks_total", "counter", "health-audit checks run",
         static_cast<double>(last.audit_checks));
  single("dsmcpic_audit_violations_total", "counter",
         "health-audit violations tallied",
         static_cast<double>(last.audit_violations));
  {
    PromFamily f(os, run, "dsmcpic_cost_scale", "gauge",
                 "cost-model per-rank correction factors over active ranks");
    f.sample(last.cost_scale_min, label("stat", "min"));
    f.sample(last.cost_scale_max, label("stat", "max"));
    f.sample(last.cost_scale_mean, label("stat", "mean"));
  }
  if (!last.phases.empty()) {
    PromFamily busy(os, run, "dsmcpic_phase_busy_seconds", "counter",
                    "cumulative busy_max virtual seconds per runtime phase");
    for (const PhaseRecord& p : last.phases)
      busy.sample(p.busy_max, label("phase", p.name));
    PromFamily bytes(os, run, "dsmcpic_phase_bytes_total", "counter",
                     "cumulative scaled payload bytes per runtime phase");
    for (const PhaseRecord& p : last.phases)
      bytes.sample(p.bytes, label("phase", p.name));
    PromFamily msgs(os, run, "dsmcpic_phase_messages_total", "counter",
                    "cumulative messages routed per runtime phase");
    for (const PhaseRecord& p : last.phases)
      msgs.sample(static_cast<double>(p.transactions),
                  label("phase", p.name));
  }
  if (prof_) {
    PromFamily f(os, run, "dsmcpic_host_kernel_ms_total", "counter",
                 "host wall-clock milliseconds per kernel");
    for (const auto& [name, st] : prof_->stats())
      f.sample(st.total_ms, label("kernel", name));
  }
  single("dsmcpic_telemetry_samples_total", "counter",
         "telemetry samples ingested", static_cast<double>(samples_seen_));
  single("dsmcpic_telemetry_publishes_total", "counter",
         "exposition publications (including this one)",
         static_cast<double>(publishes_ + 1));
}

void TelemetryHub::write_json_snapshot(std::ostream& os) const {
  const StepRecord none;
  const StepRecord& last = flight_.empty() ? none : flight_.back();
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kMetricsSchema);
  w.kv("run", cfg_.run_label);
  w.kv("samples_seen", samples_seen_);
  w.kv("metrics_interval", cfg_.metrics_interval);
  w.kv("flight_recorder", cfg_.flight_recorder);

  w.key("gauges");
  w.begin_object();
  w.kv("step", last.diag.dsmc_step);
  w.kv("supersteps", last.supersteps);
  w.kv("virtual_seconds", last.virtual_time);
  w.kv("active_ranks", last.active_ranks);
  w.kv("particles", last.particles);
  w.kv("lii", last.diag.lii);
  w.end_object();

  w.key("counters");
  w.begin_object();
  w.kv("injected", totals_.injected);
  w.kv("migrated_dsmc", totals_.migrated_dsmc);
  w.kv("migrated_pic", totals_.migrated_pic);
  w.kv("collisions", totals_.collisions);
  w.kv("ionizations", totals_.ionizations);
  w.kv("recombinations", totals_.recombinations);
  w.kv("exited", totals_.exited);
  w.kv("pic_lost", totals_.pic_lost);
  w.kv("rebalances", totals_.rebalances);
  w.kv("exchange_bytes", exchange_bytes_total_);
  w.kv("exchange_messages", exchange_messages_total_);
  w.end_object();

  w.key("series");
  w.begin_array();
  for (const auto& [name, s] : series_) {
    w.begin_object();
    w.kv("name", name);
    w.kv("stride", s.stride());
    w.kv("capacity", s.capacity());
    w.key("points");
    w.begin_array();
    for (const TelemetrySeries::Point& p : s.points()) {
      w.begin_object();
      w.kv("step", p.step);
      w.kv("value", p.value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  w.finish();
  os << "\n";
}

void TelemetryHub::write_postmortem(std::ostream& os,
                                    const std::string& reason) const {
  // Only the deterministic slice of each record: no host wall-clock, no
  // payload-pool internals — the bytes must be identical across execution
  // backends (tests/telemetry_test.cpp).
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kPostmortemSchema);
  w.kv("reason", reason);
  w.kv("run", cfg_.run_label);
  w.kv("flight_recorder", cfg_.flight_recorder);
  w.kv("samples_seen", samples_seen_);
  w.key("records");
  w.begin_array();
  for (const StepRecord& rec : flight_) {
    const StepDiagnostics& d = rec.diag;
    w.begin_object();
    w.kv("step", d.dsmc_step);
    w.kv("supersteps", rec.supersteps);
    w.kv("virtual_seconds", rec.virtual_time);
    w.kv("active_ranks", rec.active_ranks);
    w.kv("particles", rec.particles);
    w.kv("particles_h", d.total_h);
    w.kv("particles_hplus", d.total_hplus);
    w.kv("injected", d.injected);
    w.kv("migrated_dsmc", d.migrated_dsmc);
    w.kv("migrated_pic", d.migrated_pic);
    w.kv("collisions", d.collisions);
    w.kv("ionizations", d.ionizations);
    w.kv("recombinations", d.recombinations);
    w.kv("exited_dsmc", d.exited_dsmc);
    w.kv("exited_pic", d.exited_pic);
    w.kv("pic_lost", d.pic_lost);
    w.kv("lii", d.lii);
    w.kv("rebalanced", d.rebalanced);
    w.kv("poisson_iterations", d.poisson_iterations);
    w.key("particles_per_rank");
    w.begin_array();
    for (std::int64_t n : d.particles_per_rank) w.value(n);
    w.end_array();
    w.key("phases");
    write_phases(w, rec.phases);
    w.kv("exchange_bytes", rec.exchange_bytes);
    w.kv("exchange_messages", rec.exchange_messages);
    w.key("cost_scale");
    w.begin_object();
    w.kv("min", rec.cost_scale_min);
    w.kv("max", rec.cost_scale_max);
    w.kv("mean", rec.cost_scale_mean);
    w.end_object();
    w.key("decisions");
    write_decisions(w, rec.decisions);
    w.key("audit");
    w.begin_object();
    w.kv("checks", rec.audit_checks);
    w.kv("violations", rec.audit_violations);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
  os << "\n";
}

void TelemetryHub::dump_postmortem(const std::string& reason) {
  if (cfg_.postmortem_path.empty() || postmortem_written_) return;
  std::ostringstream os;
  write_postmortem(os, reason);
  atomic_write_file(cfg_.postmortem_path, os.str());
  postmortem_written_ = true;
}

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DSMCPIC_CHECK_MSG(os.good(), "cannot open " << tmp);
    os << content;
    os.flush();
    DSMCPIC_CHECK_MSG(os.good(), "failed writing " << tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  DSMCPIC_CHECK_MSG(!ec, "cannot rename " << tmp << " -> " << path << ": "
                                          << ec.message());
}

}  // namespace dsmcpic::obs
