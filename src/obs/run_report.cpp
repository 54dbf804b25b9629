#include "obs/run_report.hpp"

#include <fstream>
#include <ostream>

#include "support/error.hpp"
#include "trace/json_writer.hpp"

namespace dsmcpic::obs {

void write_run_report(std::ostream& os, const RunReport& report) {
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kRunReportSchema);
  w.kv("bench", report.config.bench);
  w.kv("case", report.config.case_name);

  w.key("config");
  w.begin_object();
  w.kv("ranks", report.config.ranks);
  w.kv("steps", report.config.steps);
  w.kv("machine", report.config.machine);
  w.kv("seed", report.config.seed);
  w.kv("exec_mode", report.config.exec_mode);
  w.kv("exec_threads", report.config.exec_threads);
  w.kv("kernel_threads", report.config.kernel_threads);
  w.kv("sort_every", report.config.sort_every);
  w.kv("strategy", report.config.strategy);
  w.kv("balance", report.config.balance);
  w.kv("audit", report.config.audit_severity);
  w.kv("cost_model", report.config.cost_model);
  w.kv("policy", report.config.policy);
  w.kv("horizon", report.config.horizon);
  w.end_object();

  w.key("ensemble");
  w.begin_object();
  w.kv("kind", report.ensemble.kind);
  w.kv("ranks_min", report.ensemble.ranks_min);
  w.kv("ranks_max", report.ensemble.ranks_max);
  w.kv("active_initial", report.ensemble.active_initial);
  w.kv("active_final", report.ensemble.active_final);
  w.kv("resizes", report.ensemble.resizes);
  w.end_object();

  w.key("virtual_time");
  w.begin_object();
  w.kv("total_seconds", report.total_virtual_time);
  w.key("phases");
  write_phases(w, report.phases);
  w.end_object();

  w.key("steps");
  w.begin_object();
  w.kv("final_particles", report.final_particles);
  w.kv("injected", report.steps.injected);
  w.kv("migrated_dsmc", report.steps.migrated_dsmc);
  w.kv("migrated_pic", report.steps.migrated_pic);
  w.kv("collisions", report.steps.collisions);
  w.kv("ionizations", report.steps.ionizations);
  w.kv("recombinations", report.steps.recombinations);
  w.kv("rebalances", report.steps.rebalances);
  w.end_object();

  w.key("rebalance_decisions");
  write_decisions(w, report.rebalance_decisions);

  w.key("audit");
  w.begin_object();
  w.kv("enabled", report.audit != nullptr);
  if (report.audit != nullptr) {
    w.kv("checks", report.audit->checks());
    w.kv("violations", report.audit->violations());
    w.key("by_invariant");
    w.begin_object();
    for (int i = 0; i < kNumInvariants; ++i) {
      const auto& t = report.audit->by_invariant[static_cast<std::size_t>(i)];
      w.key(invariant_name(static_cast<Invariant>(i)));
      w.begin_object();
      w.kv("checks", t.checks);
      w.kv("violations", t.violations);
      w.end_object();
    }
    w.end_object();
    w.kv("first_violation", report.audit->first_violation);
    w.kv("first_violation_step", report.audit->first_violation_step);
  }
  w.end_object();

  w.key("host_profile");
  w.begin_object();
  w.kv("enabled", report.profiler != nullptr);
  if (report.profiler != nullptr) {
    w.kv("sample_count", report.profiler->sample_count());
    w.key("kernels");
    w.begin_object();
    for (const auto& [name, s] : report.profiler->stats()) {
      w.key(name);
      w.begin_object();
      w.kv("count", s.count);
      w.kv("total_ms", s.total_ms);
      w.kv("min_ms", s.min_ms);
      w.kv("p50_ms", s.p50_ms);
      w.kv("p95_ms", s.p95_ms);
      w.kv("max_ms", s.max_ms);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();

  w.end_object();
  w.finish();
}

void write_run_report_file(const std::string& path, const RunReport& report) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DSMCPIC_CHECK_MSG(os.good(), "cannot open run report file " << path);
  write_run_report(os, report);
  os.flush();
  DSMCPIC_CHECK_MSG(os.good(), "failed writing run report file " << path);
}

}  // namespace dsmcpic::obs
