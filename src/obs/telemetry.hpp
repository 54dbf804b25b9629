#pragma once
// Live telemetry bus (DESIGN.md §2f, docs/observability.md §6). The trace
// and run-report subsystems are strictly post-hoc: a Chrome trace or a
// run_report.json appears only after the run ends, and a run killed by a
// HealthAuditor abort leaves nothing to debug. This module watches the
// step loop live, from three angles:
//
//   * TelemetrySeries — fixed-capacity superstep time-series. Every DSMC
//     step the solver hands the hub its StepRecord (obs/step_record.hpp:
//     per-phase virtual time, particle ledger, imbalance, rebalance
//     decisions + cost-model corrections, exchange bytes/messages,
//     payload-pool stats, audit tallies) and the hub fans the scalars into
//     named series. When a series fills it downsamples 2:1 — keep every
//     other sample, double the step stride — driven purely by the step
//     index, so the retained sample set is a pure function of (capacity,
//     steps run).
//
//   * Flight recorder — ring of the last N StepRecords. On a
//     HealthAuditor abort, a fault-injection trip, or a solver park it
//     dumps postmortem.json: the deterministic slice of those records
//     (virtual time, ledger, phases, decisions, audit tallies — no
//     wall-clock, no pool internals), so the bytes are identical across
//     --exec-mode / --kernel-threads / --sort-every.
//
//   * Exposition — Prometheus text format (metrics.prom) + JSON snapshot
//     (metrics.json), republished atomically (tmp + rename) every K
//     samples, so an external scraper never sees a torn file. Host
//     wall-clock kernel totals from an attached HostProfiler ride along
//     here (and only here — they never enter the postmortem).
//
// Like every observer in obs/, the hub is pure observation: it reads
// nothing but the records, nothing feeds back into physics, clocks or RNG
// streams, and attaching a hub cannot perturb golden digests, trace bytes
// or run_report.json bytes (tests/telemetry_test.cpp,
// tests/golden_test.cpp).

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/step_record.hpp"

namespace dsmcpic::obs {

class HostProfiler;

inline constexpr const char* kPostmortemSchema = "dsmcpic.postmortem.v1";
inline constexpr const char* kMetricsSchema = "dsmcpic.metrics.v1";

/// Fixed-capacity (step, value) series with deterministic 2:1 downsampling.
/// Pushes are accepted only for steps that are multiples of the current
/// stride; when the buffer reaches capacity it keeps every other retained
/// sample and doubles the stride. Steps must arrive in increasing order
/// starting at 0, which the solver's step loop guarantees.
class TelemetrySeries {
 public:
  struct Point {
    std::int64_t step = 0;
    double value = 0.0;
  };

  explicit TelemetrySeries(int capacity);

  void push(std::int64_t step, double value);

  int capacity() const { return capacity_; }
  /// Current step stride between retained samples (1, 2, 4, ...).
  std::int64_t stride() const { return stride_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  int capacity_;
  std::int64_t stride_ = 1;
  std::vector<Point> points_;
};

struct TelemetryConfig {
  /// Ring capacity of every time series (>= 2).
  int series_capacity = 128;
  /// Flight-recorder depth: last N samples kept for the postmortem (>= 1).
  int flight_recorder = 32;
  /// Publish metrics.prom/metrics.json every K samples (>= 1).
  int metrics_interval = 10;
  /// Exposition targets; empty paths disable that writer. The postmortem
  /// path may be set on its own (flight recorder without live scraping).
  std::string metrics_prom_path;
  std::string metrics_json_path;
  std::string postmortem_path;
  /// Value of the `run` label on every exposed metric ("" = no label).
  std::string run_label;
};

class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryConfig cfg = {});

  const TelemetryConfig& config() const { return cfg_; }

  /// Attaches a host profiler whose per-kernel total_ms are exposed at
  /// publish time (nullptr detaches). Never enters the postmortem.
  void set_host_profiler(const HostProfiler* prof) { prof_ = prof; }

  /// Ingests one step's record: updates every series, the flight recorder
  /// and the cumulative counters, then republishes the exposition files
  /// when the sample ordinal crosses the configured interval.
  void on_step(const StepRecord& rec);

  /// Writes metrics.prom / metrics.json (whichever paths are configured)
  /// atomically: the document is staged to "<path>.tmp" and renamed over
  /// the target, so readers only ever see complete files.
  void publish();

  /// Dumps the flight recorder to cfg.postmortem_path (no-op when the path
  /// is empty or a postmortem was already written — the FIRST trigger wins,
  /// so an abort mid-run is not overwritten by a later trigger).
  void dump_postmortem(const std::string& reason);
  bool postmortem_written() const { return postmortem_written_; }

  /// Serializes the postmortem document to `os` (deterministic bytes).
  void write_postmortem(std::ostream& os, const std::string& reason) const;
  /// Serializes the Prometheus text exposition to `os`.
  void write_prometheus(std::ostream& os) const;
  /// Serializes the JSON snapshot to `os`.
  void write_json_snapshot(std::ostream& os) const;

  // ---- inspection ---------------------------------------------------------
  std::int64_t samples_seen() const { return samples_seen_; }
  const std::deque<StepRecord>& flight() const { return flight_; }
  /// Named series, keys sorted (std::map) so exposition order is stable.
  const std::map<std::string, TelemetrySeries>& series() const {
    return series_;
  }
  std::int64_t publishes() const { return publishes_; }

 private:
  void push_series(const std::string& name, std::int64_t step, double value);

  TelemetryConfig cfg_;
  const HostProfiler* prof_ = nullptr;  // not owned

  std::int64_t samples_seen_ = 0;
  std::int64_t publishes_ = 0;
  bool postmortem_written_ = false;

  std::map<std::string, TelemetrySeries> series_;
  std::deque<StepRecord> flight_;

  // Cumulative counters: sums of the ingested records' per-step values.
  StepTotals totals_;
  double exchange_bytes_total_ = 0.0;
  std::uint64_t exchange_messages_total_ = 0;
};

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string escape_label(const std::string& v);

/// `key="value"` with the value escaped — one entry of a label set.
std::string label(const char* key, const std::string& value);

/// Emits one metric family in Prometheus text format: HELP + TYPE header,
/// then one sample line per labeled value (numbers via format_double). The
/// `run` label (when set) is prepended to every sample so a fleet
/// aggregator can merge files from several runs without collisions.
class PromFamily {
 public:
  PromFamily(std::ostream& os, const std::string& run_label,
             const std::string& name, const char* type, const char* help);

  /// `extra_labels` is a comma-joined list of label() entries.
  void sample(double value, const std::string& extra_labels = "");

 private:
  std::ostream& os_;
  std::string name_;
  std::string run_;
};

/// Writes `content` to "<path>.tmp" and renames it over `path` (POSIX
/// rename is atomic within a filesystem). Throws dsmcpic::Error on I/O
/// failure. Shared by the hub and the fleet aggregator.
void atomic_write_file(const std::string& path, const std::string& content);

}  // namespace dsmcpic::obs
