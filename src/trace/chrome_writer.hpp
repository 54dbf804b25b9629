#pragma once
// Chrome/Perfetto trace JSON emission (chrome://tracing "Trace Event
// Format"). Two layers:
//
//   * ChromeTraceWriter — a low-level streaming emitter for trace events
//     with proper JSON string escaping and shortest-round-trip number
//     formatting.
//   * write_chrome_trace(TraceRecorder) — the full exporter: one lane
//     (tid) per virtual rank, "X" spans for compute/comm/wait/sync
//     segments, "s"/"f" flow arrows for routed messages, "i" instants,
//     and "C" counter tracks from the metrics registry.
//
// Output is deterministic: identical recorder contents produce identical
// bytes, which the trace determinism test relies on.

#include <iosfwd>
#include <string>
#include <string_view>

namespace dsmcpic::trace {

class TraceRecorder;

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string escape_json(std::string_view s);

/// Shortest representation that round-trips the double (std::to_chars).
std::string format_double(double v);

class ChromeTraceWriter {
 public:
  /// Starts the {"traceEvents": [...]} document on `os`; finish() (or
  /// destruction) closes it.
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// "X" complete event. `args_json` is a raw JSON object ("{...}") or
  /// empty for no args; names are escaped by the writer.
  void complete(std::string_view name, std::string_view cat, double ts_us,
                double dur_us, int pid, int tid,
                std::string_view args_json = {});
  /// "M" metadata event (process_name / thread_name / thread_sort_index).
  void metadata(std::string_view name, int pid, int tid,
                std::string_view args_json);
  /// "i" instant event; scope "g" = global, "t" = thread.
  void instant(std::string_view name, std::string_view cat, double ts_us,
               int pid, int tid, char scope);
  /// "s" / "f" flow events binding an arrow from src slice to dst slice.
  void flow_start(std::string_view name, std::string_view cat, double ts_us,
                  int pid, int tid, std::uint64_t id);
  void flow_end(std::string_view name, std::string_view cat, double ts_us,
                int pid, int tid, std::uint64_t id);
  /// "C" counter event with a single series named `series`.
  void counter(std::string_view name, double ts_us, int pid,
               std::string_view series, double value);

  /// Closes the JSON document. Idempotent.
  void finish();

 private:
  void begin_event();

  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
};

/// Full trace export; see file comment. Throws dsmcpic::Error when the
/// file cannot be opened.
void write_chrome_trace(const TraceRecorder& rec, std::ostream& os);
void write_chrome_trace(const TraceRecorder& rec, const std::string& path);

}  // namespace dsmcpic::trace
