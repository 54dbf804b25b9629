#include "trace/chrome_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::trace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  DSMCPIC_CHECK(ec == std::errc{});
  return std::string(buf, ptr);
}

// ---- ChromeTraceWriter ------------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\": [";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << "\n]}\n";
}

void ChromeTraceWriter::begin_event() {
  DSMCPIC_CHECK_MSG(!finished_, "event after finish()");
  if (!first_) os_ << ",";
  first_ = false;
  os_ << "\n  ";
}

void ChromeTraceWriter::complete(std::string_view name, std::string_view cat,
                                 double ts_us, double dur_us, int pid, int tid,
                                 std::string_view args_json) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name) << "\", \"cat\": \""
      << escape_json(cat) << "\", \"ph\": \"X\", \"ts\": " << format_double(ts_us)
      << ", \"dur\": " << format_double(dur_us) << ", \"pid\": " << pid
      << ", \"tid\": " << tid;
  if (!args_json.empty()) os_ << ", \"args\": " << args_json;
  os_ << "}";
}

void ChromeTraceWriter::metadata(std::string_view name, int pid, int tid,
                                 std::string_view args_json) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name)
      << "\", \"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"args\": " << args_json << "}";
}

void ChromeTraceWriter::instant(std::string_view name, std::string_view cat,
                                double ts_us, int pid, int tid, char scope) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name) << "\", \"cat\": \""
      << escape_json(cat) << "\", \"ph\": \"i\", \"ts\": "
      << format_double(ts_us) << ", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"s\": \"" << scope << "\"}";
}

void ChromeTraceWriter::flow_start(std::string_view name, std::string_view cat,
                                   double ts_us, int pid, int tid,
                                   std::uint64_t id) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name) << "\", \"cat\": \""
      << escape_json(cat) << "\", \"ph\": \"s\", \"id\": " << id
      << ", \"ts\": " << format_double(ts_us) << ", \"pid\": " << pid
      << ", \"tid\": " << tid << "}";
}

void ChromeTraceWriter::flow_end(std::string_view name, std::string_view cat,
                                 double ts_us, int pid, int tid,
                                 std::uint64_t id) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name) << "\", \"cat\": \""
      << escape_json(cat) << "\", \"ph\": \"f\", \"bp\": \"e\", \"id\": " << id
      << ", \"ts\": " << format_double(ts_us) << ", \"pid\": " << pid
      << ", \"tid\": " << tid << "}";
}

void ChromeTraceWriter::counter(std::string_view name, double ts_us, int pid,
                                std::string_view series, double value) {
  begin_event();
  os_ << "{\"name\": \"" << escape_json(name)
      << "\", \"ph\": \"C\", \"ts\": " << format_double(ts_us)
      << ", \"pid\": " << pid << ", \"args\": {\"" << escape_json(series)
      << "\": " << format_double(value) << "}}";
}

// ---- full exporter ----------------------------------------------------------

namespace {

constexpr double kUs = 1e6;  // virtual seconds -> trace microseconds

std::string span_args(const TraceRecorder& rec, const Span& s) {
  std::ostringstream os;
  os << "{\"seq\": " << s.seq;
  if (!s.work.empty()) {
    os << ", \"work\": {";
    bool first = true;
    for (const WorkItem& w : s.work) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << escape_json(rec.key_name(w.key))
         << "\": " << format_double(w.units);
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

void write_chrome_trace(const TraceRecorder& rec, std::ostream& os) {
  ChromeTraceWriter w(os);

  w.metadata("process_name", 0, 0, "{\"name\": \"virtual machine\"}");
  for (int r = 0; r < rec.nranks(); ++r) {
    std::ostringstream name;
    name << "{\"name\": \"rank " << r << "\"}";
    w.metadata("thread_name", 0, r, name.str());
    std::ostringstream sort;
    sort << "{\"sort_index\": " << r << "}";
    w.metadata("thread_sort_index", 0, r, sort.str());
  }

  for (const Span& s : rec.spans()) {
    w.complete(rec.phase_name(s.phase), span_kind_name(s.kind), s.t0 * kUs,
               (s.t1 - s.t0) * kUs, 0, s.rank, span_args(rec, s));
  }

  // Synchronizing collectives: a wait slice per straggling rank up to the
  // aligned time, then the collective's own cost on every rank.
  for (const SyncRec& s : rec.syncs()) {
    std::ostringstream args;
    args << "{\"seq\": " << s.seq << ", \"argmax_rank\": " << s.argmax_rank
         << "}";
    for (int r = 0; r < rec.nranks(); ++r) {
      if (s.arrive[r] < s.t_max)
        w.complete(rec.phase_name(s.phase), "wait", s.arrive[r] * kUs,
                   (s.t_max - s.arrive[r]) * kUs, 0, r, args.str());
      if (s.t_end > s.t_max)
        w.complete(rec.phase_name(s.phase), "sync", s.t_max * kUs,
                   (s.t_end - s.t_max) * kUs, 0, r, args.str());
    }
  }

  // Message flow arrows: transfer start on the sender's lane, delivery on
  // the receiver's.
  std::uint64_t flow_id = 0;
  for (const MessageRec& m : rec.messages()) {
    std::ostringstream name;
    name << rec.phase_name(m.phase) << " tag " << m.tag << " (" << m.bytes
         << " B)";
    w.flow_start(name.str(), "msg", m.send_begin * kUs, 0, m.src, flow_id);
    w.flow_end(name.str(), "msg", m.recv_end * kUs, 0, m.dst, flow_id);
    ++flow_id;
  }

  for (const Instant& i : rec.instants()) {
    w.instant(i.name, "event", i.t * kUs, 0, i.rank < 0 ? 0 : i.rank,
              i.rank < 0 ? 'g' : 't');
  }

  for (const CounterSample& c : rec.metrics().samples()) {
    std::string name = rec.metrics().name_of(c.key);
    if (c.rank >= 0) name += "/rank" + std::to_string(c.rank);
    w.counter(name, c.t * kUs, 0, "value", c.value);
  }

  w.finish();
}

void write_chrome_trace(const TraceRecorder& rec, const std::string& path) {
  std::ofstream os(path);
  DSMCPIC_CHECK_MSG(os.good(), "cannot open " << path);
  write_chrome_trace(rec, os);
}

}  // namespace dsmcpic::trace
