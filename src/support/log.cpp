#include "support/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

namespace dsmcpic {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::once_flag g_env_once;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void apply_env_once() {
  std::call_once(g_env_once, [] {
    if (const char* env = std::getenv("DSMCPIC_LOG"))
      g_level.store(parse_log_level(env, g_level.load(std::memory_order_relaxed)),
                    std::memory_order_relaxed);
  });
}

/// "2026-08-05T12:34:56.789Z" — UTC with millisecond resolution.
std::string iso8601_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t secs = system_clock::to_time_t(now);
  const auto ms =
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the widest int fields, not the 24 characters a real date
  // takes, so -Wformat-truncation has nothing to flag.
  char buf[80];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}
}  // namespace

LogLevel parse_log_level(const std::string& name, LogLevel fallback) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return fallback;
}

LogLevel log_level() {
  apply_env_once();
  return g_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) {
  apply_env_once();  // so a later env read cannot overwrite the override
  g_level.store(level, std::memory_order_relaxed);
}

namespace detail {
void log_emit(LogLevel level, const char* component, const std::string& msg) {
  // One formatted write per line so concurrent emitters (superstep worker
  // threads) never interleave fragments.
  std::ostringstream line;
  line << iso8601_now() << " " << level_name(level) << "\t[" << component
       << "] " << msg << "\n";
  std::cerr << line.str();
}
}  // namespace detail

}  // namespace dsmcpic
