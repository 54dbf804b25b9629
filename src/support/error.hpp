#pragma once
// Error handling primitives shared by every dsmcpic module.
//
// DSMCPIC_CHECK is used for conditions that indicate a programming error or
// a violated invariant; it throws dsmcpic::Error with file/line context so
// tests can assert on failures instead of aborting the process.

#include <sstream>
#include <stdexcept>
#include <string>

namespace dsmcpic {

/// Exception type thrown by all dsmcpic invariant checks.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A malformed user input: a command-line flag or a mode name. Its text is
/// the message alone, with no source location or condition, since the user
/// who reads it did not write the check.
class UsageError : public Error {
 public:
  using Error::Error;
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* cond, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace dsmcpic

/// Throws dsmcpic::Error when `cond` is false. Usable in constant evaluation
/// contexts is not required; this is a runtime invariant check.
#define DSMCPIC_CHECK(cond)                                                  \
  do {                                                                       \
    if (!(cond))                                                             \
      ::dsmcpic::detail::throw_check_failure(#cond, __FILE__, __LINE__, ""); \
  } while (0)

/// Same as DSMCPIC_CHECK but with a streamed message, e.g.
///   DSMCPIC_CHECK_MSG(i < n, "index " << i << " out of range " << n);
#define DSMCPIC_CHECK_MSG(cond, msg_expr)                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream os_;                                               \
      os_ << msg_expr;                                                      \
      ::dsmcpic::detail::throw_check_failure(#cond, __FILE__, __LINE__,     \
                                             os_.str());                    \
    }                                                                       \
  } while (0)

/// Throws dsmcpic::UsageError with the streamed message alone when `cond`
/// is false, e.g.
///   DSMCPIC_CHECK_USAGE(n >= 1, "--steps must be >= 1, got " << n);
#define DSMCPIC_CHECK_USAGE(cond, msg_expr)                                 \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream os_;                                               \
      os_ << msg_expr;                                                      \
      throw ::dsmcpic::UsageError(os_.str());                               \
    }                                                                       \
  } while (0)
