#pragma once
// Minimal command-line flag parser used by the examples and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown
// flags — including mistyped single-dash tokens like `-steps` — raise an
// error listing the registered options, so every binary is self-documenting
// via --help. Negative numbers are still accepted as positionals.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dsmcpic {

/// Parses all of `value` as a base-10 int64 (the --name int-flag parse);
/// throws dsmcpic::Error naming --name on trailing characters, an empty or
/// non-numeric value, or overflow.
std::int64_t parse_int(const std::string& name, const std::string& value);

class Cli {
 public:
  explicit Cli(std::string description) : description_(std::move(description)) {}

  /// Registers a flag with a default value. The returned pointer stays valid
  /// for the lifetime of the Cli object; read it after parse().
  const std::string* add_string(const std::string& name, std::string def,
                                std::string help);
  const std::int64_t* add_int(const std::string& name, std::int64_t def,
                              std::string help);
  const double* add_double(const std::string& name, double def, std::string help);
  const bool* add_flag(const std::string& name, bool def, std::string help);

  /// Parses argv. Returns false if --help was requested (help text printed).
  /// Throws dsmcpic::Error on malformed or unknown flags.
  bool parse(int argc, const char* const* argv);

  /// Help text for all registered options.
  std::string help_text() const;

  /// Positional (non-flag) arguments encountered during parse().
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Option {
    std::string help;
    std::string default_repr;
    bool is_bool = false;
    std::function<void(const std::string&)> set;
  };

  void add_option(const std::string& name, Option opt);

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
  // Deques of stable storage for returned pointers.
  std::vector<std::unique_ptr<std::string>> strings_;
  std::vector<std::unique_ptr<std::int64_t>> ints_;
  std::vector<std::unique_ptr<double>> doubles_;
  std::vector<std::unique_ptr<bool>> bools_;
};

}  // namespace dsmcpic
