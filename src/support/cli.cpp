#include "support/cli.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <memory>
#include <sstream>

#include "support/error.hpp"

namespace dsmcpic {

std::int64_t parse_int(const std::string& name, const std::string& value) {
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  DSMCPIC_CHECK_USAGE(
      ec == std::errc{} && ptr == value.data() + value.size(),
      "flag --" << name << ": not an integer: '" << value << "'");
  return out;
}

namespace {

double parse_double(const std::string& name, const std::string& value) {
  try {
    std::size_t pos = 0;
    double out = std::stod(value, &pos);
    DSMCPIC_CHECK_USAGE(pos == value.size(),
                        "flag --" << name << ": trailing characters in '"
                                  << value << "'");
    return out;
  } catch (const std::logic_error&) {
    DSMCPIC_CHECK_USAGE(
        false, "flag --" << name << ": not a number: '" << value << "'");
  }
  return 0.0;  // unreachable
}

bool parse_bool(const std::string& name, const std::string& value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes")
    return true;
  if (value == "false" || value == "0" || value == "off" || value == "no")
    return false;
  DSMCPIC_CHECK_USAGE(false, "flag --" << name << ": not a boolean: '" << value
                                       << "'");
  return false;  // unreachable
}

}  // namespace

void Cli::add_option(const std::string& name, Option opt) {
  DSMCPIC_CHECK_MSG(!options_.count(name), "duplicate flag --" << name);
  options_.emplace(name, std::move(opt));
}

const std::string* Cli::add_string(const std::string& name, std::string def,
                                   std::string help) {
  strings_.push_back(std::make_unique<std::string>(std::move(def)));
  std::string* slot = strings_.back().get();
  Option opt;
  opt.help = std::move(help);
  opt.default_repr = *slot;
  opt.set = [slot](const std::string& v) { *slot = v; };
  add_option(name, std::move(opt));
  return slot;
}

const std::int64_t* Cli::add_int(const std::string& name, std::int64_t def,
                                 std::string help) {
  ints_.push_back(std::make_unique<std::int64_t>(def));
  std::int64_t* slot = ints_.back().get();
  Option opt;
  opt.help = std::move(help);
  opt.default_repr = std::to_string(def);
  opt.set = [slot, name](const std::string& v) { *slot = parse_int(name, v); };
  add_option(name, std::move(opt));
  return slot;
}

const double* Cli::add_double(const std::string& name, double def,
                              std::string help) {
  doubles_.push_back(std::make_unique<double>(def));
  double* slot = doubles_.back().get();
  Option opt;
  opt.help = std::move(help);
  std::ostringstream os;
  os << def;
  opt.default_repr = os.str();
  opt.set = [slot, name](const std::string& v) { *slot = parse_double(name, v); };
  add_option(name, std::move(opt));
  return slot;
}

const bool* Cli::add_flag(const std::string& name, bool def, std::string help) {
  bools_.push_back(std::make_unique<bool>(def));
  bool* slot = bools_.back().get();
  Option opt;
  opt.help = std::move(help);
  opt.default_repr = def ? "true" : "false";
  opt.is_bool = true;
  opt.set = [slot, name](const std::string& v) {
    *slot = v.empty() ? true : parse_bool(name, v);
  };
  add_option(name, std::move(opt));
  return slot;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      // "-x" style tokens are almost always mistyped flags; treating them
      // as positionals made them silently ignored. Negative numbers stay
      // positional.
      DSMCPIC_CHECK_USAGE(
          arg.size() < 2 || arg[0] != '-' ||
              (std::isdigit(static_cast<unsigned char>(arg[1])) ||
               arg[1] == '.'),
          "unknown flag " << arg << " (flags are spelled --name)\n"
                          << help_text());
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    DSMCPIC_CHECK_USAGE(it != options_.end(),
                        "unknown flag --" << name << "\n" << help_text());
    Option& opt = it->second;
    if (!has_value && !opt.is_bool) {
      DSMCPIC_CHECK_USAGE(i + 1 < argc,
                          "flag --" << name << " expects a value");
      value = argv[++i];
      has_value = true;
    }
    opt.set(has_value ? value : std::string{});
  }
  return true;
}

std::string Cli::help_text() const {
  std::ostringstream os;
  os << description_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_bool) os << " <value>";
    os << "  (default: " << opt.default_repr << ")\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace dsmcpic
