#pragma once
// Minimal binary (de)serialization helpers for checkpointing: PODs and
// vectors of PODs on iostreams, with length prefixes and failure checks.

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::io {

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  DSMCPIC_CHECK_MSG(is.good(), "checkpoint read failed (truncated?)");
  return value;
}

/// Reads a bool saved by write_pod: one byte, which must be 0 or 1 (any
/// other byte would load as a bool with an invalid value).
inline bool read_bool(std::istream& is) {
  static_assert(sizeof(bool) == 1);
  const auto b = read_pod<std::uint8_t>(is);
  DSMCPIC_CHECK_MSG(b <= 1, "checkpoint bool byte is " << static_cast<int>(b)
                                                       << ", not 0 or 1");
  return b == 1;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
  }
}

namespace detail {

/// Reads the `n` elements a length prefix announced into `c`, at most
/// ~1 MiB per read and growing `c` only as the bytes arrive, so a corrupt
/// prefix fails on the first short read instead of sizing `c` from it.
template <typename Container>
void read_elements(std::istream& is, Container& c, std::uint64_t n) {
  using T = typename Container::value_type;
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::uint64_t kChunk =
      std::max<std::size_t>(1, (std::size_t{1} << 20) / sizeof(T));
  while (c.size() < n) {
    const std::size_t have = c.size();
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n - have, kChunk));
    c.resize(have + take);
    is.read(reinterpret_cast<char*>(c.data() + have),
            static_cast<std::streamsize>(take * sizeof(T)));
    DSMCPIC_CHECK_MSG(is.good(), "checkpoint read failed (truncated?)");
  }
}

}  // namespace detail

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  std::vector<T> v;
  detail::read_elements(is, v, read_pod<std::uint64_t>(is));
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
  DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
}

inline std::string read_string(std::istream& is) {
  std::string s;
  detail::read_elements(is, s, read_pod<std::uint64_t>(is));
  return s;
}

}  // namespace dsmcpic::io
