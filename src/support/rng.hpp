#pragma once
// Deterministic, stream-splittable random number generation.
//
// The coupled solver needs reproducible physics independent of the number of
// virtual ranks: the same particle must see the same random sequence whether
// it lives on rank 0 of 4 or rank 900 of 1536. We therefore use counter-free
// xoshiro256** generators seeded through splitmix64, and give every logical
// consumer (cell, injector, species) its own stream derived from a base seed
// plus a stable stream id.

#include <cstdint>
#include <cmath>

namespace dsmcpic {

/// splitmix64: used to expand a user seed into xoshiro state and to derive
/// independent stream seeds from (seed, stream_id) pairs.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Seeds the generator. `stream` selects an independent substream so that
  /// per-cell / per-rank generators do not overlap.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0) {
    reseed(seed, stream);
  }

  void reseed(std::uint64_t seed, std::uint64_t stream = 0) {
    std::uint64_t sm = seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x1ULL);
    for (auto& s : s_) s = splitmix64(sm);
    has_gauss_ = false;
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in (0, 1]; safe as argument to log().
  double uniform_pos() {
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free approximation is fine here:
    // bias is < 2^-64 * n which is negligible for simulation sampling.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  /// Standard normal via Marsaglia polar method (cached pair).
  double normal() {
    if (has_gauss_) {
      has_gauss_ = false;
      return gauss_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    gauss_ = v * f;
    has_gauss_ = true;
    return u * f;
  }

  double normal(double mean, double sigma) { return mean + sigma * normal(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double gauss_ = 0.0;
  bool has_gauss_ = false;
};

/// Derives a stable substream seed for (base_seed, id) — used to give each
/// grid cell / injector its own generator independent of decomposition.
inline std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                        std::uint64_t id) {
  std::uint64_t s = base_seed + 0x632be59bd9b4e019ULL * (id + 1);
  return splitmix64(s);
}

}  // namespace dsmcpic
