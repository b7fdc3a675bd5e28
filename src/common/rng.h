// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (simulator, reader noise,
// threshold calibration sampling) takes an explicit seed so experiments are
// reproducible bit-for-bit. No global RNG state exists anywhere.
#ifndef RFID_COMMON_RNG_H_
#define RFID_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rfid {

/// splitmix64: used to expand a single 64-bit seed into generator state.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator. Small, fast, and high quality; deterministic
/// across platforms (unlike std::mt19937 distributions, whose outputs are
/// implementation-defined for e.g. std::uniform_int_distribution).
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same sequence on every platform.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  /// Next raw 64-bit output.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      uint64_t threshold = (-bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(NextU64()) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// component (reader, warehouse) its own stream.
  Rng Fork() { return Rng(NextU64() ^ 0x6a09e667f3bcc909ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace rfid

#endif  // RFID_COMMON_RNG_H_
