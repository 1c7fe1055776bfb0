// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the toolkit (noise injection, Monte-Carlo
// parameter sampling, phase noise) flows through this generator so that every
// experiment is exactly reproducible from its seed on any platform. We
// implement xoshiro256++ plus our own uniform/normal converters rather than
// relying on <random> distributions, whose output is implementation-defined.
//
// The raw generator and the scalar uniform/normal converters are defined
// inline for parameter sampling and other one-off draws. Transient noise is
// drawn in blocks through fill_normal(), which yields exactly the deviates
// the same number of normal() calls would, but splits the polar rejection
// walk from the log/sqrt transform so neither stalls the other.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace msts::stats {

/// xoshiro256++ PRNG (Blackman & Vigna). Small, fast, 2^256-1 period.
class Rng {
 public:
  /// Seeds the state via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
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
  double uniform() {
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal deviate (Marsaglia polar method; caches the second
  /// deviate of each pair). Polar rejection costs ~1.27 uniform pairs per
  /// deviate pair but needs only one log/sqrt and no trig, roughly halving
  /// the per-deviate cost of Box-Muller. The golden reference for
  /// fill_normal().
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * m;
    has_cached_normal_ = true;
    return u * m;
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Deviates fill_normal() transforms per internal chunk; noise stages draw
  /// their stack blocks at this size too.
  static constexpr std::size_t kNormalBlock = 256;

  /// Writes n standard normal deviates to out, bit-identical to n serial
  /// normal() calls, including the cached partner deviate consumed on entry
  /// and left behind on exit. Per chunk, the polar rejection walk runs first
  /// (sequential draws, branch-free compaction of the accepted points), then
  /// one scalar libm sqrt(-2 log(s) / s) pass over the chunk.
  void fill_normal(double* out, std::size_t n);

  /// Uniform integer in [0, bound) without modulo bias.
  std::uint64_t uniform_int(std::uint64_t bound);

  /// Advances the state by 2^128 steps (canonical xoshiro256++ jump
  /// polynomial): equivalent to 2^128 calls of next_u64(). Used to carve the
  /// period into non-overlapping sub-sequences. Drops any cached normal.
  void jump();

  /// Advances the state by 2^192 steps (canonical long-jump polynomial).
  /// Each long_jump() starts a new stream with 2^192 draws of headroom —
  /// the basis of the deterministic parallel trial streams (see parallel.h).
  void long_jump();

  /// Derives an independent generator: the child owns the current position
  /// of the sequence and this generator jumps 2^128 steps past it, so parent
  /// and child never overlap (for < 2^128 draws each). Unlike reseeding from
  /// a single 64-bit draw, distinct splits can never collide or correlate.
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  void apply_jump_poly(const std::uint64_t (&poly)[4]);

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace msts::stats
