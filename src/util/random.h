#ifndef AQP_UTIL_RANDOM_H_
#define AQP_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace aqp {

/// Deterministic, seedable pseudo-random generator (xoshiro256++) plus the
/// distributions the AQP stack needs. All experiment code takes an explicit
/// `Rng&` so results are reproducible run to run.
///
/// Not thread-safe; use one instance per thread / per simulated entity.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Fills `out[0..n)` with uniforms in [0, 1), identically to calling
  /// NextDouble() n times (same stream positions, same values).
  void FillUniform(double* out, int64_t n);

  /// The block draw loop: takes n draws in stream order and calls
  /// `sink(i, k)` with draw i's 53 high bits k — the integer behind
  /// NextDouble()'s k * 2^-53 — leaving the generator where n NextDouble()
  /// calls would. The xoshiro state stays in registers for the whole block
  /// instead of round-tripping through memory per draw. FillUniform and the
  /// Poisson(1) weight fill (sampling/poisson_resample.h) are built on it.
  template <typename Sink>
  void ForEachDraw53(int64_t n, Sink&& sink) {
    uint64_t s0 = state_[0];
    uint64_t s1 = state_[1];
    uint64_t s2 = state_[2];
    uint64_t s3 = state_[3];
    for (int64_t i = 0; i < n; ++i) sink(i, Step(s0, s1, s2, s3) >> 11);
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  int64_t NextInt(int64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextIntInRange(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextDoubleInRange(double lo, double hi);

  /// Returns true with probability `p`.
  bool NextBernoulli(double p);

  /// Standard normal via Box-Muller (second deviate cached).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Exponential with rate `lambda` (mean 1/lambda).
  double NextExponential(double lambda);

  /// Poisson-distributed count with mean `lambda`. Uses Knuth's method for
  /// small lambda and a normal-approximation w/ continuity correction for
  /// large lambda. Poissonized-resampling weights (rate 1, §5.1 of the
  /// paper) come from FillPoissonOneWeights in sampling/poisson_resample.h
  /// instead.
  int64_t NextPoisson(double lambda);

  /// Lognormal: exp(N(mu, sigma)).
  double NextLognormal(double mu, double sigma);

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed; infinite
  /// variance when alpha <= 2).
  double NextPareto(double scale, double alpha);

  /// Zipf-distributed rank in [1, n] with exponent s >= 0, via rejection
  /// sampling (Devroye); O(1) expected time, no O(n) table.
  int64_t NextZipf(int64_t n, double s);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (int64_t i = static_cast<int64_t>(values.size()) - 1; i > 0; --i) {
      int64_t j = NextInt(i + 1);
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Returns `k` distinct indices drawn uniformly from [0, n) (simple random
  /// sample without replacement), in random order. Requires k <= n.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// One xoshiro256++ step (Blackman & Vigna, public domain reference
  /// algorithm) on state words held by the caller.
  static uint64_t Step(uint64_t& s0, uint64_t& s1, uint64_t& s2,
                       uint64_t& s3) {
    uint64_t result = Rotl(s0 + s3, 23) + s0;
    uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    return result;
  }

  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace aqp

#endif  // AQP_UTIL_RANDOM_H_
