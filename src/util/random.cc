#include "util/random.h"

#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace aqp {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  return Step(state_[0], state_[1], state_[2], state_[3]);
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

void Rng::FillUniform(double* out, int64_t n) {
  ForEachDraw53(n, [out](int64_t i, uint64_t k) {
    out[i] = static_cast<double>(k) * 0x1.0p-53;
  });
}

int64_t Rng::NextInt(int64_t bound) {
  AQP_DCHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t ubound = static_cast<uint64_t>(bound);
  uint64_t threshold = -ubound % ubound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return static_cast<int64_t>(r % ubound);
  }
}

int64_t Rng::NextIntInRange(int64_t lo, int64_t hi) {
  AQP_DCHECK(lo <= hi);
  return lo + NextInt(hi - lo + 1);
}

double Rng::NextDoubleInRange(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method.
  double u;
  double v;
  double s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextExponential(double lambda) {
  AQP_DCHECK(lambda > 0.0);
  // -log(U)/lambda with U in (0, 1].
  double u = 1.0 - NextDouble();
  return -std::log(u) / lambda;
}

int64_t Rng::NextPoisson(double lambda) {
  AQP_DCHECK(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplicative method.
    double limit = std::exp(-lambda);
    double product = NextDouble();
    int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for the cost
  // model uses where lambda is large.
  double value = std::round(NextGaussian(lambda, std::sqrt(lambda)));
  return value < 0.0 ? 0 : static_cast<int64_t>(value);
}

double Rng::NextLognormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

double Rng::NextPareto(double scale, double alpha) {
  AQP_DCHECK(scale > 0.0 && alpha > 0.0);
  double u = 1.0 - NextDouble();  // (0, 1]
  return scale / std::pow(u, 1.0 / alpha);
}

int64_t Rng::NextZipf(int64_t n, double s) {
  AQP_DCHECK(n >= 1);
  if (n == 1) return 1;
  if (s == 0.0) return NextIntInRange(1, n);
  // Rejection-inversion for monotone discrete distributions (Hörmann &
  // Derflinger 1996); O(1) expected time, no O(n) table.
  auto h = [s](double x) { return std::pow(x, -s); };
  auto h_integral = [s](double x) {
    double log_x = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return log_x;
    return std::expm1((1.0 - s) * log_x) / (1.0 - s);
  };
  auto h_integral_inverse = [s](double y) {
    if (std::abs(1.0 - s) < 1e-12) return std::exp(y);
    double t = y * (1.0 - s);
    if (t < -1.0) t = -1.0;  // Clamp numerical drift at the left boundary.
    return std::exp(std::log1p(t) / (1.0 - s));
  };
  double h_integral_x1 = h_integral(1.5) - 1.0;
  double h_integral_n = h_integral(static_cast<double>(n) + 0.5);
  double s_threshold =
      2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  for (;;) {
    double u = h_integral_n + NextDouble() * (h_integral_x1 - h_integral_n);
    double x = h_integral_inverse(u);
    int64_t k = static_cast<int64_t>(std::llround(x));
    if (k < 1) k = 1;
    if (k > n) k = n;
    double kd = static_cast<double>(k);
    if (kd - x <= s_threshold) return k;
    if (u >= h_integral(kd + 0.5) - h(kd)) return k;
  }
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  AQP_CHECK(k >= 0 && k <= n);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense case: partial Fisher-Yates over an index array.
    std::vector<int64_t> idx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
    for (int64_t i = 0; i < k; ++i) {
      int64_t j = NextIntInRange(i, n - 1);
      std::swap(idx[static_cast<size_t>(i)], idx[static_cast<size_t>(j)]);
    }
    idx.resize(static_cast<size_t>(k));
    return idx;
  }
  // Sparse case: rejection with a hash set.
  std::unordered_set<int64_t> seen;
  seen.reserve(static_cast<size_t>(k) * 2);
  while (static_cast<int64_t>(out.size()) < k) {
    int64_t candidate = NextInt(n);
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace aqp
