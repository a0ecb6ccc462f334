#ifndef AQP_SAMPLING_POISSON_RESAMPLE_H_
#define AQP_SAMPLING_POISSON_RESAMPLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace aqp {

/// Poissonized resampling (paper §5.1).
///
/// A bootstrap resample of a sample S is equivalent to assigning each row a
/// multinomial count summing to |S|. Dropping the sum constraint decouples
/// the rows: each row independently receives a Poisson(1) count. The
/// resample size is then ~ Normal(|S|, sqrt(|S|)) — concentrated enough that
/// the bootstrap is unaffected — and weight generation becomes a streaming,
/// embarrassingly parallel operation with O(1) state.

namespace poisson_internal {

/// Pr[X <= k] for X ~ Poisson(1), k = 0..18, rounded to double. The final
/// entry rounds to exactly 1.0, which is strictly above every uniform a
/// 53-bit generator can produce, so the tail walk always terminates.
inline constexpr double kPoissonOneCdf[19] = {
    0.36787944117144233, 0.73575888234288464, 0.91969860292860580,
    0.98101184312384619, 0.99634015317265629, 0.99940581518241831,
    0.99991675885071198, 0.99998975080332536, 0.99999887479740203,
    0.99999988857452166, 0.99999998995223362, 0.99999999916838926,
    0.99999999993640223, 0.99999999999548017, 0.99999999999969980,
    0.99999999999998112, 0.99999999999999870, 0.99999999999999989,
    1.0};

/// The smallest 53-bit draw k whose uniform k * 2^-53 is >= `cdf`, i.e.
/// ceil(cdf * 2^53). Scaling by a power of two is exact, so the product and
/// its ceiling are exact too.
constexpr uint64_t CdfThreshold53(double cdf) {
  double scaled = cdf * 0x1.0p53;
  uint64_t floor = static_cast<uint64_t>(scaled);
  return static_cast<double>(floor) < scaled ? floor + 1 : floor;
}

/// T_j = ceil(F(j) * 2^53) for the bins PoissonOneFromBits decides in the
/// integer domain: k >= T_j exactly when k * 2^-53 >= F(j).
inline constexpr uint64_t kPoissonOneThreshold53[5] = {
    CdfThreshold53(kPoissonOneCdf[0]), CdfThreshold53(kPoissonOneCdf[1]),
    CdfThreshold53(kPoissonOneCdf[2]), CdfThreshold53(kPoissonOneCdf[3]),
    CdfThreshold53(kPoissonOneCdf[4])};

}  // namespace poisson_internal

/// Maps one uniform u in [0, 1) to a Poisson(1) count by inverting the CDF:
/// the count is the smallest k with u < Pr[X <= k]. The first five bins
/// (99.96% of the mass) are handled branchlessly; the tail falls into a
/// rarely-taken, trivially-predicted table walk. Exact to double precision.
///
/// Consuming exactly ONE uniform per weight (unlike Knuth's multiplicative
/// method, whose draw count is itself random) is what lets block-filled
/// weights reproduce the scalar draw sequence bit-for-bit: a replicate
/// stream's i-th weight is always derived from its i-th draw, regardless
/// of batching.
inline int32_t PoissonOneFromUniform(double u) {
  using poisson_internal::kPoissonOneCdf;
  int32_t w = static_cast<int32_t>(u >= kPoissonOneCdf[0]) +
              static_cast<int32_t>(u >= kPoissonOneCdf[1]) +
              static_cast<int32_t>(u >= kPoissonOneCdf[2]) +
              static_cast<int32_t>(u >= kPoissonOneCdf[3]);
  if (u >= kPoissonOneCdf[4]) [[unlikely]] {
    w = 5;
    while (u >= kPoissonOneCdf[w]) ++w;
  }
  return w;
}

/// PoissonOneFromUniform(k * 2^-53) for a draw's 53 high bits k, decided
/// on k itself: u = k * 2^-53 is exact, so u >= F(j) holds exactly when
/// k >= T_j = ceil(F(j) * 2^53), and the common bins cost four integer
/// compares instead of an int-to-double conversion and four double ones.
/// Draws past T_4 (0.37%) take the double tail walk.
inline int32_t PoissonOneFromBits(uint64_t k) {
  using poisson_internal::kPoissonOneThreshold53;
  if (k >= kPoissonOneThreshold53[4]) [[unlikely]] {
    return PoissonOneFromUniform(static_cast<double>(k) * 0x1.0p-53);
  }
  return static_cast<int32_t>(k >= kPoissonOneThreshold53[0]) +
         static_cast<int32_t>(k >= kPoissonOneThreshold53[1]) +
         static_cast<int32_t>(k >= kPoissonOneThreshold53[2]) +
         static_cast<int32_t>(k >= kPoissonOneThreshold53[3]);
}

/// The Poisson(1) weight generator: fills `out[0..n)` with the next n
/// weights of `rng`, one draw per weight in stream order (so split fills
/// equal one fill, and weight i equals
/// PoissonOneFromUniform(i-th NextDouble())). Every rate-1 weight in the
/// engine comes from here.
template <typename T>
inline void FillPoissonOneWeights(Rng& rng, T* out, int64_t n) {
  rng.ForEachDraw53(n, [out](int64_t i, uint64_t k) {
    out[i] = static_cast<T>(PoissonOneFromBits(k));
  });
}

/// Draws one Poisson(1) count: a one-weight fill.
inline int32_t PoissonOneWeight(Rng& rng) {
  int32_t w;
  FillPoissonOneWeights(rng, &w, 1);
  return w;
}

/// Generates one resample's weights: `n` independent Poisson(rate) counts.
/// Rate 1.0 is the standard bootstrap; other rates implement
/// TABLESAMPLE POISSONIZED (100 * rate).
std::vector<int32_t> GeneratePoissonWeights(int64_t n, Rng& rng,
                                            double rate = 1.0);

/// Dense row-major weight matrix: `num_resamples` x `num_rows` Poisson(1)
/// counts, stored as uint8. Used by tests and the materializing execution
/// path; the consolidated executor streams weights instead. Draws the same
/// sequence a scalar PoissonOneWeight loop over the flat matrix would.
class WeightMatrix {
 public:
  WeightMatrix(int64_t num_resamples, int64_t num_rows, Rng& rng);

  int64_t num_resamples() const { return num_resamples_; }
  int64_t num_rows() const { return num_rows_; }

  uint8_t At(int64_t resample, int64_t row) const {
    return data_[static_cast<size_t>(resample * num_rows_ + row)];
  }

  /// Contiguous weights of one resample.
  const uint8_t* Row(int64_t resample) const {
    return data_.data() + static_cast<size_t>(resample * num_rows_);
  }

  /// Total weight (resample size) of one resample.
  int64_t ResampleSize(int64_t resample) const;

  /// Cells whose count exceeded the uint8 range and was clamped to 255.
  /// Unreachable for Poisson(1) (counts cap at 18), but the clamp is no
  /// longer silent: clamped cells are counted and logged so a future
  /// higher-rate matrix cannot quietly bias resample sizes.
  int64_t clamped_cells() const { return clamped_cells_; }

 private:
  int64_t num_resamples_;
  int64_t num_rows_;
  int64_t clamped_cells_ = 0;
  std::vector<uint8_t> data_;
};

/// Exact with-replacement resample indices (the Tuple-Augmentation-style
/// baseline the paper compares against in §5.1/§5.2): draws exactly `n` row
/// indices uniformly with replacement and materializes the index list,
/// using O(n) memory per resample.
std::vector<int64_t> ExactResampleIndices(int64_t n, Rng& rng);

}  // namespace aqp

#endif  // AQP_SAMPLING_POISSON_RESAMPLE_H_
