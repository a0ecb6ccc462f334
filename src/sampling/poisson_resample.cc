#include "sampling/poisson_resample.h"

#include <algorithm>

#include "util/logging.h"

namespace aqp {
namespace {

/// Cells per WeightMatrix fill batch: the int32 counts (8 KiB) stay
/// L1-resident until they are narrowed into the matrix.
constexpr int64_t kWeightBatch = 2048;

}  // namespace

std::vector<int32_t> GeneratePoissonWeights(int64_t n, Rng& rng, double rate) {
  AQP_CHECK(n >= 0 && rate >= 0.0);
  std::vector<int32_t> weights(static_cast<size_t>(n));
  if (rate == 1.0) {
    FillPoissonOneWeights(rng, weights.data(), n);
  } else {
    for (int32_t& w : weights) {
      w = static_cast<int32_t>(rng.NextPoisson(rate));
    }
  }
  return weights;
}

WeightMatrix::WeightMatrix(int64_t num_resamples, int64_t num_rows, Rng& rng)
    : num_resamples_(num_resamples), num_rows_(num_rows) {
  AQP_CHECK(num_resamples >= 0 && num_rows >= 0);
  int64_t cells = num_resamples * num_rows;
  data_.resize(static_cast<size_t>(cells));
  int32_t counts[kWeightBatch];
  for (int64_t base = 0; base < cells; base += kWeightBatch) {
    int64_t len = std::min(kWeightBatch, cells - base);
    FillPoissonOneWeights(rng, counts, len);
    for (int64_t i = 0; i < len; ++i) {
      int32_t count = counts[i];
      clamped_cells_ += static_cast<int64_t>(count > 255);
      data_[static_cast<size_t>(base + i)] =
          count > 255 ? 255 : static_cast<uint8_t>(count);
    }
  }
  if (clamped_cells_ > 0) {
    AQP_LOG(WARNING,
            "WeightMatrix clamped %lld cell(s) at 255; resample sizes are "
            "biased low",
            static_cast<long long>(clamped_cells_));
  }
}

int64_t WeightMatrix::ResampleSize(int64_t resample) const {
  const uint8_t* row = Row(resample);
  // Four independent integer accumulators: breaks the serial dependence so
  // the compiler widens this into SIMD horizontal sums (uint8 -> uint64).
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  int64_t i = 0;
  for (; i + 4 <= num_rows_; i += 4) {
    s0 += row[i];
    s1 += row[i + 1];
    s2 += row[i + 2];
    s3 += row[i + 3];
  }
  for (; i < num_rows_; ++i) s0 += row[i];
  return static_cast<int64_t>(s0 + s1 + s2 + s3);
}

std::vector<int64_t> ExactResampleIndices(int64_t n, Rng& rng) {
  AQP_CHECK(n >= 0);
  std::vector<int64_t> indices(static_cast<size_t>(n));
  for (int64_t& idx : indices) idx = rng.NextInt(n);
  return indices;
}

}  // namespace aqp
