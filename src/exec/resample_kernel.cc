#include "exec/resample_kernel.h"

#include <algorithm>

#include "exec/vector_block.h"
#include "sampling/poisson_resample.h"

namespace aqp {

void FusedPoissonAccumulate(const double* values, int64_t num_rows, Rng* rngs,
                            WeightedAccumulator* accumulators,
                            int64_t num_replicates) {
  // One reusable weight block (16 KiB), refilled per replicate.
  alignas(64) double weights[kVectorBlockSize];
  for (int64_t base = 0; base < num_rows; base += kVectorBlockSize) {
    int64_t len = std::min(kVectorBlockSize, num_rows - base);
    const double* value_block = values == nullptr ? nullptr : values + base;
    for (int64_t s = 0; s < num_replicates; ++s) {
      FillPoissonOneWeights(rngs[s], weights, len);
      accumulators[s].AddBlock(value_block, weights, len);
    }
  }
}

}  // namespace aqp
