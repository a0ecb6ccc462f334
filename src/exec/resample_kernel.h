#ifndef AQP_EXEC_RESAMPLE_KERNEL_H_
#define AQP_EXEC_RESAMPLE_KERNEL_H_

#include <cstdint>

#include "exec/aggregate.h"
#include "util/random.h"

namespace aqp {

/// Fused multi-replicate Poissonized-resampling kernel (the hot loop of
/// paper §5.3.1's consolidated bootstrap: one scan feeds K replicates).
///
/// Tiles the scan (row-block x replicate): for each kVectorBlockSize-row
/// block of `values`, every replicate draws that block's Poisson(1) weights
/// (FillPoissonOneWeights: one draw per weight, mapped to a count by integer
/// threshold compares) and folds the block into its accumulator. The value block is loaded from memory once
/// and stays L1-resident across all K replicates, so adding replicates costs
/// compute, not bandwidth.
///
/// Determinism: replicate s consumes exactly one draw from `rngs[s]` per
/// row, in row order — the same stream positions the scalar
/// `PoissonOneWeight(rngs[s])` loop consumes — so results are invariant to
/// how callers partition replicates across threads, and the accumulator
/// block fold compares equal to the scalar `Add` loop (see
/// WeightedAccumulator::AddBlock).
///
/// `values` may be nullptr for COUNT accumulators (no value column).
void FusedPoissonAccumulate(const double* values, int64_t num_rows, Rng* rngs,
                            WeightedAccumulator* accumulators,
                            int64_t num_replicates);

}  // namespace aqp

#endif  // AQP_EXEC_RESAMPLE_KERNEL_H_
