#include "exec/executor.h"

#include <algorithm>
#include <numeric>

#include "exec/resample_kernel.h"
#include "exec/vector_block.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "sampling/poisson_resample.h"
#include "util/logging.h"
#include "util/stats.h"

namespace aqp {

Result<PreparedQuery> PrepareQuery(const Table& table,
                                   const QuerySpec& query) {
  PreparedQuery prepared;
  prepared.table_rows = table.num_rows();
  if (query.aggregate.input == nullptr &&
      query.aggregate.kind != AggregateKind::kCount) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(query.aggregate.kind)) +
        " requires an input expression");
  }
  int64_t n = table.num_rows();
  EvalScratch scratch;
  if (query.filter != nullptr) {
    // Filter pass: dense blocks through the predicate, packing passing row
    // ids straight off the block mask.
    ScopedMask mask(scratch);
    prepared.rows.reserve(static_cast<size_t>(n) / 4);
    for (int64_t base = 0; base < n; base += kVectorBlockSize) {
      int64_t len = std::min(kVectorBlockSize, n - base);
      RowBlock block = RowBlock::Dense(base, len);
      Status s =
          query.filter->EvalPredicateBlock(table, block, scratch, mask.data());
      if (!s.ok()) return s;
      for (int64_t i = 0; i < len; ++i) {
        if (mask.data()[i]) prepared.rows.push_back(base + i);
      }
    }
  } else {
    prepared.all_rows = true;  // Dense: no index vector, no iota, no gather.
  }
  if (query.aggregate.input != nullptr) {
    // Projection pass: dense blocks when unfiltered, selection-vector blocks
    // over the passing rows otherwise, writing directly into the flat
    // values array.
    int64_t m = prepared.num_passing();
    prepared.values.resize(static_cast<size_t>(m));
    for (int64_t base = 0; base < m; base += kVectorBlockSize) {
      int64_t len = std::min(kVectorBlockSize, m - base);
      RowBlock block =
          prepared.all_rows
              ? RowBlock::Dense(base, len)
              : RowBlock::Selection(prepared.rows.data() + base, len);
      Status s = query.aggregate.input->EvalNumericBlock(
          table, block, scratch, prepared.values.data() + base);
      if (!s.ok()) return s;
    }
  }
  return prepared;
}

Result<PreparedQuery> PrepareQueryScalar(const Table& table,
                                         const QuerySpec& query) {
  PreparedQuery prepared;
  prepared.table_rows = table.num_rows();
  if (query.filter != nullptr) {
    Result<std::vector<char>> mask = query.filter->EvalPredicate(table, nullptr);
    if (!mask.ok()) return mask.status();
    prepared.rows.reserve(mask->size() / 4);
    for (size_t i = 0; i < mask->size(); ++i) {
      if ((*mask)[i]) prepared.rows.push_back(static_cast<int64_t>(i));
    }
  } else {
    prepared.rows.resize(static_cast<size_t>(table.num_rows()));
    std::iota(prepared.rows.begin(), prepared.rows.end(), 0);
  }
  if (query.aggregate.input != nullptr) {
    Result<std::vector<double>> values =
        query.aggregate.input->EvalNumeric(table, &prepared.rows);
    if (!values.ok()) return values.status();
    prepared.values = std::move(values).value();
  } else if (query.aggregate.kind != AggregateKind::kCount) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(query.aggregate.kind)) +
        " requires an input expression");
  }
  return prepared;
}

namespace {

/// Sort permutation of `values`, ascending.
std::vector<int64_t> SortOrder(const std::vector<double>& values) {
  std::vector<int64_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&values](int64_t a, int64_t b) {
    return values[static_cast<size_t>(a)] < values[static_cast<size_t>(b)];
  });
  return order;
}

}  // namespace

Result<double> ComputeAggregate(const PreparedQuery& prepared,
                                const AggregateSpec& aggregate,
                                double scale_factor) {
  if (aggregate.kind == AggregateKind::kPercentile) {
    if (prepared.values.empty()) {
      return Status::FailedPrecondition("PERCENTILE over empty input");
    }
    return Quantile(prepared.values, aggregate.percentile);
  }
  WeightedAccumulator acc(aggregate.kind);
  if (aggregate.input == nullptr) {
    // COUNT(*): every passing row contributes weight 1 and no value.
    acc.AddBlock(nullptr, nullptr, prepared.num_passing());
  } else {
    acc.AddBlock(prepared.values.data(), nullptr,
                 static_cast<int64_t>(prepared.values.size()));
  }
  return acc.Finalize(scale_factor);
}

Result<double> ExecutePlainAggregate(const Table& table,
                                     const QuerySpec& query,
                                     double scale_factor) {
  Result<PreparedQuery> prepared = PrepareQuery(table, query);
  if (!prepared.ok()) return prepared.status();
  return ComputeAggregate(*prepared, query.aggregate, scale_factor);
}

Result<double> ComputeWeightedAggregate(const PreparedQuery& prepared,
                                        const AggregateSpec& aggregate,
                                        double scale_factor,
                                        const double* weights) {
  int64_t n = prepared.num_passing();
  if (aggregate.kind == AggregateKind::kPercentile) {
    std::vector<int64_t> order = SortOrder(prepared.values);
    return WeightedQuantileSorted(prepared.values, order, weights,
                                  aggregate.percentile);
  }
  WeightedAccumulator acc(aggregate.kind);
  acc.AddBlock(aggregate.input == nullptr ? nullptr : prepared.values.data(),
               weights, n);
  return acc.Finalize(scale_factor);
}

namespace {

/// Streaming-aggregate fast path for multi-resample execution: one pass over
/// the prepared rows, K accumulators updated with independent Poisson(1)
/// weights. This is the inner loop of scan consolidation.
///
/// For the size-scaled linear aggregates (COUNT, SUM), the raw Poissonized
/// replicate is conditioned on the resample size (a Hájek-style ratio
/// correction): Poissonization makes the resample size random, which for a
/// plain multinomial bootstrap is fixed at |S| — without the correction an
/// unfiltered COUNT would report nonzero sampling error, and a filtered
/// COUNT's error would be inflated by 1/sqrt(1-selectivity). The total
/// weight of the rows *not* passing the filter is itself Poisson(n - m), so
/// the correction costs O(1) per replicate and preserves the streaming,
/// pushdown-compatible execution of §5.3.
/// Translates a region's lost chunk indices into the exact replicate count
/// they covered: chunk c owned replicates [c*grain, min(K, (c+1)*grain)).
/// Exact because ParallelFor reports chunk identities, not just a tally.
int ReplicatesLostIn(const ParallelForStats& run, int num_resamples) {
  int lost = 0;
  for (int64_t c : run.lost_units) {
    int64_t b = c * kReplicateGrain;
    int64_t e = std::min<int64_t>(num_resamples, b + kReplicateGrain);
    if (e > b) lost += static_cast<int>(e - b);
  }
  return lost;
}

/// Compacts slot-indexed replicate results, dropping invalid entries while
/// preserving replicate order (so output is independent of chunking).
std::vector<double> CompactReplicates(const std::vector<double>& slots,
                                      const std::vector<char>& valid) {
  std::vector<double> thetas;
  thetas.reserve(slots.size());
  for (size_t k = 0; k < slots.size(); ++k) {
    if (valid[k]) thetas.push_back(slots[k]);
  }
  return thetas;
}

/// Finalizes one replicate's accumulator: Hájek size-conditioning for the
/// size-scaled kinds (the conditioning draw comes from the replicate's own
/// stream, after its weight draws, so its stream position is deterministic),
/// then slot assignment. Shared by the fused and reference paths so their
/// post-scan arithmetic is literally the same code.
void FinalizeReplicate(const WeightedAccumulator& accumulator, Rng& rng,
                       const AggregateSpec& aggregate, double scale_factor,
                       double total_rows, double non_passing, double* slot,
                       char* valid) {
  Result<double> theta = accumulator.Finalize(scale_factor);
  if (!theta.ok()) return;
  double value = *theta;
  bool size_scaled = aggregate.kind == AggregateKind::kCount ||
                     aggregate.kind == AggregateKind::kSum;
  if (size_scaled && total_rows > 0.0) {
    double resample_size =
        accumulator.weight_sum() +
        static_cast<double>(rng.NextPoisson(non_passing));
    if (resample_size > 0.0) {
      value *= total_rows / resample_size;
    }
  }
  *slot = value;
  *valid = 1;
}

std::vector<double> MultiResampleStreaming(const PreparedQuery& prepared,
                                           const AggregateSpec& aggregate,
                                           double scale_factor,
                                           int num_resamples, Rng& rng,
                                           const ExecRuntime& runtime,
                                           ResampleRunStats* stats) {
  int64_t n = prepared.num_passing();
  bool has_input = aggregate.input != nullptr;
  double non_passing =
      static_cast<double>(prepared.table_rows) - static_cast<double>(n);
  double total_rows = static_cast<double>(prepared.table_rows);
  // One RNG stream per replicate, keyed by replicate index: the weight
  // sequence replicate k draws is the same whichever worker runs it.
  RngStreamFactory streams(rng);
  std::vector<double> slots(static_cast<size_t>(num_resamples), 0.0);
  std::vector<char> valid(static_cast<size_t>(num_resamples), 0);
  ParallelForStats run = ParallelFor(
      runtime, 0, num_resamples, kReplicateGrain,
      [&](int64_t kb, int64_t ke) {
    ScopedSpan span(runtime.tracer(), "resample");
    // This worker owns replicates [kb, ke): one pass over the shared
    // prepared data feeds its slice of the accumulators (scan consolidation
    // preserved — the filter/projection ran once, upstream). The pass itself
    // is the fused block kernel: value blocks stay L1-resident across the
    // slice's replicates, and each replicate's weights come from batched
    // weight fills at the same stream positions the scalar loop would use.
    size_t width = static_cast<size_t>(ke - kb);
    std::vector<WeightedAccumulator> accumulators(
        width, WeightedAccumulator(aggregate.kind));
    std::vector<Rng> rngs;
    rngs.reserve(width);
    for (int64_t k = kb; k < ke; ++k) {
      rngs.push_back(streams.Stream(static_cast<uint64_t>(k)));
    }
    FusedPoissonAccumulate(has_input ? prepared.values.data() : nullptr, n,
                           rngs.data(), accumulators.data(),
                           static_cast<int64_t>(width));
    for (size_t s = 0; s < width; ++s) {
      FinalizeReplicate(accumulators[s], rngs[s], aggregate, scale_factor,
                        total_rows, non_passing,
                        &slots[static_cast<size_t>(kb) + s],
                        &valid[static_cast<size_t>(kb) + s]);
    }
  });
  if (stats != nullptr) {
    stats->run = run;
    stats->replicates_lost = ReplicatesLostIn(run, num_resamples);
  }
  return CompactReplicates(slots, valid);
}

/// Sort-once path for PERCENTILE: values are sorted a single time, then each
/// resample re-weights the sorted order (replicates parallelized like the
/// streaming path; the sort itself is shared).
Result<std::vector<double>> MultiResamplePercentile(
    const PreparedQuery& prepared, const AggregateSpec& aggregate,
    int num_resamples, Rng& rng, const ExecRuntime& runtime,
    ResampleRunStats* stats) {
  if (prepared.values.empty()) {
    return Status::FailedPrecondition("PERCENTILE over empty input");
  }
  std::vector<int64_t> order = SortOrder(prepared.values);
  size_t n = prepared.values.size();
  RngStreamFactory streams(rng);
  std::vector<double> slots(static_cast<size_t>(num_resamples), 0.0);
  std::vector<char> valid(static_cast<size_t>(num_resamples), 0);
  ParallelForStats run = ParallelFor(
      runtime, 0, num_resamples, kReplicateGrain,
      [&](int64_t kb, int64_t ke) {
    ScopedSpan span(runtime.tracer(), "resample");
    std::vector<double> weights(n);
    for (int64_t k = kb; k < ke; ++k) {
      Rng replicate_rng = streams.Stream(static_cast<uint64_t>(k));
      // Same draws as a scalar PoissonOneWeight loop over the stream.
      FillPoissonOneWeights(replicate_rng, weights.data(),
                            static_cast<int64_t>(n));
      Result<double> theta = WeightedQuantileSorted(prepared.values, order,
                                                    weights.data(),
                                                    aggregate.percentile);
      if (theta.ok()) {
        slots[static_cast<size_t>(k)] = *theta;
        valid[static_cast<size_t>(k)] = 1;
      }
    }
  });
  if (stats != nullptr) {
    stats->run = run;
    stats->replicates_lost = ReplicatesLostIn(run, num_resamples);
  }
  return CompactReplicates(slots, valid);
}

}  // namespace

Result<std::vector<double>> ExecuteMultiResample(const Table& table,
                                                 const QuerySpec& query,
                                                 double scale_factor,
                                                 int num_resamples, Rng& rng,
                                                 const ExecRuntime& runtime) {
  if (num_resamples <= 0) {
    return Status::InvalidArgument("num_resamples must be positive");
  }
  Result<PreparedQuery> prepared = [&] {
    ScopedSpan span(runtime.tracer(), "scan");
    return PrepareQuery(table, query);
  }();
  if (!prepared.ok()) return prepared.status();
  return MultiResampleFromPrepared(*prepared, query.aggregate, scale_factor,
                                   num_resamples, rng, runtime);
}

Result<std::vector<double>> MultiResampleFromPrepared(
    const PreparedQuery& prepared, const AggregateSpec& aggregate,
    double scale_factor, int num_resamples, Rng& rng,
    const ExecRuntime& runtime, ResampleRunStats* stats) {
  if (num_resamples <= 0) {
    return Status::InvalidArgument("num_resamples must be positive");
  }
  if (aggregate.kind == AggregateKind::kPercentile) {
    return MultiResamplePercentile(prepared, aggregate, num_resamples, rng,
                                   runtime, stats);
  }
  return MultiResampleStreaming(prepared, aggregate, scale_factor,
                                num_resamples, rng, runtime, stats);
}

Result<std::vector<double>> MultiResampleReference(
    const PreparedQuery& prepared, const AggregateSpec& aggregate,
    double scale_factor, int num_resamples, Rng& rng) {
  if (num_resamples <= 0) {
    return Status::InvalidArgument("num_resamples must be positive");
  }
  if (aggregate.kind == AggregateKind::kPercentile) {
    // Percentile has no scalar-vs-fused split (weights are materialized
    // either way); reuse the production path on the serial runtime.
    return MultiResamplePercentile(prepared, aggregate, num_resamples, rng,
                                   ExecRuntime(), nullptr);
  }
  int64_t n = prepared.num_passing();
  bool has_input = aggregate.input != nullptr;
  double non_passing =
      static_cast<double>(prepared.table_rows) - static_cast<double>(n);
  double total_rows = static_cast<double>(prepared.table_rows);
  RngStreamFactory streams(rng);
  std::vector<double> slots(static_cast<size_t>(num_resamples), 0.0);
  std::vector<char> valid(static_cast<size_t>(num_resamples), 0);
  for (int k = 0; k < num_resamples; ++k) {
    WeightedAccumulator accumulator(aggregate.kind);
    Rng replicate_rng = streams.Stream(static_cast<uint64_t>(k));
    // Row-at-a-time: one uniform -> one weight -> one Add, per row. The
    // fused kernel must reproduce this exactly.
    for (int64_t i = 0; i < n; ++i) {
      int32_t w = PoissonOneWeight(replicate_rng);
      if (w > 0) {
        accumulator.Add(has_input ? prepared.values[static_cast<size_t>(i)]
                                  : 0.0,
                        static_cast<double>(w));
      }
    }
    FinalizeReplicate(accumulator, replicate_rng, aggregate, scale_factor,
                      total_rows, non_passing, &slots[static_cast<size_t>(k)],
                      &valid[static_cast<size_t>(k)]);
  }
  return CompactReplicates(slots, valid);
}

Result<std::vector<double>> ExecuteMultiResampleExact(const Table& table,
                                                      const QuerySpec& query,
                                                      double scale_factor,
                                                      int num_resamples,
                                                      Rng& rng) {
  if (num_resamples <= 0) {
    return Status::InvalidArgument("num_resamples must be positive");
  }
  Result<PreparedQuery> prepared = PrepareQuery(table, query);
  if (!prepared.ok()) return prepared.status();
  int64_t n = table.num_rows();
  // Row -> position within the passing set, or -1. A dense prepared query
  // needs no table: position is the row itself.
  std::vector<int64_t> passing_position;
  if (!prepared->all_rows) {
    passing_position.assign(static_cast<size_t>(n), -1);
    for (size_t i = 0; i < prepared->rows.size(); ++i) {
      passing_position[static_cast<size_t>(prepared->rows[i])] =
          static_cast<int64_t>(i);
    }
  }
  std::vector<double> thetas;
  thetas.reserve(static_cast<size_t>(num_resamples));
  std::vector<double> weights(static_cast<size_t>(prepared->num_passing()));
  for (int k = 0; k < num_resamples; ++k) {
    std::fill(weights.begin(), weights.end(), 0.0);
    // Draw exactly n rows of S with replacement; count hits on passing rows.
    for (int64_t draw = 0; draw < n; ++draw) {
      int64_t row = rng.NextInt(n);
      int64_t pos = prepared->all_rows
                        ? row
                        : passing_position[static_cast<size_t>(row)];
      if (pos >= 0) weights[static_cast<size_t>(pos)] += 1.0;
    }
    Result<double> theta = ComputeWeightedAggregate(*prepared, query.aggregate,
                                                    scale_factor,
                                                    weights.data());
    if (theta.ok()) thetas.push_back(*theta);
  }
  return thetas;
}

Result<std::vector<GroupResult>> ExecuteGroupBy(const Table& table,
                                                const QuerySpec& query,
                                                const std::string& group_column,
                                                double scale_factor) {
  Result<const Column*> group_col = table.ColumnByName(group_column);
  if (!group_col.ok()) return group_col.status();
  const Column& gc = **group_col;
  if (gc.is_numeric()) {
    return Status::InvalidArgument("GROUP BY column '" + group_column +
                                   "' must be a string column");
  }
  Result<PreparedQuery> prepared = PrepareQuery(table, query);
  if (!prepared.ok()) return prepared.status();

  int64_t num_groups = gc.dictionary_size();
  bool percentile = query.aggregate.kind == AggregateKind::kPercentile;
  std::vector<WeightedAccumulator> accumulators;
  std::vector<std::vector<double>> group_values;
  if (percentile) {
    group_values.resize(static_cast<size_t>(num_groups));
  } else {
    accumulators.assign(static_cast<size_t>(num_groups),
                        WeightedAccumulator(query.aggregate.kind));
  }
  bool has_input = query.aggregate.input != nullptr;
  int64_t passing = prepared->num_passing();
  for (int64_t i = 0; i < passing; ++i) {
    int32_t code = gc.CodeAt(prepared->RowAt(i));
    double value = has_input ? prepared->values[static_cast<size_t>(i)] : 0.0;
    if (percentile) {
      group_values[static_cast<size_t>(code)].push_back(value);
    } else {
      accumulators[static_cast<size_t>(code)].Add(value, 1.0);
    }
  }
  std::vector<GroupResult> results;
  for (int64_t g = 0; g < num_groups; ++g) {
    GroupResult result;
    result.group = gc.dictionary()[static_cast<size_t>(g)];
    if (percentile) {
      std::vector<double>& values = group_values[static_cast<size_t>(g)];
      if (values.empty()) continue;  // Group has no passing rows.
      result.value = Quantile(std::move(values), query.aggregate.percentile);
    } else {
      Result<double> value =
          accumulators[static_cast<size_t>(g)].Finalize(scale_factor);
      if (!value.ok()) continue;  // Empty group under a value aggregate.
      result.value = *value;
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace aqp
