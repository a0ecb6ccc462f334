#ifndef AQP_EXEC_AGGREGATE_H_
#define AQP_EXEC_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "exec/query_spec.h"
#include "util/status.h"

namespace aqp {

/// Streaming accumulator for one aggregate over (value, weight) pairs — the
/// "aggregate functions modified to directly operate on weighted data" of
/// paper §5.3.1. Weight 1 everywhere reproduces the plain aggregate; Poisson
/// weights produce a bootstrap-resample aggregate.
///
/// Supports COUNT, SUM, AVG, VARIANCE, STDEV, MIN, MAX. PERCENTILE needs the
/// sort-based path in the executor (it is not a streaming moment).
class WeightedAccumulator {
 public:
  explicit WeightedAccumulator(AggregateKind kind);

  /// True if `kind` is supported by this streaming accumulator.
  static bool SupportsKind(AggregateKind kind);

  /// Folds in `value` with integral frequency `weight` >= 0. A zero weight
  /// is a no-op (the row is absent from the resample).
  void Add(double value, double weight);

  /// Folds in a block: equivalent to `Add(values[i], weights[i])` for i in
  /// [0, count), and produces results that compare equal to that scalar loop
  /// for finite inputs (MIN/MAX: bit-identical for every input). `weights ==
  /// nullptr` means unit weights (the plain aggregate). `values == nullptr`
  /// is allowed for COUNT only.
  ///
  /// COUNT/SUM/AVG/MIN/MAX fold with no per-row zero-weight branch. The sums
  /// accumulate unconditionally, which is valid because `w == 0` contributes
  /// exactly 0.0 to both running sums, and integral weight sums below 2^53
  /// are exact in any association; the value-sum chain stays serial so the
  /// FP accumulation order matches the scalar path. MIN/MAX let a zero-weight
  /// row offer the identity (+inf/-inf) to a serial compare-select chain.
  /// VARIANCE/STDEV fold row by row through Add.
  void AddBlock(const double* values, const double* weights, int64_t count);

  /// Merges another accumulator of the same kind (partial aggregation
  /// across tasks).
  void Merge(const WeightedAccumulator& other);

  /// Final aggregate value. `scale_factor` = |D| / |S| multiplies SUM and
  /// COUNT up to population scale and is ignored by the others. Fails with
  /// FailedPrecondition for value-aggregates (AVG/VAR/STDEV/MIN/MAX) over an
  /// empty input.
  [[nodiscard]] Result<double> Finalize(double scale_factor) const;

  AggregateKind kind() const { return kind_; }
  double weight_sum() const { return weight_sum_; }

 private:
  /// AddBlock for MIN (kIsMax = false) and MAX.
  template <bool kIsMax>
  void AddExtremaBlock(const double* values, const double* weights,
                       int64_t count);

  AggregateKind kind_;
  double weight_sum_ = 0.0;
  double sum_ = 0.0;   ///< SUM and AVG: running weighted value sum.
  double mean_ = 0.0;  ///< VARIANCE/STDEV only (Welford).
  double m2_ = 0.0;    ///< VARIANCE/STDEV only (Welford).
  double min_ = 0.0;
  double max_ = 0.0;
  bool any_ = false;
};

/// Weighted empirical quantile: the smallest value v (over entries with
/// positive weight) whose cumulative weight reaches q * total_weight.
/// `order` must be a permutation sorting `values` ascending. Fails if total
/// weight is zero.
[[nodiscard]] Result<double> WeightedQuantileSorted(const std::vector<double>& values,
                                      const std::vector<int64_t>& order,
                                      const double* weights, double q);

}  // namespace aqp

#endif  // AQP_EXEC_AGGREGATE_H_
