#include "exec/aggregate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace aqp {

WeightedAccumulator::WeightedAccumulator(AggregateKind kind) : kind_(kind) {
  AQP_CHECK(SupportsKind(kind));
}

bool WeightedAccumulator::SupportsKind(AggregateKind kind) {
  return kind != AggregateKind::kPercentile;
}

void WeightedAccumulator::Add(double value, double weight) {
  AQP_DCHECK(weight >= 0.0);
  if (weight == 0.0) return;
  any_ = true;
  switch (kind_) {
    case AggregateKind::kCount:
      weight_sum_ += weight;
      break;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      // AVG keeps linear sums (one add + one FMA per row, no division);
      // Welford is reserved for the second-moment kinds that need it.
      weight_sum_ += weight;
      sum_ += weight * value;
      break;
    case AggregateKind::kVariance:
    case AggregateKind::kStddev: {
      weight_sum_ += weight;
      double delta = value - mean_;
      mean_ += (weight / weight_sum_) * delta;
      m2_ += weight * delta * (value - mean_);
      break;
    }
    case AggregateKind::kMin:
      weight_sum_ += weight;
      min_ = (weight_sum_ == weight) ? value : std::min(min_, value);
      break;
    case AggregateKind::kMax:
      weight_sum_ += weight;
      max_ = (weight_sum_ == weight) ? value : std::max(max_, value);
      break;
    case AggregateKind::kPercentile:
      break;  // Unreachable: rejected in the constructor.
  }
}

void WeightedAccumulator::AddBlock(const double* values, const double* weights,
                                   int64_t count) {
  if (count <= 0) return;
  switch (kind_) {
    case AggregateKind::kCount: {
      if (weights == nullptr) {
        // count unit-weight increments of an integral running sum collapse
        // to one add (both forms are exact below 2^53).
        weight_sum_ += static_cast<double>(count);
        any_ = true;
        return;
      }
      // Integral weight sums are exact in any association, so a four-lane
      // reduction (which the compiler widens to SIMD) equals the scalar
      // serial chain.
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      int64_t i = 0;
      for (; i + 4 <= count; i += 4) {
        s0 += weights[i];
        s1 += weights[i + 1];
        s2 += weights[i + 2];
        s3 += weights[i + 3];
      }
      for (; i < count; ++i) s0 += weights[i];
      double block_total = (s0 + s1) + (s2 + s3);
      weight_sum_ += block_total;
      any_ |= block_total > 0.0;
      return;
    }
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      // Serial value-sum chain (FP order must match the scalar path);
      // zero-weight rows contribute exactly 0.0, so no branch.
      double ws = weight_sum_;
      double s = sum_;
      if (weights == nullptr) {
        for (int64_t i = 0; i < count; ++i) s += values[i];
        ws += static_cast<double>(count);
        any_ = true;
      } else {
        double before = ws;
        for (int64_t i = 0; i < count; ++i) {
          ws += weights[i];
          s += weights[i] * values[i];
        }
        any_ |= ws != before;
      }
      weight_sum_ = ws;
      sum_ = s;
      return;
    }
    case AggregateKind::kMin:
      AddExtremaBlock</*kIsMax=*/false>(values, weights, count);
      return;
    case AggregateKind::kMax:
      AddExtremaBlock</*kIsMax=*/true>(values, weights, count);
      return;
    case AggregateKind::kVariance:
    case AggregateKind::kStddev:
    case AggregateKind::kPercentile:
      // Welford is inherently per-row (and must skip zero weights); delegate
      // to the scalar fold.
      for (int64_t i = 0; i < count; ++i) {
        Add(values[i], weights == nullptr ? 1.0 : weights[i]);
      }
      return;
  }
}

template <bool kIsMax>
void WeightedAccumulator::AddExtremaBlock(const double* values,
                                          const double* weights,
                                          int64_t count) {
  double& extreme = kIsMax ? max_ : min_;
  int64_t i = 0;
  if (!any_) {
    // Add() adopts the first positive-weight row's value outright (NaN
    // included), so find that row with a plain scan.
    while (i < count && weights != nullptr && weights[i] == 0.0) ++i;
    if (i == count) return;
    extreme = values[i];
    weight_sum_ += weights == nullptr ? 1.0 : weights[i];
    any_ = true;
    ++i;
  }
  // Add()'s rule for every later row: the candidate replaces the running
  // extreme only when strictly better (so NaN and equal values, ±0.0
  // included, keep the earlier row). A zero-weight row offers -inf (MAX) or
  // +inf (MIN) through a bit mask, which never wins, so the fold needs no
  // per-row branch; the compare-select compiles to maxsd/minsd.
  constexpr double kNeutral = kIsMax ? -std::numeric_limits<double>::infinity()
                                     : std::numeric_limits<double>::infinity();
  constexpr uint64_t kNeutralBits = std::bit_cast<uint64_t>(kNeutral);
  double best = extreme;
  if (weights == nullptr) {
    weight_sum_ += static_cast<double>(count - i);
    for (; i < count; ++i) {
      double cand = values[i];
      best = (kIsMax ? best < cand : cand < best) ? cand : best;
    }
  } else {
    double ws = weight_sum_;
    for (; i < count; ++i) {
      uint64_t keep = -static_cast<uint64_t>(weights[i] != 0.0);
      double cand = std::bit_cast<double>(
          (std::bit_cast<uint64_t>(values[i]) & keep) | (kNeutralBits & ~keep));
      best = (kIsMax ? best < cand : cand < best) ? cand : best;
      ws += weights[i];  // Integral: zero weights add exactly 0.0.
    }
    weight_sum_ = ws;
  }
  extreme = best;
}

void WeightedAccumulator::Merge(const WeightedAccumulator& other) {
  AQP_CHECK(kind_ == other.kind_);
  if (!other.any_) return;
  if (!any_) {
    *this = other;
    return;
  }
  switch (kind_) {
    case AggregateKind::kCount:
      weight_sum_ += other.weight_sum_;
      break;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      weight_sum_ += other.weight_sum_;
      sum_ += other.sum_;
      break;
    case AggregateKind::kVariance:
    case AggregateKind::kStddev: {
      double total = weight_sum_ + other.weight_sum_;
      double delta = other.mean_ - mean_;
      m2_ += other.m2_ +
             delta * delta * weight_sum_ * other.weight_sum_ / total;
      mean_ += delta * other.weight_sum_ / total;
      weight_sum_ = total;
      break;
    }
    case AggregateKind::kMin:
      weight_sum_ += other.weight_sum_;
      min_ = std::min(min_, other.min_);
      break;
    case AggregateKind::kMax:
      weight_sum_ += other.weight_sum_;
      max_ = std::max(max_, other.max_);
      break;
    case AggregateKind::kPercentile:
      break;
  }
}

Result<double> WeightedAccumulator::Finalize(double scale_factor) const {
  switch (kind_) {
    case AggregateKind::kCount:
      return weight_sum_ * scale_factor;
    case AggregateKind::kSum:
      return sum_ * scale_factor;
    case AggregateKind::kAvg:
      if (!any_) return Status::FailedPrecondition("AVG over empty input");
      return sum_ / weight_sum_;
    case AggregateKind::kVariance:
      if (weight_sum_ <= 1.0) {
        return Status::FailedPrecondition("VARIANCE needs weight > 1");
      }
      return m2_ / (weight_sum_ - 1.0);
    case AggregateKind::kStddev:
      if (weight_sum_ <= 1.0) {
        return Status::FailedPrecondition("STDEV needs weight > 1");
      }
      return std::sqrt(m2_ / (weight_sum_ - 1.0));
    case AggregateKind::kMin:
      if (!any_) return Status::FailedPrecondition("MIN over empty input");
      return min_;
    case AggregateKind::kMax:
      if (!any_) return Status::FailedPrecondition("MAX over empty input");
      return max_;
    case AggregateKind::kPercentile:
      return Status::Internal("PERCENTILE is not a streaming aggregate");
  }
  return Status::Internal("unknown aggregate kind");
}

Result<double> WeightedQuantileSorted(const std::vector<double>& values,
                                      const std::vector<int64_t>& order,
                                      const double* weights, double q) {
  AQP_CHECK(q >= 0.0 && q <= 1.0);
  AQP_CHECK(order.size() == values.size());
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    total += weights[i];
  }
  if (total <= 0.0) {
    return Status::FailedPrecondition("quantile over empty (zero-weight) input");
  }
  // Type-7 (linear interpolation) quantile of the expanded multiset in which
  // each value appears `weight` times — identical to Quantile() applied to
  // the physically duplicated rows. The expanded multiset has `total`
  // entries; we need expanded order statistics floor(pos) and floor(pos)+1.
  double pos = q * (total - 1.0);
  double lo_index = std::floor(pos);
  double frac = pos - lo_index;
  double cumulative = 0.0;  // Entries consumed so far in expanded order.
  double lo_value = 0.0;
  bool have_lo = false;
  for (int64_t idx : order) {
    double w = weights[static_cast<size_t>(idx)];
    if (w <= 0.0) continue;
    double value = values[static_cast<size_t>(idx)];
    cumulative += w;  // This run covers expanded indices up to `cumulative`.
    if (!have_lo && lo_index < cumulative) {
      lo_value = value;
      have_lo = true;
      // If the upper index also falls in this run (or there is no
      // interpolation), we are done.
      if (frac == 0.0 || lo_index + 1.0 < cumulative) return value;
      continue;
    }
    if (have_lo) {
      // This run holds the upper order statistic.
      return lo_value + frac * (value - lo_value);
    }
  }
  // lo_index was the last expanded entry.
  return lo_value;
}

}  // namespace aqp
