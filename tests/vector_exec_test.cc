// Property tests for the block-based vectorized execution path and the fused
// Poissonized-resampling kernel: every vectorized component is pinned to its
// retained scalar reference — exactly (bitwise / operator==) for fixed seeds,
// and statistically where the contract is distributional.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/executor.h"
#include "exec/query_spec.h"
#include "exec/resample_kernel.h"
#include "exec/vector_block.h"
#include "expr/expr.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sampling/poisson_resample.h"
#include "storage/table.h"
#include "util/random.h"

namespace aqp {
namespace {

// ---------------------------------------------------------------------------
// RNG batching and the inverse-CDF Poisson transform
// ---------------------------------------------------------------------------

TEST(FillUniformTest, MatchesNextDoubleSequence) {
  Rng batched(123);
  Rng scalar(123);
  std::vector<double> buf(5000);
  batched.FillUniform(buf.data(), static_cast<int64_t>(buf.size()));
  for (double u : buf) {
    ASSERT_EQ(u, scalar.NextDouble());
  }
  // Both generators must land on the same state: subsequent draws agree.
  EXPECT_EQ(batched.NextDouble(), scalar.NextDouble());
}

TEST(FillUniformTest, SplitFillsEqualOneFill) {
  Rng once(7);
  Rng split(7);
  std::vector<double> a(4097);
  std::vector<double> b(4097);
  once.FillUniform(a.data(), 4097);
  split.FillUniform(b.data(), 1000);
  split.FillUniform(b.data() + 1000, 3000);
  split.FillUniform(b.data() + 4000, 97);
  EXPECT_EQ(a, b);
}

TEST(PoissonOneTest, CdfTableMatchesRecomputation) {
  using poisson_internal::kPoissonOneCdf;
  // Recompute Pr[X <= k] in long double and require agreement to 1 ulp-ish.
  long double pmf = std::exp(-1.0L);
  long double cdf = 0.0L;
  for (int k = 0; k < 19; ++k) {
    cdf += pmf;
    pmf /= static_cast<long double>(k + 1);
    double expected = static_cast<double>(std::min(cdf, 1.0L));
    EXPECT_NEAR(kPoissonOneCdf[k], expected, 1e-15) << "k=" << k;
    if (k > 0) {
      EXPECT_GT(kPoissonOneCdf[k], kPoissonOneCdf[k - 1]);
    }
  }
  // The last entry must round to exactly 1.0 so the tail walk terminates for
  // every representable uniform in [0, 1).
  EXPECT_EQ(kPoissonOneCdf[18], 1.0);
}

TEST(PoissonOneTest, MaxUniformTerminatesAndIsBounded) {
  double max_uniform = 1.0 - 0x1.0p-53;  // Largest value NextDouble emits.
  int32_t w = PoissonOneFromUniform(max_uniform);
  EXPECT_GE(w, 5);
  EXPECT_LE(w, 18);
  EXPECT_EQ(PoissonOneFromUniform(0.0), 0);
}

// The double path FillPoissonOneWeights replaced, kept as its oracle:
// uniforms (as FillUniform writes them) mapped one by one.
void PoissonOneWeightsFromUniforms(double* buf, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    buf[i] = static_cast<double>(PoissonOneFromUniform(buf[i]));
  }
}

TEST(PoissonOneTest, IntegerThresholdsMatchDoubleComparisons) {
  using poisson_internal::kPoissonOneCdf;
  using poisson_internal::kPoissonOneThreshold53;
  constexpr uint64_t kMaxDraw = (uint64_t{1} << 53) - 1;
  for (int j = 0; j < 19; ++j) {
    // T_j recomputed: F(j) * 2^53 is exact, so its ceiling is the first
    // 53-bit draw whose uniform reaches F(j).
    uint64_t t = static_cast<uint64_t>(std::ceil(std::ldexp(kPoissonOneCdf[j], 53)));
    if (j < 5) {
      EXPECT_EQ(kPoissonOneThreshold53[j], t) << "j=" << j;
    }
    EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, kPoissonOneCdf[j]);
    EXPECT_GE(static_cast<double>(t) * 0x1.0p-53, kPoissonOneCdf[j]);
    for (uint64_t k : {uint64_t{0}, t - 1, t, kMaxDraw}) {
      if (k > kMaxDraw) continue;  // T_18 = 2^53: no draw reaches it.
      EXPECT_EQ(PoissonOneFromBits(k),
                PoissonOneFromUniform(static_cast<double>(k) * 0x1.0p-53))
          << "j=" << j << " k=" << k;
    }
    EXPECT_EQ(PoissonOneFromBits(t - 1), j);
    if (t <= kMaxDraw) {
      EXPECT_EQ(PoissonOneFromBits(t), j + 1);
    }
  }
}

TEST(PoissonOneTest, GeneratorEqualsUniformFillPlusDoubleTransform) {
  using poisson_internal::kPoissonOneCdf;
  constexpr int64_t kDraws = int64_t{1} << 20;
  // Uneven fill pieces, block-size boundaries and an empty fill included.
  const int64_t kPieces[] = {1, 2047, 2048, 2049, 0, 4096, 100003, 7};
  int64_t tail_draws = 0;
  for (uint64_t seed : {1ULL, 42ULL, 2024ULL, 0x9e3779b97f4a7c15ULL}) {
    Rng oracle(seed);
    std::vector<double> expected(static_cast<size_t>(kDraws));
    oracle.FillUniform(expected.data(), kDraws);
    for (double u : expected) tail_draws += u >= kPoissonOneCdf[4];
    PoissonOneWeightsFromUniforms(expected.data(), kDraws);

    Rng split(seed);
    std::vector<double> got(static_cast<size_t>(kDraws));
    int64_t filled = 0;
    for (size_t p = 0; filled < kDraws; ++p) {
      int64_t len = std::min(kPieces[p % std::size(kPieces)], kDraws - filled);
      FillPoissonOneWeights(split, got.data() + filled, len);
      filled += len;
    }
    ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                          static_cast<size_t>(kDraws) * sizeof(double)),
              0)
        << "seed " << seed;
    // Both generators end on the same stream position.
    EXPECT_EQ(split.NextUint64(), oracle.NextUint64()) << "seed " << seed;

    // The integer-typed fills see the same counts.
    Rng whole(seed);
    std::vector<int32_t> counts(static_cast<size_t>(kDraws));
    FillPoissonOneWeights(whole, counts.data(), kDraws);
    for (size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(static_cast<double>(counts[i]), expected[i])
          << "seed " << seed << " draw " << i;
    }
  }
  // The double tail walk (draws past T_4, ~0.37%) was exercised.
  EXPECT_GT(tail_draws, 10000);
}

TEST(PoissonOneTest, EmpiricalMomentsMatchPoissonOne) {
  Rng rng(5);
  const int kDraws = 200000;
  double sum = 0.0;
  int zeros = 0;
  for (int i = 0; i < kDraws; ++i) {
    int32_t w = PoissonOneWeight(rng);
    sum += w;
    zeros += (w == 0);
  }
  // Mean 1, Pr[0] = e^-1; both within ~5 standard errors.
  EXPECT_NEAR(sum / kDraws, 1.0, 0.015);
  EXPECT_NEAR(static_cast<double>(zeros) / kDraws, std::exp(-1.0), 0.006);
}

TEST(PoissonResampleTest, BatchedGenerationMatchesScalarDraws) {
  Rng batched(42);
  Rng scalar(42);
  std::vector<int32_t> weights = GeneratePoissonWeights(5000, batched);
  for (int32_t w : weights) {
    ASSERT_EQ(w, PoissonOneWeight(scalar));
  }
}

TEST(PoissonResampleTest, WeightMatrixNeverClampsAtRateOne) {
  Rng rng(11);
  WeightMatrix matrix(16, 1000, rng);
  EXPECT_EQ(matrix.clamped_cells(), 0);
  // Batched matrix fill draws the same flat sequence as scalar draws.
  Rng scalar(11);
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(static_cast<int32_t>(matrix.At(r, i)),
                PoissonOneWeight(scalar));
    }
  }
}

// ---------------------------------------------------------------------------
// WeightedAccumulator::AddBlock vs the scalar Add loop
// ---------------------------------------------------------------------------

TEST(AddBlockTest, EqualsScalarAddForAllKinds) {
  Rng rng(17);
  std::vector<double> values(4099);
  std::vector<double> weights(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = rng.NextGaussian(2.0, 10.0);
    weights[i] = static_cast<double>(PoissonOneWeight(rng));
  }
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg,
        AggregateKind::kVariance, AggregateKind::kStddev, AggregateKind::kMin,
        AggregateKind::kMax}) {
    // Poisson weights (including zeros).
    WeightedAccumulator blocked(kind);
    WeightedAccumulator scalar(kind);
    blocked.AddBlock(values.data(), weights.data(),
                     static_cast<int64_t>(values.size()));
    for (size_t i = 0; i < values.size(); ++i) {
      scalar.Add(values[i], weights[i]);
    }
    Result<double> rb = blocked.Finalize(1.0);
    Result<double> rs = scalar.Finalize(1.0);
    ASSERT_EQ(rb.ok(), rs.ok()) << AggregateKindName(kind);
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(*rb, *rs) << AggregateKindName(kind);
    EXPECT_EQ(blocked.weight_sum(), scalar.weight_sum())
        << AggregateKindName(kind);

    // Unit weights (the plain aggregate).
    WeightedAccumulator blocked_unit(kind);
    WeightedAccumulator scalar_unit(kind);
    blocked_unit.AddBlock(values.data(), nullptr,
                          static_cast<int64_t>(values.size()));
    for (double v : values) scalar_unit.Add(v, 1.0);
    ASSERT_TRUE(blocked_unit.Finalize(1.0).ok());
    EXPECT_EQ(*blocked_unit.Finalize(1.0), *scalar_unit.Finalize(1.0))
        << AggregateKindName(kind);
  }
  // COUNT with no value column at all.
  WeightedAccumulator count(AggregateKind::kCount);
  count.AddBlock(nullptr, weights.data(), static_cast<int64_t>(weights.size()));
  WeightedAccumulator count_ref(AggregateKind::kCount);
  for (double w : weights) count_ref.Add(0.0, w);
  EXPECT_EQ(*count.Finalize(1.0), *count_ref.Finalize(1.0));
}

/// Expects two accumulators to agree bit for bit (memcmp, so ±0.0 and NaN
/// payloads count) on everything they expose.
void ExpectSameBits(const WeightedAccumulator& a, const WeightedAccumulator& b,
                    const std::string& what) {
  Result<double> ra = a.Finalize(1.0);
  Result<double> rb = b.Finalize(1.0);
  ASSERT_EQ(ra.ok(), rb.ok()) << what;
  if (ra.ok()) {
    double va = *ra;
    double vb = *rb;
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
        << what << ": " << va << " vs " << vb;
  }
  double wa = a.weight_sum();
  double wb = b.weight_sum();
  EXPECT_EQ(std::memcmp(&wa, &wb, sizeof(double)), 0) << what;
}

TEST(AddBlockTest, ExtremaFoldMatchesScalarAddBitForBit) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  // A small palette makes ties between ±0.0 and between infinities common.
  const double kPalette[] = {0.0, -0.0, kInf, -kInf, kNan, 1.5, -1.5, 3.0};
  // Running state the block starts from: empty, or one earlier row.
  const std::vector<std::vector<double>> kPriors = {{}, {-0.0}, {0.0}, {kNan}};
  Rng rng(31);
  int64_t cases = 0;
  for (int64_t size : {0, 1, 2047, 2048, 2049}) {
    for (int draw = 0; draw < 3; ++draw) {
      std::vector<double> values(static_cast<size_t>(size));
      for (double& v : values) {
        v = kPalette[rng.NextInt(static_cast<int64_t>(std::size(kPalette)))];
      }
      std::vector<std::pair<std::string, std::vector<double>>> patterns;
      std::vector<double> poisson(static_cast<size_t>(size));
      FillPoissonOneWeights(rng, poisson.data(), size);
      patterns.emplace_back("poisson", poisson);
      patterns.emplace_back("all-zero", std::vector<double>(poisson.size()));
      if (size > 0) {
        std::vector<double> first(poisson.size(), 0.0);
        first.front() = 2.0;
        patterns.emplace_back("lone-first", first);
        std::vector<double> last(poisson.size(), 0.0);
        last.back() = 1.0;
        patterns.emplace_back("lone-last", last);
      }
      patterns.emplace_back("unit", std::vector<double>());
      for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
        for (const auto& [name, weights] : patterns) {
          bool unit = name == "unit";
          for (const std::vector<double>& prior : kPriors) {
            WeightedAccumulator blocked(kind);
            WeightedAccumulator scalar(kind);
            for (double v : prior) {
              blocked.Add(v, 1.0);
              scalar.Add(v, 1.0);
            }
            blocked.AddBlock(values.data(), unit ? nullptr : weights.data(),
                             size);
            for (int64_t i = 0; i < size; ++i) {
              scalar.Add(values[static_cast<size_t>(i)],
                         unit ? 1.0 : weights[static_cast<size_t>(i)]);
            }
            ExpectSameBits(blocked, scalar,
                           std::string(AggregateKindName(kind)) + " " + name +
                               " size " + std::to_string(size) + " prior " +
                               std::to_string(prior.size()));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 300);
}

TEST(AddBlockTest, AllZeroWeightsLeaveAccumulatorEmpty) {
  std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<double> zeros = {0.0, 0.0, 0.0};
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                             AggregateKind::kMin, AggregateKind::kCount}) {
    WeightedAccumulator acc(kind);
    acc.AddBlock(values.data(), zeros.data(), 3);
    if (kind == AggregateKind::kAvg || kind == AggregateKind::kMin) {
      EXPECT_FALSE(acc.Finalize(1.0).ok()) << AggregateKindName(kind);
    } else {
      EXPECT_EQ(*acc.Finalize(1.0), 0.0) << AggregateKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Block-wise expression evaluation vs the whole-vector reference
// ---------------------------------------------------------------------------

Table MakeMixedTable(int64_t rows, uint64_t seed) {
  Table t("t");
  Column v = Column::MakeDouble("v");
  Column w = Column::MakeDouble("w");
  Column city = Column::MakeString("city");
  const char* cities[] = {"NYC", "SF", "LA"};
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    v.AppendDouble(rng.NextGaussian(10.0, 4.0));
    // Include exact zeros so division-by-zero semantics are exercised.
    w.AppendDouble(i % 7 == 0 ? 0.0 : rng.NextGaussian(0.0, 2.0));
    city.AppendString(cities[rng.NextInt(3)]);
  }
  EXPECT_TRUE(t.AddColumn(std::move(v)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(w)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(city)).ok());
  return t;
}

/// Runs `expr` through the block numeric path over the given rows (nullptr =
/// all rows, dense blocks) and returns the assembled result.
std::vector<double> EvalNumericBlockwise(const Expr& expr, const Table& table,
                                         const std::vector<int64_t>* rows) {
  int64_t n = rows == nullptr ? table.num_rows()
                              : static_cast<int64_t>(rows->size());
  std::vector<double> out(static_cast<size_t>(n));
  EvalScratch scratch;
  for (int64_t base = 0; base < n; base += kVectorBlockSize) {
    int64_t len = std::min(kVectorBlockSize, n - base);
    RowBlock block = rows == nullptr
                         ? RowBlock::Dense(base, len)
                         : RowBlock::Selection(rows->data() + base, len);
    Status s = expr.EvalNumericBlock(table, block, scratch, out.data() + base);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return out;
}

std::vector<char> EvalPredicateBlockwise(const Expr& expr, const Table& table,
                                         const std::vector<int64_t>* rows) {
  int64_t n = rows == nullptr ? table.num_rows()
                              : static_cast<int64_t>(rows->size());
  std::vector<char> out(static_cast<size_t>(n));
  std::vector<uint8_t> mask(static_cast<size_t>(kVectorBlockSize));
  EvalScratch scratch;
  for (int64_t base = 0; base < n; base += kVectorBlockSize) {
    int64_t len = std::min(kVectorBlockSize, n - base);
    RowBlock block = rows == nullptr
                         ? RowBlock::Dense(base, len)
                         : RowBlock::Selection(rows->data() + base, len);
    Status s = expr.EvalPredicateBlock(table, block, scratch, mask.data());
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (int64_t i = 0; i < len; ++i) {
      out[static_cast<size_t>(base + i)] = static_cast<char>(mask[i] ? 1 : 0);
    }
  }
  return out;
}

std::vector<ExprPtr> TestExpressions() {
  ScalarUdf hypot_udf = [](const std::vector<double>& args) {
    return std::sqrt(args[0] * args[0] + args[1] * args[1]);
  };
  return {
      ColumnRef("v"),
      Literal(3.25),
      Add(Mul(ColumnRef("v"), ColumnRef("w")), Literal(1.0)),
      Div(ColumnRef("v"), ColumnRef("w")),  // Hits zero divisors.
      Sub(ColumnRef("v"), Div(Literal(1.0), ColumnRef("v"))),
      Gt(ColumnRef("v"), ColumnRef("w")),
      Le(ColumnRef("v"), Literal(10.0)),
      StringEquals(ColumnRef("city"), "NYC"),
      StringEquals(ColumnRef("city"), "ZZZ"),  // Absent from dictionary.
      And(Gt(ColumnRef("v"), Literal(8.0)),
          StringEquals(ColumnRef("city"), "SF")),
      Or(Lt(ColumnRef("v"), Literal(6.0)), Gt(ColumnRef("w"), Literal(1.0))),
      Not(StringEquals(ColumnRef("city"), "LA")),
      Udf("hypot", hypot_udf, {ColumnRef("v"), ColumnRef("w")}),
  };
}

TEST(BlockExprTest, DenseBlocksMatchWholeVectorEval) {
  // 5001 rows: two full blocks plus a partial tail.
  Table t = MakeMixedTable(5001, 3);
  for (const ExprPtr& e : TestExpressions()) {
    Result<std::vector<double>> reference = e->EvalNumeric(t, nullptr);
    ASSERT_TRUE(reference.ok()) << e->ToString();
    EXPECT_EQ(EvalNumericBlockwise(*e, t, nullptr), *reference)
        << e->ToString();
    Result<std::vector<char>> ref_mask = e->EvalPredicate(t, nullptr);
    ASSERT_TRUE(ref_mask.ok()) << e->ToString();
    EXPECT_EQ(EvalPredicateBlockwise(*e, t, nullptr), *ref_mask)
        << e->ToString();
  }
}

TEST(BlockExprTest, SelectionBlocksMatchWholeVectorEval) {
  Table t = MakeMixedTable(5001, 4);
  // A scattered, ascending selection (about half the rows).
  std::vector<int64_t> rows;
  Rng rng(8);
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    if (rng.NextInt(2) == 0) rows.push_back(i);
  }
  for (const ExprPtr& e : TestExpressions()) {
    Result<std::vector<double>> reference = e->EvalNumeric(t, &rows);
    ASSERT_TRUE(reference.ok()) << e->ToString();
    EXPECT_EQ(EvalNumericBlockwise(*e, t, &rows), *reference) << e->ToString();
    Result<std::vector<char>> ref_mask = e->EvalPredicate(t, &rows);
    ASSERT_TRUE(ref_mask.ok()) << e->ToString();
    EXPECT_EQ(EvalPredicateBlockwise(*e, t, &rows), *ref_mask)
        << e->ToString();
  }
}

TEST(BlockExprTest, BlockBoundarySizes) {
  // Exactly the sizes where block chunking logic can be off by one.
  for (int64_t rows : {int64_t{0}, int64_t{1}, kVectorBlockSize - 1,
                       kVectorBlockSize, kVectorBlockSize + 1}) {
    Table t = MakeMixedTable(rows, 100 + static_cast<uint64_t>(rows));
    ExprPtr e = Add(Mul(ColumnRef("v"), ColumnRef("w")), Literal(0.5));
    Result<std::vector<double>> reference = e->EvalNumeric(t, nullptr);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(EvalNumericBlockwise(*e, t, nullptr), *reference)
        << "rows=" << rows;
  }
}

TEST(BlockExprTest, ErrorsPropagateFromBlocks) {
  Table t = MakeMixedTable(10, 1);
  EvalScratch scratch;
  double out[kVectorBlockSize];
  ExprPtr missing = ColumnRef("no_such_column");
  Status s =
      missing->EvalNumericBlock(t, RowBlock::Dense(0, 10), scratch, out);
  EXPECT_FALSE(s.ok());
  ExprPtr not_numeric = ColumnRef("city");
  s = not_numeric->EvalNumericBlock(t, RowBlock::Dense(0, 10), scratch, out);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// PrepareQuery (vectorized) vs PrepareQueryScalar (reference)
// ---------------------------------------------------------------------------

QuerySpec MakeQuery(AggregateKind kind, ExprPtr input, ExprPtr filter) {
  QuerySpec q;
  q.id = "vec";
  q.table = "t";
  q.aggregate.kind = kind;
  q.aggregate.input = std::move(input);
  q.filter = std::move(filter);
  return q;
}

TEST(PrepareQueryTest, FilteredMatchesScalarReference) {
  Table t = MakeMixedTable(5001, 9);
  ScalarUdf square = [](const std::vector<double>& a) { return a[0] * a[0]; };
  const ExprPtr inputs[] = {
      ColumnRef("v"),
      Add(ColumnRef("v"), ColumnRef("w")),
      Udf("square", square, {ColumnRef("v")}),
  };
  const ExprPtr filters[] = {
      Gt(ColumnRef("v"), Literal(9.0)),
      And(StringEquals(ColumnRef("city"), "NYC"),
          Lt(ColumnRef("w"), Literal(0.5))),
      Not(StringEquals(ColumnRef("city"), "ZZZ")),  // Everything passes.
  };
  for (const ExprPtr& input : inputs) {
    for (const ExprPtr& filter : filters) {
      QuerySpec q = MakeQuery(AggregateKind::kSum, input, filter);
      Result<PreparedQuery> vectorized = PrepareQuery(t, q);
      Result<PreparedQuery> scalar = PrepareQueryScalar(t, q);
      ASSERT_TRUE(vectorized.ok() && scalar.ok());
      EXPECT_FALSE(vectorized->all_rows);
      EXPECT_EQ(vectorized->rows, scalar->rows);
      EXPECT_EQ(vectorized->values, scalar->values);
      EXPECT_EQ(vectorized->table_rows, scalar->table_rows);
    }
  }
}

TEST(PrepareQueryTest, UnfilteredIsDenseWithIdenticalValues) {
  Table t = MakeMixedTable(4099, 10);
  QuerySpec q = MakeQuery(AggregateKind::kAvg,
                          Mul(ColumnRef("v"), ColumnRef("w")), nullptr);
  Result<PreparedQuery> vectorized = PrepareQuery(t, q);
  Result<PreparedQuery> scalar = PrepareQueryScalar(t, q);
  ASSERT_TRUE(vectorized.ok() && scalar.ok());
  EXPECT_TRUE(vectorized->all_rows);
  EXPECT_TRUE(vectorized->rows.empty());
  EXPECT_EQ(vectorized->num_passing(), scalar->num_passing());
  EXPECT_EQ(vectorized->values, scalar->values);
  for (int64_t i = 0; i < vectorized->num_passing(); ++i) {
    ASSERT_EQ(vectorized->RowAt(i), scalar->RowAt(i));
  }
}

// ---------------------------------------------------------------------------
// Fused multi-replicate kernel vs the scalar reference path
// ---------------------------------------------------------------------------

TEST(FusedKernelTest, MultiResampleEqualsScalarReference) {
  Table t = MakeMixedTable(4001, 21);
  ThreadPool pool(4);
  ExecRuntime parallel(&pool);
  const AggregateKind kinds[] = {
      AggregateKind::kCount,  AggregateKind::kSum,  AggregateKind::kAvg,
      AggregateKind::kVariance, AggregateKind::kStddev, AggregateKind::kMin,
      AggregateKind::kMax,    AggregateKind::kPercentile,
  };
  ScalarUdf shift = [](const std::vector<double>& a) { return a[0] + 100.0; };
  const ExprPtr filters[] = {nullptr, Gt(ColumnRef("v"), Literal(8.0))};
  for (AggregateKind kind : kinds) {
    for (const ExprPtr& filter : filters) {
      ExprPtr input = kind == AggregateKind::kCount
                          ? nullptr
                          : Udf("shift", shift, {ColumnRef("v")});
      QuerySpec q = MakeQuery(kind, input, filter);
      Result<PreparedQuery> prepared = PrepareQuery(t, q);
      ASSERT_TRUE(prepared.ok()) << AggregateKindName(kind);
      Rng rng_fused(77);
      Rng rng_parallel(77);
      Rng rng_reference(77);
      Result<std::vector<double>> fused = MultiResampleFromPrepared(
          *prepared, q.aggregate, 2.5, 64, rng_fused, ExecRuntime());
      Result<std::vector<double>> fused_mt = MultiResampleFromPrepared(
          *prepared, q.aggregate, 2.5, 64, rng_parallel, parallel);
      Result<std::vector<double>> reference = MultiResampleReference(
          *prepared, q.aggregate, 2.5, 64, rng_reference);
      ASSERT_TRUE(fused.ok() && fused_mt.ok() && reference.ok())
          << AggregateKindName(kind);
      // Exact equality: same replicate count, same values, serial == pooled.
      ASSERT_EQ(fused->size(), reference->size()) << AggregateKindName(kind);
      for (size_t k = 0; k < fused->size(); ++k) {
        ASSERT_EQ((*fused)[k], (*reference)[k])
            << AggregateKindName(kind) << " replicate " << k;
      }
      EXPECT_EQ(*fused, *fused_mt) << AggregateKindName(kind);
    }
  }
}

TEST(FusedKernelTest, ReplicateDistributionIsStatisticallySound) {
  // Statistical guardrail independent of the exact-match tests: the fused
  // SUM replicates must center on the plain SUM with the bootstrap's
  // expected spread (relative SE of a mean over n iid rows ~ 1/sqrt(n)).
  const int64_t n = 20000;
  Table t("t");
  Column v = Column::MakeDouble("v");
  Rng data_rng(31);
  double true_sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    double x = std::exp(data_rng.NextGaussian(0.0, 1.0));  // Lognormal.
    v.AppendDouble(x);
    true_sum += x;
  }
  ASSERT_TRUE(t.AddColumn(std::move(v)).ok());
  QuerySpec q = MakeQuery(AggregateKind::kSum, ColumnRef("v"), nullptr);
  Result<PreparedQuery> prepared = PrepareQuery(t, q);
  ASSERT_TRUE(prepared.ok());
  Rng rng(55);
  Result<std::vector<double>> replicates =
      MultiResampleFromPrepared(*prepared, q.aggregate, 1.0, 200, rng);
  ASSERT_TRUE(replicates.ok());
  ASSERT_EQ(replicates->size(), 200u);
  double mean = 0.0;
  for (double r : *replicates) mean += r;
  mean /= static_cast<double>(replicates->size());
  // Bootstrap means concentrate around the point estimate; 2% is ~ several
  // standard errors for lognormal(0,1) at n = 20000.
  EXPECT_NEAR(mean, true_sum, 0.02 * true_sum);
}

TEST(FusedKernelTest, RawKernelMatchesScalarLoop) {
  // Direct kernel-level pin, no executor in the loop.
  Rng data_rng(61);
  std::vector<double> values(3000);
  for (double& x : values) x = data_rng.NextGaussian(5.0, 2.0);
  const int64_t kReplicates = 7;
  std::vector<WeightedAccumulator> fused(
      static_cast<size_t>(kReplicates),
      WeightedAccumulator(AggregateKind::kSum));
  std::vector<WeightedAccumulator> scalar = fused;
  std::vector<Rng> fused_rngs;
  std::vector<Rng> scalar_rngs;
  for (int64_t r = 0; r < kReplicates; ++r) {
    fused_rngs.push_back(Rng(1000 + static_cast<uint64_t>(r)));
    scalar_rngs.push_back(Rng(1000 + static_cast<uint64_t>(r)));
  }
  FusedPoissonAccumulate(values.data(), static_cast<int64_t>(values.size()),
                         fused_rngs.data(), fused.data(), kReplicates);
  for (size_t i = 0; i < values.size(); ++i) {
    for (int64_t r = 0; r < kReplicates; ++r) {
      int32_t w = PoissonOneWeight(scalar_rngs[static_cast<size_t>(r)]);
      if (w > 0) {
        scalar[static_cast<size_t>(r)].Add(values[i],
                                           static_cast<double>(w));
      }
    }
  }
  for (int64_t r = 0; r < kReplicates; ++r) {
    EXPECT_EQ(*fused[static_cast<size_t>(r)].Finalize(1.0),
              *scalar[static_cast<size_t>(r)].Finalize(1.0))
        << "replicate " << r;
    // Kernel and scalar loop must also leave the streams in the same state.
    EXPECT_EQ(fused_rngs[static_cast<size_t>(r)].NextDouble(),
              scalar_rngs[static_cast<size_t>(r)].NextDouble());
  }
}

}  // namespace
}  // namespace aqp
