// Robustness-layer tests: wall-clock deadline enforcement with graceful
// degradation at the engine level, and fixed-seed determinism of
// fault-injected execution at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "exec/query_spec.h"
#include "expr/expr.h"
#include "runtime/cancellation.h"
#include "runtime/failpoint.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "util/random.h"

namespace aqp {
namespace {

// ---------------------------------------------------------------------------
// Fixed-seed determinism under fault injection
// ---------------------------------------------------------------------------

Table MakeValueTable(int64_t rows) {
  Table t("t");
  Column v = Column::MakeDouble("v");
  Rng rng(314);
  for (int64_t i = 0; i < rows; ++i) v.AppendDouble(rng.NextDouble() * 50.0);
  EXPECT_TRUE(t.AddColumn(std::move(v)).ok());
  return t;
}

QuerySpec SumQuery() {
  QuerySpec q;
  q.id = "robustness";
  q.table = "t";
  q.filter = Lt(ColumnRef("v"), Literal(30.0));
  q.aggregate.kind = AggregateKind::kSum;
  q.aggregate.input = ColumnRef("v");
  return q;
}

std::vector<double> ResampleWithFaults(const Table& table, int threads,
                                       uint64_t failpoint_seed,
                                       double probability) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  FailpointRegistry failpoints(failpoint_seed);
  if (probability > 0.0) {
    failpoints.Arm(kParallelForChunkSite, probability);
  }
  ExecRuntime runtime = ExecRuntime(pool.get()).WithFailpoints(&failpoints);
  Rng rng(9);
  Result<std::vector<double>> r =
      ExecuteMultiResample(table, SumQuery(), 2.0, 64, rng, runtime);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? *r : std::vector<double>{};
}

TEST(FaultInjectedDeterminismTest, BitIdenticalAtOneFourEightThreads) {
  Table table = MakeValueTable(4000);
  std::vector<double> serial = ResampleWithFaults(table, 1, 77, 0.15);
  ASSERT_FALSE(serial.empty());
  for (int threads : {4, 8}) {
    std::vector<double> parallel =
        ResampleWithFaults(table, threads, 77, 0.15);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical: injection is keyed by (seed, chunk, attempt) and a
      // replicate's randomness by its index, never by scheduling.
      ASSERT_EQ(serial[i], parallel[i])
          << "replicate " << i << " @ " << threads << " threads";
    }
  }
}

TEST(FaultInjectedDeterminismTest, RecoveredFailuresMatchUninjectedRun) {
  // Every injected failure with seed 77 / p=0.15 recovers within the retry
  // budget, and a retried chunk re-executes identical work — so the
  // fault-injected run must be indistinguishable from the clean one.
  Table table = MakeValueTable(4000);
  std::vector<double> clean = ResampleWithFaults(table, 4, 77, 0.0);
  std::vector<double> injected = ResampleWithFaults(table, 4, 77, 0.15);
  ASSERT_EQ(clean.size(), injected.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i], injected[i]) << "replicate " << i;
  }
}

// ---------------------------------------------------------------------------
// Engine deadline enforcement
// ---------------------------------------------------------------------------

std::shared_ptr<const Table> MakeBigTable(int64_t rows) {
  Rng rng(2026);
  auto t = std::make_shared<Table>("big");
  Column v = Column::MakeDouble("v");
  for (int64_t i = 0; i < rows; ++i) {
    v.AppendDouble(rng.NextGaussian(100.0, 15.0));
  }
  EXPECT_TRUE(t->AddColumn(std::move(v)).ok());
  return t;
}

// AVG through an identity UDF: streaming (single-scan pipeline applies) but
// not closed-form, so error bars come from the bootstrap fan-out — the path
// a deadline interrupts.
QuerySpec UdfAvgQuery(const char* table) {
  QuerySpec q;
  q.id = "udf_avg";
  q.table = table;
  q.aggregate.kind = AggregateKind::kAvg;
  q.aggregate.input =
      Udf("ident", [](const std::vector<double>& args) { return args[0]; },
          {ColumnRef("v")});
  return q;
}

// Stall per fan-out chunk. Every chunk straggles, so a query's 375 units
// (75 bootstrap chunks + 300 diagnostic subsamples) need over a second on
// three workers, and a 0.12 s budget overruns on any hardware: without the
// stall, a fast core finishes all 300 replicates inside the budget.
constexpr double kChunkStallSeconds = 0.01;

TEST(EngineDeadlineTest, MispredictedThroughputDegradesGracefully) {
  FailpointRegistry stalls(/*seed=*/1);
  stalls.ArmLatency(kParallelForChunkSite, 1.0, kChunkStallSeconds);
  EngineOptions options;
  options.bootstrap_replicates = 300;
  options.diagnostic.num_subsamples = 100;
  options.default_sample_rows = 150000;
  // Wildly optimistic throughput model (>10x): the engine believes the
  // large sample fits the budget. Only the deadline token keeps the
  // promise.
  options.rows_per_second = 1e9;
  options.num_threads = 2;
  options.failpoints = &stalls;
  AqpEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable(MakeBigTable(300000)).ok());
  ASSERT_TRUE(engine.CreateSample("big", 150000).ok());

  constexpr double kBudget = 0.12;
  Result<ApproxResult> r =
      engine.ExecuteWithTimeBound(UdfAvgQuery("big"), kBudget);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The model mispredicted; enforcement must have kicked in.
  EXPECT_TRUE(r->deadline_hit);
  // Returned within 1.5x the budget (plus scheduling grace for slow CI /
  // sanitizer builds: cancellation is cooperative at chunk granularity).
  EXPECT_LT(r->elapsed_seconds, 1.5 * kBudget + 0.35);
  // Valid error bars from the partial fan-out: K' in [2, K).
  EXPECT_GE(r->replicates_used, 2);
  EXPECT_LT(r->replicates_used, options.bootstrap_replicates);
  EXPECT_GT(r->ci.half_width, 0.0);
  EXPECT_NEAR(r->estimate, 100.0, 2.0);
  // No post-deadline work: the estimate was not thrown away for an exact
  // re-execution, and the diagnostic verdict was not trusted.
  EXPECT_FALSE(r->fell_back);
  EXPECT_EQ(r->method, EstimationMethod::kBootstrap);
}

TEST(EngineDeadlineTest, GenerousBudgetRunsToCompletion) {
  EngineOptions options;
  options.bootstrap_replicates = 60;
  options.diagnostic.num_subsamples = 100;
  options.default_sample_rows = 20000;
  options.rows_per_second = 5e6;
  options.num_threads = 2;
  AqpEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable(MakeBigTable(100000)).ok());
  ASSERT_TRUE(engine.CreateSample("big", 20000).ok());

  Result<ApproxResult> r =
      engine.ExecuteWithTimeBound(UdfAvgQuery("big"), 30.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->deadline_hit);
  EXPECT_EQ(r->replicates_used, options.bootstrap_replicates);
  EXPECT_TRUE(r->diagnostic_ran);
  EXPECT_GT(r->elapsed_seconds, 0.0);
  EXPECT_LT(r->elapsed_seconds, 30.0);
}

TEST(EngineDeadlineTest, OverrunFeedsThroughputModelDown) {
  FailpointRegistry stalls(/*seed=*/1);
  stalls.ArmLatency(kParallelForChunkSite, 1.0, kChunkStallSeconds);
  EngineOptions options;
  options.bootstrap_replicates = 300;
  options.diagnostic.num_subsamples = 100;
  options.default_sample_rows = 150000;
  options.rows_per_second = 1e9;
  options.throughput_ewma_alpha = 0.3;
  options.num_threads = 2;
  options.failpoints = &stalls;
  AqpEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable(MakeBigTable(300000)).ok());
  ASSERT_TRUE(engine.CreateSample("big", 150000).ok());

  double initial = engine.observed_rows_per_second();
  EXPECT_DOUBLE_EQ(initial, 1e9);
  // Each overrun scales its observation by the completed fraction, so a
  // 10x-optimistic model corrects downward from the very first hit.
  for (int i = 0; i < 3; ++i) {
    Result<ApproxResult> r =
        engine.ExecuteWithTimeBound(UdfAvgQuery("big"), 0.12);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->deadline_hit) << "run " << i;
  }
  // Three EWMA steps at alpha=0.3 with near-zero observations: the model
  // must have shed at least the (1-alpha)^3 = 0.343 factor's complement.
  EXPECT_LT(engine.observed_rows_per_second(), 0.5 * initial);
}

TEST(EngineDeadlineTest, RejectsNonPositiveBudget) {
  AqpEngine engine;
  EXPECT_EQ(engine.ExecuteWithTimeBound(UdfAvgQuery("big"), 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      engine.ExecuteWithTimeBound(UdfAvgQuery("big"), -1.0).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Degraded single-scan output plumbing
// ---------------------------------------------------------------------------

TEST(EngineDeadlineTest, PreTrippedTokenYieldsDeadlineExceeded) {
  // A token that trips before any replicate completes cannot produce even a
  // degraded answer: the engine must say so with the right status code
  // rather than return fabricated error bars.
  EngineOptions options;
  options.bootstrap_replicates = 50;
  options.default_sample_rows = 20000;
  options.num_threads = 2;
  AqpEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable(MakeBigTable(100000)).ok());
  ASSERT_TRUE(engine.CreateSample("big", 20000).ok());
  // An (effectively) already-expired deadline: the first checkpoint trips.
  Result<ApproxResult> r =
      engine.ExecuteWithTimeBound(UdfAvgQuery("big"), 1e-9);
  // Either no answer at all (kDeadlineExceeded) or — if the very first
  // chunk slipped through before the first checkpoint — a degraded one.
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  } else {
    EXPECT_TRUE(r->deadline_hit);
  }
}

}  // namespace
}  // namespace aqp
