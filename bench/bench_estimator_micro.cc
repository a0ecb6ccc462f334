// §2.3 microbenchmarks: relative computational cost of the error
// estimation procedures (Fig. 7(a)'s motivation — closed forms are much
// cheaper than the bootstrap when applicable) and of the diagnostic.
#include <benchmark/benchmark.h>

#include "kernel_json_reporter.h"

#include <algorithm>
#include <memory>

#include "diagnostics/diagnostic.h"
#include "diagnostics/single_scan.h"
#include "estimation/bootstrap.h"
#include "estimation/closed_form.h"
#include "estimation/large_deviation.h"
#include "sampling/sampler.h"
#include "storage/table.h"
#include "util/random.h"

namespace aqp {
namespace {

struct Fixture {
  std::shared_ptr<const Table> population;
  Sample sample;
  QuerySpec query;

  static Fixture& Get() {
    static Fixture* fixture = [] {
      auto f = new Fixture();
      Rng rng(1);
      auto t = std::make_shared<Table>("g");
      Column v = Column::MakeDouble("v");
      for (int i = 0; i < 400000; ++i) {
        v.AppendDouble(rng.NextLognormal(2.0, 1.0));
      }
      (void)t->AddColumn(std::move(v));
      f->population = t;
      Rng srng(2);
      f->sample =
          std::move(CreateUniformSample(t, 100000, false, srng)).value();
      f->query.table = "g";
      f->query.aggregate.kind = AggregateKind::kAvg;
      f->query.aggregate.input = ColumnRef("v");
      return f;
    }();
    return *fixture;
  }
};

void BM_ClosedFormEstimate(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ClosedFormEstimator estimator;
  Rng rng(3);
  for (auto _ : state) {
    auto ci = estimator.Estimate(*f.sample.data, f.query,
                                 f.sample.scale_factor(), 0.95, rng);
    benchmark::DoNotOptimize(ci.ok());
  }
}
BENCHMARK(BM_ClosedFormEstimate)->Unit(benchmark::kMillisecond);

void BM_BootstrapEstimateK100(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  BootstrapEstimator estimator(100);
  Rng rng(4);
  for (auto _ : state) {
    auto ci = estimator.Estimate(*f.sample.data, f.query,
                                 f.sample.scale_factor(), 0.95, rng);
    benchmark::DoNotOptimize(ci.ok());
  }
}
BENCHMARK(BM_BootstrapEstimateK100)->Unit(benchmark::kMillisecond);

void BM_LargeDeviationEstimate(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto range = ComputeValueRange(*f.population, f.query);
  LargeDeviationEstimator estimator(*range);
  Rng rng(5);
  for (auto _ : state) {
    auto ci = estimator.Estimate(*f.sample.data, f.query,
                                 f.sample.scale_factor(), 0.95, rng);
    benchmark::DoNotOptimize(ci.ok());
  }
}
BENCHMARK(BM_LargeDeviationEstimate)->Unit(benchmark::kMillisecond);

void BM_DiagnosticClosedForm(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ClosedFormEstimator estimator;
  DiagnosticConfig config;
  Rng rng(6);
  for (auto _ : state) {
    auto report = RunDiagnostic(*f.sample.data, f.query, estimator,
                                f.sample.population_rows, config, rng);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_DiagnosticClosedForm)->Unit(benchmark::kMillisecond);

void BM_DiagnosticBootstrapK100(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  BootstrapEstimator estimator(100);
  DiagnosticConfig config;
  Rng rng(7);
  for (auto _ : state) {
    auto report = RunDiagnostic(*f.sample.data, f.query, estimator,
                                f.sample.population_rows, config, rng);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_DiagnosticBootstrapK100)->Unit(benchmark::kMillisecond);

// The full pipeline (answer + CI + diagnostic) in two logical passes:
// bootstrap estimation followed by the consolidated diagnostic.
void BM_PipelineTwoPhase(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  BootstrapEstimator bootstrap(100);
  DiagnosticConfig config;
  Rng rng(8);
  for (auto _ : state) {
    auto ci = bootstrap.Estimate(*f.sample.data, f.query,
                                 f.sample.scale_factor(), 0.95, rng);
    auto report = RunDiagnosticConsolidated(*f.sample.data, f.query,
                                            bootstrap,
                                            f.sample.population_rows, config,
                                            rng);
    benchmark::DoNotOptimize(ci.ok() && report.ok());
  }
}
BENCHMARK(BM_PipelineTwoPhase)->Unit(benchmark::kMillisecond);

// The same work in ONE scan (§5.3.1 weight-column fan-out): answer, K=100
// bootstrap replicates, and all diagnostic replicates from a single pass.
void BM_PipelineSingleScan(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  DiagnosticConfig config;
  Rng rng(9);
  for (auto _ : state) {
    auto result = RunSingleScanPipeline(
        *f.sample.data, f.query, f.sample.population_rows, 100, 100, config,
        BootstrapCiMode::kNormalApprox, rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PipelineSingleScan)->Unit(benchmark::kMillisecond);

// The single scan for MAX on an n-row sample, one thread, K = K' = 100:
// rare_segment's median request (n = 5,000 is its stratum cap) and a third
// of adhoc's Facebook mix (n = 12,500 is its sample size). Items are the
// weights drawn, i.e. row-replicates: n*K for the bootstrap plus
// sum_i p_i*b_i*K' over the diagnostic ladder.
void BM_PipelineSingleScanMax(benchmark::State& state) {
  constexpr int kReplicates = 100;
  const int64_t n = state.range(0);
  Fixture& f = Fixture::Get();
  Rng sample_rng(10);
  Sample sample =
      std::move(CreateUniformSample(f.population, n, false, sample_rng))
          .value();
  QuerySpec query = f.query;
  query.aggregate.kind = AggregateKind::kMax;
  DiagnosticConfig config;
  Result<std::vector<int64_t>> sizes =
      diag_internal::ResolveSubsampleSizes(config, n);
  if (!sizes.ok()) {
    state.SkipWithError(sizes.status().ToString().c_str());
    return;
  }
  int64_t weights_per_scan = n * kReplicates;
  for (int64_t b : *sizes) {
    int64_t p = std::min<int64_t>(config.num_subsamples, n / b);
    weights_per_scan += p * b * kReplicates;
  }
  Rng rng(11);
  for (auto _ : state) {
    auto result = RunSingleScanPipeline(
        *sample.data, query, sample.population_rows, kReplicates, kReplicates,
        config, BootstrapCiMode::kNormalApprox, rng);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * weights_per_scan);
}
BENCHMARK(BM_PipelineSingleScanMax)
    ->Arg(5000)
    ->Arg(12500)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aqp

int main(int argc, char** argv) {
  return aqp::bench::RunKernelBenchmarks(argc, argv);
}
