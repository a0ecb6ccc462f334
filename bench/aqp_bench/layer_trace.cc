#include "layer_trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "diagnostics/diagnostic.h"
#include "diagnostics/single_scan.h"
#include "estimation/bootstrap.h"
#include "estimation/closed_form.h"
#include "exec/aggregate.h"
#include "exec/executor.h"
#include "exec/shared_scan.h"
#include "obs/trace.h"
#include "plan/fingerprint.h"
#include "runtime/cancellation.h"
#include "runtime/rng_stream.h"
#include "sampling/sampler.h"
#include "sampling/stratified.h"
#include "server/result_cache.h"

namespace aqp::bench {
namespace {

// One span name per layer call of the served path. The root and the
// ExecuteServed span own no work of their own: their self time is the
// glue between calls, reported as unattributed.
constexpr const char* kRequest = "server.request";
constexpr const char* kFingerprint = "plan.fingerprint";
constexpr const char* kCache = "server.cache";
constexpr const char* kPredict = "core.predict_work";
constexpr const char* kServed = "core.execute_served";
constexpr const char* kResolve = "core.resolve";
constexpr const char* kPrepare = "exec.prepare";
constexpr const char* kClosedForm = "estimation.closed_form";
constexpr const char* kBootstrap = "estimation.bootstrap";
constexpr const char* kSingleScan = "diagnostics.single_scan";
constexpr const char* kConsolidated = "diagnostics.consolidated";

// Layers whose share of the summed self time is reported.
const char* const kLayers[] = {kFingerprint, kCache,     kPredict,
                               kResolve,     kPrepare,   kClosedForm,
                               kBootstrap,   kSingleScan, kConsolidated};

// Probe geometry: the paper's K, and enough repetitions to time.
constexpr int kProbeReplicates = 100;
constexpr double kProbeSeconds = 0.25;
constexpr int kProbeMinReps = 3;

struct Resolved {
  std::shared_ptr<const Table> data;
  int64_t population_rows = 0;
  QuerySpec effective;
};

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>& out) {
  std::vector<ExprPtr> operands;
  if (expr->GetAndOperands(operands)) {
    for (const ExprPtr& operand : operands) CollectConjuncts(operand, out);
  } else {
    out.push_back(expr);
  }
}

// Runtime sample selection as the engine makes it: the stratum matching an
// equality conjunct on the stratified column (that conjunct is then
// answered by the choice), else the default uniform sample.
Result<Resolved> Resolve(const AqpEngine& engine,
                         const StratifiedSample* stratified,
                         const QuerySpec& query) {
  if (stratified != nullptr && query.filter != nullptr) {
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(query.filter, conjuncts);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::string column;
      std::string value;
      if (!conjuncts[i]->GetStringEquality(&column, &value) ||
          column != stratified->column) {
        continue;
      }
      Result<Sample> stratum = SampleForStratum(*stratified, value);
      if (!stratum.ok()) continue;
      Resolved resolved;
      resolved.data = stratum->data;
      resolved.population_rows = stratum->population_rows;
      resolved.effective = query;
      resolved.effective.filter = nullptr;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j == i) continue;
        resolved.effective.filter =
            resolved.effective.filter == nullptr
                ? conjuncts[j]
                : And(resolved.effective.filter, conjuncts[j]);
      }
      return resolved;
    }
  }
  Result<const Sample*> sample = engine.samples().SelectAtLeast(
      query.table, engine.options().default_sample_rows);
  if (!sample.ok()) return sample.status();
  Resolved resolved;
  resolved.data = (*sample)->data;
  resolved.population_rows = (*sample)->population_rows;
  resolved.effective = query;
  return resolved;
}

// Bytes PrepareQuery reads per row: every referenced column once (8-byte
// doubles, 4-byte dictionary codes).
int64_t BytesPerRow(const Table& table, const QuerySpec& query) {
  std::vector<std::string> columns;
  if (query.filter != nullptr) query.filter->CollectColumns(columns);
  if (query.aggregate.input != nullptr) {
    query.aggregate.input->CollectColumns(columns);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  int64_t bytes = 0;
  for (const std::string& name : columns) {
    Result<const Column*> column = table.ColumnByName(name);
    if (column.ok()) bytes += (*column)->is_numeric() ? 8 : 4;
  }
  return bytes;
}

struct Answer {
  double estimate = 0.0;
  ConfidenceInterval ci;
  bool diagnostic_ok = false;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const Answer& traced, const ApproxResult& served) {
  return SameBits(traced.estimate, served.estimate) &&
         SameBits(traced.ci.center, served.ci.center) &&
         SameBits(traced.ci.half_width, served.ci.half_width) &&
         traced.diagnostic_ok == served.diagnostic_ok;
}

struct PrepareTally {
  int64_t rows = 0;
  int64_t bytes = 0;
};

// AqpEngine::ExecuteServed as the server calls it (cancellable token, so a
// rejected answer is returned flagged; a shared-scan scheduler attached, so
// a plan with a scan key is prepared once for every consumer), rebuilt from
// the public function of each layer with a span around each call.
// `first_prepared` receives the first PreparedQuery, for the aggregate
// timing outside the spans.
Result<Answer> TracedExecute(const AqpEngine& engine,
                             const StratifiedSample* stratified,
                             const QuerySpec& query, uint64_t rng_seed,
                             Tracer* tracer, PrepareTally* tally,
                             std::shared_ptr<const PreparedQuery>* first_prepared,
                             double* scale_out) {
  ScopedSpan served_span(tracer, kServed);
  const EngineOptions& options = engine.options();
  Rng rng(DeriveStreamSeed(options.seed, rng_seed));
  const CancellationToken token =
      CancellationToken::WithDeadline(Deadline::Infinite());
  const ExecRuntime runtime = engine.runtime().WithToken(token);
  const int replicates = options.bootstrap_replicates;

  Result<Resolved> resolved = [&] {
    ScopedSpan span(tracer, kResolve);
    return Resolve(engine, stratified, query);
  }();
  if (!resolved.ok()) return resolved.status();
  const Table& data = *resolved->data;
  const QuerySpec& effective = resolved->effective;
  const double scale =
      data.num_rows() == 0 ? 0.0
                           : static_cast<double>(resolved->population_rows) /
                                 static_cast<double>(data.num_rows());
  *scale_out = scale;

  const std::string scan_key = [&] {
    ScopedSpan span(tracer, kFingerprint);
    return ScanKeyText(effective);
  }();
  const int64_t bytes_per_row = BytesPerRow(data, effective);
  // With a scan key the scheduler prepares once and every consumer adopts
  // it; without one (UDF plans) each consumer prepares privately.
  std::deque<std::shared_ptr<const PreparedQuery>> prepared_slots;
  Status prepare_error;
  auto prepared = [&]() -> const PreparedQuery* {
    if (!scan_key.empty() && !prepared_slots.empty()) {
      return prepared_slots.front().get();
    }
    Result<PreparedQuery> p = [&] {
      ScopedSpan span(tracer, kPrepare);
      return PrepareQuery(data, effective);
    }();
    if (!p.ok()) {
      prepare_error = p.status();
      return nullptr;
    }
    tally->rows += data.num_rows();
    tally->bytes += data.num_rows() * bytes_per_row;
    prepared_slots.push_back(
        std::make_shared<const PreparedQuery>(std::move(*p)));
    if (*first_prepared == nullptr) *first_prepared = prepared_slots.back();
    return prepared_slots.back().get();
  };

  DiagnosticConfig config = options.diagnostic;
  config.alpha = options.alpha;
  const ClosedFormEstimator closed_form;
  const bool use_bootstrap = !closed_form.Applicable(effective);
  Answer answer;

  if (use_bootstrap && options.run_diagnostic &&
      WeightedAccumulator::SupportsKind(effective.aggregate.kind)) {
    const PreparedQuery* p = prepared();
    if (p == nullptr) return prepare_error;
    Result<SingleScanResult> single = [&] {
      ScopedSpan span(tracer, kSingleScan);
      return RunSingleScanPipeline(data, effective, resolved->population_rows,
                                   replicates, replicates, config,
                                   BootstrapCiMode::kNormalApprox, rng,
                                   runtime, p);
    }();
    if (single.ok()) {
      answer.estimate = single->theta;
      answer.ci = single->ci;
      answer.diagnostic_ok =
          single->diagnostic_complete && single->diagnostic.accepted;
      return answer;
    }
    if (single.status().code() == StatusCode::kDeadlineExceeded ||
        single.status().code() == StatusCode::kCancelled) {
      return single.status();
    }
    // Degenerate for the single scan: the engine falls through to the
    // two-phase path below.
  }

  BootstrapEstimator bootstrap(replicates, BootstrapCiMode::kNormalApprox);
  bootstrap.set_runtime(runtime);
  const PreparedQuery* p = prepared();
  if (p == nullptr) return prepare_error;
  Result<ConfidenceInterval> ci = [&]() -> Result<ConfidenceInterval> {
    if (use_bootstrap) {
      ScopedSpan span(tracer, kBootstrap);
      int used = 0;
      return bootstrap.EstimateWithUsage(data, effective, scale,
                                         options.alpha, rng, runtime, &used,
                                         nullptr, p);
    }
    ScopedSpan span(tracer, kClosedForm);
    return closed_form.EstimateFromPrepared(*p, effective.aggregate, scale,
                                            options.alpha, rng);
  }();
  if (!ci.ok()) return ci.status();
  answer.estimate = ci->center;
  answer.ci = *ci;
  if (options.run_diagnostic) {
    const ErrorEstimator& estimator =
        use_bootstrap ? static_cast<const ErrorEstimator&>(bootstrap)
                      : static_cast<const ErrorEstimator&>(closed_form);
    const PreparedQuery* dp = prepared();
    if (dp == nullptr) return prepare_error;
    Result<DiagnosticReport> report = [&] {
      ScopedSpan span(tracer, kConsolidated);
      return RunDiagnosticConsolidated(data, effective, estimator,
                                       resolved->population_rows, config, rng,
                                       runtime, dp);
    }();
    answer.diagnostic_ok = report.ok() && report->accepted;
  }
  return answer;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Last-level cache size: sysconf where the libc knows it, else sysfs, else
// the 32 MiB of the reference box.
int64_t L3Bytes() {
  const long sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (sys > 0) return sys;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  int64_t kib = 0;
  if (in >> kib && kib > 0) return kib * 1024;
  return int64_t{32} << 20;
}

// Single-thread memcpy bandwidth on a buffer 4x the L3 (median of 3).
double MemcpyBytesPerSecond() {
  const size_t bytes = static_cast<size_t>(4 * L3Bytes());
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::memcpy(dst.data(), src.data(), bytes);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    src[static_cast<size_t>(rep)] = static_cast<char>(rep);
    const int64_t start = MonotonicNanos();
    std::memcpy(dst.data(), src.data(), bytes);
    const int64_t elapsed = MonotonicNanos() - start;
    if (dst[static_cast<size_t>(rep)] != src[static_cast<size_t>(rep)]) {
      return 0.0;
    }
    rates.push_back(static_cast<double>(bytes) /
                    (static_cast<double>(elapsed) * 1e-9));
  }
  return Median(rates);
}

// Runs `body` until kProbeSeconds have passed (at least kProbeMinReps
// times) and returns `work_per_rep` per second.
template <typename Body>
double ProbeRate(double work_per_rep, const Body& body) {
  int reps = 0;
  const int64_t start = MonotonicNanos();
  int64_t elapsed = 0;
  while (reps < kProbeMinReps || elapsed < static_cast<int64_t>(kProbeSeconds * 1e9)) {
    if (!body()) return 0.0;
    ++reps;
    elapsed = MonotonicNanos() - start;
  }
  return work_per_rep * reps / (static_cast<double>(elapsed) * 1e-9);
}

// Kernel ceilings on the default uniform sample, unfiltered, on the
// engine's pool: the resample kernel alone (K = 100) and the full single
// scan (K bootstrap replicates plus every diagnostic subsample's K').
void AddKernelProbes(const AqpEngine& engine, const Workload& workload,
                     std::vector<Metric>* metrics) {
  Result<const Sample*> sample = engine.samples().SelectAtLeast(
      workload.table->name(), engine.options().default_sample_rows);
  std::string column;
  for (const Column& c : workload.table->columns()) {
    if (c.is_numeric()) {
      column = c.name();
      break;
    }
  }
  double resample_rate = 0.0;
  double single_scan_rate = 0.0;
  if (sample.ok() && !column.empty()) {
    const Table& data = *(*sample)->data;
    const int64_t n = data.num_rows();
    QuerySpec query;
    query.table = workload.table->name();
    query.aggregate.kind = AggregateKind::kAvg;
    query.aggregate.input = ColumnRef(column);
    Result<PreparedQuery> prepared = PrepareQuery(data, query);
    if (prepared.ok()) {
      resample_rate = ProbeRate(
          static_cast<double>(n) * kProbeReplicates, [&] {
            Rng rng(7);
            return MultiResampleFromPrepared(*prepared, query.aggregate,
                                             (*sample)->scale_factor(),
                                             kProbeReplicates, rng,
                                             engine.runtime())
                .ok();
          });
      query.aggregate.kind = AggregateKind::kMax;
      DiagnosticConfig config = engine.options().diagnostic;
      config.alpha = engine.options().alpha;
      double row_replicates = static_cast<double>(n) * kProbeReplicates;
      for (int64_t b : DefaultSubsampleSizes(n, config.num_subsamples,
                                             config.num_sizes)) {
        const int64_t p =
            std::min<int64_t>(config.num_subsamples, b > 0 ? n / b : 0);
        row_replicates += static_cast<double>(p * b) * kProbeReplicates;
      }
      single_scan_rate = ProbeRate(row_replicates, [&] {
        Rng rng(7);
        return RunSingleScanPipeline(data, query, (*sample)->population_rows,
                                     kProbeReplicates, kProbeReplicates,
                                     config, BootstrapCiMode::kNormalApprox,
                                     rng, engine.runtime(), &*prepared)
            .ok();
      });
    }
  }
  metrics->push_back({"exec.resample.row_replicates_per_s", resample_rate,
                      "row-replicates/s"});
  metrics->push_back({"diagnostics.single_scan.row_replicates_per_s",
                      single_scan_rate, "row-replicates/s"});
}

}  // namespace

TraceOutcome RunLayerTrace(const AqpServer& server, const Workload& workload,
                           int requests) {
  const AqpEngine& engine = server.engine();
  TraceOutcome outcome;

  // The engine keeps its stratified samples private; rebuild the same one
  // from the same RNG sequence its set-up consumed (uniform sample first,
  // then the strata). The bit-identity check below proves the copy equal.
  std::unique_ptr<StratifiedSample> stratified;
  if (!workload.stratify_column.empty()) {
    Rng rng(engine.options().seed);
    Result<Sample> uniform = CreateUniformSample(
        workload.table, workload.sample_rows, /*with_replacement=*/false, rng);
    Result<StratifiedSample> strata = CreateStratifiedSample(
        workload.table, workload.stratify_column, workload.stratum_cap, rng);
    if (uniform.ok() && strata.ok()) {
      stratified = std::make_unique<StratifiedSample>(std::move(*strata));
    }
  }

  ResultCacheOptions cache_options;
  if (server.cache() != nullptr) cache_options = server.cache()->options();
  cache_options.enabled = true;
  ResultCache cache(cache_options);
  ScanScheduler scans;

  Tracer tracer;
  // Untraced engine time of the executed requests, which the layer spans
  // inside core.execute_served are reconciled against.
  double untraced_seconds = 0.0;
  PrepareTally tally;
  int64_t aggregate_ns = 0;
  int aggregate_calls = 0;
  for (int i = 0; i < requests; ++i) {
    const QuerySpec& query =
        workload.plans[static_cast<size_t>(workload.PlanAt(i))];
    const uint64_t rng_seed = static_cast<uint64_t>(i);
    ++outcome.requests;

    // Untraced reference: the served engine call for the same request and
    // stream, timed from outside.
    AqpEngine::ServeOptions serve;
    serve.rng_seed = rng_seed;
    serve.token = CancellationToken::WithDeadline(Deadline::Infinite());
    serve.shared_scans = &scans;

    std::shared_ptr<const PreparedQuery> first_prepared;
    double scale = 0.0;
    {
      ScopedSpan root(&tracer, kRequest);
      std::string key;
      {
        ScopedSpan span(&tracer, kFingerprint);
        if (PlanCanonicalizable(query)) key = CanonicalPlanText(query);
      }
      if (!key.empty()) {
        ResultCache::Hit hit;
        bool found = false;
        {
          ScopedSpan span(&tracer, kCache);
          found = cache.Lookup(key, 0.0, &hit);
        }
        if (found) continue;
      }
      {
        ScopedSpan span(&tracer, kPredict);
        (void)engine.PredictedWorkRows(query);
      }
      // The reference runs inside the root span but outside every layer
      // span; its time is subtracted from the root below.
      const int64_t reference_start = MonotonicNanos();
      Result<ApproxResult> reference = engine.ExecuteServed(query, serve);
      const int64_t reference_ns = MonotonicNanos() - reference_start;
      tracer.Record("bench.reference", reference_start,
                    reference_start + reference_ns, 1);
      Result<Answer> traced = TracedExecute(engine, stratified.get(), query,
                                            rng_seed, &tracer, &tally,
                                            &first_prepared, &scale);
      ++outcome.executed;
      untraced_seconds += static_cast<double>(reference_ns) * 1e-9;
      if (!reference.ok() || !traced.ok() ||
          !SameAnswer(*traced, *reference)) {
        ++outcome.mismatches;
        continue;
      }
      if (!key.empty() && ResultCache::CacheableResult(*reference)) {
        ScopedSpan span(&tracer, kCache);
        cache.Insert(key, *reference, static_cast<int64_t>(rng_seed));
      }
    }
    if (first_prepared != nullptr) {
      const int64_t start = MonotonicNanos();
      Result<double> theta =
          ComputeAggregate(*first_prepared, query.aggregate, scale);
      aggregate_ns += MonotonicNanos() - start;
      ++aggregate_calls;
      if (!theta.ok()) ++outcome.mismatches;
    }
  }

  // Self time per span: its duration minus its direct children's. All
  // spans sit on this thread, ordered by start with parents first.
  const std::vector<Span> spans = tracer.Snapshot();
  std::map<std::string, double> self_seconds;
  std::map<std::string, int> calls;
  double served_children = 0.0;  // under every core.execute_served span
  struct Open {
    const Span* span;
    double children = 0.0;
    bool served = false;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    const std::string name = open.span->name;
    if (name == "bench.reference") return;
    self_seconds[name] += open.span->duration_seconds() - open.children;
    ++calls[name];
  };
  for (const Span& span : spans) {
    while (!stack.empty() && stack.back().span->end_ns <= span.start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().children += span.duration_seconds();
      if (stack.back().served) served_children += span.duration_seconds();
    }
    stack.push_back({&span, 0.0, std::strcmp(span.name, kServed) == 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }

  const double memcpy_bps = MemcpyBytesPerSecond();
  const double n_requests = std::max(1, outcome.requests);
  const double n_executed = std::max(1, outcome.executed);
  auto per_call = [&](const char* name) {
    const int n = calls[name];
    return n > 0 ? self_seconds[name] / n : 0.0;
  };
  const double prepare_seconds = self_seconds[kPrepare];
  std::vector<Metric>& m = outcome.metrics;
  m.push_back({"plan.fingerprint.us",
               self_seconds[kFingerprint] / n_requests * 1e6, "us"});
  m.push_back({"server.cache.lookup_us",
               self_seconds[kCache] / n_requests * 1e6, "us"});
  m.push_back({"core.resolve_us", per_call(kResolve) * 1e6, "us"});
  m.push_back({"exec.prepare.ms", prepare_seconds / n_executed * 1e3, "ms"});
  m.push_back({"exec.prepare.rows_per_s",
               prepare_seconds > 0.0
                   ? static_cast<double>(tally.rows) / prepare_seconds
                   : 0.0,
               "rows/s"});
  m.push_back({"exec.prepare.bw_frac",
               prepare_seconds > 0.0 && memcpy_bps > 0.0
                   ? static_cast<double>(tally.bytes) / prepare_seconds /
                         memcpy_bps
                   : 0.0,
               "fraction"});
  m.push_back({"exec.aggregate.ms",
               aggregate_calls > 0
                   ? static_cast<double>(aggregate_ns) / aggregate_calls * 1e-6
                   : 0.0,
               "ms"});
  m.push_back({"estimation.closed_form.ms", per_call(kClosedForm) * 1e3, "ms"});
  m.push_back({"diagnostics.consolidated.ms", per_call(kConsolidated) * 1e3,
               "ms"});
  AddKernelProbes(engine, workload, &m);
  m.push_back({"storage.memcpy_gbps", memcpy_bps * 1e-9, "GB/s"});

  double total_self = 0.0;
  for (const auto& [name, seconds] : self_seconds) total_self += seconds;
  double attributed = 0.0;
  for (const char* layer : kLayers) {
    const double share =
        total_self > 0.0 ? self_seconds[layer] / total_self : 0.0;
    attributed += share;
    m.push_back({std::string("trace.share.") + layer, share, "fraction"});
  }
  m.push_back({"trace.share.unattributed",
               total_self > 0.0 ? 1.0 - attributed : 0.0, "fraction"});
  // Summed over the executed requests, so that each request counts by its
  // time: the share of the untraced engine time the layer spans account
  // for.
  m.push_back({"trace.reconcile_ratio",
               untraced_seconds > 0.0 ? served_children / untraced_seconds
                                      : 0.0,
               "ratio"});
  outcome.chrome_trace_json = tracer.ExportChromeTrace();
  return outcome;
}

}  // namespace aqp::bench
