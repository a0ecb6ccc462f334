#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <map>
#include <numeric>
#include <string>

#include "expr/expr.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "sampling/sampler.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace aqp::bench {
namespace {

// Rates are constants, set against each workload's closed-loop
// capacity_qps on a 4-vCPU AMD EPYC virtual machine (about 7,200, 650 and
// 630 queries/s): dashboard and adhoc run at a sixth of it, rare_segment at
// a quarter. Queueing multiplies a change in service time by about
// 1 / (1 - utilisation), so at half of capacity a latency moves twice as
// far as the host's speed, which on a shared machine drifts by 10-20% from
// minute to minute. Every dashboard refresh gives every client some of its
// tiles, so a client queues behind its own previous miss more often than
// the server's utilisation suggests. Deadlines are the SLO an interactive
// client of that traffic would set.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"dashboard", 1200.0, 100.0, 4},
      {"adhoc", 110.0, 500.0, 1},
      {"rare_segment", 150.0, 100.0, 1},
  };
  return specs;
}

// The tables and the traces are the same for every seed. Which tiles the
// diagnostic rejects, which answers miss and how much work each request
// is all follow from the data and the requests, and a latency quantile
// that falls between two kinds of request moves with their exact mix; a
// trace drawn per seed would make the seed, not the code, move the
// numbers. Each trace is as long as the timed open loop, which sends it
// exactly once. The seed picks the arrival times and where in the trace
// the stream starts.
constexpr uint64_t kDataSeed = 2014;
constexpr uint64_t kStartStream = 2;
constexpr uint64_t kTraceStream = 3;

// The ad-hoc queries answer from an eighth of the dashboard's sample, so
// that a run sends thousands of them at a small share of capacity and its
// p99 rests on dozens of requests.
constexpr int64_t kAdhocSampleRows = 12500;
constexpr int64_t kCalibrationRows = 100000;

constexpr int kDashboards = 48;
constexpr double kDashboardZipf = 1.1;

QuerySpec MakePlan(const std::string& table, ExprPtr filter,
                   AggregateKind kind, const std::string& column,
                   double percentile = 0.5) {
  QuerySpec q;
  q.table = table;
  q.filter = std::move(filter);
  q.aggregate.kind = kind;
  q.aggregate.input = ColumnRef(column);
  q.aggregate.percentile = percentile;
  q.id = q.ToString();
  return q;
}

// 48 dashboards = 8 filters x 6 columns, each with the same four
// closed-form tiles over its column. The tiles of one dashboard share a
// filter and an input column, hence one ScanKeyText: a refresh is the
// fusion case of the shared-scan scheduler.
//
// Dashboard d is the (d+1)-th most popular, so the order decides which
// refreshes hit the cache. The skewed columns come first: the diagnostic
// rejects some of their tiles, which are never cached, so about three
// refreshes in four execute a tile. With the symmetric columns first two
// in five did, the median refresh fell in the gap between answered from
// the cache (~0.05 ms) and executed (~1.5 ms), and the p50 moved by 15-20%
// from run to run with how many cached refreshes queued behind a miss.
std::vector<QuerySpec> DashboardPlans() {
  const std::vector<ExprPtr> filters = {
      StringEquals(ColumnRef("platform"), "ios"),
      StringEquals(ColumnRef("platform"), "android"),
      StringEquals(ColumnRef("platform"), "web"),
      StringEquals(ColumnRef("region"), "region_0"),
      StringEquals(ColumnRef("region"), "region_1"),
      Ge(ColumnRef("age"), Literal(40.0)),
      Lt(ColumnRef("value_uniform"), Literal(300.0)),
      Gt(ColumnRef("session_length"), Literal(200.0)),
  };
  const std::vector<std::string> columns = {
      "value_lognormal", "session_length", "like_count",
      "value_normal", "value_uniform", "age"};
  const AggregateKind tiles[] = {AggregateKind::kCount, AggregateKind::kSum,
                                 AggregateKind::kAvg, AggregateKind::kStddev};
  std::vector<QuerySpec> plans;
  for (const ExprPtr& filter : filters) {
    for (const std::string& column : columns) {
      for (AggregateKind kind : tiles) {
        plans.push_back(MakePlan("events", filter, kind, column));
      }
    }
  }
  return plans;
}

// Shares of the rare_segment traffic, in the order RareSegmentPlans lists a
// (city, column) pair's aggregates: COUNT, AVG, SUM, MAX, PERCENTILE. The
// closed-form three answer in 0.1-0.2 ms, most of it waking the pool's
// threads, whose cost drifts by 10-20% from run to run with the host. MAX
// (single scan) and PERCENTILE (two-phase bootstrap) take milliseconds of
// computation. MAX is the median request, so p50_ms measures the engine's
// work, not the host's wake-up latency. COUNT outweighs AVG and SUM because
// the diagnostic accepts it on every column (AVG and SUM only on
// bitrate_kbps and ad_impressions, MAX and PERCENTILE on none), which keeps
// a fifth of the executed answers accepted for accepted_coverage.
constexpr int64_t kRareSegmentWeights[] = {3, 1, 1, 5, 2};

// WHERE city = c for each of the 100 cities, five aggregates over five
// columns. ad_impressions, bitrate_kbps and join_time_ms keep the CLT happy
// on a few thousand rows; session_time and buffering_ratio are skewed
// enough that the diagnostic rejects part of their answers.
std::vector<QuerySpec> RareSegmentPlans(const Table& sessions) {
  Result<const Column*> city = sessions.ColumnByName("city");
  std::vector<std::string> cities =
      city.ok() ? (*city)->dictionary() : std::vector<std::string>{};
  const std::vector<std::string> columns = {
      "session_time", "join_time_ms", "buffering_ratio", "bitrate_kbps",
      "ad_impressions"};
  std::vector<QuerySpec> plans;
  for (const std::string& c : cities) {
    ExprPtr filter = StringEquals(ColumnRef("city"), c);
    for (const std::string& column : columns) {
      plans.push_back(MakePlan("sessions", filter, AggregateKind::kCount,
                               column));
      plans.push_back(MakePlan("sessions", filter, AggregateKind::kAvg,
                               column));
      plans.push_back(MakePlan("sessions", filter, AggregateKind::kSum,
                               column));
      plans.push_back(MakePlan("sessions", filter, AggregateKind::kMax,
                               column));
      plans.push_back(MakePlan("sessions", filter,
                               AggregateKind::kPercentile, column, 0.9));
    }
  }
  return plans;
}

// The paper's trace mix, `queries` long. Filter thresholds are calibrated
// on a uniform sample of the table: same distributions, a tenth of the
// generation time. The trace is ordered so that every stretch of it
// carries the whole trace's aggregate mix (smooth weighted round-robin over
// the aggregate + UDF categories, generation order within each): the
// closed loop, which sends only part of it, sees the same mix too.
std::vector<QuerySpec> AdhocPlans(const std::shared_ptr<const Table>& events,
                                  int queries, uint64_t seed) {
  Rng rng(seed);
  Result<Sample> calibration = CreateUniformSample(
      events, std::min(kCalibrationRows, events->num_rows()),
      /*with_replacement=*/false, rng);
  std::shared_ptr<const Table> population =
      calibration.ok() ? calibration->data : events;
  QueryGenerator generator(population, seed);
  std::map<std::string, std::deque<QuerySpec>> categories;
  for (WorkloadQuery& wq : generator.Generate(FacebookMix(), queries, "adhoc")) {
    categories[wq.category].push_back(std::move(wq.query));
  }
  struct Turn {
    std::deque<QuerySpec>* queue;
    int64_t weight;
    int64_t credit = 0;
  };
  std::vector<Turn> turns;
  for (auto& [category, queue] : categories) {
    turns.push_back({&queue, static_cast<int64_t>(queue.size())});
  }
  std::vector<QuerySpec> plans;
  for (int i = 0; i < queries; ++i) {
    Turn* pick = nullptr;
    for (Turn& t : turns) {
      t.credit += t.weight;
      if (pick == nullptr || t.credit > pick->credit) pick = &t;
    }
    pick->credit -= queries;
    plans.push_back(std::move(pick->queue->front()));
    pick->queue->pop_front();
  }
  return plans;
}

// `refreshes` dashboard refreshes: Zipf picks dashboard d, whose refresh
// sends its tiles 4d .. 4d+3.
std::vector<int> DashboardTrace(int64_t refreshes, int batch, Rng& rng) {
  std::vector<int> trace;
  for (int64_t r = 0; r < refreshes; ++r) {
    const int64_t dashboard = rng.NextZipf(kDashboards, kDashboardZipf) - 1;
    for (int j = 0; j < batch; ++j) {
      trace.push_back(static_cast<int>(dashboard * batch + j));
    }
  }
  return trace;
}

// `requests` rare_segment requests: a city and a column uniformly, and an
// aggregate in the proportions of kRareSegmentWeights.
std::vector<int> RareSegmentTrace(int64_t requests, int64_t plans, Rng& rng) {
  constexpr int64_t kKinds = std::size(kRareSegmentWeights);
  const int64_t total = std::accumulate(std::begin(kRareSegmentWeights),
                                        std::end(kRareSegmentWeights),
                                        int64_t{0});
  std::vector<int> trace;
  for (int64_t i = 0; i < requests; ++i) {
    const int64_t segment = rng.NextInt(plans / kKinds);
    int64_t draw = rng.NextInt(total);
    int64_t kind = 0;
    while (draw >= kRareSegmentWeights[kind]) draw -= kRareSegmentWeights[kind++];
    trace.push_back(static_cast<int>(segment * kKinds + kind));
  }
  return trace;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

ServerOptions BenchServerOptions() {
  ServerOptions options;
  options.cache.enabled = true;
  options.enable_shared_scans = true;
  options.shared_scan.batch_window_seconds = 0.0;
  options.engine.max_parallelism = kQueryWidth;
  return options;
}

int64_t Arrivals(const WorkloadSpec& spec, double seconds) {
  return std::llround(spec.rate_qps * seconds / spec.batch);
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, bool smoke,
                      double open_seconds) {
  Workload w;
  w.spec = &spec;
  w.seed = seed;
  const std::string name = spec.name;
  const int64_t events = std::max<int64_t>(1, Arrivals(spec, open_seconds));
  const uint64_t trace_seed = DeriveStreamSeed(kDataSeed, kTraceStream);
  Rng trace_rng(trace_seed);
  w.sample_rows = smoke ? 10000 : (name == "adhoc" ? kAdhocSampleRows : 100000);
  if (name == "rare_segment") {
    w.table = GenerateSessionsTable(smoke ? 100000 : 2000000, kDataSeed);
    w.stratify_column = "city";
    w.stratum_cap = smoke ? 300 : 5000;
    w.plans = RareSegmentPlans(*w.table);
    w.trace = RareSegmentTrace(events, static_cast<int64_t>(w.plans.size()),
                               trace_rng);
  } else {
    w.table = GenerateEventsTable(smoke ? 60000 : 1000000, kDataSeed);
    if (name == "dashboard") {
      w.plans = DashboardPlans();
      w.trace = DashboardTrace(events, spec.batch, trace_rng);
    } else {
      w.plans = AdhocPlans(w.table, static_cast<int>(events), trace_seed);
      w.trace.resize(w.plans.size());
      std::iota(w.trace.begin(), w.trace.end(), 0);
    }
  }
  Rng start_rng(DeriveStreamSeed(seed, kStartStream));
  w.start = start_rng.NextInt(events) * spec.batch;
  return w;
}

int Workload::PlanAt(int64_t position) const {
  return trace[static_cast<size_t>((start + position) %
                                   static_cast<int64_t>(trace.size()))];
}

Status Workload::SetUp(AqpServer& server, double* sampling_seconds) const {
  AQP_RETURN_IF_ERROR(server.engine().RegisterTable(table));
  const double start = MonotonicSeconds();
  AQP_RETURN_IF_ERROR(server.engine().CreateSample(table->name(), sample_rows));
  if (!stratify_column.empty()) {
    AQP_RETURN_IF_ERROR(server.engine().CreateStratifiedSample(
        table->name(), stratify_column, stratum_cap));
  }
  if (sampling_seconds != nullptr) {
    *sampling_seconds = MonotonicSeconds() - start;
  }
  return Status::OK();
}

}  // namespace aqp::bench
