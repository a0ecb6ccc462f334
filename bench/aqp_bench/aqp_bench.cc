// aqp_bench: one served-path benchmark with three traffic mixes.
//
//   aqp_bench --workload=<dashboard|adhoc|rare_segment> --seed=<n>
//             [--seconds=<s>] [--trace] [--smoke] [--json=<path>]
//             [--trace-out=<path>]
//
// Drives AqpServer the way its users do: one process, one client thread per
// kQueryWidth cores, each with its own session. A run is
//
//   set-up x21 (timed from cold caches, median)  ->  warm-up (open loop,
//   untimed)
//   -> open loop at the workload's fixed rate  -> closed loop
//   -> correctness checks  [-> traced replay + hardware probes]
//
// and prints every metric as `name value unit`, then one JSON object with
// the end-to-end metrics, the per-layer metrics and the check outcome. Any
// failed check makes the exit status 1. Layers are measured from outside:
// response fields, default-registry counter deltas, and (with --trace)
// benchmark-owned spans around public calls.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/aggregate.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/fingerprint.h"
#include "runtime/cancellation.h"
#include "runtime/rng_stream.h"
#include "server/server.h"
#include "server/session.h"
#include "util/random.h"
#include "workloads.h"

namespace aqp::bench {
namespace {

constexpr uint64_t kArrivalStream = 4;
constexpr uint64_t kCheckStream = 5;
constexpr double kInfiniteMs = std::numeric_limits<double>::infinity();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds: five sixths open loop, one sixth closed loop.
  /// 0 selects the default (30 s; 1 s with --smoke).
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_path;
};

/// Run geometry derived from the options.
struct RunShape {
  double warmup_s = 0.0;
  double open_s = 0.0;
  double closed_s = 0.0;
  int setups = 0;
  int replay_checks = 0;
  int trace_requests = 0;
};

RunShape MakeRunShape(const Options& options) {
  RunShape shape;
  const double seconds =
      options.seconds > 0.0 ? options.seconds : (options.smoke ? 1.0 : 30.0);
  shape.warmup_s = options.smoke ? 0.2 : 3.0;
  shape.open_s = seconds * 5.0 / 6.0;
  shape.closed_s = seconds / 6.0;
  shape.setups = options.smoke ? 2 : 21;
  shape.replay_checks = options.smoke ? 50 : 200;
  shape.trace_requests = options.smoke ? 20 : 300;
  return shape;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string v;
    if (value("--workload", &v)) {
      options->workload = v;
    } else if (value("--seed", &v)) {
      char* end = nullptr;
      options->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (value("--seconds", &v)) {
      char* end = nullptr;
      options->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options->seconds > 0.0) ||
          options->seconds > 600.0) {
        return false;
      }
    } else if (value("--json", &v)) {
      options->json_path = v;
    } else if (value("--trace-out", &v)) {
      options->trace_path = v;
    } else if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else {
      return false;
    }
  }
  return FindWorkload(options->workload) != nullptr;
}

enum class Phase : uint8_t { kWarmup, kOpen, kClosed };

/// One request as the client saw it, plus the response fields the metrics
/// and checks read.
struct Record {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int64_t rng_seed = -1;
  int64_t population_rows = 0;
  double center = 0.0;
  double half_width = 0.0;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  double shared_wait_ms = 0.0;
  int plan = 0;
  int replicates = 0;
  StatusCode code = StatusCode::kOk;
  Phase phase = Phase::kOpen;
  /// False when the deadline was spent before the client was free to send.
  bool sent = false;
  /// The client was idle when the request came due.
  bool idle = false;
  bool cache_hit = false;
  bool shared_scan = false;
  bool deadline_hit = false;
  bool accepted = false;
  bool diagnostic_ok = false;
  bool shed = false;

  bool ok() const { return sent && code == StatusCode::kOk; }
  double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
};

struct Scheduled {
  int64_t due_ns = 0;
  int64_t position = 0;
  Phase phase = Phase::kOpen;
};

/// Writes back and evicts every cache line of `table`'s column storage, so
/// that a timed set-up reads its source table from memory, as the set-up
/// of a server whose table is not cache-resident does. Without it each
/// set-up of a run finds more of the rows the previous ones gathered (the
/// engine draws the same sample every time) still in the shared L3, and its
/// time depends on how much of the L3 the machine's other tenants left.
/// Off x86-64 it does nothing, and set-ups run with whatever is cached.
void EvictFromCaches(const Table& table) {
#if defined(__x86_64__)
  constexpr uintptr_t kLine = 64;
  for (const Column& column : table.columns()) {
    const uintptr_t begin =
        column.is_numeric()
            ? reinterpret_cast<uintptr_t>(column.doubles().data())
            : reinterpret_cast<uintptr_t>(column.codes().data());
    const uintptr_t end =
        begin + (column.is_numeric()
                     ? column.doubles().size() * sizeof(double)
                     : column.codes().size() * sizeof(int32_t));
    for (uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine) {
      __builtin_ia32_clflush(reinterpret_cast<const void*>(line));
    }
  }
  __builtin_ia32_mfence();
#else
  (void)table;
#endif
}

void SleepUntil(int64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

/// Moves the calling thread into (true) or out of (false) the lowest
/// real-time priority. An idle client sleeps towards its due time at that
/// priority: at the default one its wake-up waits for the engine's busy
/// pool workers and lands milliseconds late on a saturated box. It hands
/// the request over at the due time and then drops back, so the request
/// itself runs at the default priority, and any wait for a core after the
/// hand-over is the server's, counted in the latency from the due time.
/// Where real-time priority is not permitted the call does nothing, and
/// loadgen.late_ms.p99 shows the cost.
void SetRealtime(bool on) {
  sched_param param = {};
  param.sched_priority = on ? 1 : 0;
  (void)pthread_setschedparam(pthread_self(), on ? SCHED_FIFO : SCHED_OTHER,
                              &param);
}

/// Sends stream entry `position` when it comes due (at once when the client
/// is already late) with the deadline budget left after any lateness.
Record Send(AqpServer& server, SessionId session, const Workload& workload,
            int64_t position, int64_t due_ns, Phase phase) {
  Record r;
  r.phase = phase;
  r.due_ns = due_ns;
  r.plan = workload.PlanAt(position);
  QueryRequest request;
  request.query = workload.plans[static_cast<size_t>(r.plan)];
  r.idle = MonotonicNanos() < due_ns;
  if (r.idle) {
    SetRealtime(true);
    SleepUntil(due_ns);
    r.send_ns = MonotonicNanos();
    SetRealtime(false);
  } else {
    r.send_ns = MonotonicNanos();
  }
  const double budget_ms = workload.spec->deadline_ms -
                           static_cast<double>(r.send_ns - due_ns) * 1e-6;
  if (budget_ms <= 0.0) {
    r.code = StatusCode::kDeadlineExceeded;
    r.done_ns = r.send_ns;
    return r;
  }
  request.deadline_ms = budget_ms;
  const QueryResponse response = server.Execute(session, request);
  r.done_ns = MonotonicNanos();
  r.sent = true;
  r.code = response.status.code();
  r.rng_seed = response.rng_seed;
  r.queue_wait_ms = response.queue_wait_ms;
  r.service_ms = response.service_ms;
  r.shed = response.shed_stage != ShedStage::kNone;
  if (response.status.ok()) {
    const ApproxResult& result = response.result;
    r.population_rows = result.population_rows;
    r.center = result.ci.center;
    r.half_width = result.ci.half_width;
    r.replicates = result.profile.replicates_requested;
    r.cache_hit = result.profile.cache_hit;
    r.shared_scan = result.profile.shared_scan;
    r.shared_wait_ms = result.profile.shared_scan_wait_ms;
    r.deadline_hit = result.deadline_hit;
    r.diagnostic_ok = result.diagnostic_ok;
    r.accepted = result.diagnostic_ran && result.diagnostic_ok;
  }
  return r;
}

/// Default-registry readings the live per-layer metrics are deltas of.
struct Counters {
  int64_t tasks = 0;
  int64_t chunks = 0;
  int64_t evictions = 0;
  int64_t fused = 0;

  static Counters Read() {
    MetricsRegistry& registry = MetricsRegistry::Default();
    Counters c;
    c.tasks = registry.GetCounter("runtime.thread_pool.tasks_submitted")->value();
    c.chunks =
        registry.GetHistogram("runtime.parallel_for.chunks_per_region")->sum();
    c.evictions = registry.GetCounter("server.cache.evictions")->value();
    c.fused = registry.GetCounter("exec.shared_scan.shared_served")->value();
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {tasks - o.tasks, chunks - o.chunks, evictions - o.evictions,
            fused - o.fused};
  }
};

/// Open loop: Poisson arrivals at the workload's rate over the warm-up and
/// then the timed window. Each window is a Poisson process conditioned on
/// its count: exactly Arrivals() due times drawn uniformly over the window,
/// so every run offers the same number of requests. Every request has its
/// client, round-robin: the entries of a batch (the tiles of a dashboard
/// refresh) are spread over the clients, and the rotation continues from
/// event to event, so no client always gets the same tile.
std::vector<Record> RunOpenLoop(AqpServer& server, const Workload& workload,
                                const std::vector<SessionId>& sessions,
                                const RunShape& shape, int64_t start_ns,
                                Counters* open_delta) {
  const WorkloadSpec& spec = *workload.spec;
  const int clients = static_cast<int>(sessions.size());
  const int64_t warm_end = start_ns + static_cast<int64_t>(shape.warmup_s * 1e9);
  std::vector<std::vector<Scheduled>> schedule(static_cast<size_t>(clients));
  Rng rng(DeriveStreamSeed(workload.seed, kArrivalStream));
  int64_t position = 0;
  int64_t event = 0;
  auto add_window = [&](int64_t begin_ns, double seconds, Phase phase) {
    std::vector<int64_t> due(static_cast<size_t>(Arrivals(spec, seconds)));
    for (int64_t& d : due) {
      d = begin_ns + static_cast<int64_t>(rng.NextDouble() * seconds * 1e9);
    }
    std::sort(due.begin(), due.end());
    for (int64_t d : due) {
      for (int j = 0; j < spec.batch; ++j, ++position) {
        const int client = static_cast<int>((event + j) % clients);
        schedule[static_cast<size_t>(client)].push_back({d, position, phase});
      }
      ++event;
    }
  };
  add_window(start_ns, shape.warmup_s, Phase::kWarmup);
  add_window(warm_end, shape.open_s, Phase::kOpen);

  std::vector<Record> records(static_cast<size_t>(position));
  Counters before;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (const Scheduled& s : schedule[static_cast<size_t>(c)]) {
          records[static_cast<size_t>(s.position)] =
              Send(server, sessions[static_cast<size_t>(c)], workload,
                   s.position, s.due_ns, s.phase);
        }
      });
    }
    SleepUntil(warm_end);
    before = Counters::Read();
  }
  *open_delta = Counters::Read() - before;
  return records;
}

/// Closed loop: every client sends the next stream entry as soon as its
/// previous answer is back, for `seconds`.
std::vector<Record> RunClosedLoop(AqpServer& server, const Workload& workload,
                                  const std::vector<SessionId>& sessions,
                                  double seconds, int64_t first_position,
                                  int64_t* end_ns) {
  const int clients = static_cast<int>(sessions.size());
  std::atomic<int64_t> next{first_position};
  const int64_t start = MonotonicNanos();
  *end_ns = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Record>& out = per_client[static_cast<size_t>(c)];
        // Untouched reserved pages stay out of VmHWM; growing by copies
        // would not.
        out.reserve(static_cast<size_t>(16.0 * workload.spec->rate_qps *
                                        seconds / clients) + 64);
        while (MonotonicNanos() < *end_ns) {
          out.push_back(Send(server, sessions[static_cast<size_t>(c)],
                             workload, next.fetch_add(1), MonotonicNanos(),
                             Phase::kClosed));
        }
      });
    }
  }
  std::vector<Record> records;
  for (std::vector<Record>& part : per_client) {
    records.insert(records.end(), part.begin(), part.end());
  }
  return records;
}

/// Runs `body(i)` for i in [0, n) on `threads` threads.
template <typename Body>
void ParallelIndices(int64_t n, int threads, const Body& body) {
  std::atomic<int64_t> next{0};
  std::vector<std::jthread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
}

/// Nearest-rank quantile; +inf entries sort last.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank < 1) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double Fraction(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Outcome of the correctness checks.
struct Checks {
  int64_t replayed = 0;
  int64_t replay_mismatches = 0;
  int64_t malformed = 0;
  int64_t exact_plans = 0;
  int64_t exact_errors = 0;
  int64_t accepted_answers = 0;
  double coverage = 0.0;
  double rel_width_p50 = 0.0;
};

/// For each plan, the first plan with the same canonical text (plans the
/// result cache treats as one; UDF plans stand alone).
std::vector<int> CanonicalPlans(const Workload& workload) {
  std::map<std::string, int> first;
  std::vector<int> canonical(workload.plans.size());
  for (size_t i = 0; i < workload.plans.size(); ++i) {
    const QuerySpec& plan = workload.plans[i];
    canonical[i] = PlanCanonicalizable(plan)
                       ? first.emplace(CanonicalPlanText(plan), i).first->second
                       : static_cast<int>(i);
  }
  return canonical;
}

/// (1) Every OK answer is a finite estimate with a finite, non-negative
/// half-width. (2) Up to `replays` sampled OK answers, deadline-hit ones
/// skipped, replay bit-identically through AqpEngine::ExecuteServed with
/// the response's rng_seed and replicate count. (3) Exact answers, once per
/// distinct plan, score the CIs of the distinct answers — (plan, rng_seed)
/// pairs, so a cached answer counts once — the diagnostic accepted.
Checks RunChecks(const AqpServer& server, const Workload& workload,
                 const std::vector<Record>& records, int replays,
                 int threads) {
  Checks checks;
  const std::vector<int> canonical = CanonicalPlans(workload);
  std::vector<const Record*> ok;
  std::map<std::pair<int, int64_t>, const Record*> distinct;
  for (const Record& r : records) {
    if (!r.ok()) continue;
    if (!std::isfinite(r.center) || !std::isfinite(r.half_width) ||
        r.half_width < 0.0) {
      ++checks.malformed;
      continue;
    }
    distinct.emplace(
        std::make_pair(canonical[static_cast<size_t>(r.plan)], r.rng_seed), &r);
    if (!r.deadline_hit) ok.push_back(&r);
  }

  std::vector<const Record*> sampled;
  if (!ok.empty()) {
    Rng rng(DeriveStreamSeed(workload.seed, kCheckStream));
    std::set<std::pair<int, int64_t>> seen;
    const size_t want = std::min(ok.size(), static_cast<size_t>(replays));
    for (size_t attempt = 0; sampled.size() < want && attempt < 20 * want;
         ++attempt) {
      const Record* r =
          ok[static_cast<size_t>(rng.NextInt(static_cast<int64_t>(ok.size())))];
      if (seen.insert({r->plan, r->rng_seed}).second) sampled.push_back(r);
    }
  }
  std::vector<char> mismatch(sampled.size(), 0);
  ParallelIndices(static_cast<int64_t>(sampled.size()), threads,
                  [&](int64_t i) {
    const Record& r = *sampled[static_cast<size_t>(i)];
    AqpEngine::ServeOptions serve;
    serve.rng_seed = static_cast<uint64_t>(r.rng_seed);
    serve.replicates = r.replicates;
    // Cancellable like a served request, so a rejected answer stays
    // flagged instead of falling back to exact execution.
    serve.token = CancellationToken::WithDeadline(Deadline::Infinite());
    Result<ApproxResult> replay = server.engine().ExecuteServed(
        workload.plans[static_cast<size_t>(r.plan)], serve);
    const bool same = replay.ok() && SameBits(replay->ci.center, r.center) &&
                      SameBits(replay->ci.half_width, r.half_width) &&
                      replay->diagnostic_ok == r.diagnostic_ok;
    mismatch[static_cast<size_t>(i)] = same ? 0 : 1;
  });
  checks.replayed = static_cast<int64_t>(sampled.size());
  for (char m : mismatch) checks.replay_mismatches += m;

  std::vector<const Record*> accepted;
  std::vector<int> plans;
  for (const auto& [key, r] : distinct) {
    if (!r->accepted) continue;
    accepted.push_back(r);
    plans.push_back(key.first);
  }
  std::sort(plans.begin(), plans.end());
  plans.erase(std::unique(plans.begin(), plans.end()), plans.end());
  std::vector<double> exact(workload.plans.size(), 0.0);
  std::vector<char> exact_ok(workload.plans.size(), 0);
  ParallelIndices(static_cast<int64_t>(plans.size()), threads, [&](int64_t i) {
    const size_t plan = static_cast<size_t>(plans[static_cast<size_t>(i)]);
    Result<double> value = server.engine().ExecuteExact(workload.plans[plan]);
    if (value.ok() && std::isfinite(*value)) {
      exact[plan] = *value;
      exact_ok[plan] = 1;
    }
  });
  checks.exact_plans = static_cast<int64_t>(plans.size());
  int64_t covered = 0;
  std::vector<double> widths;
  for (const Record* r : accepted) {
    const size_t plan = static_cast<size_t>(canonical[static_cast<size_t>(r->plan)]);
    if (!exact_ok[plan]) {
      ++checks.exact_errors;
      continue;
    }
    ++checks.accepted_answers;
    if (std::abs(r->center - exact[plan]) <= r->half_width) ++covered;
    // Zero-width answers (e.g. COUNT over a whole stratum) are exact, not
    // error bars; the width statistic reads the answers that carry some.
    if (exact[plan] != 0.0 && r->half_width > 0.0) {
      widths.push_back(r->half_width / std::abs(exact[plan]));
    }
  }
  checks.coverage = Fraction(covered, checks.accepted_answers);
  checks.rel_width_p50 = Quantile(widths, 0.5);
  return checks;
}

void PrintMetric(const Metric& m) {
  std::printf("%-46s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

int Run(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  const RunShape shape = MakeRunShape(options);
  // One client per kQueryWidth cores. With a client per core and the
  // shipped fan-out (every pool worker plus the caller), a dashboard
  // refresh ran eight threads on four cores, and its latency measured the
  // kernel's time slices and whatever else held a core, not the server.
  const int clients = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) / kQueryWidth);
  const Workload workload =
      MakeWorkload(spec, options.seed, options.smoke, shape.open_s);

  // Set-up, timed whole from cold caches; the last one serves.
  std::vector<double> setup_s;
  std::vector<double> sampling_s;
  std::unique_ptr<AqpServer> server;
  for (int i = 0; i < shape.setups; ++i) {
    server.reset();
    EvictFromCaches(*workload.table);
    const double start = MonotonicSeconds();
    server = std::make_unique<AqpServer>(BenchServerOptions());
    double sampling = 0.0;
    const Status status = workload.SetUp(*server, &sampling);
    setup_s.push_back(MonotonicSeconds() - start);
    sampling_s.push_back(sampling);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 2;
    }
  }

  std::vector<SessionId> sessions;
  for (int c = 0; c < clients; ++c) sessions.push_back(server->OpenSession());
  const Counters run_start = Counters::Read();
  Counters open_delta;
  std::vector<Record> records =
      RunOpenLoop(*server, workload, sessions, shape,
                  MonotonicNanos() + 50'000'000, &open_delta);
  int64_t closed_end = 0;
  std::vector<Record> closed =
      RunClosedLoop(*server, workload, sessions, shape.closed_s,
                    static_cast<int64_t>(records.size()), &closed_end);
  const Counters run_delta = Counters::Read() - run_start;
  for (SessionId s : sessions) (void)server->CloseSession(s);
  records.insert(records.end(), closed.begin(), closed.end());
  const double peak_rss = PeakRssMiB();

  const Checks checks =
      RunChecks(*server, workload, records, shape.replay_checks, clients);

  // End-to-end latency is per user request: the `batch` stream entries
  // sent at one due time, done when the last of them is back (a dashboard
  // is drawn when its last tile arrives). Warm-up and open-loop records
  // are in stream order, so a request is `batch` consecutive records.
  const double deadline = spec.deadline_ms;
  const size_t batch = static_cast<size_t>(spec.batch);
  std::vector<double> latency;
  int64_t open_ok = 0;
  for (size_t i = 0; i + batch <= records.size(); i += batch) {
    if (records[i].phase != Phase::kOpen) continue;
    double last = 0.0;
    for (size_t j = i; j < i + batch; ++j) {
      last = records[j].ok() ? std::max(last, records[j].latency_ms())
                             : kInfiniteMs;
    }
    latency.push_back(last);
    open_ok += last <= deadline;
  }

  // Per-layer metrics are per query.
  int64_t open_n = 0, closed_ok = 0, not_ok = 0;
  int64_t hits = 0, executed = 0, executed_ok = 0, fused = 0, shed = 0;
  int64_t deadline_hits = 0, accepted = 0, single_scan_answers = 0;
  int64_t stratum_answers = 0;
  std::vector<double> queue_wait, service, front_door, shared_wait, late;
  for (const Record& r : records) {
    if (!r.ok()) ++not_ok;
    if (r.ok() && !r.cache_hit) {
      const QuerySpec& q = workload.plans[static_cast<size_t>(r.plan)];
      single_scan_answers += !q.ClosedFormApplicable() &&
                             WeightedAccumulator::SupportsKind(q.aggregate.kind);
      stratum_answers += r.population_rows < workload.table->num_rows();
    }
    if (r.phase == Phase::kClosed) {
      closed_ok += r.ok() && r.latency_ms() <= deadline && r.done_ns <= closed_end;
      continue;
    }
    if (r.phase != Phase::kOpen) continue;
    ++open_n;
    shed += r.shed;
    executed += r.sent && !r.cache_hit;
    if (r.idle) late.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    if (!r.ok()) continue;
    // Everything but engine service, as the client saw it: the server's
    // own total minus queue wait minus service is 0 by construction for
    // executed requests (its queue wait already spans the front door).
    front_door.push_back(static_cast<double>(r.done_ns - r.send_ns) * 1e-6 -
                         r.service_ms);
    if (r.cache_hit) {
      ++hits;
      continue;
    }
    ++executed_ok;
    queue_wait.push_back(r.queue_wait_ms);
    service.push_back(r.service_ms);
    shared_wait.push_back(r.shared_wait_ms);
    fused += r.shared_scan;
    deadline_hits += r.deadline_hit;
    accepted += r.accepted;
  }

  std::vector<Metric> e2e = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"p50_ms", Quantile(latency, 0.5), "ms"},
      {"p99_ms", Quantile(latency, 0.99), "ms"},
      {"capacity_qps", static_cast<double>(closed_ok) / shape.closed_s,
       "queries/s"},
      {"ok_frac",
       Fraction(open_ok, static_cast<int64_t>(latency.size())), "fraction"},
      {"accepted_coverage", checks.coverage, "fraction"},
      {"ci_rel_width_p50", checks.rel_width_p50, "fraction"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  std::vector<Metric> layers = {
      {"server.queue_wait_ms.p99", Quantile(queue_wait, 0.99), "ms"},
      {"server.service_ms.p50", Quantile(service, 0.5), "ms"},
      {"server.service_ms.p99", Quantile(service, 0.99), "ms"},
      {"server.front_door_ms.p50", Quantile(front_door, 0.5), "ms"},
      {"server.shed_frac", Fraction(shed, open_n), "fraction"},
      {"server.cache.hit_frac", Fraction(hits, open_n), "fraction"},
      {"server.cache.evictions_per_query",
       Fraction(open_delta.evictions, open_n), "count"},
      {"exec.shared_scan.fused_frac", Fraction(fused, executed_ok), "fraction"},
      {"exec.shared_scan.wait_ms.p99", Quantile(shared_wait, 0.99), "ms"},
      {"runtime.tasks_per_query", Fraction(open_delta.tasks, executed),
       "count"},
      {"runtime.chunks_per_query", Fraction(open_delta.chunks, executed),
       "count"},
      {"core.deadline_hit_frac", Fraction(deadline_hits, executed_ok),
       "fraction"},
      {"diagnostics.accepted_frac", Fraction(accepted, executed_ok),
       "fraction"},
      {"sampling.create_sample_ms", Quantile(sampling_s, 0.5) * 1e3, "ms"},
      {"loadgen.late_ms.p99", Quantile(late, 0.99), "ms"},
  };

  int64_t trace_mismatches = 0;
  int64_t traced = 0;
  if (options.trace) {
    TraceOutcome outcome =
        RunLayerTrace(*server, workload, shape.trace_requests);
    trace_mismatches = outcome.mismatches;
    traced = outcome.requests;
    layers.insert(layers.end(), outcome.metrics.begin(), outcome.metrics.end());
    if (!options.trace_path.empty()) {
      std::ofstream out(options.trace_path);
      out << outcome.chrome_trace_json;
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
        return 2;
      }
    }
  }

  const bool correct = checks.replayed > 0 && checks.replay_mismatches == 0 &&
                       checks.malformed == 0 && checks.exact_errors == 0 &&
                       trace_mismatches == 0;
  const int64_t attempted = static_cast<int64_t>(records.size()) +
                            checks.replayed + checks.exact_plans + traced;
  const int64_t failed = not_ok + checks.replay_mismatches + checks.malformed +
                         checks.exact_errors + trace_mismatches;
  const double late_p99 = Quantile(late, 0.99);

  std::vector<Metric> info = {
      {"open_requests", static_cast<double>(open_n), "count"},
      {"closed_requests", static_cast<double>(closed.size()), "count"},
      {"offered_qps", spec.rate_qps, "queries/s"},
      {"deadline_ms", spec.deadline_ms, "ms"},
      {"clients", static_cast<double>(clients), "count"},
      {"cache_hits", static_cast<double>(hits), "count"},
      {"fused_scans", static_cast<double>(run_delta.fused), "count"},
      {"single_scan_answers", static_cast<double>(single_scan_answers),
       "count"},
      {"stratum_answers", static_cast<double>(stratum_answers), "count"},
      {"replayed_answers", static_cast<double>(checks.replayed), "count"},
      {"replay_mismatches", static_cast<double>(checks.replay_mismatches),
       "count"},
      {"accepted_answers", static_cast<double>(checks.accepted_answers),
       "count"},
      {"exact_plans", static_cast<double>(checks.exact_plans), "count"},
      {"traced_requests", static_cast<double>(traced), "count"},
      {"trace_mismatches", static_cast<double>(trace_mismatches), "count"},
  };

  std::printf("aqp_bench workload=%s seed=%llu seconds=%g%s%s\n", spec.name,
              static_cast<unsigned long long>(options.seed),
              shape.open_s + shape.closed_s,
              options.trace ? " trace" : "", options.smoke ? " smoke" : "");
  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : layers) PrintMetric(m);
  for (const Metric& m : info) PrintMetric(m);
  if (late_p99 > 1.0) {
    std::fprintf(stderr,
                 "warning: loadgen.late_ms.p99 = %.3f ms > 1 ms; the load "
                 "generator could not keep the schedule, run is invalid\n",
                 late_p99);
  }
  if (!correct) {
    std::fprintf(stderr,
                 "correctness check FAILED: %lld replay mismatches of %lld, "
                 "%lld malformed answers, %lld exact errors, %lld trace "
                 "mismatches\n",
                 static_cast<long long>(checks.replay_mismatches),
                 static_cast<long long>(checks.replayed),
                 static_cast<long long>(checks.malformed),
                 static_cast<long long>(checks.exact_errors),
                 static_cast<long long>(trace_mismatches));
  }

  const std::string json =
      std::string("{\"workload\": \"") + spec.name + "\", \"seed\": " +
      std::to_string(options.seed) + ", \"correct\": " +
      (correct ? "true" : "false") + ", \"attempted\": " +
      std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
      ", \"valid\": " + (late_p99 <= 1.0 ? "true" : "false") +
      ", \"metrics\": " + JsonMetrics(e2e) +
      ", \"per_layer\": " + JsonMetrics(layers) +
      ", \"info\": " + JsonMetrics(info) + "}";
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
      return 2;
    }
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aqp::bench

int main(int argc, char** argv) {
  aqp::bench::Options options;
  if (!aqp::bench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: aqp_bench --workload=<dashboard|adhoc|rare_segment> "
                 "--seed=<n> [--seconds=<s>] [--trace] [--smoke] "
                 "[--json=<path>] [--trace-out=<path>]\n");
    return 2;
  }
  return aqp::bench::Run(options);
}
