#include "server/load_gen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>

#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"
#include "sampling/poisson_resample.h"
#include "util/mutex.h"
#include "util/random.h"

namespace aqp {
namespace {

using Clock = std::chrono::steady_clock;

/// Empirical quantile of an ascending sample (nearest-rank).
double EmpiricalQuantile(const std::vector<double>& sorted, double quantile) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(
      std::ceil(quantile * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return sorted[static_cast<size_t>(rank - 1)];
}

/// Weighted nearest-rank quantile under per-observation integer weights.
double WeightedQuantile(const std::vector<double>& sorted,
                        const std::vector<int64_t>& weights,
                        int64_t total_weight, double quantile) {
  if (total_weight <= 0) return EmpiricalQuantile(sorted, quantile);
  const auto target = static_cast<int64_t>(
      std::ceil(quantile * static_cast<double>(total_weight)));
  int64_t cumulative = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    cumulative += weights[i];
    if (cumulative >= target) return sorted[i];
  }
  return sorted.back();
}

/// Per-client slice of the harness outcome, merged after the run.
struct ClientResult {
  std::vector<double> latencies_ms;
  std::vector<RecordedSample> samples;
  int64_t offered = 0;
  int64_t completed_ok = 0;
  int64_t undegraded = 0;
  int64_t degraded = 0;
  int64_t deferred = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  int64_t deadline_exceeded = 0;
  int64_t cancelled = 0;
  int64_t errors = 0;
  int64_t retries = 0;
  int64_t unavailable = 0;
  int64_t salvaged = 0;
  int64_t fault_recovered = 0;
  int64_t replicates_lost = 0;
  int64_t ci_target_met = 0;
  int64_t ci_target_missed = 0;
};

/// One client: own session, own RNG stream, own precomputable Poisson
/// arrival schedule. Requests fire open-loop relative to that schedule —
/// a late client (server slow) issues immediately and the lateness stays in
/// the measured latency, so saturation cannot hide behind reduced offered
/// load (coordinated omission).
void RunClient(AqpServer& server, const QuerySpec& query,
               const LoadGenOptions& options, int client_id,
               Clock::time_point start, ClientResult* out) {
  Rng rng(DeriveStreamSeed(options.seed, static_cast<uint64_t>(client_id)));
  // Each client is a retrying session with its own jitter stream: fixed
  // (policy seed, harness seed, client id) fix every backoff schedule.
  RetryPolicy policy = options.retry;
  policy.seed = DeriveStreamSeed(
      DeriveStreamSeed(policy.seed ^ options.seed, 0xba0cULL),
      static_cast<uint64_t>(client_id));
  RetryingSession session(server, policy);
  const double per_client_qps =
      options.offered_qps / static_cast<double>(std::max(options.clients, 1));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_seconds));

  // Pacing sleeps via the sanctioned timed condvar wait (never notified).
  Mutex sleep_mu;
  CondVar sleep_cv;

  double next_arrival_seconds = 0.0;
  uint64_t request_index = 0;
  for (;;) {
    next_arrival_seconds += rng.NextExponential(per_client_qps);
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(next_arrival_seconds));
    if (scheduled >= end) break;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= scheduled) break;
      const auto gap_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(scheduled - now)
              .count();
      MutexLock lock(sleep_mu);
      sleep_cv.WaitForNanos(sleep_mu, gap_ns);
    }

    ++out->offered;
    QueryRequest request;
    // Workload mix: round-robin over the configured shapes (deterministic
    // per client), or the single harness query when no mix is set.
    request.query =
        options.queries.empty()
            ? query
            : options.queries[request_index++ % options.queries.size()];
    request.target_ci_width = options.target_ci_width;
    request.priority = options.priority;
    if (options.deadline_ms > 0.0) {
      // The SLO clock started at the scheduled arrival: deduct any client
      // backlog lateness from the budget. A spent budget still goes to the
      // server (as an epsilon deadline) so the fast-reject path is the one
      // that accounts for it.
      const double lateness_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count();
      request.deadline_ms = std::max(options.deadline_ms - lateness_ms, 1e-3);
    }
    RetryStats retry_stats;
    QueryResponse response = session.Execute(request, &retry_stats);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
            .count();
    out->retries += retry_stats.retries;

    if (response.shed_stage == ShedStage::kRejected) {
      // Never admitted: no slot held, no latency sample.
      switch (response.status.code()) {
        case StatusCode::kDeadlineExceeded:
          ++out->expired;
          break;
        case StatusCode::kCancelled:
          ++out->cancelled;
          break;
        default:
          ++out->rejected;
          break;
      }
    } else if (response.status.ok()) {
      ++out->completed_ok;
      out->latencies_ms.push_back(latency_ms);
      const QueryProfile& profile = response.result.profile;
      if (profile.replicates_lost > 0) ++out->salvaged;
      out->replicates_lost += profile.replicates_lost;
      if (profile.fault_recovered) ++out->fault_recovered;
      // Counted as the response reported it — the harness never recomputes
      // the CI verdict.
      if (response.ci_target_met) {
        ++out->ci_target_met;
      } else {
        ++out->ci_target_missed;
      }
      if (static_cast<int>(out->samples.size()) < options.record_samples) {
        RecordedSample sample;
        sample.rng_seed = response.rng_seed;
        sample.replicates_requested = profile.replicates_requested;
        sample.replicates_used = response.result.replicates_used;
        sample.estimate = response.result.estimate;
        sample.ci_half_width = response.result.ci.half_width;
        sample.fault_recovered = profile.fault_recovered;
        sample.deadline_hit = response.result.deadline_hit;
        sample.attempts = retry_stats.attempts;
        out->samples.push_back(sample);
      }
      switch (response.shed_stage) {
        case ShedStage::kDegraded:
          ++out->degraded;
          break;
        case ShedStage::kDeferred:
          ++out->deferred;
          break;
        default:
          ++out->undegraded;
          break;
      }
    } else {
      switch (response.status.code()) {
        case StatusCode::kDeadlineExceeded:
          // Admitted but too slow: this latency belongs in the admitted
          // pool — dropping it would flatter the percentiles. (This bucket
          // also covers requests whose retry budget the SLO ended.)
          ++out->deadline_exceeded;
          out->latencies_ms.push_back(latency_ms);
          break;
        case StatusCode::kCancelled:
          ++out->cancelled;
          break;
        case StatusCode::kUnavailable:
          // A transient fault survived every retry the policy allowed.
          ++out->unavailable;
          break;
        default:
          ++out->errors;
          break;
      }
    }
  }
  // RetryingSession's destructor closes the session.
}

void AppendPercentile(std::ostringstream& out, const char* name,
                      const PercentileEstimate& p) {
  out << "\"" << name << "_ms\": " << p.value << ", \"" << name
      << "_ci\": [" << p.lo << ", " << p.hi << "]";
}

}  // namespace

PercentileEstimate PoissonizedPercentile(
    const std::vector<double>& sorted_samples, double quantile,
    int replicates, double alpha, uint64_t seed) {
  PercentileEstimate estimate;
  if (sorted_samples.empty()) return estimate;
  estimate.value = EmpiricalQuantile(sorted_samples, quantile);
  estimate.lo = estimate.value;
  estimate.hi = estimate.value;
  if (replicates < 2) return estimate;

  std::vector<double> replicate_quantiles;
  replicate_quantiles.reserve(static_cast<size_t>(replicates));
  std::vector<int64_t> weights(sorted_samples.size());
  for (int r = 0; r < replicates; ++r) {
    Rng rng(DeriveStreamSeed(seed, static_cast<uint64_t>(r)));
    FillPoissonOneWeights(rng, weights.data(),
                          static_cast<int64_t>(weights.size()));
    int64_t total = std::accumulate(weights.begin(), weights.end(),
                                    int64_t{0});
    replicate_quantiles.push_back(
        WeightedQuantile(sorted_samples, weights, total, quantile));
  }
  std::sort(replicate_quantiles.begin(), replicate_quantiles.end());
  const double tail = (1.0 - alpha) / 2.0;
  estimate.lo = EmpiricalQuantile(replicate_quantiles, tail);
  estimate.hi = EmpiricalQuantile(replicate_quantiles, 1.0 - tail);
  return estimate;
}

std::string LoadReport::ToJson() const {
  std::ostringstream out;
  out << "{\"offered\": " << offered
      << ", \"completed_ok\": " << completed_ok
      << ", \"undegraded\": " << undegraded << ", \"degraded\": " << degraded
      << ", \"deferred\": " << deferred << ", \"rejected\": " << rejected
      << ", \"expired\": " << expired
      << ", \"deadline_exceeded\": " << deadline_exceeded
      << ", \"cancelled\": " << cancelled << ", \"errors\": " << errors
      << ", \"retries\": " << retries << ", \"unavailable\": " << unavailable
      << ", \"salvaged\": " << salvaged
      << ", \"fault_recovered\": " << fault_recovered
      << ", \"replicates_lost\": " << replicates_lost
      << ", \"ci_target_met\": " << ci_target_met
      << ", \"ci_target_missed\": " << ci_target_missed
      << ", \"offered_qps\": " << offered_qps
      << ", \"duration_seconds\": " << duration_seconds
      << ", \"sustained_qps\": " << sustained_qps
      << ", \"mean_latency_ms\": " << mean_latency_ms << ", ";
  AppendPercentile(out, "p50", p50);
  out << ", ";
  AppendPercentile(out, "p95", p95);
  out << ", ";
  AppendPercentile(out, "p99", p99);
  out << "}";
  return out.str();
}

LoadReport RunOpenLoopLoad(AqpServer& server, const QuerySpec& query,
                           const LoadGenOptions& options) {
  const int clients = std::max(options.clients, 1);
  std::vector<ClientResult> results(static_cast<size_t>(clients));

  const Clock::time_point start = Clock::now();
  {
    // Dedicated client pool: one worker per client so every client paces
    // independently; the serving side stays bounded by the engine pool.
    ThreadPool pool(clients);
    TaskGroup group(&pool);
    for (int c = 0; c < clients; ++c) {
      ClientResult* slot = &results[static_cast<size_t>(c)];
      group.Run([&server, &query, &options, c, start, slot] {
        RunClient(server, query, options, c, start, slot);
      });
    }
    group.Wait();
  }
  const double elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  LoadReport report;
  report.offered_qps = options.offered_qps;
  report.duration_seconds = elapsed_seconds;
  std::vector<double> latencies;
  for (const ClientResult& r : results) {
    report.offered += r.offered;
    report.completed_ok += r.completed_ok;
    report.undegraded += r.undegraded;
    report.degraded += r.degraded;
    report.deferred += r.deferred;
    report.rejected += r.rejected;
    report.expired += r.expired;
    report.deadline_exceeded += r.deadline_exceeded;
    report.cancelled += r.cancelled;
    report.errors += r.errors;
    report.retries += r.retries;
    report.unavailable += r.unavailable;
    report.salvaged += r.salvaged;
    report.fault_recovered += r.fault_recovered;
    report.replicates_lost += r.replicates_lost;
    report.ci_target_met += r.ci_target_met;
    report.ci_target_missed += r.ci_target_missed;
    report.samples.insert(report.samples.end(), r.samples.begin(),
                          r.samples.end());
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  if (elapsed_seconds > 0.0) {
    report.sustained_qps =
        static_cast<double>(report.completed_ok) / elapsed_seconds;
  }
  if (!latencies.empty()) {
    report.mean_latency_ms =
        std::accumulate(latencies.begin(), latencies.end(), 0.0) /
        static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    const uint64_t ci_seed = DeriveStreamSeed(options.seed, 0x9c11u);
    report.p50 = PoissonizedPercentile(latencies, 0.50,
                                       options.percentile_replicates,
                                       options.alpha, ci_seed);
    report.p95 = PoissonizedPercentile(latencies, 0.95,
                                       options.percentile_replicates,
                                       options.alpha, ci_seed + 1);
    report.p99 = PoissonizedPercentile(latencies, 0.99,
                                       options.percentile_replicates,
                                       options.alpha, ci_seed + 2);
  }
  return report;
}

}  // namespace aqp
