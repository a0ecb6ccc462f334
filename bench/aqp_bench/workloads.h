// The three traffic mixes of aqp_bench: the data each one serves, the server
// set-up it needs, and the request stream it sends. Everything here is a
// pure function of (workload, seed, size, run length): the server only
// ever sees the generated requests.
#ifndef AQP_BENCH_AQP_BENCH_WORKLOADS_H_
#define AQP_BENCH_AQP_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_spec.h"
#include "server/server.h"
#include "storage/table.h"
#include "util/status.h"

namespace aqp::bench {

/// Fixed per-workload traffic parameters. Rates are constants measured once
/// on the reference box, so that a faster server sees the same offered load,
/// not a larger one.
struct WorkloadSpec {
  const char* name;
  /// Open-loop offered load, requests per second.
  double rate_qps;
  /// Per-request deadline; an answer later than this counts as failed.
  double deadline_ms;
  /// Consecutive stream entries that share one due time (a dashboard
  /// refresh sends its tiles together, spread over the clients).
  int batch;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One workload instance: generated data, its set-up recipe, the distinct
/// plans it can send, and the stream it sends them in.
struct Workload {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::shared_ptr<const Table> table;
  int64_t sample_rows = 0;
  /// Stratified sample column and per-stratum cap (empty: none).
  std::string stratify_column;
  int64_t stratum_cap = 0;

  /// Every distinct plan the stream can contain.
  std::vector<QuerySpec> plans;
  /// The trace: an index into `plans` per request, as many requests as the
  /// timed open loop sends. It is the same for every seed.
  std::vector<int> trace;
  /// Where in the trace the stream starts (a multiple of `spec->batch`).
  int64_t start = 0;

  /// Index into `plans` of the request at `position` of the stream: the
  /// trace, round and round from `start`. Positions are unbounded.
  int PlanAt(int64_t position) const;

  /// The server set-up every run times: register the table and build the
  /// samples the engine answers from. `sampling_seconds` (may be null)
  /// receives the time spent building samples.
  [[nodiscard]] Status SetUp(AqpServer& server,
                             double* sampling_seconds = nullptr) const;
};

/// Requests a window of `seconds` at the workload's rate holds, in events of
/// `spec.batch` requests each.
int64_t Arrivals(const WorkloadSpec& spec, double seconds);

/// Builds the workload: the table, the plans, a trace as long as an open
/// loop of `open_seconds`, and with `seed` the starting point. `smoke`
/// shrinks the data to toy size.
Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, bool smoke,
                      double open_seconds);

/// Cores one query may fan out over (EngineOptions::max_parallelism). The
/// benchmark runs one client per kQueryWidth cores, so that its clients'
/// queries together never have more threads running than the box has
/// cores.
inline constexpr int kQueryWidth = 2;

/// The server configuration every workload runs against: shipped defaults
/// plus the result cache and shared scans (window 0) and a fan-out of
/// kQueryWidth; telemetry and tracing stay off.
ServerOptions BenchServerOptions();

}  // namespace aqp::bench

#endif  // AQP_BENCH_AQP_BENCH_WORKLOADS_H_
