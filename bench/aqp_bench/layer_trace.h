// The traced run of aqp_bench: replays the head of a workload's request
// stream one request at a time on the idle server, re-enacting the served
// path from the public functions of each layer with a benchmark-owned span
// around every call, and measures the hardware ceilings the layers are read
// against. Nothing inside src/ is instrumented.
#ifndef AQP_BENCH_AQP_BENCH_LAYER_TRACE_H_
#define AQP_BENCH_AQP_BENCH_LAYER_TRACE_H_

#include <string>
#include <vector>

#include "server/server.h"
#include "workloads.h"

namespace aqp::bench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TraceOutcome {
  /// Per-layer metrics of the traced run (self times, rates, shares, the
  /// reconcile ratio) and the hardware probes.
  std::vector<Metric> metrics;
  /// Requests replayed, and how many of them the engine executed (the rest
  /// were hits in the benchmark-owned result cache).
  int requests = 0;
  int executed = 0;
  /// Executed requests whose traced answer was not bit-identical to an
  /// untraced AqpEngine::ExecuteServed call with the same rng_seed.
  int mismatches = 0;
  /// The spans, as Chrome trace-event JSON.
  std::string chrome_trace_json;
};

/// Replays stream positions [0, requests) of `workload` against `server`,
/// which must be idle and set up by `workload.SetUp` exactly once.
TraceOutcome RunLayerTrace(const AqpServer& server, const Workload& workload,
                           int requests);

}  // namespace aqp::bench

#endif  // AQP_BENCH_AQP_BENCH_LAYER_TRACE_H_
