#ifndef AQP_RUNTIME_PARALLEL_FOR_H_
#define AQP_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/cancellation.h"
#include "runtime/failpoint.h"
#include "runtime/thread_pool.h"

namespace aqp {

class Tracer;  // obs/trace.h; carried as an opaque pointer here.

/// Failpoint site at which ParallelFor injects chunk failures (Arm) and
/// straggler stalls (ArmLatency); unit = chunk index, attempt = retry
/// number.
inline constexpr const char* kParallelForChunkSite = "runtime.parallel_for.chunk";

/// Attempts (first try + retries) ParallelFor gives a chunk whose execution
/// a failpoint keeps killing before declaring it lost.
inline constexpr int kParallelForChunkAttempts = 3;

/// Execution-runtime handle threaded through the hot paths: which pool to
/// fan out on, how wide any single parallel region may go (the §5.3.2
/// `max_parallelism` knob — past the task-overhead sweet spot, more tasks
/// cost more than they buy), the cancellation token parallel regions poll,
/// and an optional fault-injection registry. Cheap to copy; a
/// default-constructed runtime means "serial, never cancelled, no faults".
class ExecRuntime {
 public:
  ExecRuntime() = default;

  /// `pool` may be null (serial). `max_parallelism` caps the workers of one
  /// parallel region, calling thread included; 0 means "as wide as the
  /// pool".
  explicit ExecRuntime(ThreadPool* pool, int max_parallelism = 0)
      : pool_(pool), max_parallelism_(max_parallelism) {}

  ThreadPool* pool() const { return pool_; }
  int max_parallelism() const { return max_parallelism_; }

  /// A copy of this runtime whose parallel regions poll `token` — the
  /// engine derives one per deadline-bounded query from its shared runtime.
  ExecRuntime WithToken(CancellationToken token) const {
    ExecRuntime derived = *this;
    derived.token_ = std::move(token);
    return derived;
  }

  /// A copy of this runtime with fault injection. `failpoints` must outlive
  /// every region run on the returned runtime and stay unmodified while work
  /// is in flight.
  ExecRuntime WithFailpoints(const FailpointRegistry* failpoints) const {
    ExecRuntime derived = *this;
    derived.failpoints_ = failpoints;
    return derived;
  }

  /// A copy of this runtime whose instrumented regions record spans on
  /// `tracer` (null disables tracing — the default). The engine derives one
  /// per traced query. `tracer` must outlive every region run on the
  /// returned runtime.
  ExecRuntime WithTracer(Tracer* tracer) const {
    ExecRuntime derived = *this;
    derived.tracer_ = tracer;
    return derived;
  }

  const CancellationToken& token() const { return token_; }
  const FailpointRegistry* failpoints() const { return failpoints_; }
  /// Span sink for instrumented code on this runtime's paths (null = tracing
  /// off; ScopedSpan treats null as a no-op, so callers pass this through
  /// unconditionally).
  Tracer* tracer() const { return tracer_; }

  /// True when parallel regions on this runtime run inline on the calling
  /// thread (no pool, a one-wide bound, or the caller already being a pool
  /// worker inside an enclosing region).
  bool Serial() const;

  /// Workers a region over `items` items of at least `grain` each may use,
  /// calling thread included; always >= 1.
  int WorkersFor(int64_t items, int64_t grain) const;

 private:
  ThreadPool* pool_ = nullptr;
  int max_parallelism_ = 0;
  CancellationToken token_;
  const FailpointRegistry* failpoints_ = nullptr;
  Tracer* tracer_ = nullptr;
};

/// What a ParallelFor region actually executed — the robustness layer's
/// accounting. Ignorable by callers that neither cancel nor inject faults
/// (for them every chunk always runs exactly once and complete() is true).
struct ParallelForStats {
  int64_t chunks_total = 0;   ///< Chunks the range splits into.
  int64_t chunks_done = 0;    ///< Chunks whose body ran to completion.
  int64_t chunks_lost = 0;    ///< Chunks abandoned after exhausting retries.
  int64_t injected_failures = 0;  ///< Failpoint hits observed (incl. retried).
  bool cancelled = false;     ///< Region stopped at a cancellation checkpoint.
  /// Chunk indices abandoned after exhausting retries, ascending (so the
  /// readout is independent of which worker observed the loss). Callers that
  /// know the chunk geometry translate these into lost work items — e.g. the
  /// bootstrap maps a lost chunk back to exactly which replicates died, which
  /// is what makes `replicates_lost` exact rather than inferred. Empty on
  /// healthy runs; population is the rare path, so it costs nothing there.
  std::vector<int64_t> lost_units;

  /// Every chunk ran (no cancellation, no lost chunks).
  bool complete() const {
    return !cancelled && chunks_lost == 0 && chunks_done == chunks_total;
  }
};

/// Runs `body(chunk_begin, chunk_end)` over contiguous chunks of
/// [begin, end), each of `grain` items (the final chunk may be short), on
/// the runtime's pool with the calling thread participating. Blocks until
/// the region is finished and rethrows the first exception a chunk raised.
///
/// Chunks are claimed dynamically (load balancing across uneven chunks), so
/// the thread executing a given chunk is scheduling-dependent — bodies must
/// derive any randomness from the chunk index (see RngStreamFactory), never
/// from thread identity, to keep results reproducible across thread counts.
///
/// Robustness semantics:
///  - Cancellation is observed cooperatively at chunk boundaries: once the
///    runtime's token trips, no new chunk is claimed. Chunks already
///    finished stay finished (their side effects are the degraded result);
///    the returned stats report `cancelled` and how many chunks ran.
///    Chunks are claimed in ascending index order, so under cancellation
///    the low-indexed chunks complete preferentially.
///  - When the runtime carries a FailpointRegistry, each chunk consults the
///    kParallelForChunkSite failpoint (unit = chunk index) before each
///    attempt; an injected failure skips the attempt (a lost task) and the
///    chunk retries up to kParallelForChunkAttempts times before being
///    counted lost. A site armed for latency stalls each attempt it picks
///    before the body runs (MaybeStall: capped by the token's remaining
///    deadline), so tests can make a region overrun its deadline on any
///    hardware. Because injection is keyed by (chunk, attempt) and a
///    chunk's work is keyed by item indices, fault-injected runs are
///    deterministic at any thread count, and runs whose failures all
///    recover are bit-identical to uninjected runs.
///
/// Serial runtimes (and nested calls from inside a pool worker) execute
/// `body(begin, end)` in one inline call; bodies must therefore accept
/// arbitrary chunk boundaries. A serial runtime that can cancel or inject
/// faults instead iterates chunk-by-chunk inline, so enforcement holds at
/// one thread too.
ParallelForStats ParallelFor(const ExecRuntime& runtime, int64_t begin,
                             int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& body);

}  // namespace aqp

#endif  // AQP_RUNTIME_PARALLEL_FOR_H_
