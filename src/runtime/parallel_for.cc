#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace aqp {
namespace {

/// Process-wide ParallelFor accounting on the default registry. Pointers are
/// resolved once (registry entries are never removed) so the per-region cost
/// is a handful of relaxed atomic adds.
struct RegionMetrics {
  Counter* regions;
  Counter* chunks_lost;
  Counter* injected_failures;
  Counter* cancelled_regions;
  Histogram* chunks_per_region;

  static const RegionMetrics& Get() {
    static const RegionMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      return RegionMetrics{
          registry.GetCounter("runtime.parallel_for.regions"),
          registry.GetCounter("runtime.parallel_for.chunks_lost"),
          registry.GetCounter("runtime.parallel_for.injected_failures"),
          registry.GetCounter("runtime.parallel_for.cancelled_regions"),
          registry.GetHistogram("runtime.parallel_for.chunks_per_region")};
    }();
    return metrics;
  }
};

void RecordRegion(const ParallelForStats& stats) {
  const RegionMetrics& metrics = RegionMetrics::Get();
  metrics.regions->Increment();
  metrics.chunks_per_region->Observe(stats.chunks_total);
  if (stats.chunks_lost > 0) metrics.chunks_lost->Increment(stats.chunks_lost);
  if (stats.injected_failures > 0) {
    metrics.injected_failures->Increment(stats.injected_failures);
  }
  if (stats.cancelled) metrics.cancelled_regions->Increment();
}

}  // namespace

bool ExecRuntime::Serial() const {
  return pool_ == nullptr || max_parallelism_ == 1 || pool_->OnWorkerThread();
}

int ExecRuntime::WorkersFor(int64_t items, int64_t grain) const {
  if (Serial() || items <= 0) return 1;
  int64_t chunks = (items + std::max<int64_t>(grain, 1) - 1) /
                   std::max<int64_t>(grain, 1);
  // The calling thread participates alongside the pool workers.
  int64_t width = pool_->num_threads() + 1;
  if (max_parallelism_ > 0) width = std::min<int64_t>(width, max_parallelism_);
  return static_cast<int>(std::min(width, chunks));
}

ParallelForStats ParallelFor(
    const ExecRuntime& runtime, int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  ParallelForStats stats;
  if (begin >= end) return stats;
  grain = std::max<int64_t>(grain, 1);
  int64_t num_chunks = (end - begin + grain - 1) / grain;
  stats.chunks_total = num_chunks;

  const CancellationToken& token = runtime.token();
  const FailpointRegistry* failpoints = runtime.failpoints();
  bool plain = !token.can_cancel() && failpoints == nullptr;

  std::atomic<int64_t> done{0};
  std::atomic<int64_t> lost{0};
  std::atomic<int64_t> injected{0};
  std::atomic<bool> cancel_observed{false};
  // Lost-chunk identities, recorded under a local mutex: losing a chunk is
  // the rare path (it already burned kParallelForChunkAttempts failpoint
  // draws), so a lock there costs nothing on healthy runs.
  Mutex lost_mu;
  std::vector<int64_t> lost_units;

  // Runs one chunk, honoring the chunk failpoint's bounded retries and
  // straggler stalls. The body re-executes identical work on retry
  // (randomness is keyed by item indices), so a recovered failure leaves no
  // trace in the results, and a stalled chunk computes the same bits later.
  auto run_chunk = [&](int64_t c) {
    int64_t b = begin + c * grain;
    int64_t e = std::min(end, b + grain);
    for (int attempt = 0; attempt < kParallelForChunkAttempts; ++attempt) {
      if (failpoints != nullptr &&
          failpoints->ShouldFail(kParallelForChunkSite,
                                 static_cast<uint64_t>(c),
                                 static_cast<uint64_t>(attempt))) {
        injected.fetch_add(1, std::memory_order_relaxed);
        continue;  // This attempt is a lost task; retry.
      }
      MaybeStall(failpoints, kParallelForChunkSite, static_cast<uint64_t>(c),
                 static_cast<uint64_t>(attempt), token);
      body(b, e);
      done.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    lost.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(lost_mu);
    lost_units.push_back(c);
  };

  int workers = runtime.WorkersFor(end - begin, grain);
  if (workers <= 1) {
    if (plain) {
      // Fast path, and the documented contract: serial regions see the
      // whole range as one chunk.
      body(begin, end);
      stats.chunks_done = stats.chunks_total = 1;
      RecordRegion(stats);
      return stats;
    }
    // Serial but cancellable / fault-injected: iterate the same chunk
    // geometry the parallel path uses, checking the token between chunks,
    // so enforcement and injection behave identically at one thread.
    for (int64_t c = 0; c < num_chunks; ++c) {
      if (token.CancelRequested()) {
        cancel_observed.store(true, std::memory_order_relaxed);
        break;
      }
      run_chunk(c);
    }
  } else {
    std::atomic<int64_t> next_chunk{0};
    std::atomic<bool> error_cancelled{false};
    auto drain = [&] {
      for (;;) {
        if (error_cancelled.load(std::memory_order_relaxed)) return;
        if (token.CancelRequested()) {
          // Only counts as a cancellation if work was actually left behind;
          // claimed chunks always run to completion.
          if (next_chunk.load(std::memory_order_relaxed) < num_chunks) {
            cancel_observed.store(true, std::memory_order_relaxed);
          }
          return;
        }
        int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) return;
        try {
          run_chunk(c);
        } catch (...) {
          error_cancelled.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    };

    // workers - 1 helpers on the pool; the caller drains chunks itself, so
    // progress never depends on the pool having a free slot. Helpers that
    // are still queued when the token trips exit at their first checkpoint.
    TaskGroup group(runtime.pool(), token);
    for (int i = 0; i < workers - 1; ++i) group.Run(drain);
    std::exception_ptr caller_error;
    try {
      drain();
    } catch (...) {
      caller_error = std::current_exception();
    }
    group.Wait();  // Rethrows the first helper exception, if any.
    if (caller_error != nullptr) std::rethrow_exception(caller_error);
  }

  stats.chunks_done = done.load(std::memory_order_relaxed);
  stats.chunks_lost = lost.load(std::memory_order_relaxed);
  stats.injected_failures = injected.load(std::memory_order_relaxed);
  // Sorted readout: which worker recorded a loss is scheduling-dependent,
  // the set of lost chunks is not.
  std::sort(lost_units.begin(), lost_units.end());
  stats.lost_units = std::move(lost_units);
  // "Cancelled" means a checkpoint actually stopped the region short; a
  // token that trips only after every chunk was claimed leaves the region
  // complete.
  stats.cancelled = cancel_observed.load(std::memory_order_relaxed);
  RecordRegion(stats);
  return stats;
}

}  // namespace aqp
