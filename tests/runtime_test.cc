#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/query_spec.h"
#include "expr/expr.h"
#include "runtime/cancellation.h"
#include "runtime/failpoint.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"
#include "storage/table.h"
#include "util/random.h"

namespace aqp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskRegardlessOfOrder) {
  ThreadPool pool(4);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0);
  TaskGroup group(&pool);
  for (int i = 0; i < kTasks; ++i) {
    group.Run([&ran, i] { ran[i].fetch_add(1); });
  }
  group.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesWorkersFromCaller) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.OnWorkerThread());
  std::atomic<bool> saw_worker{false};
  TaskGroup group(&pool);
  group.Run([&] { saw_worker.store(pool.OnWorkerThread()); });
  group.Wait();
  EXPECT_TRUE(saw_worker.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasksUnderLoad) {
  constexpr int kTasks = 2000;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destruction races a mostly-full queue: every task must still run.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TEST(TaskGroupTest, RunsInlineWithoutPool) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.Run([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // Inline: done before Wait().
  group.Wait();
}

TEST(TaskGroupTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([i] {
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(TaskGroupTest, InlineExceptionAlsoSurfacesInWait) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::runtime_error("inline failure"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ExecRuntime / ParallelFor
// ---------------------------------------------------------------------------

TEST(ExecRuntimeTest, DefaultIsSerial) {
  ExecRuntime runtime;
  EXPECT_TRUE(runtime.Serial());
  EXPECT_EQ(runtime.WorkersFor(1000, 1), 1);
}

TEST(ExecRuntimeTest, WorkersRespectBoundsAndChunkCount) {
  ThreadPool pool(4);
  ExecRuntime unbounded(&pool);
  EXPECT_FALSE(unbounded.Serial());
  // Pool workers + the calling thread, but never more than the chunks.
  EXPECT_EQ(unbounded.WorkersFor(1000, 1), 5);
  EXPECT_EQ(unbounded.WorkersFor(3, 1), 3);
  EXPECT_EQ(unbounded.WorkersFor(100, 50), 2);

  ExecRuntime bounded(&pool, 2);
  EXPECT_EQ(bounded.WorkersFor(1000, 1), 2);

  ExecRuntime one_wide(&pool, 1);
  EXPECT_TRUE(one_wide.Serial());
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  ExecRuntime runtime(&pool);
  constexpr int64_t kN = 10007;  // Prime: uneven final chunk.
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(runtime, 0, kN, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialRuntimeRunsInlineAsOneChunk) {
  ExecRuntime runtime;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(runtime, 5, 42, 4, [&](int64_t lo, int64_t hi) {
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 5);
  EXPECT_EQ(chunks[0].second, 42);
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  ExecRuntime runtime(&pool);
  std::atomic<int> calls{0};
  ParallelFor(runtime, 7, 7, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, RethrowsFirstChunkException) {
  ThreadPool pool(4);
  ExecRuntime runtime(&pool);
  EXPECT_THROW(
      ParallelFor(runtime, 0, 100, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo == 37) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallFromWorkerRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  ExecRuntime runtime(&pool);
  std::atomic<int64_t> inner_items{0};
  // Outer region saturates the pool; each chunk opens an inner region. If
  // the inner region queued pool tasks and blocked on them, the workers
  // would deadlock on their own queue.
  ParallelFor(runtime, 0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelFor(runtime, 0, 16, 1, [&](int64_t ilo, int64_t ihi) {
        inner_items.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(inner_items.load(), 8 * 16);
}

// ---------------------------------------------------------------------------
// ParallelFor: pathological inputs
// ---------------------------------------------------------------------------

TEST(ParallelForTest, ZeroItemsReturnsCompleteStats) {
  ThreadPool pool(2);
  ExecRuntime runtime(&pool);
  int calls = 0;
  ParallelForStats stats =
      ParallelFor(runtime, 3, 3, 8, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.chunks_total, 0);
  EXPECT_TRUE(stats.complete());
}

TEST(ParallelForTest, NegativeRangeIsEmpty) {
  ThreadPool pool(2);
  ExecRuntime runtime(&pool);
  int calls = 0;
  ParallelForStats stats =
      ParallelFor(runtime, 10, 2, 4, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(stats.complete());
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(4);
  ExecRuntime runtime(&pool);
  std::vector<std::pair<int64_t, int64_t>> chunks;
  std::mutex mu;
  ParallelForStats stats =
      ParallelFor(runtime, 2, 9, 1000, [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{2, 9}));
  EXPECT_EQ(stats.chunks_total, 1);
  EXPECT_TRUE(stats.complete());
}

TEST(ParallelForTest, NonPositiveGrainClampsToOne) {
  ThreadPool pool(2);
  ExecRuntime runtime(&pool);
  for (int64_t grain : {0, -5}) {
    std::atomic<int64_t> items{0};
    ParallelForStats stats =
        ParallelFor(runtime, 0, 17, grain, [&](int64_t lo, int64_t hi) {
          items.fetch_add(hi - lo);
        });
    EXPECT_EQ(items.load(), 17) << "grain " << grain;
    EXPECT_EQ(stats.chunks_total, 17) << "grain " << grain;
    EXPECT_TRUE(stats.complete()) << "grain " << grain;
  }
}

TEST(ParallelForTest, SingleThreadPoolCoversRange) {
  // A one-worker pool still has the caller participating; the range must be
  // covered exactly once either way.
  ThreadPool pool(1);
  ExecRuntime runtime(&pool);
  std::vector<std::atomic<int>> hits(503);
  for (auto& h : hits) h.store(0);
  ParallelForStats stats =
      ParallelFor(runtime, 0, 503, 7, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_TRUE(stats.complete());
}

// ---------------------------------------------------------------------------
// Deadline / CancellationToken
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e9);
}

TEST(DeadlineTest, AfterExpiresOnSchedule) {
  Deadline d = Deadline::After(0.02);
  EXPECT_FALSE(d.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(CancellationTokenTest, DefaultTokenCannotCancel) {
  CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.CancelRequested());
  EXPECT_TRUE(token.CheckCancelled("work").ok());
}

TEST(CancellationTokenTest, ExplicitCancelTripsAndReportsCancelled) {
  CancellationToken token = CancellationToken::Cancellable();
  EXPECT_TRUE(token.can_cancel());
  EXPECT_FALSE(token.CancelRequested());
  token.Cancel();
  EXPECT_TRUE(token.CancelRequested());
  Status s = token.CheckCancelled("bootstrap");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_FALSE(token.DeadlineExpired());
}

TEST(CancellationTokenTest, DeadlineTripReportsDeadlineExceeded) {
  CancellationToken token =
      CancellationToken::WithDeadline(Deadline::After(0.01));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(token.CancelRequested());
  EXPECT_TRUE(token.DeadlineExpired());
  EXPECT_EQ(token.CheckCancelled("scan").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token = CancellationToken::Cancellable();
  CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(copy.CancelRequested());
}

TEST(ParallelForCancelTest, TrippedTokenStopsClaimingChunks) {
  ThreadPool pool(4);
  CancellationToken token = CancellationToken::Cancellable();
  ExecRuntime runtime = ExecRuntime(&pool).WithToken(token);
  std::atomic<int64_t> done{0};
  ParallelForStats stats =
      ParallelFor(runtime, 0, 1000, 1, [&](int64_t lo, int64_t) {
        // Cancel mid-flight from inside the region (any thread may do it).
        if (lo == 3) token.Cancel();
        done.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_TRUE(stats.cancelled);
  EXPECT_LT(stats.chunks_done, stats.chunks_total);
  // Claimed chunks ran to completion; nothing ran twice.
  EXPECT_EQ(done.load(), stats.chunks_done);
  EXPECT_FALSE(stats.complete());
}

TEST(ParallelForCancelTest, SerialCancellableRuntimeChecksBetweenChunks) {
  CancellationToken token = CancellationToken::Cancellable();
  ExecRuntime runtime = ExecRuntime().WithToken(token);
  std::vector<int64_t> starts;
  ParallelForStats stats =
      ParallelFor(runtime, 0, 100, 10, [&](int64_t lo, int64_t) {
        starts.push_back(lo);
        if (lo == 20) token.Cancel();
      });
  // Chunks 0,10,20 ran; the checkpoint before chunk 30 stopped the region.
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts.back(), 20);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.chunks_done, 3);
  EXPECT_EQ(stats.chunks_total, 10);
}

TEST(ParallelForCancelTest, UntrippedTokenLeavesRegionComplete) {
  ThreadPool pool(4);
  CancellationToken token = CancellationToken::Cancellable();
  ExecRuntime runtime = ExecRuntime(&pool).WithToken(token);
  std::atomic<int64_t> items{0};
  ParallelForStats stats =
      ParallelFor(runtime, 0, 512, 8, [&](int64_t lo, int64_t hi) {
        items.fetch_add(hi - lo);
      });
  EXPECT_EQ(items.load(), 512);
  EXPECT_TRUE(stats.complete());
  EXPECT_FALSE(stats.cancelled);
}

TEST(ParallelForCancelTest, ConcurrentExternalCancelIsSafe) {
  // Cancellation arriving from outside the region while workers are mid
  // chunk: the region must stop early without racing (run under TSan in CI).
  ThreadPool pool(4);
  CancellationToken token = CancellationToken::Cancellable();
  ExecRuntime runtime = ExecRuntime(&pool).WithToken(token);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  std::atomic<int64_t> done{0};
  ParallelForStats stats =
      ParallelFor(runtime, 0, 100000, 1, [&](int64_t, int64_t) {
        done.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      });
  canceller.join();
  EXPECT_EQ(done.load(), stats.chunks_done);
  // The token tripped 2ms in; a 100k-chunk region cannot have finished.
  EXPECT_TRUE(stats.cancelled);
  EXPECT_LT(stats.chunks_done, stats.chunks_total);
}

TEST(TaskGroupCancelTest, QueuedTasksSkipAfterCancel) {
  ThreadPool pool(1);
  CancellationToken token = CancellationToken::Cancellable();
  TaskGroup group(&pool, token);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  // First task occupies the lone worker until released; the rest queue.
  group.Run([&] {
    ran.fetch_add(1);
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  for (int i = 0; i < 64; ++i) {
    group.Run([&] { ran.fetch_add(1); });
  }
  // Wait for the worker to actually pick up the first task before
  // cancelling, so exactly one task is in flight at the cancel point.
  while (ran.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.Cancel();
  release.store(true);
  group.Wait();
  // The in-flight task finished; the queued ones were skipped at their
  // checkpoint. (Tasks submitted before Cancel may have started; at one
  // worker with the queue held, only the first could.)
  EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// FailpointRegistry
// ---------------------------------------------------------------------------

TEST(FailpointTest, UnarmedSiteNeverFails) {
  FailpointRegistry failpoints(123);
  for (uint64_t unit = 0; unit < 100; ++unit) {
    EXPECT_FALSE(failpoints.ShouldFail("nowhere", unit));
  }
  EXPECT_EQ(failpoints.injected_failures(), 0);
}

TEST(FailpointTest, ProbabilityOneAlwaysFails) {
  FailpointRegistry failpoints(123);
  failpoints.Arm("site", 1.0);
  for (uint64_t unit = 0; unit < 50; ++unit) {
    EXPECT_TRUE(failpoints.ShouldFail("site", unit));
  }
  EXPECT_EQ(failpoints.injected_failures(), 50);
}

TEST(FailpointTest, DecisionsArePureInSeedSiteUnitAttempt) {
  FailpointRegistry a(999);
  FailpointRegistry b(999);
  a.Arm("s", 0.4);
  b.Arm("s", 0.4);
  // Query b in a scrambled order: decisions must match a's exactly.
  std::vector<std::pair<uint64_t, uint64_t>> keys;
  for (uint64_t unit = 0; unit < 40; ++unit) {
    for (uint64_t attempt = 0; attempt < 3; ++attempt) {
      keys.emplace_back(unit, attempt);
    }
  }
  std::vector<bool> expect;
  expect.reserve(keys.size());
  for (const auto& [unit, attempt] : keys) {
    expect.push_back(a.ShouldFail("s", unit, attempt));
  }
  for (size_t i = keys.size(); i-- > 0;) {
    EXPECT_EQ(b.ShouldFail("s", keys[i].first, keys[i].second), expect[i]);
  }
}

TEST(FailpointTest, DifferentSeedsDisagree) {
  FailpointRegistry a(1);
  FailpointRegistry b(2);
  a.Arm("s", 0.5);
  b.Arm("s", 0.5);
  int differing = 0;
  for (uint64_t unit = 0; unit < 200; ++unit) {
    if (a.ShouldFail("s", unit) != b.ShouldFail("s", unit)) ++differing;
  }
  EXPECT_GT(differing, 20);
}

TEST(FailpointTest, DisarmStopsInjection) {
  FailpointRegistry failpoints(7);
  failpoints.Arm("s", 1.0);
  EXPECT_TRUE(failpoints.ShouldFail("s", 0));
  failpoints.Disarm("s");
  EXPECT_FALSE(failpoints.ShouldFail("s", 0));
}

TEST(ParallelForFailpointTest, RecoveredFailuresLeaveResultsIntact) {
  ThreadPool pool(4);
  FailpointRegistry failpoints(42);
  failpoints.Arm(kParallelForChunkSite, 0.1);
  ExecRuntime runtime = ExecRuntime(&pool).WithFailpoints(&failpoints);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  ParallelForStats stats =
      ParallelFor(runtime, 0, 1000, 10, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
  // p=0.1 over 3 attempts: P(chunk lost) = 1e-3, and injection is a pure
  // function of the registry seed — with seed 42 every chunk recovers
  // (asserted, so the test is deterministic at any thread count).
  EXPECT_GT(stats.injected_failures, 0);
  ASSERT_EQ(stats.chunks_lost, 0);
  EXPECT_TRUE(stats.complete());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForFailpointTest, CertainFailureLosesEveryChunk) {
  ThreadPool pool(2);
  FailpointRegistry failpoints(42);
  failpoints.Arm(kParallelForChunkSite, 1.0);
  ExecRuntime runtime = ExecRuntime(&pool).WithFailpoints(&failpoints);
  std::atomic<int> calls{0};
  ParallelForStats stats =
      ParallelFor(runtime, 0, 100, 10, [&](int64_t, int64_t) {
        calls.fetch_add(1);
      });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(stats.chunks_done, 0);
  EXPECT_EQ(stats.chunks_lost, 10);
  EXPECT_EQ(stats.injected_failures,
            10 * static_cast<int64_t>(kParallelForChunkAttempts));
  EXPECT_FALSE(stats.complete());
}

TEST(ParallelForFailpointTest, InjectionCountsMatchAcrossThreadCounts) {
  // The injected-failure pattern is a pure function of (seed, chunk,
  // attempt): identical at 1, 4, and 8 threads.
  auto run = [](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    FailpointRegistry failpoints(2718);
    failpoints.Arm(kParallelForChunkSite, 0.35);
    ExecRuntime runtime = ExecRuntime(pool.get()).WithFailpoints(&failpoints);
    ParallelForStats stats =
        ParallelFor(runtime, 0, 640, 8, [](int64_t, int64_t) {});
    return std::tuple<int64_t, int64_t, int64_t>(
        stats.injected_failures, stats.chunks_lost, stats.chunks_done);
  };
  auto serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelForFailpointTest, LatencyArmedChunksRunEveryItemOnce) {
  // A stalled chunk runs later, not differently: with no deadline every
  // chunk stalls its full delay and the region completes.
  ThreadPool pool(2);
  FailpointRegistry failpoints(5);
  failpoints.ArmLatency(kParallelForChunkSite, 1.0, 0.001);
  ExecRuntime runtime = ExecRuntime(&pool).WithFailpoints(&failpoints);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelForStats stats =
      ParallelFor(runtime, 0, 64, 8, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
  EXPECT_TRUE(stats.complete());
  EXPECT_EQ(failpoints.injected_delays(), 8);
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForFailpointTest, ChunkStallIsCappedByTheDeadline) {
  // A 60 s stall against a 0.2 s deadline: the first chunk's stall ends at
  // the deadline, that chunk still runs (claimed chunks finish), and the
  // region then stops claiming — on any hardware.
  FailpointRegistry failpoints(5);
  failpoints.ArmLatency(kParallelForChunkSite, 1.0, 60.0);
  CancellationToken token =
      CancellationToken::WithDeadline(Deadline::After(0.2));
  ExecRuntime runtime =
      ExecRuntime().WithToken(token).WithFailpoints(&failpoints);
  std::atomic<int64_t> ran{0};
  ParallelForStats stats = ParallelFor(
      runtime, 0, 10, 1, [&](int64_t lo, int64_t hi) { ran += hi - lo; });
  // One chunk unless the timed wait wakes spuriously before the deadline.
  EXPECT_TRUE(stats.cancelled);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), 10);
  EXPECT_EQ(failpoints.injected_delays(), ran.load());
  EXPECT_TRUE(token.deadline().Expired());
}

// ---------------------------------------------------------------------------
// RNG streams
// ---------------------------------------------------------------------------

TEST(RngStreamTest, StreamsAreDeterministicInSeedAndId) {
  RngStreamFactory a(12345u);
  RngStreamFactory b(12345u);
  for (uint64_t id = 0; id < 16; ++id) {
    Rng ra = a.Stream(id);
    Rng rb = b.Stream(id);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(ra.NextUint64(), rb.NextUint64()) << "stream " << id;
    }
  }
}

TEST(RngStreamTest, DistinctIdsYieldDistinctStreams) {
  RngStreamFactory factory(42u);
  Rng r0 = factory.Stream(0);
  Rng r1 = factory.Stream(1);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (r0.NextUint64() != r1.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngStreamTest, FactoryFromRngAdvancesCallerExactlyOnce) {
  Rng a(7u);
  Rng b(7u);
  RngStreamFactory factory(a);
  (void)b.NextUint64();  // Mirror the single draw.
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_EQ(factory.base_seed(), RngStreamFactory(Rng(7u).NextUint64()).base_seed());
}

TEST(RngStreamTest, SubstreamsSeparateHierarchicalSpaces) {
  RngStreamFactory root(99u);
  RngStreamFactory child0 = root.Substream(0);
  RngStreamFactory child1 = root.Substream(1);
  EXPECT_NE(child0.base_seed(), child1.base_seed());
  // Child streams must not collide with the parent's own stream space.
  EXPECT_NE(child0.Stream(0).NextUint64(), root.Stream(0).NextUint64());
}

// ---------------------------------------------------------------------------
// End-to-end determinism: resampling is bit-identical across thread counts
// ---------------------------------------------------------------------------

Table MakeWideTable(int64_t rows) {
  Table t("t");
  Column v = Column::MakeDouble("v");
  Rng rng(2024);
  for (int64_t i = 0; i < rows; ++i) v.AppendDouble(rng.NextDouble() * 100.0);
  EXPECT_TRUE(t.AddColumn(std::move(v)).ok());
  return t;
}

QuerySpec MakeQuery(AggregateKind kind, bool with_filter) {
  QuerySpec q;
  q.id = "determinism";
  q.table = "t";
  if (with_filter) q.filter = Lt(ColumnRef("v"), Literal(60.0));
  q.aggregate.kind = kind;
  q.aggregate.input = ColumnRef("v");
  q.aggregate.percentile = 0.9;
  return q;
}

std::vector<double> ResampleAt(const Table& table, const QuerySpec& query,
                               int num_threads, uint64_t seed) {
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  ExecRuntime runtime(pool.get());
  Rng rng(seed);
  Result<std::vector<double>> r =
      ExecuteMultiResample(table, query, 2.0, 64, rng, runtime);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? *r : std::vector<double>{};
}

TEST(ResampleDeterminismTest, BitIdenticalAcrossThreadCounts) {
  Table table = MakeWideTable(5000);
  // SUM with a filter exercises the Hájek size-conditioning draw; AVG the
  // plain streaming path; PERCENTILE the sort-based path.
  const struct {
    AggregateKind kind;
    bool filter;
  } cases[] = {
      {AggregateKind::kSum, true},
      {AggregateKind::kCount, true},
      {AggregateKind::kAvg, false},
      {AggregateKind::kPercentile, false},
  };
  for (const auto& c : cases) {
    QuerySpec q = MakeQuery(c.kind, c.filter);
    std::vector<double> serial = ResampleAt(table, q, 1, 7);
    ASSERT_FALSE(serial.empty()) << AggregateKindName(c.kind);
    for (int threads : {2, 8}) {
      std::vector<double> parallel = ResampleAt(table, q, threads, 7);
      ASSERT_EQ(serial.size(), parallel.size())
          << AggregateKindName(c.kind) << " @ " << threads;
      for (size_t i = 0; i < serial.size(); ++i) {
        // Bit-identical, not approximately equal.
        ASSERT_EQ(serial[i], parallel[i])
            << AggregateKindName(c.kind) << " replicate " << i << " @ "
            << threads << " threads";
      }
    }
  }
}

TEST(ResampleDeterminismTest, MaxParallelismBoundPreservesResults) {
  Table table = MakeWideTable(2000);
  QuerySpec q = MakeQuery(AggregateKind::kAvg, true);
  ThreadPool pool(4);
  std::vector<std::vector<double>> results;
  for (int bound : {0, 1, 2, 3}) {
    ExecRuntime runtime(&pool, bound);
    Rng rng(11);
    Result<std::vector<double>> r =
        ExecuteMultiResample(table, q, 1.0, 40, rng, runtime);
    ASSERT_TRUE(r.ok());
    results.push_back(*r);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0], results[i]) << "max_parallelism case " << i;
  }
}

}  // namespace
}  // namespace aqp
