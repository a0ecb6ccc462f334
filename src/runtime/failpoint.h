#ifndef AQP_RUNTIME_FAILPOINT_H_
#define AQP_RUNTIME_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "runtime/cancellation.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aqp {

/// Deterministic fault injection for the execution runtime. Tests arm named
/// sites with a failure probability; instrumented code asks ShouldFail()
/// before running a unit of work and simulates a lost task when it returns
/// true. Sites can also be armed for *latency* injection (stragglers):
/// InjectedDelayNanos() tells instrumented code how long to stall a unit —
/// the caller executes the stall via the sanctioned timed condvar wait, the
/// registry only decides deterministically.
///
/// Whether a given (site, unit, attempt) fails is a pure function of the
/// registry seed and those three keys — never of a shared counter, thread
/// identity, or scheduling order. That is what makes fault-injected runs
/// reproducible: the same seed injects the same failures at 1, 4, or 8
/// threads, and a retried unit re-executes the same deterministic work, so
/// a run whose injected failures all recover through retries is
/// bit-identical to an uninjected run. Latency draws are pure in the same
/// keys; a stalled unit computes the same bits, later.
///
/// Arm/Disarm are serialized against each other but not against
/// ShouldFail/InjectedDelayNanos: configure the registry before handing it
/// to a parallel region (the registry is read-only while work is in flight —
/// ParallelFor's contract).
class FailpointRegistry {
 public:
  explicit FailpointRegistry(uint64_t seed) : seed_(seed) {}

  /// Arms `site` to fail with probability `probability` per (unit, attempt).
  /// Probabilities are clamped to [0, 1]; re-arming overwrites. Must not be
  /// called while a region using this registry is in flight.
  void Arm(const std::string& site, double probability) AQP_EXCLUDES(mu_);

  /// Arms `site` to inject a straggler delay of `delay_seconds` with
  /// probability `probability` per (unit, attempt). Independent of Arm():
  /// the same site may both fail and straggle. Same clamping and in-flight
  /// restriction as Arm.
  void ArmLatency(const std::string& site, double probability,
                  double delay_seconds) AQP_EXCLUDES(mu_);

  /// Removes `site` (both its failure and latency arming); subsequent
  /// checks on it never fire. Same in-flight restriction as Arm.
  void Disarm(const std::string& site) AQP_EXCLUDES(mu_);

  /// True when the registry injects a failure at `site` for work unit
  /// `unit` on retry `attempt` (0 = first try). Unarmed sites never fail.
  /// Thread-safe against concurrent ShouldFail calls.
  bool ShouldFail(std::string_view site, uint64_t unit,
                  uint64_t attempt = 0) const;

  /// Nanoseconds of straggler delay to inject at `site` for (unit, attempt),
  /// or 0 when the site is not latency-armed or the deterministic draw says
  /// no. The caller performs the stall (CondVar::WaitForNanos) so deadline
  /// budgets keep burning while it sleeps. Thread-safe like ShouldFail.
  int64_t InjectedDelayNanos(std::string_view site, uint64_t unit,
                             uint64_t attempt = 0) const;

  /// Total failures injected so far (test observability; atomic).
  int64_t injected_failures() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Total straggler delays injected so far (test observability; atomic).
  int64_t injected_delays() const {
    return injected_delays_.load(std::memory_order_relaxed);
  }

  uint64_t seed() const { return seed_; }

 private:
  /// A latency arming: fire with `probability`, stall for `delay_nanos`.
  struct LatencySite {
    double probability = 0.0;
    int64_t delay_nanos = 0;
  };

  uint64_t seed_;
  /// Serializes configuration (Arm/ArmLatency/Disarm). The hot
  /// ShouldFail/InjectedDelayNanos paths read the maps without this lock
  /// under the read-only-while-in-flight contract above; they are annotated
  /// AQP_NO_THREAD_SAFETY_ANALYSIS at the definition rather than silently
  /// exempted.
  mutable Mutex mu_;
  /// Site name -> failure probability. Keyed by the site's FNV-1a hash so
  /// ShouldFail never allocates a temporary string.
  std::unordered_map<uint64_t, double> sites_ AQP_GUARDED_BY(mu_);
  /// Site name hash -> latency arming (disjoint keyspace is fine: a site
  /// may appear in both maps).
  std::unordered_map<uint64_t, LatencySite> delays_ AQP_GUARDED_BY(mu_);
  mutable std::atomic<int64_t> injected_{0};
  mutable std::atomic<int64_t> injected_delays_{0};
};

/// Executes the straggler delay `failpoints` injects at `site` for
/// (unit, attempt), if any: the registry decides, this sleeps, capped by
/// `token`'s remaining deadline so a straggler makes its work late — never
/// immortal. A null registry, an unarmed site or an expired deadline
/// returns at once. The wait runs on a local CondVar nobody signals: the
/// sanctioned timed-blocking primitive, not a raw sleep.
void MaybeStall(const FailpointRegistry* failpoints, std::string_view site,
                uint64_t unit, uint64_t attempt,
                const CancellationToken& token);

}  // namespace aqp

#endif  // AQP_RUNTIME_FAILPOINT_H_
