#include "runtime/failpoint.h"

#include <algorithm>

#include "runtime/rng_stream.h"

namespace aqp {
namespace {

/// FNV-1a over the site name: stable across runs and platforms, so armed
/// sites hash identically everywhere the same test executes.
uint64_t HashSite(std::string_view site) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Extra derivation key separating the latency draw stream from the failure
/// draw stream at the same (site, unit, attempt): a site armed for both
/// decides each independently instead of straggling exactly when it fails.
constexpr uint64_t kLatencyDrawSpace = 0x51a77e12u;

/// One pure uniform in [0, 1) keyed by (seed, site, unit, attempt): the top
/// 53 bits of the derived stream seed (the derivation already avalanched
/// the bits), so no full Rng is constructed on the hot path.
double UniformDraw(uint64_t seed, uint64_t site_hash, uint64_t unit,
                   uint64_t attempt) {
  uint64_t draw_seed = DeriveStreamSeed(
      DeriveStreamSeed(DeriveStreamSeed(seed, site_hash), unit), attempt);
  return static_cast<double>(draw_seed >> 11) * 0x1.0p-53;
}

}  // namespace

void FailpointRegistry::Arm(const std::string& site, double probability) {
  MutexLock lock(mu_);
  sites_[HashSite(site)] = std::clamp(probability, 0.0, 1.0);
}

void FailpointRegistry::ArmLatency(const std::string& site, double probability,
                                   double delay_seconds) {
  MutexLock lock(mu_);
  LatencySite latency;
  latency.probability = std::clamp(probability, 0.0, 1.0);
  latency.delay_nanos =
      static_cast<int64_t>(std::max(delay_seconds, 0.0) * 1e9);
  delays_[HashSite(site)] = latency;
}

void FailpointRegistry::Disarm(const std::string& site) {
  MutexLock lock(mu_);
  sites_.erase(HashSite(site));
  delays_.erase(HashSite(site));
}

// Lock-free read of sites_: sound under the registry's documented contract
// (configuration happens-before the parallel region starts, and the map is
// read-only while work is in flight). Taking mu_ here would add a shared
// synchronization point to every chunk attempt of every fault-injected
// region — and could mask real ordering bugs from TSan.
bool FailpointRegistry::ShouldFail(std::string_view site, uint64_t unit,
                                   uint64_t attempt) const
    AQP_NO_THREAD_SAFETY_ANALYSIS {
  auto it = sites_.find(HashSite(site));
  if (it == sites_.end() || it->second <= 0.0) return false;
  // One pure uniform draw keyed by (seed, site, unit, attempt): the failure
  // pattern is fixed by the keys alone, independent of call order.
  if (UniformDraw(seed_, HashSite(site), unit, attempt) >= it->second) {
    return false;
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// Lock-free like ShouldFail, and for the same reason (see above). The delay
// draw derives from a salted site key so a site armed for both failure and
// latency makes the two decisions independently.
int64_t FailpointRegistry::InjectedDelayNanos(std::string_view site,
                                              uint64_t unit,
                                              uint64_t attempt) const
    AQP_NO_THREAD_SAFETY_ANALYSIS {
  auto it = delays_.find(HashSite(site));
  if (it == delays_.end() || it->second.probability <= 0.0 ||
      it->second.delay_nanos <= 0) {
    return 0;
  }
  uint64_t salted = DeriveStreamSeed(HashSite(site), kLatencyDrawSpace);
  if (UniformDraw(seed_, salted, unit, attempt) >= it->second.probability) {
    return 0;
  }
  injected_delays_.fetch_add(1, std::memory_order_relaxed);
  return it->second.delay_nanos;
}

void MaybeStall(const FailpointRegistry* failpoints, std::string_view site,
                uint64_t unit, uint64_t attempt,
                const CancellationToken& token) {
  if (failpoints == nullptr) return;
  int64_t delay_nanos = failpoints->InjectedDelayNanos(site, unit, attempt);
  if (delay_nanos <= 0) return;
  const double remaining = token.deadline().RemainingSeconds();
  if (remaining <= 0.0) return;  // Already expired; stalling adds nothing.
  const double cap_nanos = remaining * 1e9;
  if (cap_nanos < static_cast<double>(delay_nanos)) {
    delay_nanos = static_cast<int64_t>(cap_nanos) + 1;
  }
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  cv.WaitForNanos(mu, delay_nanos);  // Timeout is the point; no notifier.
}

}  // namespace aqp
