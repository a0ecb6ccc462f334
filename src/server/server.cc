#include "server/server.h"

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/fingerprint.h"

namespace aqp {
namespace {

AdmissionOptions DeriveAdmission(const AdmissionOptions& options,
                                 const AqpEngine& engine) {
  AdmissionOptions derived = options;
  if (derived.slots == 0) {
    // One service slot per pool worker: each in-service query fans its
    // replicates out on the shared pool, so admitting more than the pool
    // can run concurrently only builds invisible queueing inside the
    // runtime instead of visible queueing in admission control.
    ThreadPool* pool = engine.runtime().pool();
    derived.slots = pool != nullptr ? pool->num_threads() : 1;
  }
  return derived;
}

}  // namespace

AqpServer::AqpServer(ServerOptions options)
    : engine_(options.engine),
      admission_(DeriveAdmission(options.admission, engine_),
                 options.engine.bootstrap_replicates),
      failpoints_(options.engine.failpoints) {
  admission_.set_failpoints(failpoints_);
  if (options.enable_shared_scans) {
    shared_scans_ = std::make_unique<ScanScheduler>(options.shared_scan);
  }
  if (options.cache.enabled) {
    cache_ = std::make_unique<ResultCache>(options.cache);
  }
  MetricsRegistry& registry = MetricsRegistry::Default();
  sessions_opened_ = registry.GetCounter("server.sessions.opened");
  sessions_closed_ = registry.GetCounter("server.sessions.closed");

  telemetry_options_ = options.telemetry;
  if (telemetry_options_.enabled) {
    // Response counters: one "outcome" counter per terminal status class,
    // plus the honesty splits the default SLIs watch. Registered before the
    // ring so the ring tracks them from window zero.
    responses_ok_ = registry.GetCounter("server.responses.ok");
    responses_deadline_exceeded_ =
        registry.GetCounter("server.responses.deadline_exceeded");
    responses_rejected_ = registry.GetCounter("server.responses.rejected");
    responses_cancelled_ = registry.GetCounter("server.responses.cancelled");
    responses_unavailable_ =
        registry.GetCounter("server.responses.unavailable");
    responses_error_ = registry.GetCounter("server.responses.error");
    responses_ci_target_met_ =
        registry.GetCounter("server.responses.ci_target_met");
    responses_ci_target_missed_ =
        registry.GetCounter("server.responses.ci_target_missed");
    responses_intact_ = registry.GetCounter("server.responses.intact");
    responses_salvaged_ = registry.GetCounter("server.responses.salvaged");
    responses_fault_recovered_ =
        registry.GetCounter("server.responses.fault_recovered");
    responses_diagnostic_clean_ =
        registry.GetCounter("server.responses.diagnostic_clean");
    responses_diagnostic_rejected_ =
        registry.GetCounter("server.responses.diagnostic_rejected");
    latency_total_ms_ = registry.GetHistogram("server.latency.total_ms");
    latency_queue_wait_ms_ =
        registry.GetHistogram("server.latency.queue_wait_ms");
    latency_service_ms_ = registry.GetHistogram("server.latency.service_ms");

    TimeSeriesOptions ts;
    ts.window_seconds = telemetry_options_.window_seconds;
    ts.num_windows = telemetry_options_.num_windows;
    ts.counters = {
        "server.responses.ok",
        "server.responses.deadline_exceeded",
        "server.responses.rejected",
        "server.responses.cancelled",
        "server.responses.unavailable",
        "server.responses.error",
        "server.responses.ci_target_met",
        "server.responses.ci_target_missed",
        "server.responses.intact",
        "server.responses.salvaged",
        "server.responses.fault_recovered",
        "server.responses.diagnostic_clean",
        "server.responses.diagnostic_rejected",
        "server.admission.admitted",
        "server.admission.degraded",
        "server.admission.deferred",
        "server.admission.rejected",
        "server.sessions.opened",
        "server.sessions.closed",
    };
    ts.gauges = {
        "server.queries.running",
        "server.admission.queued",
        "runtime.thread_pool.queue_depth",
        "engine.throughput.ewma_rows_per_second",
    };
    ts.histograms = {
        "server.latency.total_ms",
        "server.latency.queue_wait_ms",
        "server.latency.service_ms",
    };
    timeseries_ = std::make_unique<TimeSeries>(ts, registry);
    slo_ = std::make_unique<SloMonitor>(timeseries_.get(),
                                        telemetry_options_.slo, registry);
    recorder_ = std::make_unique<FlightRecorder>(
        telemetry_options_.recorder_capacity);
    // Started last: the tick reads everything constructed above. Member
    // order mirrors this so destruction stops the thread first.
    telemetry_sampler_ = std::make_unique<TimeSeriesSampler>(
        telemetry_options_.window_seconds,
        [this](int64_t now_ns) { TelemetryTick(now_ns); });
  }
}

void AqpServer::TelemetryTick(int64_t now_ns) {
  // Sampler thread only. Close a window, re-evaluate the burn rates over
  // the updated ring, and publish the verdict where the admission ladder
  // (optionally) and introspection read it.
  timeseries_->Sample(now_ns);
  const BudgetState state = slo_->Evaluate();
  admission_.set_budget_state(state);
  if (state == BudgetState::kBreached) {
    // One dump per alert episode: the first breached tick freezes the box;
    // re-arming requires the budget to recover first.
    if (!alert_dumped_ && !telemetry_options_.dump_path.empty()) {
      alert_dumped_ = true;
      recorder_->DumpToFile(telemetry_options_.dump_path, "burn-rate alert",
                            timeseries_->JsonSnapshot(), slo_->ToJson());
    }
  } else {
    alert_dumped_ = false;
  }
}

void AqpServer::RecordResponse(uint64_t session_id,
                               const QueryRequest& request,
                               const QueryResponse& response,
                               int64_t submit_ns, int64_t admitted_ns,
                               int64_t done_ns) {
  if (recorder_ == nullptr) return;  // Telemetry off: this one branch.
  (void)request;

  FlightRecord rec;
  // Admission-kind records never ran the engine: load-shed rejections and
  // front-door submission faults. Everything else — including cache hits
  // and engine errors — is a query-kind outcome.
  rec.kind = (response.shed_stage == ShedStage::kRejected ||
              response.status.code() == StatusCode::kUnavailable)
                 ? FlightRecord::Kind::kAdmission
                 : FlightRecord::Kind::kQuery;
  rec.session_id = session_id;
  rec.rng_seed = response.rng_seed;
  rec.submit_ns = submit_ns;
  rec.admitted_ns = admitted_ns;
  rec.done_ns = done_ns;
  rec.status_code = static_cast<int>(response.status.code());
  rec.shed_stage = response.shed_stage;
  rec.ci_target_met = response.ci_target_met;
  rec.queue_wait_ms = response.queue_wait_ms;
  rec.service_ms = response.service_ms;
  rec.total_ms = response.total_ms;
  rec.retry_after_ms = response.retry_after_ms;
  rec.profile = response.result.profile;
  recorder_->Record(rec);

  switch (response.status.code()) {
    case StatusCode::kOk:
      responses_ok_->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      responses_deadline_exceeded_->Increment();
      break;
    case StatusCode::kResourceExhausted:
      responses_rejected_->Increment();
      break;
    case StatusCode::kCancelled:
      responses_cancelled_->Increment();
      break;
    case StatusCode::kUnavailable:
      responses_unavailable_->Increment();
      break;
    default:
      responses_error_->Increment();
      break;
  }
  if (response.status.ok()) {
    const QueryProfile& profile = response.result.profile;
    (response.ci_target_met ? responses_ci_target_met_
                            : responses_ci_target_missed_)
        ->Increment();
    (profile.replicates_lost > 0 ? responses_salvaged_ : responses_intact_)
        ->Increment();
    if (profile.fault_recovered) responses_fault_recovered_->Increment();
    // The diagnostic SLI counts only diagnosed queries; "not-diagnosed"
    // is absence of evidence, not a clean bill.
    if (std::strcmp(profile.diagnostic_verdict, "accepted") == 0) {
      responses_diagnostic_clean_->Increment();
    } else if (std::strcmp(profile.diagnostic_verdict, "rejected") == 0) {
      responses_diagnostic_rejected_->Increment();
    }
  }
  latency_total_ms_->Observe(static_cast<int64_t>(response.total_ms));
  latency_queue_wait_ms_->Observe(
      static_cast<int64_t>(response.queue_wait_ms));
  if (response.status.ok()) {
    latency_service_ms_->Observe(static_cast<int64_t>(response.service_ms));
  }
}

StatusReport AqpServer::Introspect(const StatusRequest& request) const {
  StatusReport report;
  if (recorder_ == nullptr) return report;  // telemetry_enabled = false.
  report.telemetry_enabled = true;
  report.budget_state = slo_->state();
  report.windows_sampled = timeseries_->windows_sampled();
  report.records_recorded = recorder_->recorded();
  report.recorder_capacity = recorder_->capacity();

  // Aggregates and the embedded array come from ONE Snapshot(): the tallies
  // are provably over the same records the report shows.
  const std::vector<FlightRecord> records = recorder_->Snapshot();
  report.records = static_cast<int64_t>(records.size());
  for (const FlightRecord& rec : records) {
    switch (rec.shed_stage) {
      case ShedStage::kNone:
        ++report.shed_none;
        break;
      case ShedStage::kDegraded:
        ++report.shed_degraded;
        break;
      case ShedStage::kDeferred:
        ++report.shed_deferred;
        break;
      case ShedStage::kRejected:
        ++report.shed_rejected;
        break;
    }
    if (rec.profile.cache_hit) ++report.cache_hits;
    if (rec.profile.fault_recovered) ++report.fault_recovered;
  }
  if (request.include_records && request.max_records > 0) {
    const size_t keep = static_cast<size_t>(request.max_records);
    const size_t begin =
        records.size() > keep ? records.size() - keep : 0;  // newest win
    std::ostringstream out;
    out << "[";
    for (size_t i = begin; i < records.size(); ++i) {
      if (i != begin) out << ", ";
      out << records[i].ToJson();
    }
    out << "]";
    report.records_json = out.str();
  }
  if (request.include_windows) {
    report.timeseries_json = timeseries_->JsonSnapshot();
  }
  report.slo_json = slo_->ToJson();
  return report;
}

Status AqpServer::DumpFlightRecorder(const std::string& path,
                                     const std::string& reason) const {
  if (recorder_ == nullptr) {
    return Status::FailedPrecondition(
        "telemetry is disabled; enable ServerOptions::telemetry first");
  }
  if (!recorder_->DumpToFile(path, reason, timeseries_->JsonSnapshot(),
                             slo_->ToJson())) {
    return Status::Internal("could not write flight recorder dump: " + path);
  }
  return Status::OK();
}

SessionId AqpServer::OpenSession() {
  MutexLock lock(sessions_mu_);
  SessionId id = next_session_id_++;
  sessions_.emplace(id, SessionState{});
  sessions_opened_->Increment();
  return id;
}

Status AqpServer::CloseSession(SessionId id) {
  {
    MutexLock lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no open session with this id");
    }
    // Disconnect semantics: every in-flight query of the session stops at
    // its next cooperative checkpoint. The tokens are shared state, so
    // cancelling here reaches executions already running inside Execute()
    // calls — including requests still *waiting in the admission queue*,
    // whose Admit() loop re-checks its token on every wakeup.
    for (auto& [query_id, token] : it->second.active) token.Cancel();
    sessions_.erase(it);
    sessions_closed_->Increment();
  }
  // Wake the admission queue (outside sessions_mu_, respecting lock order)
  // so a request this close just cancelled leaves the queue now rather than
  // at its next re-evaluation slice.
  admission_.WakeWaiters();
  return Status::OK();
}

void AqpServer::UnregisterQuery(SessionId session_id, uint64_t query_id) {
  MutexLock lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) it->second.active.erase(query_id);
}

std::string StatusReport::ToJson() const {
  std::ostringstream out;
  out << "{\"telemetry_enabled\": " << (telemetry_enabled ? "true" : "false")
      << ", \"budget_state\": \"" << BudgetStateName(budget_state) << "\""
      << ", \"windows_sampled\": " << windows_sampled
      << ", \"records_recorded\": " << records_recorded
      << ", \"recorder_capacity\": " << recorder_capacity
      << ", \"records\": " << records << ", \"shed_stage\": {\"none\": "
      << shed_none << ", \"degraded\": " << shed_degraded
      << ", \"deferred\": " << shed_deferred
      << ", \"rejected\": " << shed_rejected << "}"
      << ", \"cache_hit\": " << cache_hits
      << ", \"fault_recovered\": " << fault_recovered << ", \"timeseries\": "
      << (timeseries_json.empty() ? "null" : timeseries_json)
      << ", \"slo\": " << (slo_json.empty() ? "null" : slo_json)
      << ", \"records_json\": "
      << (records_json.empty() ? "null" : records_json) << "}";
  return out.str();
}

QueryResponse AqpServer::Execute(SessionId session_id,
                                 const QueryRequest& request) {
  const int64_t submit_ns = MonotonicNanos();
  QueryResponse response;

  // Plan-keyed cache key: the canonicalized plan text (seed-free by
  // construction — two requests that differ only in rng_seed share a key).
  // Computed up front so both the fast path below and the insert after
  // execution agree on it.
  std::string cache_key;
  if (cache_ != nullptr && PlanCanonicalizable(request.query)) {
    cache_key = CanonicalPlanText(request.query);
  }

  // Cache fast path: only requests that did not pin an RNG stream are
  // eligible — a pinned seed demands that stream's exact bits. A hit holds
  // no admission slot and consumes no session seed; the response carries the
  // stored result plus the rng_seed that produced it, so the hit is exactly
  // replayable.
  if (!cache_key.empty() && request.rng_seed < 0) {
    {
      MutexLock lock(sessions_mu_);
      if (sessions_.find(session_id) == sessions_.end()) {
        response.status = Status::FailedPrecondition(
            "session is not open; call OpenSession()");
        return response;
      }
    }
    ResultCache::Hit hit;
    if (cache_->Lookup(cache_key, request.target_ci_width, &hit)) {
      response.result = hit.result;
      response.result.shed_stage = ShedStage::kNone;
      response.result.profile.shed_stage = ShedStage::kNone;
      response.result.profile.admission_wait_ms = 0.0;
      response.result.profile.cache_hit = true;
      response.rng_seed = hit.rng_seed;
      if (request.target_ci_width > 0.0) {
        response.ci_target_met =
            2.0 * response.result.ci.half_width <= request.target_ci_width;
      }
      const int64_t hit_done_ns = MonotonicNanos();
      response.total_ms =
          static_cast<double>(hit_done_ns - submit_ns) / 1e6;
      response.status = Status::OK();
      // A hit never reached admission: admitted == submit by convention.
      RecordResponse(session_id, request, response, submit_ns, submit_ns,
                     hit_done_ns);
      return response;
    }
  }

  // SLO translation: the deadline clock starts *now*, so time spent in the
  // admission queue spends the same budget execution does.
  Deadline deadline = request.deadline_ms > 0.0
                          ? Deadline::After(request.deadline_ms / 1e3)
                          : Deadline::Infinite();
  // Always cancellable, even without a deadline: session close must be able
  // to stop the query, and a cancellable token also keeps the pipeline off
  // the unboundable exact-fallback path.
  CancellationToken token = CancellationToken::WithDeadline(deadline);

  uint64_t query_id = 0;
  {
    MutexLock lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      response.status =
          Status::FailedPrecondition("session is not open; call OpenSession()");
      return response;
    }
    SessionState& session = it->second;
    response.rng_seed = request.rng_seed >= 0 ? request.rng_seed
                                              : session.next_rng_seed++;
    query_id = session.next_query_id++;
    session.active.emplace(query_id, token);
  }

  // Fault-injection keys for this delivery: the request's RNG stream id
  // (stable across retries once pinned) and the client's attempt counter
  // (so a retried delivery draws fresh).
  const uint64_t fault_unit = static_cast<uint64_t>(response.rng_seed);
  const uint64_t fault_attempt =
      static_cast<uint64_t>(request.attempt < 0 ? 0 : request.attempt);

  // Injected submission fault: the request dies at the front door —
  // kUnavailable, nothing executed, no slot held. An immediate retry with
  // the same rng_seed is safe and bit-identical.
  if (failpoints_ != nullptr &&
      failpoints_->ShouldFail(kServerSubmitFailSite, fault_unit,
                              fault_attempt)) {
    UnregisterQuery(session_id, query_id);
    const int64_t fault_done_ns = MonotonicNanos();
    response.total_ms =
        static_cast<double>(fault_done_ns - submit_ns) / 1e6;
    response.status = Status::Unavailable(
        "transient submission fault; retry with the same rng_seed");
    RecordResponse(session_id, request, response, submit_ns, submit_ns,
                   fault_done_ns);
    return response;
  }

  // Injected front-door straggler: burns deadline budget before admission.
  MaybeStall(failpoints_, kAdmissionDelaySite, fault_unit, fault_attempt,
             token);

  // Per-request work estimate for the admission policy: rows the query will
  // scan over the engine's current observed throughput.
  const double predicted_rows =
      static_cast<double>(engine_.PredictedWorkRows(request.query));
  const int64_t ewma_rows = sampler_.Sample().ewma_rows_per_second;
  const double rows_per_second =
      ewma_rows > 0 ? static_cast<double>(ewma_rows)
                    : engine_.options().rows_per_second;
  const double predicted_service_seconds = predicted_rows / rows_per_second;

  AdmissionDecision decision =
      admission_.Admit(sampler_, predicted_service_seconds, token,
                       request.priority, fault_unit, fault_attempt);
  const int64_t admitted_ns = MonotonicNanos();
  response.queue_wait_ms = static_cast<double>(admitted_ns - submit_ns) / 1e6;
  response.shed_stage = decision.stage;
  response.retry_after_ms = decision.retry_after_ms;

  if (decision.stage == ShedStage::kRejected) {
    UnregisterQuery(session_id, query_id);
    response.total_ms = response.queue_wait_ms;
    if (decision.deadline_expired) {
      response.status = Status::DeadlineExceeded(
          "deadline expired before the query could be admitted");
    } else if (decision.fault_injected) {
      std::ostringstream msg;
      msg << "injected admission rejection; retry in "
          << decision.retry_after_ms << " ms";
      response.status = Status::ResourceExhausted(msg.str());
    } else if (token.CancelRequested()) {
      response.status = Status::Cancelled("session closed while queued");
    } else {
      std::ostringstream msg;
      msg << "server overloaded (queue full or deadline infeasible); retry in "
          << decision.retry_after_ms << " ms";
      response.status = Status::ResourceExhausted(msg.str());
    }
    // Rejections did no work after the admission verdict: done == admitted.
    RecordResponse(session_id, request, response, submit_ns, admitted_ns,
                   admitted_ns);
    return response;
  }

  // Injected in-slot straggler: the stall holds the slot and burns budget,
  // but the engine's deadline token still caps the total — the query
  // degrades (salvaged CI) instead of overrunning the SLO.
  MaybeStall(failpoints_, kServerStragglerSite, fault_unit, fault_attempt,
             token);

  AqpEngine::ServeOptions serve;
  serve.rng_seed = static_cast<uint64_t>(response.rng_seed);
  serve.token = token;
  serve.replicates = decision.replicates;
  serve.shared_scans = shared_scans_.get();
  Result<ApproxResult> result = engine_.ExecuteServed(request.query, serve);

  const int64_t done_ns = MonotonicNanos();
  const double service_seconds =
      static_cast<double>(done_ns - admitted_ns) / 1e9;
  // Errors skip the EWMA fold: a fast failure is not evidence queries got
  // cheaper.
  admission_.Release(result.ok() ? service_seconds : 0.0);
  UnregisterQuery(session_id, query_id);

  response.service_ms = service_seconds * 1e3;
  response.total_ms = static_cast<double>(done_ns - submit_ns) / 1e6;
  if (!result.ok()) {
    response.status = result.status();
    RecordResponse(session_id, request, response, submit_ns, admitted_ns,
                   done_ns);
    return response;
  }
  response.result = std::move(*result);
  response.result.shed_stage = decision.stage;
  response.result.profile.shed_stage = decision.stage;
  response.result.profile.admission_wait_ms = response.queue_wait_ms;
  if (request.target_ci_width > 0.0) {
    response.ci_target_met =
        2.0 * response.result.ci.half_width <= request.target_ci_width;
  }
  // Feed the cache only with full-fidelity, fault-free results — a degraded
  // or salvaged answer must not become the answer for everyone.
  if (!cache_key.empty() && ResultCache::CacheableResult(response.result)) {
    cache_->Insert(cache_key, response.result, response.rng_seed);
  }
  response.status = Status::OK();
  RecordResponse(session_id, request, response, submit_ns, admitted_ns,
                 done_ns);
  return response;
}

}  // namespace aqp
