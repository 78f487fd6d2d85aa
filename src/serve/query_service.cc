#include "serve/query_service.h"

#include <algorithm>

#include "graphio/pattern_parser.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Admission accounting: submitted == accepted + degraded + rejected.
Counter& SubmittedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.submitted");
  return c;
}
Counter& AcceptedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.accepted");
  return c;
}
Counter& DegradedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.degraded");
  return c;
}
Counter& RejectedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.rejected");
  return c;
}
// Outcome accounting over admitted sessions.
Counter& CompletedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.completed");
  return c;
}
Counter& ErrorCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("ceci.serve.errors");
  return c;
}
Counter& ExpiredInQueueCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.expired_in_queue");
  return c;
}
Counter& CancelledCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("ceci.serve.cancelled");
  return c;
}
Gauge& QueueDepthGauge() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("ceci.serve.queue_depth");
  return g;
}
Gauge& ActiveGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge("ceci.serve.active");
  return g;
}
Histogram& QueueLatencyHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().GetHistogram("ceci.serve.queue_us");
  return h;
}
Histogram& ExecLatencyHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().GetHistogram("ceci.serve.exec_us");
  return h;
}
Histogram& TotalLatencyHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().GetHistogram("ceci.serve.latency_us");
  return h;
}

std::uint64_t Micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

/// Access-log projection of a finished (or rejected) session.
AccessRecord MakeAccessRecord(const ServeRequest& req,
                              const ServeResponse& response) {
  AccessRecord record;
  record.request_id = response.request_id;
  record.fingerprint = QueryFingerprint(req.pattern);
  record.admission = AdmissionName(response.admission);
  if (response.admission == Admission::kRejected) {
    record.outcome = "busy";
  } else if (!response.status.ok()) {
    record.outcome = "error";
    record.error = response.status.ToString();
  } else {
    record.outcome = "ok";
    record.termination = TerminationReasonName(response.termination);
  }
  record.queue_us = Micros(response.queue_seconds);
  record.exec_us = Micros(response.match_seconds);
  record.total_us = Micros(response.total_seconds);
  record.embeddings = response.embeddings;
  record.cache_hit = response.cache_hit;
  record.budget_charged_bytes = response.budget_charged_bytes;
  return record;
}

}  // namespace

std::string AdmissionName(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kDegraded:
      return "degraded";
    case Admission::kRejected:
      return "rejected";
  }
  return "?";
}

struct QueryService::Session {
  ServeRequest req;
  Admission admission = Admission::kAccepted;
  std::promise<ServeResponse> promise;
  Timer queued;  // started at Submit(); read when a runner picks it up
};

QueryService::QueryService(const Graph& data, const ServiceOptions& options)
    : data_(data), options_(options) {
  options_.limits.max_concurrent =
      std::max<std::size_t>(options_.limits.max_concurrent, 1);
  if (options_.pool_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.pool_threads);
  }
  if (options_.cache_indexes) {
    cached_ = std::make_unique<CachedMatcher>(data_);
  } else {
    uncached_ = std::make_unique<CeciMatcher>(data_);
  }
  runners_.reserve(options_.limits.max_concurrent);
  for (std::size_t i = 0; i < options_.limits.max_concurrent; ++i) {
    runners_.emplace_back(&QueryService::RunnerLoop, this);
  }
}

QueryService::~QueryService() { Shutdown(); }

std::future<ServeResponse> QueryService::Submit(ServeRequest request) {
  SubmittedCounter().Increment();
  auto session = std::make_unique<Session>();
  session->req = std::move(request);
  if (session->req.request_id.empty()) {
    session->req.request_id = NextRequestId();
  }
  std::future<ServeResponse> future = session->promise.get_future();
  {
    MutexLock lock(mutex_);
    if (stopping_ || queue_.size() >= options_.limits.max_queue) {
      RejectedCounter().Increment();
      ServeResponse response;
      response.request_id = session->req.request_id;
      response.admission = Admission::kRejected;
      // Logged under the lock: AccessLog has its own mutex and never
      // calls back into the service, so the order mutex_ -> log is safe,
      // and rejections are rare enough that the fwrite doesn't matter.
      if (options_.access_log != nullptr) {
        options_.access_log->Write(MakeAccessRecord(session->req, response));
      }
      session->promise.set_value(std::move(response));
      return future;
    }
    session->admission = queue_.size() >= options_.limits.degrade_depth
                             ? Admission::kDegraded
                             : Admission::kAccepted;
    if (session->admission == Admission::kDegraded) {
      DegradedCounter().Increment();
    } else {
      AcceptedCounter().Increment();
    }
    queue_.push_back(std::move(session));
    QueueDepthGauge().Set(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.NotifyOne();
  return future;
}

ServeResponse QueryService::Execute(ServeRequest request) {
  return Submit(std::move(request)).get();
}

Status QueryService::InstallPrebuiltIndex(const std::string& path,
                                          bool use_mmap) {
  if (cached_ == nullptr) {
    return Status::InvalidArgument(
        "prebuilt indexes require cache_indexes (the service was configured "
        "without an index cache)");
  }
  return cached_->InstallPrebuilt(path, use_mmap);
}

void QueryService::RunnerLoop() {
  for (;;) {
    std::unique_ptr<Session> session;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and fully drained
      session = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge().Set(static_cast<std::int64_t>(queue_.size()));
      ++active_;
      ActiveGauge().Set(static_cast<std::int64_t>(active_));
    }
    Process(*session);
    {
      MutexLock lock(mutex_);
      --active_;
      ActiveGauge().Set(static_cast<std::int64_t>(active_));
    }
  }
}

void QueryService::Process(Session& session) {
  // Pin the request id to this thread before any span opens so every
  // span the session produces (including enumeration on this thread)
  // carries it into trace/profiler output.
  TraceTag tag(session.req.request_id);
  TraceSpan span("serve/process");
  if (options_.pre_match_hook) options_.pre_match_hook();

  ServeResponse response;
  response.request_id = session.req.request_id;
  response.admission = session.admission;
  response.queue_seconds = session.queued.Seconds();
  QueueLatencyHistogram().Record(Micros(response.queue_seconds));

  const auto finish = [this, &session, &response] {
    response.total_seconds = response.queue_seconds + response.match_seconds;
    TotalLatencyHistogram().Record(Micros(response.total_seconds));
    if (options_.access_log != nullptr) {
      options_.access_log->Write(MakeAccessRecord(session.req, response));
    }
    session.promise.set_value(std::move(response));
  };

  // The effective budget is derived at pickup time: degraded admissions
  // clamp limit/deadline, and the deadline spans the queue wait, so the
  // remainder left for execution shrinks while the session waits.
  double deadline = session.req.deadline_seconds > 0.0
                        ? session.req.deadline_seconds
                        : options_.limits.default_deadline_seconds;
  std::uint64_t limit = session.req.limit;
  if (session.admission == Admission::kDegraded) {
    if (options_.limits.degraded_deadline_seconds > 0.0) {
      deadline = deadline > 0.0
                     ? std::min(deadline,
                                options_.limits.degraded_deadline_seconds)
                     : options_.limits.degraded_deadline_seconds;
    }
    if (options_.limits.degraded_limit > 0) {
      limit = limit > 0 ? std::min(limit, options_.limits.degraded_limit)
                        : options_.limits.degraded_limit;
    }
  }

  if (shutdown_token_.cancelled()) {
    // Drained at shutdown: the session never ran.
    response.termination = TerminationReason::kCancelled;
    CancelledCounter().Increment();
    finish();
    return;
  }

  double remaining = 0.0;
  if (deadline > 0.0) {
    remaining = deadline - response.queue_seconds;
    if (remaining <= 0.0) {
      // Deadline spent entirely in the queue: report kDeadline truthfully
      // without running the match.
      response.termination = TerminationReason::kDeadline;
      ExpiredInQueueCounter().Increment();
      finish();
      return;
    }
  }

  auto query = ParsePattern(session.req.pattern);
  if (query.ok() && query->num_vertices() > kMaxQueryVertices) {
    query = Status::InvalidArgument(
        "pattern has " + std::to_string(query->num_vertices()) +
        " vertices; the limit is " + std::to_string(kMaxQueryVertices));
  }
  if (!query.ok()) {
    response.status = query.status();
    ErrorCounter().Increment();
    finish();
    return;
  }

  MatchOptions match;
  match.threads = pool_ != nullptr
                      ? std::max<std::size_t>(options_.threads_per_query, 1)
                      : 1;
  match.pool = pool_.get();
  match.limit = limit;
  match.budget.token = &shutdown_token_;
  if (remaining > 0.0) match.budget.deadline_seconds = remaining;

  Timer exec;
  auto result = cached_ != nullptr ? cached_->Match(*query, match)
                                   : uncached_->Match(*query, match);
  response.match_seconds = exec.Seconds();
  ExecLatencyHistogram().Record(Micros(response.match_seconds));
  if (!result.ok()) {
    response.status = result.status();
    ErrorCounter().Increment();
    finish();
    return;
  }
  response.embeddings = result->embedding_count;
  response.termination = result->termination;
  response.cache_hit = result->stats.index_cache_hit;
  response.budget_charged_bytes = result->stats.budget.charged_bytes;
  if (session.req.explain) response.index_bytes = result->stats.ceci_bytes;
  CompletedCounter().Increment();
  finish();
}

void QueryService::Shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  shutdown_token_.RequestCancel();
  cv_.NotifyAll();
  for (std::thread& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
}

std::size_t QueryService::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

std::size_t QueryService::active() const {
  MutexLock lock(mutex_);
  return active_;
}

}  // namespace ceci
