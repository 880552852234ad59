//===- service/DiffService.h - Worker-pool diff serving ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of worker threads consuming a fair-share bounded queue of
/// typed requests against a DocumentStore:
///
///   Submit    diff a new version in, returns the serialized edit script
///   Open      create a document
///   Rollback  undo the latest version via its recorded inverse
///   GetVersion current version + serialized tree
///   Stats     metrics and store gauges as JSON
///
/// Overload protection happens in three layers on the admission path:
///
///  1. Fair scheduling: requests queue per document and workers drain the
///     sub-queues by deficit round-robin weighted by each document's
///     observed service time (FairQueue), so one hot or hostile document
///     cannot monopolise the workers. An optional per-document capacity
///     makes a flooding tenant hit its own wall long before the shared
///     one. A document has at most one request executing at a time, so
///     its requests take effect in arrival order.
///  2. Adaptive shedding: when a document's requests keep dequeuing with
///     a queue sojourn above ServiceConfig::ShedTargetMs (CoDel-style:
///     sustained for ShedIntervalMs, not a one-off spike), the newest
///     queued requests of that document are shed until its estimated
///     backlog fits the target again. Shed responses carry a
///     per-document retry_after_ms derived from that document's queue
///     depth and observed service time.
///  3. Resource admission: when ServiceConfig::MemBudget is exhausted,
///     new open/submit requests are rejected up front with a typed error
///     (ErrCode::MemoryBudget) instead of parsing into an OOM kill;
///     parse-time depth/node caps reject hostile inputs mid-parse (see
///     ParseLimits) and surface as ErrCode::TreeTooDeep/TreeTooLarge.
///
/// Backpressure is explicit: when the queue (shared or per-document) is
/// full, or the service is shut down, a request is rejected immediately
/// with an error response rather than blocking the client. shutdown() is
/// graceful: the queue stops accepting, workers drain every accepted
/// request, then join, so no accepted request is ever dropped.
///
/// Deadlines bound tail latency: a submit may carry a deadline; if it is
/// still queued when the deadline passes it is shed with a retry-after
/// hint, and if its diff would overrun the deadline the service answers
/// with the type-checked replace-root fallback script instead (concise
/// is the first thing degraded mode gives up -- type safety never is).
/// healthJson() reports durability liveness without touching the request
/// queue.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SERVICE_DIFFSERVICE_H
#define TRUEDIFF_SERVICE_DIFFSERVICE_H

#include "service/DocumentStore.h"
#include "service/FairQueue.h"
#include "service/Metrics.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

namespace truediff {
namespace service {

/// What the service answers for any request.
struct Response {
  bool Ok = false;
  std::string Error;
  uint64_t Version = 0;
  uint64_t EditCount = 0;
  uint64_t CoalescedSize = 0;
  uint64_t TreeSize = 0;
  /// submit: the serialized edit script (truechange/Serialize);
  /// get_version: the document's s-expression; stats: JSON.
  std::string Payload;
  /// submit: the script is the deadline fallback (replace-root), not a
  /// minimal diff.
  bool Fallback = false;
  /// On rejection/shedding: hint for when a retry is likely to succeed,
  /// derived from the *document's* queue depth and observed service time
  /// (global gauges for document-less requests). 0 = no hint.
  uint64_t RetryAfterMs = 0;
  /// Typed cause when !Ok (ErrCode::None if unclassified).
  ErrCode Code = ErrCode::None;
  /// ErrCode::NotLeader: where the current leader answers writes
  /// ("host:port"), so clients follow the redirect instead of spinning.
  /// Attached by the role-aware front end (net/ServiceHandler), not the
  /// service itself. Empty = no hint.
  std::string LeaderAddr;
  /// submit with SubmitOp::RawScript: the edit script itself, so a
  /// binary front end can encode it without re-parsing Payload (which is
  /// left empty in that mode).
  EditScript Script;
  /// get: non-empty when the document is quarantined by an integrity
  /// check -- the answer is served (a possibly-wrong answer plus an
  /// explicit warning beats silence) but carries the quarantine reason,
  /// and the wire layer marks the ok line with quarantined=1.
  std::string IntegrityWarning;
};

/// Completion of one request, invoked exactly once from a worker thread
/// (or inline from the enqueueing thread on rejection). The callback
/// alternative to the future-based API, for event-driven callers that
/// must not block.
using ResponseCallback = std::function<void(Response)>;

/// \name Typed requests
/// @{
struct OpenOp {
  DocId Doc = 0;
  TreeBuilder Build;
  /// Attribution of version 0 (empty = unattributed).
  std::string Author;
};
struct SubmitOp {
  DocId Doc = 0;
  TreeBuilder Build;
  /// Skip the textual script serialization and hand the EditScript to
  /// Response::Script instead -- the binary protocol's mode.
  bool RawScript = false;
  /// Attribution of the submitted revision (empty = unattributed).
  std::string Author;
  /// Version-CAS guard (see SubmitOptions::ExpectedVersion).
  std::optional<uint64_t> ExpectedVersion;
};
struct RollbackOp {
  DocId Doc = 0;
};
struct GetVersionOp {
  DocId Doc = 0;
};
struct StatsOp {};
struct BlameOp {
  DocId Doc = 0;
  /// False: annotate the whole live tree; true: the single node \p Uri.
  bool HasUri = false;
  URI Uri = NullURI;
};
struct HistoryOp {
  DocId Doc = 0;
  URI Uri = NullURI;
};

using Operation = std::variant<OpenOp, SubmitOp, RollbackOp, GetVersionOp,
                               StatsOp, BlameOp, HistoryOp>;
/// @}

struct ServiceConfig {
  /// 0 picks std::thread::hardware_concurrency().
  unsigned Workers = 0;
  /// Bound of the request queue; requests beyond it are rejected.
  size_t QueueCapacity = 256;
  /// Deadline applied to submits that do not carry their own, in
  /// milliseconds from enqueue. 0 = no default deadline.
  unsigned DefaultDeadlineMs = 0;
  /// When a submit's diff would overrun its deadline, answer with the
  /// type-checked replace-root fallback script instead of failing the
  /// request (see SubmitOptions::UseFallback). When false an over-deadline
  /// submit still runs the full diff; the deadline then only sheds
  /// requests that expire while queued.
  bool DeadlineFallback = true;
  /// Bound on any single document's backlog inside the shared queue, so
  /// a flooding tenant gets per-document backpressure while others still
  /// enqueue. 0 = no per-document bound (only QueueCapacity applies).
  size_t PerDocQueueCapacity = 0;
  /// Shed target for queue sojourn, in milliseconds: once requests of a
  /// document keep dequeuing after waiting longer than this (sustained
  /// for ShedIntervalMs), the document's newest queued requests are shed
  /// until its estimated backlog (depth x observed service time) fits
  /// the target again. 0 disables sojourn shedding.
  unsigned ShedTargetMs = 0;
  /// How long a document's sojourn must stay above ShedTargetMs before
  /// shedding starts (CoDel's interval: tolerate bursts, act on standing
  /// queues).
  unsigned ShedIntervalMs = 100;
  /// Process-wide tree-memory budget. When exhausted, open/submit
  /// requests are rejected at enqueue with ErrCode::MemoryBudget. Give
  /// the same budget to DocumentStore::Config::MemBudget so the arenas
  /// actually account against it. Null = unlimited. Must outlive the
  /// service.
  MemoryBudget *MemBudget = nullptr;
};

/// Liveness of the durability layer as seen by the service, polled from
/// the health source (the persistence layer, when attached).
struct HealthStatus {
  /// True while the persistence circuit breaker is open: writes are
  /// in-memory only and acknowledged as NOT durable.
  bool Degraded = false;
  uint64_t BreakerTrips = 0;
  /// Cumulative microseconds spent degraded, including the current
  /// period if degraded now.
  uint64_t DegradedUs = 0;
};

class DiffService {
public:
  DiffService(DocumentStore &Store, ServiceConfig C = ServiceConfig());
  ~DiffService();

  DiffService(const DiffService &) = delete;
  DiffService &operator=(const DiffService &) = delete;

  /// \name Asynchronous API
  /// All return immediately. A rejected request (queue full / shut down)
  /// yields an already-resolved error response.
  /// @{
  std::future<Response> openAsync(DocId Doc, TreeBuilder Build,
                                  std::string Author = std::string());
  /// \p DeadlineMs is milliseconds from now; 0 falls back to
  /// ServiceConfig::DefaultDeadlineMs. A request still queued at its
  /// deadline is shed with a retry-after hint; a request whose build
  /// finishes but whose diff would overrun it is answered with the
  /// replace-root fallback script (Response::Fallback) when
  /// ServiceConfig::DeadlineFallback is set.
  std::future<Response> submitAsync(DocId Doc, TreeBuilder Build,
                                    uint64_t DeadlineMs = 0,
                                    std::string Author = std::string());
  std::future<Response> rollbackAsync(DocId Doc);
  std::future<Response> getVersionAsync(DocId Doc);
  std::future<Response> statsAsync();
  /// Blame/history reads; answered by the handlers wired up with
  /// setBlameHandler/setHistoryHandler (a typed error without them).
  std::future<Response> blameAsync(DocId Doc, bool HasUri, URI Uri);
  std::future<Response> historyAsync(DocId Doc, URI Uri);
  /// @}

  /// \name Callback API
  /// The event-loop front end's entry points: \p Done fires exactly once,
  /// from a worker thread on completion or inline on rejection, so the
  /// caller never blocks on a future. \p PayloadBytes is the wire size of
  /// the request's tree payload when the transport knows it (0 = unknown);
  /// it prices the request in the DRR scheduler, replacing the flat
  /// one-quantum guess for documents without a service-time sample.
  /// @{
  void openCb(DocId Doc, TreeBuilder Build, size_t PayloadBytes,
              std::string Author, ResponseCallback Done);
  /// A submit with an optional version-CAS guard: it only applies when
  /// the document is exactly at \p Expect (ErrCode::CasMismatch with the
  /// current version otherwise).
  void submitCb(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs,
                size_t PayloadBytes, bool RawScript, std::string Author,
                std::optional<uint64_t> Expect, ResponseCallback Done);
  void rollbackCb(DocId Doc, ResponseCallback Done);
  void getVersionCb(DocId Doc, ResponseCallback Done);
  void statsCb(ResponseCallback Done);
  void blameCb(DocId Doc, bool HasUri, URI Uri, ResponseCallback Done);
  void historyCb(DocId Doc, URI Uri, ResponseCallback Done);
  /// @}

  /// \name Blocking convenience wrappers
  /// @{
  Response open(DocId Doc, TreeBuilder Build,
               std::string Author = std::string());
  Response submit(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs = 0,
                  std::string Author = std::string());
  Response rollback(DocId Doc);
  Response getVersion(DocId Doc);
  Response stats();
  Response blame(DocId Doc, bool HasUri, URI Uri);
  Response history(DocId Doc, URI Uri);
  /// @}

  /// Stops accepting requests, drains the queue, joins the workers.
  /// Idempotent; also run by the destructor.
  void shutdown();

  /// Called once after shutdown() drained the queue -- the hook the
  /// persistence layer flushes its WAL through, so every acknowledged
  /// request is durable when shutdown returns. Set before traffic.
  void setDrainHook(std::function<void()> Hook) { DrainHook = std::move(Hook); }

  /// Extra top-level field(s) spliced into statsJson(), e.g.
  /// `"persist":{...}`. Must return a complete `"key":value` fragment
  /// without leading comma, or an empty string. Set before traffic.
  void setStatsAugmenter(std::function<std::string()> Fn) {
    StatsAugmenter = std::move(Fn);
  }

  /// Where healthJson()/statsJson() read durability liveness from --
  /// typically [&P] { return HealthStatus from P.healthInfo(); }. Set
  /// before traffic; absent means "never degraded".
  void setHealthSource(std::function<HealthStatus()> Fn) {
    HealthSource = std::move(Fn);
  }

  /// Serves blame/history operations. The service itself is
  /// blame-agnostic: the server binary wires these to the provenance
  /// index (see blame/Render.h wireBlameHandlers). Executed on worker
  /// threads like any other read; must be thread-safe. Set before
  /// traffic; without a handler the verbs answer a typed error.
  using BlameHandler = std::function<Response(DocId, bool HasUri, URI Uri)>;
  using HistoryHandler = std::function<Response(DocId, URI Uri)>;
  void setBlameHandler(BlameHandler Fn) { BlameFn = std::move(Fn); }
  void setHistoryHandler(HistoryHandler Fn) { HistoryFn = std::move(Fn); }

  unsigned workers() const { return NumWorkers; }
  size_t queueDepth() const { return Queue.depth(); }
  const ServiceMetrics &metrics() const { return Metrics; }

  /// The Stats payload: metrics, queue gauges, and store stats.
  std::string statsJson() const;

  /// Small always-available liveness summary (the wire `health` verb):
  /// degraded flag, breaker trips, degraded seconds, queue depth. Served
  /// without going through the request queue, so it answers even when the
  /// queue is saturated -- that is the moment health checks matter.
  std::string healthJson() const;

  /// Current health as polled from the health source (all-zero without
  /// one).
  HealthStatus health() const;

private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    Operation Op;
    std::promise<Response> Promise;
    /// When set, completion goes through the callback and Promise is
    /// never touched.
    ResponseCallback Done;
    Clock::time_point Enqueued;
    /// Absolute deadline; max() = none.
    Clock::time_point Deadline = Clock::time_point::max();
    /// Wire payload size at enqueue (0 = unknown); prices the request in
    /// the DRR scheduler and feeds the per-byte cost model.
    size_t PayloadBytes = 0;
  };

  /// Resolves \p R with \p Resp through whichever completion channel the
  /// request carries.
  static void fulfill(Request &R, Response &&Resp) {
    if (R.Done)
      R.Done(std::move(Resp));
    else
      R.Promise.set_value(std::move(Resp));
  }

  /// Scheduling key for document-less requests (stats). Documents with
  /// the same numeric id would share its sub-queue, which is harmless:
  /// fairness and hints degrade to "shared with stats", never break.
  static constexpr uint64_t StatsKey = ~uint64_t(0);

  /// Fair-scheduling and shedding state per document, updated by the
  /// workers under StateMu.
  struct DocState {
    /// EWMA of observed service time, milliseconds (0 = no sample yet).
    /// Feeds the DRR cost of queued requests and the retry-after hints.
    double EwmaServiceMs = 0;
    /// EWMA of observed service time per payload byte, microseconds
    /// (0 = no sample with a known payload yet). Prices individual
    /// requests by size instead of charging every request of a document
    /// the same.
    double EwmaUsPerByte = 0;
    /// When this document's dequeue sojourn first exceeded the shed
    /// target; min() = currently below target.
    Clock::time_point AboveSince = Clock::time_point::min();
  };

  std::future<Response> enqueue(Operation Op, OpKind Kind,
                                uint64_t DeadlineMs = 0,
                                size_t PayloadBytes = 0,
                                ResponseCallback Done = nullptr);
  void workerLoop();
  Response execute(Operation &Op, Clock::time_point Deadline);
  static OpKind kindOf(const Operation &Op);
  static uint64_t keyOf(const Operation &Op);

  /// Expected service cost of one request of \p Key in microseconds (the
  /// DRR cost unit). With a known \p PayloadBytes the request is priced
  /// individually: payload size times the document's (or, for a document
  /// on first sight, the global) observed per-byte service rate. Without
  /// one it falls back to the document's service-time EWMA, then to one
  /// quantum (plain round-robin).
  uint64_t costOf(uint64_t Key, size_t PayloadBytes) const;
  /// Folds an observed service time (and, when \p PayloadBytes is known,
  /// the implied per-byte rate) into \p Key's and the global EWMAs.
  void noteServiceTime(uint64_t Key, double Ms, size_t PayloadBytes);
  /// Arrival-time admission: true if \p Key's estimated backlog (queue
  /// depth x observed service time) already exceeds the shed target, so
  /// a new open/submit should be rejected now instead of shedding it at
  /// dequeue after it burned a queue slot.
  bool shouldShedAtArrival(uint64_t Key, OpKind Kind) const;
  /// CoDel-style control, run at each dequeue: tracks how long \p Key's
  /// sojourn has been above the shed target and sheds its newest queued
  /// requests once the interval is exceeded.
  void maybeShed(uint64_t Key, double SojournMs, Clock::time_point Now);

  /// Bumps the admission/budget rejection counters for a failed store
  /// response carrying a resource-cap ErrCode.
  void noteAdmission(const Response &R);

  /// Retry-after hint in ms for requests of \p Key: (the document's
  /// queue depth + 1) x its observed service time, falling back to the
  /// global submit mean for unseen documents, floored at 1ms. Heuristic,
  /// not a promise.
  uint64_t retryAfterHintMs(uint64_t Key) const;

  /// Pulls HealthStatus from the source into the mirrored metrics
  /// gauges.
  void refreshHealth() const;

  DocumentStore &Store;
  const ServiceConfig Cfg;
  const unsigned NumWorkers;
  FairQueue<Request> Queue;
  ServiceMetrics Metrics;
  std::vector<std::thread> Workers;
  std::atomic<bool> Stopped{false};
  std::function<void()> DrainHook;
  std::function<std::string()> StatsAugmenter;
  std::function<HealthStatus()> HealthSource;
  BlameHandler BlameFn;
  HistoryHandler HistoryFn;

  mutable std::mutex StateMu;
  std::unordered_map<uint64_t, DocState> DocStates;
  /// Cross-document EWMA of service time per payload byte (microseconds);
  /// the cost model for documents the service has never executed for.
  double GlobalUsPerByte = 0;
};

} // namespace service
} // namespace truediff

#endif // TRUEDIFF_SERVICE_DIFFSERVICE_H
