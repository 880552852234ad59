//===- service/DiffService.cpp - Worker-pool diff serving ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/DiffService.h"

#include "truechange/Serialize.h"

using namespace truediff;
using namespace truediff::service;

/// DRR quantum, in the queue's cost unit (microseconds of expected
/// service time): every active document may consume up to 1ms of worker
/// time per scheduling turn. Costs are clamped to 64 quanta by the queue,
/// so the granularity only affects how finely expensive documents are
/// deprioritised, not whether they are served.
static constexpr uint64_t QuantumUs = 1000;

DiffService::DiffService(DocumentStore &Store, ServiceConfig C)
    : Store(Store), Cfg(C),
      NumWorkers(C.Workers != 0 ? C.Workers
                                : std::max(1u, std::thread::hardware_concurrency())),
      Queue(std::max<size_t>(1, C.QueueCapacity), C.PerDocQueueCapacity,
            QuantumUs) {
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

DiffService::~DiffService() { shutdown(); }

void DiffService::shutdown() {
  if (Stopped.exchange(true))
    return;
  Queue.close();
  for (std::thread &W : Workers)
    W.join();
  // All accepted requests have executed; let durability catch up before
  // the caller treats the drain as complete.
  if (DrainHook)
    DrainHook();
}

OpKind DiffService::kindOf(const Operation &Op) {
  return static_cast<OpKind>(Op.index());
}

uint64_t DiffService::keyOf(const Operation &Op) {
  return std::visit(
      [](const auto &Req) -> uint64_t {
        using T = std::decay_t<decltype(Req)>;
        if constexpr (std::is_same_v<T, StatsOp>)
          return StatsKey;
        else
          return Req.Doc;
      },
      Op);
}

uint64_t DiffService::costOf(uint64_t Key, size_t PayloadBytes) const {
  double EwmaMs = 0;
  double DocRate = 0;
  double GlobalRate = 0;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    auto It = DocStates.find(Key);
    if (It != DocStates.end()) {
      EwmaMs = It->second.EwmaServiceMs;
      DocRate = It->second.EwmaUsPerByte;
    }
    GlobalRate = GlobalUsPerByte;
  }
  // Per-request pricing: when the transport reports the payload size at
  // enqueue, charge this request its own expected cost -- a 100-byte
  // tweak and a megabyte rewrite of the same document no longer cost the
  // scheduler the same. A document on first sight is priced by the
  // global per-byte rate instead of a flat quantum guess.
  if (PayloadBytes != 0) {
    double Rate = DocRate > 0 ? DocRate : GlobalRate;
    if (Rate > 0) {
      double Us = static_cast<double>(PayloadBytes) * Rate;
      return Us < 1.0 ? 1 : static_cast<uint64_t>(Us); // FairQueue clamps
    }
  }
  if (EwmaMs <= 0)
    return QuantumUs; // unseen document: one quantum, plain round-robin
  double Us = EwmaMs * 1000.0;
  return Us < 1.0 ? 1 : static_cast<uint64_t>(Us); // FairQueue clamps high
}

void DiffService::noteServiceTime(uint64_t Key, double Ms,
                                  size_t PayloadBytes) {
  if (Key == StatsKey)
    return;
  std::lock_guard<std::mutex> Lock(StateMu);
  DocState &DS = DocStates[Key];
  DS.EwmaServiceMs =
      DS.EwmaServiceMs <= 0 ? Ms : 0.8 * DS.EwmaServiceMs + 0.2 * Ms;
  if (PayloadBytes != 0) {
    double Rate = Ms * 1000.0 / static_cast<double>(PayloadBytes);
    DS.EwmaUsPerByte =
        DS.EwmaUsPerByte <= 0 ? Rate : 0.8 * DS.EwmaUsPerByte + 0.2 * Rate;
    GlobalUsPerByte =
        GlobalUsPerByte <= 0 ? Rate : 0.8 * GlobalUsPerByte + 0.2 * Rate;
  }
}

bool DiffService::shouldShedAtArrival(uint64_t Key, OpKind Kind) const {
  if (Cfg.ShedTargetMs == 0 || Key == StatsKey ||
      (Kind != OpKind::Open && Kind != OpKind::Submit))
    return false;
  double EwmaMs = 0;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    auto It = DocStates.find(Key);
    if (It != DocStates.end())
      EwmaMs = It->second.EwmaServiceMs;
  }
  // No sample yet: admit. The dequeue-side CoDel control still protects
  // against a document whose very first burst overwhelms the workers.
  if (EwmaMs <= 0)
    return false;
  return static_cast<double>(Queue.depthOf(Key)) * EwmaMs >
         static_cast<double>(Cfg.ShedTargetMs);
}

uint64_t DiffService::retryAfterHintMs(uint64_t Key) const {
  double PerRequestMs = 0;
  if (Key != StatsKey) {
    std::lock_guard<std::mutex> Lock(StateMu);
    auto It = DocStates.find(Key);
    if (It != DocStates.end())
      PerRequestMs = It->second.EwmaServiceMs;
  }
  if (PerRequestMs <= 0) {
    LatencyHistogram::Summary S =
        Metrics.Ops[static_cast<unsigned>(OpKind::Submit)].Latency.summarize();
    PerRequestMs = S.Count != 0 ? S.MeanMs : 1.0;
  }
  size_t Depth = Key == StatsKey ? Queue.depth() : Queue.depthOf(Key);
  double Hint = static_cast<double>(Depth + 1) * PerRequestMs;
  return Hint < 1.0 ? 1 : static_cast<uint64_t>(Hint);
}

std::future<Response> DiffService::enqueue(Operation Op, OpKind Kind,
                                           uint64_t DeadlineMs,
                                           size_t PayloadBytes,
                                           ResponseCallback Done) {
  if (DeadlineMs == 0)
    DeadlineMs = Cfg.DefaultDeadlineMs;
  uint64_t Key = keyOf(Op);
  Request R;
  R.Op = std::move(Op);
  R.Done = std::move(Done);
  R.Enqueued = Clock::now();
  if (DeadlineMs != 0)
    R.Deadline = R.Enqueued + std::chrono::milliseconds(DeadlineMs);
  R.PayloadBytes = PayloadBytes;
  std::future<Response> Fut;
  if (!R.Done)
    Fut = R.Promise.get_future();

  // Resource admission, up front: a request that would parse new trees
  // into an exhausted memory budget is refused before it queues, so the
  // budget bounds the process instead of the OOM killer. Reads and
  // rollbacks still pass -- they allocate at most what existing trees
  // already pay for.
  if (Cfg.MemBudget != nullptr && Cfg.MemBudget->over() &&
      (Kind == OpKind::Open || Kind == OpKind::Submit)) {
    Metrics.BudgetRejected.fetch_add(1, std::memory_order_relaxed);
    Metrics.Ops[static_cast<unsigned>(Kind)].Failures.fetch_add(
        1, std::memory_order_relaxed);
    Response Rej;
    Rej.Code = ErrCode::MemoryBudget;
    Rej.Error = "memory budget exhausted (" +
                std::to_string(Cfg.MemBudget->used()) + " of " +
                std::to_string(Cfg.MemBudget->limit()) + " bytes in use)";
    Rej.RetryAfterMs = retryAfterHintMs(Key);
    fulfill(R, std::move(Rej));
    return Fut;
  }

  // Arrival shedding: when the document's estimated backlog already
  // exceeds the sojourn target, this request would only be shed at
  // dequeue after holding a queue slot the whole time -- reject it now,
  // with the same typed error and retry hint the dequeue path produces.
  if (shouldShedAtArrival(Key, Kind)) {
    Metrics.Shed.fetch_add(1, std::memory_order_relaxed);
    Metrics.ArrivalShed.fetch_add(1, std::memory_order_relaxed);
    Metrics.Ops[static_cast<unsigned>(Kind)].Failures.fetch_add(
        1, std::memory_order_relaxed);
    Response Rej;
    Rej.Code = ErrCode::Shed;
    Rej.Error = "shed at arrival: estimated backlog exceeds the " +
                std::to_string(Cfg.ShedTargetMs) + "ms target";
    Rej.RetryAfterMs = retryAfterHintMs(Key);
    fulfill(R, std::move(Rej));
    return Fut;
  }

  PushResult P = Queue.tryPush(Key, std::move(R), costOf(Key, PayloadBytes));
  if (P != PushResult::Ok) {
    Metrics.Rejected.fetch_add(1, std::memory_order_relaxed);
    Metrics.Ops[static_cast<unsigned>(Kind)].Failures.fetch_add(
        1, std::memory_order_relaxed);
    Response Rej;
    switch (P) {
    case PushResult::Closed:
      Rej.Error = "service is shut down";
      Rej.Code = ErrCode::Shutdown;
      break;
    case PushResult::KeyFull:
      Rej.Error = "document queue full (backpressure)";
      Rej.Code = ErrCode::Backpressure;
      Rej.RetryAfterMs = retryAfterHintMs(Key);
      break;
    default:
      Rej.Error = "request queue full (backpressure)";
      Rej.Code = ErrCode::Backpressure;
      Rej.RetryAfterMs = retryAfterHintMs(StatsKey);
      break;
    }
    fulfill(R, std::move(Rej));
  }
  return Fut;
}

void DiffService::openCb(DocId Doc, TreeBuilder Build, size_t PayloadBytes,
                         ResponseCallback Done) {
  openCb(Doc, std::move(Build), PayloadBytes, std::string(), std::move(Done));
}
void DiffService::openCb(DocId Doc, TreeBuilder Build, size_t PayloadBytes,
                         std::string Author, ResponseCallback Done) {
  enqueue(OpenOp{Doc, std::move(Build), std::move(Author)}, OpKind::Open, 0,
          PayloadBytes, std::move(Done));
}
void DiffService::submitCb(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs,
                           size_t PayloadBytes, bool RawScript,
                           ResponseCallback Done) {
  submitCb(Doc, std::move(Build), DeadlineMs, PayloadBytes, RawScript,
           std::string(), std::move(Done));
}
void DiffService::submitCb(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs,
                           size_t PayloadBytes, bool RawScript,
                           std::string Author, ResponseCallback Done) {
  submitCb(Doc, std::move(Build), DeadlineMs, PayloadBytes, RawScript,
           std::move(Author), std::nullopt, std::move(Done));
}
void DiffService::submitCb(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs,
                           size_t PayloadBytes, bool RawScript,
                           std::string Author, std::optional<uint64_t> Expect,
                           ResponseCallback Done) {
  enqueue(SubmitOp{Doc, std::move(Build), RawScript, std::move(Author),
                   Expect},
          OpKind::Submit, DeadlineMs, PayloadBytes, std::move(Done));
}
void DiffService::rollbackCb(DocId Doc, ResponseCallback Done) {
  enqueue(RollbackOp{Doc}, OpKind::Rollback, 0, 0, std::move(Done));
}
void DiffService::getVersionCb(DocId Doc, ResponseCallback Done) {
  enqueue(GetVersionOp{Doc}, OpKind::GetVersion, 0, 0, std::move(Done));
}
void DiffService::statsCb(ResponseCallback Done) {
  enqueue(StatsOp{}, OpKind::Stats, 0, 0, std::move(Done));
}
void DiffService::blameCb(DocId Doc, bool HasUri, URI Uri,
                          ResponseCallback Done) {
  enqueue(BlameOp{Doc, HasUri, Uri}, OpKind::Blame, 0, 0, std::move(Done));
}
void DiffService::historyCb(DocId Doc, URI Uri, ResponseCallback Done) {
  enqueue(HistoryOp{Doc, Uri}, OpKind::History, 0, 0, std::move(Done));
}

std::future<Response> DiffService::openAsync(DocId Doc, TreeBuilder Build) {
  return enqueue(OpenOp{Doc, std::move(Build)}, OpKind::Open);
}
std::future<Response> DiffService::openAsync(DocId Doc, TreeBuilder Build,
                                             std::string Author) {
  return enqueue(OpenOp{Doc, std::move(Build), std::move(Author)},
                 OpKind::Open);
}
std::future<Response> DiffService::submitAsync(DocId Doc, TreeBuilder Build) {
  return enqueue(SubmitOp{Doc, std::move(Build)}, OpKind::Submit);
}
std::future<Response> DiffService::submitAsync(DocId Doc, TreeBuilder Build,
                                               std::string Author) {
  return enqueue(SubmitOp{Doc, std::move(Build), false, std::move(Author)},
                 OpKind::Submit);
}
std::future<Response> DiffService::submitAsync(DocId Doc, TreeBuilder Build,
                                               uint64_t DeadlineMs) {
  return enqueue(SubmitOp{Doc, std::move(Build)}, OpKind::Submit, DeadlineMs);
}
std::future<Response> DiffService::submitAsync(DocId Doc, TreeBuilder Build,
                                               uint64_t DeadlineMs,
                                               std::string Author) {
  return enqueue(SubmitOp{Doc, std::move(Build), false, std::move(Author)},
                 OpKind::Submit, DeadlineMs);
}
std::future<Response> DiffService::rollbackAsync(DocId Doc) {
  return enqueue(RollbackOp{Doc}, OpKind::Rollback);
}
std::future<Response> DiffService::getVersionAsync(DocId Doc) {
  return enqueue(GetVersionOp{Doc}, OpKind::GetVersion);
}
std::future<Response> DiffService::statsAsync() {
  return enqueue(StatsOp{}, OpKind::Stats);
}
std::future<Response> DiffService::blameAsync(DocId Doc, bool HasUri,
                                              URI Uri) {
  return enqueue(BlameOp{Doc, HasUri, Uri}, OpKind::Blame);
}
std::future<Response> DiffService::historyAsync(DocId Doc, URI Uri) {
  return enqueue(HistoryOp{Doc, Uri}, OpKind::History);
}

Response DiffService::open(DocId Doc, TreeBuilder Build) {
  return openAsync(Doc, std::move(Build)).get();
}
Response DiffService::open(DocId Doc, TreeBuilder Build, std::string Author) {
  return openAsync(Doc, std::move(Build), std::move(Author)).get();
}
Response DiffService::submit(DocId Doc, TreeBuilder Build) {
  return submitAsync(Doc, std::move(Build)).get();
}
Response DiffService::submit(DocId Doc, TreeBuilder Build,
                             uint64_t DeadlineMs) {
  return submitAsync(Doc, std::move(Build), DeadlineMs).get();
}
Response DiffService::submit(DocId Doc, TreeBuilder Build,
                             std::string Author) {
  return submitAsync(Doc, std::move(Build), std::move(Author)).get();
}
Response DiffService::submit(DocId Doc, TreeBuilder Build, uint64_t DeadlineMs,
                             std::string Author) {
  return submitAsync(Doc, std::move(Build), DeadlineMs, std::move(Author))
      .get();
}
Response DiffService::rollback(DocId Doc) { return rollbackAsync(Doc).get(); }
Response DiffService::getVersion(DocId Doc) {
  return getVersionAsync(Doc).get();
}
Response DiffService::stats() { return statsAsync().get(); }
Response DiffService::blame(DocId Doc, bool HasUri, URI Uri) {
  return blameAsync(Doc, HasUri, Uri).get();
}
Response DiffService::history(DocId Doc, URI Uri) {
  return historyAsync(Doc, Uri).get();
}

void DiffService::maybeShed(uint64_t Key, double SojournMs,
                            Clock::time_point Now) {
  if (Cfg.ShedTargetMs == 0 || Key == StatsKey)
    return;
  double EwmaMs;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    DocState &DS = DocStates[Key];
    if (SojournMs <= static_cast<double>(Cfg.ShedTargetMs)) {
      DS.AboveSince = Clock::time_point::min();
      return;
    }
    if (DS.AboveSince == Clock::time_point::min()) {
      // First above-target dequeue: start the interval clock, tolerate
      // the burst.
      DS.AboveSince = Now;
      return;
    }
    if (Now - DS.AboveSince < std::chrono::milliseconds(Cfg.ShedIntervalMs))
      return;
    EwmaMs = DS.EwmaServiceMs;
  }
  if (EwmaMs <= 0)
    EwmaMs = 1.0;

  // Standing queue: shed this document's newest requests until its
  // estimated backlog drains within the target. Newest-first because the
  // requests near the head have almost been served -- their latency is
  // sunk cost -- while fresh arrivals are the ones a client should back
  // off on.
  while (static_cast<double>(Queue.depthOf(Key)) * EwmaMs >
         static_cast<double>(Cfg.ShedTargetMs)) {
    std::optional<Request> Victim = Queue.shedNewest(Key);
    if (!Victim)
      break;
    Metrics.Shed.fetch_add(1, std::memory_order_relaxed);
    Metrics.Ops[static_cast<unsigned>(kindOf(Victim->Op))].Failures.fetch_add(
        1, std::memory_order_relaxed);
    Response Shed;
    Shed.Code = ErrCode::Shed;
    Shed.Error = "shed: queue sojourn exceeded the " +
                 std::to_string(Cfg.ShedTargetMs) + "ms target";
    Shed.RetryAfterMs = retryAfterHintMs(Key);
    fulfill(*Victim, std::move(Shed));
  }
}

void DiffService::workerLoop() {
  uint64_t Key = 0;
  while (std::optional<Request> R = Queue.pop(Key)) {
    // One request per document in flight: requests of a document execute
    // in arrival order, so a pipelined open/submit/get sequence cannot
    // overtake itself on another worker.
    struct ReleaseClaim {
      FairQueue<Request> &Q;
      uint64_t Key;
      ~ReleaseClaim() { Q.release(Key); }
    } Release{Queue, Key};
    auto Started = Clock::now();
    double WaitMs =
        std::chrono::duration<double, std::milli>(Started - R->Enqueued)
            .count();
    Metrics.QueueWait.record(WaitMs);

    OpKind Kind = kindOf(R->Op);
    ServiceMetrics::PerOp &Op = Metrics.Ops[static_cast<unsigned>(Kind)];
    Op.Requests.fetch_add(1, std::memory_order_relaxed);

    // CoDel-style overload control: this request is served either way
    // (its wait is sunk cost), but a sustained above-target sojourn says
    // the document's backlog outruns its service rate, so the newest
    // queued requests of the same document are shed now.
    maybeShed(Key, WaitMs, Started);

    // Admission control at dequeue: a request whose deadline already
    // passed while it sat in the queue gets a fast rejection with a
    // retry-after hint, not a slow answer nobody is waiting for.
    if (Started > R->Deadline) {
      Metrics.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      Op.Failures.fetch_add(1, std::memory_order_relaxed);
      Response Shed;
      Shed.Error = "deadline expired while queued";
      Shed.Code = ErrCode::DeadlineExpired;
      Shed.RetryAfterMs = retryAfterHintMs(Key);
      fulfill(*R, std::move(Shed));
      continue;
    }

    Response Resp;
    try {
      Resp = execute(R->Op, R->Deadline);
    } catch (const std::exception &E) {
      // A throwing operation must never break the caller's promise.
      Resp = Response();
      Resp.Error = std::string("internal error: ") + E.what();
    }

    double ExecMs =
        std::chrono::duration<double, std::milli>(Clock::now() - Started)
            .count();
    Op.Latency.record(ExecMs);
    noteServiceTime(Key, ExecMs, R->PayloadBytes);
    if (!Resp.Ok)
      Op.Failures.fetch_add(1, std::memory_order_relaxed);
    fulfill(*R, std::move(Resp));
  }
}

namespace {

Response fromStoreResult(StoreResult &&R) {
  Response Out;
  Out.Ok = R.Ok;
  Out.Code = R.Code;
  Out.Error = std::move(R.Error);
  Out.Version = R.Version;
  Out.EditCount = R.Script.size();
  Out.CoalescedSize = R.Script.coalescedSize();
  Out.TreeSize = R.TreeSize;
  return Out;
}

} // namespace

void DiffService::noteAdmission(const Response &R) {
  if (R.Ok)
    return;
  switch (R.Code) {
  case ErrCode::TreeTooDeep:
  case ErrCode::TreeTooLarge:
    Metrics.AdmissionRejected.fetch_add(1, std::memory_order_relaxed);
    break;
  case ErrCode::MemoryBudget:
    Metrics.BudgetRejected.fetch_add(1, std::memory_order_relaxed);
    break;
  default:
    break;
  }
}

Response DiffService::execute(Operation &Op, Clock::time_point Deadline) {
  return std::visit(
      [&](auto &Req) -> Response {
        using T = std::decay_t<decltype(Req)>;
        if constexpr (std::is_same_v<T, OpenOp>) {
          Response Out = fromStoreResult(
              Store.open(Req.Doc, Req.Build, std::move(Req.Author)));
          noteAdmission(Out);
          return Out;
        } else if constexpr (std::is_same_v<T, SubmitOp>) {
          SubmitOptions Opts;
          Opts.Author = std::move(Req.Author);
          Opts.ExpectedVersion = Req.ExpectedVersion;
          if (Cfg.DeadlineFallback && Deadline != Clock::time_point::max())
            Opts.UseFallback = [Deadline] {
              return Clock::now() > Deadline;
            };
          StoreResult R = Store.submit(Req.Doc, Req.Build, Opts);
          if (R.Ok && R.UsedFallback)
            Metrics.FallbackScripts.fetch_add(1, std::memory_order_relaxed);
          if (R.Ok) {
            Metrics.ScriptsEmitted.fetch_add(1, std::memory_order_relaxed);
            Metrics.EditsEmitted.fetch_add(R.Script.size(),
                                           std::memory_order_relaxed);
            Metrics.CoalescedEdits.fetch_add(R.Script.coalescedSize(),
                                             std::memory_order_relaxed);
            Metrics.NodesDiffed.fetch_add(R.NodesDiffed,
                                          std::memory_order_relaxed);
            Metrics.NodesRehashed.fetch_add(R.NodesRehashed,
                                            std::memory_order_relaxed);
          }
          // The binary front end re-encodes the script itself; rendering
          // the textual form too would double the serialization cost of
          // every replicated write.
          std::string Payload =
              R.Ok && !Req.RawScript
                  ? serializeEditScript(Store.signatures(), R.Script)
                  : "";
          bool Fallback = R.UsedFallback;
          // fromStoreResult reads Script.size() for the edit counters, so
          // the raw script may only be moved out afterwards.
          Response Out = fromStoreResult(std::move(R));
          Out.Payload = std::move(Payload);
          if (Out.Ok && Req.RawScript)
            Out.Script = std::move(R.Script);
          Out.Fallback = Fallback;
          noteAdmission(Out);
          return Out;
        } else if constexpr (std::is_same_v<T, RollbackOp>) {
          return fromStoreResult(Store.rollback(Req.Doc));
        } else if constexpr (std::is_same_v<T, GetVersionOp>) {
          DocumentSnapshot S = Store.snapshotText(Req.Doc);
          Response Out;
          Out.Ok = S.Ok;
          // snapshotText()'s only failure mode is an absent document.
          Out.Code = S.Ok ? ErrCode::None : ErrCode::NoSuchDocument;
          Out.Error = std::move(S.Error);
          Out.Version = S.Version;
          Out.TreeSize = S.TreeSize;
          Out.Payload = std::move(S.Text);
          if (S.Quarantined)
            Out.IntegrityWarning = std::move(S.QuarantineReason);
          return Out;
        } else if constexpr (std::is_same_v<T, BlameOp>) {
          if (!BlameFn) {
            Response Out;
            Out.Code = ErrCode::BuildFailed;
            Out.Error = "blame is not enabled on this server";
            return Out;
          }
          return BlameFn(Req.Doc, Req.HasUri, Req.Uri);
        } else if constexpr (std::is_same_v<T, HistoryOp>) {
          if (!HistoryFn) {
            Response Out;
            Out.Code = ErrCode::BuildFailed;
            Out.Error = "history is not enabled on this server";
            return Out;
          }
          return HistoryFn(Req.Doc, Req.Uri);
        } else {
          static_assert(std::is_same_v<T, StatsOp>);
          Response Out;
          Out.Ok = true;
          Out.Payload = statsJson();
          return Out;
        }
      },
      Op);
}

HealthStatus DiffService::health() const {
  return HealthSource ? HealthSource() : HealthStatus();
}

void DiffService::refreshHealth() const {
  if (!HealthSource)
    return;
  HealthStatus H = HealthSource();
  Metrics.BreakerTrips.store(H.BreakerTrips, std::memory_order_relaxed);
  Metrics.DegradedUs.store(H.DegradedUs, std::memory_order_relaxed);
}

std::string DiffService::healthJson() const {
  HealthStatus H = health();
  refreshHealth();
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"status\":\"%s\",\"degraded\":%s,\"breaker_trips\":%llu,"
                "\"degraded_seconds\":%.6f,\"queue_depth\":%zu,"
                "\"workers\":%u}",
                H.Degraded ? "degraded" : "ok", H.Degraded ? "true" : "false",
                static_cast<unsigned long long>(H.BreakerTrips),
                static_cast<double>(H.DegradedUs) / 1e6, Queue.depth(),
                NumWorkers);
  return Buf;
}

std::string DiffService::statsJson() const {
  refreshHealth();
  if (Cfg.MemBudget != nullptr) {
    Metrics.MemUsedBytes.store(Cfg.MemBudget->used(),
                               std::memory_order_relaxed);
    Metrics.MemBudgetBytes.store(Cfg.MemBudget->limit(),
                                 std::memory_order_relaxed);
  }
  std::string Json = Metrics.toJson(Queue.depth(), Queue.capacity(),
                                    NumWorkers, Queue.activeKeys());
  // Splice the store object into the metrics object.
  Json.pop_back(); // trailing '}'
  Json += "," + storeStatsJson(Store.stats()) + "}";
  if (StatsAugmenter) {
    std::string Extra = StatsAugmenter();
    if (!Extra.empty()) {
      Json.pop_back(); // trailing '}'
      Json += "," + Extra + "}";
    }
  }
  return Json;
}
