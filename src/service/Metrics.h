//===- service/Metrics.h - Counters and latency histograms ------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability for the concurrent diff service: lock-free counters and
/// log-linear latency histograms (p50/p95/p99 per operation), dumpable
/// as JSON. All members are atomics, so worker threads record without
/// coordination and a reader thread can summarize at any time; summaries
/// are monotone snapshots, not linearizable cuts, which is the standard
/// contract for service metrics.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SERVICE_METRICS_H
#define TRUEDIFF_SERVICE_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace truediff {
namespace service {

/// The typed operations the service processes.
enum class OpKind : unsigned {
  Open,
  Submit,
  Rollback,
  GetVersion,
  Stats,
  Blame,
  History,
};

inline constexpr unsigned NumOpKinds = 7;

/// Returns "open", "submit", ...
const char *opKindName(OpKind Kind);

/// A fixed-size log-linear histogram over whole microseconds: below 8 us
/// one bucket per microsecond, then 8 buckets per power of two, so every
/// bucket above 8 us spans 1/8 of its lower bound. A percentile reports
/// its bucket's upper bound, capped at the largest latency recorded, so
/// it is at most 12.5% above the true value. 304 buckets reach 2^40 us
/// (~12 days), far beyond any request we serve.
class LatencyHistogram {
public:
  /// Buckets per power of two, and the exact buckets below the first.
  static constexpr size_t SubBuckets = 8;
  static constexpr size_t NumBuckets = SubBuckets + (40 - 3) * SubBuckets;

  void record(double Ms);

  struct Summary {
    uint64_t Count = 0;
    double MeanMs = 0;
    double P50Ms = 0;
    double P95Ms = 0;
    double P99Ms = 0;
    double MaxMs = 0;
  };

  Summary summarize() const;

  /// {"count":..,"mean_ms":..,"p50_ms":..,"p95_ms":..,"p99_ms":..,
  ///  "max_ms":..}
  std::string toJson() const;

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumUs{0};
  std::atomic<uint64_t> MaxUs{0};
};

/// All service counters. Owned by DiffService; exposed const to callers.
struct ServiceMetrics {
  struct PerOp {
    std::atomic<uint64_t> Requests{0};
    std::atomic<uint64_t> Failures{0};
    LatencyHistogram Latency;
  };

  /// Indexed by OpKind.
  std::array<PerOp, NumOpKinds> Ops;

  /// Time requests spend queued before a worker picks them up.
  LatencyHistogram QueueWait;

  /// Requests rejected because the queue was full (backpressure) or the
  /// service was shut down.
  std::atomic<uint64_t> Rejected{0};

  /// Successful submits, i.e. edit scripts produced and emitted.
  std::atomic<uint64_t> ScriptsEmitted{0};
  /// Total raw edit operations across emitted scripts.
  std::atomic<uint64_t> EditsEmitted{0};
  /// Total coalesced edits (the paper's conciseness metric).
  std::atomic<uint64_t> CoalescedEdits{0};
  /// Total source+target nodes processed by submits (throughput basis).
  std::atomic<uint64_t> NodesDiffed{0};
  /// Total stored-tree nodes rehashed serving submits: dirty paths only
  /// when the store persists digests (warm), full trees when it does not
  /// (cold). NodesDiffed - NodesRehashed approximates the hashing the
  /// digest cache avoided.
  std::atomic<uint64_t> NodesRehashed{0};

  /// Requests shed because their deadline had already expired when a
  /// worker dequeued them (the response carries a retry-after hint).
  std::atomic<uint64_t> DeadlineExpired{0};
  /// Requests shed by the sojourn-time overload control: their document's
  /// queue wait stayed above the shed target, so the newest queued
  /// requests were answered with a per-document retry-after hint instead
  /// of being served.
  std::atomic<uint64_t> Shed{0};
  /// Subset of Shed rejected at enqueue: the document's estimated backlog
  /// (queue depth x observed service time) already exceeded the shed
  /// target when the request arrived, so it never occupied a queue slot.
  std::atomic<uint64_t> ArrivalShed{0};
  /// Requests rejected by parse-time admission caps (tree depth or node
  /// count).
  std::atomic<uint64_t> AdmissionRejected{0};
  /// Requests rejected because the process-wide memory budget was
  /// exhausted (up front at enqueue, or mid-parse).
  std::atomic<uint64_t> BudgetRejected{0};
  /// Submits answered with the type-checked replace-root fallback script
  /// because the diff would have blown the request's deadline.
  std::atomic<uint64_t> FallbackScripts{0};

  /// Persistence circuit-breaker gauges, mirrored from the health source
  /// (see DiffService::setHealthSource) just before each JSON dump --
  /// mutable because mirroring happens under const statsJson(). Zero when
  /// the service runs without persistence.
  mutable std::atomic<uint64_t> BreakerTrips{0};
  /// Cumulative microseconds the persistence layer spent degraded.
  mutable std::atomic<uint64_t> DegradedUs{0};

  /// Memory-budget gauges, mirrored from the budget just before each JSON
  /// dump (mutable for the same reason as the breaker gauges). Zero when
  /// the service runs without a budget.
  mutable std::atomic<uint64_t> MemUsedBytes{0};
  mutable std::atomic<uint64_t> MemBudgetBytes{0};

  /// Dumps everything as one JSON object. Queue depth/capacity and the
  /// number of per-document sub-queues are live gauges owned by the
  /// service, so the caller passes them in.
  std::string toJson(size_t QueueDepth, size_t QueueCapacity,
                     unsigned Workers, size_t DocQueues = 0) const;
};

} // namespace service
} // namespace truediff

#endif // TRUEDIFF_SERVICE_METRICS_H
