//===- service/Metrics.cpp - Counters and latency histograms ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

using namespace truediff;
using namespace truediff::service;

const char *service::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Open:
    return "open";
  case OpKind::Submit:
    return "submit";
  case OpKind::Rollback:
    return "rollback";
  case OpKind::GetVersion:
    return "get_version";
  case OpKind::Stats:
    return "stats";
  case OpKind::Blame:
    return "blame";
  case OpKind::History:
    return "history";
  }
  return "?";
}

namespace {

/// The bucket of \p Us: itself below SubBuckets, else its power of two's
/// row plus its next three bits.
size_t bucketOf(uint64_t Us) {
  constexpr size_t Sub = LatencyHistogram::SubBuckets;
  if (Us < Sub)
    return static_cast<size_t>(Us);
  unsigned Exp = static_cast<unsigned>(std::bit_width(Us)) - 1; // >= 3
  size_t Bucket = Sub + (Exp - 3) * Sub + ((Us >> (Exp - 3)) & (Sub - 1));
  return std::min(Bucket, LatencyHistogram::NumBuckets - 1);
}

/// The exclusive upper bound of \p Bucket, in us.
uint64_t bucketEnd(size_t Bucket) {
  constexpr size_t Sub = LatencyHistogram::SubBuckets;
  if (Bucket < Sub)
    return Bucket + 1;
  size_t Row = (Bucket - Sub) / Sub, Col = (Bucket - Sub) % Sub;
  return uint64_t(Sub + Col + 1) << Row;
}

} // namespace

void LatencyHistogram::record(double Ms) {
  uint64_t Us = Ms <= 0 ? 0 : static_cast<uint64_t>(Ms * 1000.0);
  Buckets[bucketOf(Us)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  SumUs.fetch_add(Us, std::memory_order_relaxed);
  uint64_t Prev = MaxUs.load(std::memory_order_relaxed);
  while (Us > Prev &&
         !MaxUs.compare_exchange_weak(Prev, Us, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Summary LatencyHistogram::summarize() const {
  Summary S;
  std::array<uint64_t, NumBuckets> Snap;
  for (size_t I = 0; I != NumBuckets; ++I)
    Snap[I] = Buckets[I].load(std::memory_order_relaxed);
  uint64_t Total = 0;
  for (uint64_t C : Snap)
    Total += C;
  S.Count = Total;
  if (Total == 0)
    return S;
  S.MeanMs = static_cast<double>(SumUs.load(std::memory_order_relaxed)) /
             static_cast<double>(Total) / 1000.0;
  S.MaxMs = static_cast<double>(MaxUs.load(std::memory_order_relaxed)) / 1000.0;

  // A percentile reports the upper bound of the bucket containing it, in
  // ms, but never more than the largest latency recorded.
  auto Percentile = [&](double P) {
    uint64_t Rank = static_cast<uint64_t>(std::ceil(P * Total));
    if (Rank == 0)
      Rank = 1;
    uint64_t Seen = 0;
    for (size_t I = 0; I != NumBuckets; ++I) {
      Seen += Snap[I];
      if (Seen >= Rank)
        return std::min(static_cast<double>(bucketEnd(I)) / 1000.0, S.MaxMs);
    }
    return S.MaxMs;
  };
  S.P50Ms = Percentile(0.50);
  S.P95Ms = Percentile(0.95);
  S.P99Ms = Percentile(0.99);
  return S;
}

std::string LatencyHistogram::toJson() const {
  Summary S = summarize();
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"count\":%llu,\"mean_ms\":%.4f,\"p50_ms\":%.4f,"
                "\"p95_ms\":%.4f,\"p99_ms\":%.4f,\"max_ms\":%.4f}",
                static_cast<unsigned long long>(S.Count), S.MeanMs, S.P50Ms,
                S.P95Ms, S.P99Ms, S.MaxMs);
  return Buf;
}

std::string ServiceMetrics::toJson(size_t QueueDepth, size_t QueueCapacity,
                                   unsigned Workers, size_t DocQueues) const {
  std::string Out = "{";
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf),
                "\"workers\":%u,\"queue\":{\"depth\":%zu,\"capacity\":%zu,"
                "\"doc_queues\":%zu},",
                Workers, QueueDepth, QueueCapacity, DocQueues);
  Out += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "\"rejected\":%llu,\"scripts_emitted\":%llu,\"edits_emitted\":%llu,"
      "\"coalesced_edits\":%llu,\"nodes_diffed\":%llu,"
      "\"nodes_rehashed\":%llu,",
      static_cast<unsigned long long>(Rejected.load()),
      static_cast<unsigned long long>(ScriptsEmitted.load()),
      static_cast<unsigned long long>(EditsEmitted.load()),
      static_cast<unsigned long long>(CoalescedEdits.load()),
      static_cast<unsigned long long>(NodesDiffed.load()),
      static_cast<unsigned long long>(NodesRehashed.load()));
  Out += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "\"deadline_expired\":%llu,\"fallback_scripts\":%llu,"
      "\"shed\":%llu,\"shed_at_arrival\":%llu,"
      "\"admission_rejected\":%llu,\"budget_rejected\":%llu,"
      "\"mem_used_bytes\":%llu,\"mem_budget_bytes\":%llu,"
      "\"breaker_trips\":%llu,\"degraded_seconds\":%.6f,",
      static_cast<unsigned long long>(DeadlineExpired.load()),
      static_cast<unsigned long long>(FallbackScripts.load()),
      static_cast<unsigned long long>(Shed.load()),
      static_cast<unsigned long long>(ArrivalShed.load()),
      static_cast<unsigned long long>(AdmissionRejected.load()),
      static_cast<unsigned long long>(BudgetRejected.load()),
      static_cast<unsigned long long>(MemUsedBytes.load()),
      static_cast<unsigned long long>(MemBudgetBytes.load()),
      static_cast<unsigned long long>(BreakerTrips.load()),
      static_cast<double>(DegradedUs.load()) / 1e6);
  Out += Buf;
  Out += "\"queue_wait\":" + QueueWait.toJson() + ",\"ops\":{";
  for (unsigned I = 0; I != NumOpKinds; ++I) {
    if (I != 0)
      Out += ",";
    const PerOp &Op = Ops[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\"%s\":{\"requests\":%llu,\"failures\":%llu,\"latency\":",
                  opKindName(static_cast<OpKind>(I)),
                  static_cast<unsigned long long>(Op.Requests.load()),
                  static_cast<unsigned long long>(Op.Failures.load()));
    Out += Buf;
    Out += Op.Latency.toJson();
    Out += "}";
  }
  Out += "}}";
  return Out;
}
