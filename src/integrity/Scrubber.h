//===- integrity/Scrubber.h - Background integrity scrubber -----*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end integrity service: a background scrubber that
/// continuously re-derives every integrity invariant the system relies
/// on, instead of trusting that state written correctly once stays
/// correct forever. One scrub cycle runs three passes:
///
///   1. Memory. Every live document's Step-1 digest cache is re-verified
///      against a from-scratch recomputation (DocumentStore::checkDigests,
///      the PR 2 debug facility promoted into a service). A mismatch
///      means the in-memory tree or its cached digests rotted; the
///      document is quarantined -- writes rejected with
///      ErrCode::Quarantined, reads answered with an explicit warning --
///      and a repair from durable state (newest snapshot + WAL replay)
///      is attempted. The blast radius is exactly one document.
///
///   2. Anti-entropy. For every healthy document the cycle computes the
///      cross-process convergence digest (replica::summaryDigest of the
///      URI-subscripted s-expression, the same probe Follower::read
///      exposes) and fans summaries, one per store shard, out to the
///      follower replicas through the replication channel. A follower
///      whose applied state disagrees requests a per-document resync --
///      repair from the healthy copy -- so silent replica divergence
///      that no version or gap check can see is bounded by one scrub
///      interval.
///
///   3. Disk, when a Persistence is given. Closed WAL segments are
///      re-read and CRC-walked; snapshot files are re-read and
///      CRC-checked. The active WAL segment is never touched (its tail
///      is legitimately in flux -- scrubbing it would manufacture false
///      positives). Corrupt files are repaired from the healthy
///      in-memory state: fresh snapshots of every live document make the
///      damaged records dead, compaction removes the dead segment, and a
///      corrupt snapshot file is deleted once a valid snapshot with Seq
///      >= its own covers the document. Known corruption is remembered
///      by path, so one bad file is counted once, not once per cycle.
///
/// Pacing: a token bucket (Config::RatePerSec) bounds how many
/// documents/files a cycle touches per second, so the scrubber's full
/// rehash never competes with serving traffic for more than its budget.
///
/// Race with live writers, by design: a document committed between the
/// cycle's AsOfSeq capture and its digest computation can yield a
/// summary entry ahead of the follower's applied state. The follower's
/// seq gates (skip summaries ahead of LastSeq, skip entries behind its
/// own DocSeq) close most of the window; what remains triggers a
/// spurious resync, which is wasteful but always safe -- anti-entropy
/// repair is idempotent. Detection is therefore conservative: a real
/// divergence is found within one cycle, a clean system is never
/// quarantined.
///
/// Threading: scrubCycle() is serialized by an internal mutex, so the
/// background thread and the admin `scrub` verb never interleave
/// passes. All store/persistence access goes through their own
/// thread-safe APIs.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_INTEGRITY_SCRUBBER_H
#define TRUEDIFF_INTEGRITY_SCRUBBER_H

#include "persist/Persistence.h"
#include "replica/Protocol.h"
#include "service/DocumentStore.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

namespace truediff {
namespace integrity {

class Scrubber {
public:
  struct Config {
    /// Background cycle period. 0 disables the background thread;
    /// scrubCycle() (the `scrub` verb) still works.
    unsigned IntervalMs = 0;
    /// Token-bucket rate cap on scrub work items (documents digested,
    /// files re-read) per second, with one second of burst. 0 =
    /// unlimited -- the cycle runs as fast as the store allows.
    double RatePerSec = 0;
    /// Read seam for disk verification; null = real I/O. Tests inject a
    /// FaultyIoEnv with ReadFlipPermille to exercise silent read-path
    /// corruption.
    persist::IoEnv *Env = nullptr;
    /// Fans one shard summary out to the replicas (wire to
    /// Leader::broadcastSummary). Null = anti-entropy disabled.
    std::function<void(const replica::ShardSummaryMsg &)> Broadcast;
    /// Replication-log sequence source for the summaries' AsOfSeq
    /// (wire to ReplicationLog::currentSeq). Required when Broadcast is
    /// set.
    std::function<uint64_t()> CurrentSeq;
    /// Source of the leader's served-resync counter, so the stats can
    /// report how many resyncs anti-entropy (and gap detection)
    /// triggered since the scrubber started. Null = reported as 0.
    std::function<uint64_t()> ResyncsServed;
  };

  /// Cumulative counters across all cycles.
  struct Stats {
    uint64_t Cycles = 0;
    /// Documents whose digest cache was re-verified.
    uint64_t ScrubbedDocs = 0;
    /// In-memory digest mismatches found (each quarantined the doc).
    uint64_t DigestMismatches = 0;
    /// Closed WAL segments newly found corrupt (header or CRC walk).
    uint64_t WalCrcErrors = 0;
    /// Snapshot files newly found corrupt.
    uint64_t SnapshotErrors = 0;
    /// Quarantines imposed by this scrubber.
    uint64_t Quarantined = 0;
    /// Successful repairs: in-memory restores plus disk files healed
    /// (deleted dead or rewritten valid).
    uint64_t Repaired = 0;
    /// Repair attempts that failed (the document stays quarantined or
    /// the file stays corrupt; retried next cycle).
    uint64_t RepairsFailed = 0;
    /// Anti-entropy shard summaries handed to Broadcast.
    uint64_t SummariesSent = 0;
    /// Resyncs the leader served since this scrubber started (sampled
    /// from Config::ResyncsServed).
    uint64_t ResyncsTriggered = 0;
  };

  /// What one cycle found and did (deltas, not totals).
  struct CycleReport {
    uint64_t DocsScrubbed = 0;
    uint64_t DigestMismatches = 0;
    uint64_t WalCrcErrors = 0;
    uint64_t SnapshotErrors = 0;
    uint64_t NewlyQuarantined = 0;
    uint64_t Repaired = 0;
    uint64_t SummariesSent = 0;
  };

  /// Anti-entropy summaries group documents by Doc % the store's
  /// NumShards. \p Persist may be null (no disk pass, no disk repair
  /// source -- quarantined documents then stay quarantined until a
  /// replica copy or manual intervention repairs them).
  Scrubber(service::DocumentStore &Store, Config C,
           persist::Persistence *Persist = nullptr);
  ~Scrubber();

  Scrubber(const Scrubber &) = delete;
  Scrubber &operator=(const Scrubber &) = delete;

  /// Starts the background thread (no-op when Config::IntervalMs == 0).
  void start();
  /// Stops the background thread; joins. Idempotent.
  void stop();

  /// Runs one full scrub cycle synchronously (the `scrub` verb).
  /// Serialized against the background thread.
  CycleReport scrubCycle();

  Stats stats() const;

  /// The "integrity" stats fragment: `"integrity":{...}` (no braces
  /// around the pair), for splicing into the service stats JSON.
  std::string statsJsonFragment() const;

private:
  using Clock = std::chrono::steady_clock;

  /// Memory + anti-entropy pass. Appends summary entries per shard and
  /// broadcasts them.
  void scrubDocuments(CycleReport &R);
  /// Disk pass: closed WAL segments + snapshot files.
  void scrubDisk(CycleReport &R);
  /// Re-snapshots every live document, compacts, deletes superseded
  /// corrupt snapshot files, then re-checks the known-bad set.
  void repairDisk(CycleReport &R);
  /// Repairs one quarantined document from durable state. Returns true
  /// on success (quarantine lifted).
  bool tryRepairFromDisk(service::DocId Doc);
  /// Takes one token from the rate bucket, sleeping (interruptibly) if
  /// the bucket is dry.
  void pace();

  service::DocumentStore &Store;
  persist::Persistence *Persist;
  const Config Cfg;
  /// ResyncsServed() at construction; stats report the delta.
  uint64_t ResyncBaseline = 0;

  /// Serializes cycles (background thread vs. the admin verb). The
  /// token bucket and known-bad sets are only touched under it.
  std::mutex CycleMu;
  double Tokens = 0;
  Clock::time_point LastRefill;
  /// Paths already counted corrupt; dropped when the file heals or
  /// disappears (counted as repaired) so persistent damage is counted
  /// once, not every cycle.
  std::set<std::string> KnownBadWal;
  std::set<std::string> KnownBadSnaps;

  mutable std::mutex StatsMu;
  Stats Counters;

  std::thread Background;
  std::mutex BgMu;
  std::condition_variable BgCv;
  bool StopBg = false;
  bool Started = false;
};

} // namespace integrity
} // namespace truediff

#endif // TRUEDIFF_INTEGRITY_SCRUBBER_H
