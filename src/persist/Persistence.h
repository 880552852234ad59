//===- persist/Persistence.h - Durability for the document store -*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence subsystem's front door: wires a DocumentStore to a
/// write-ahead log (persist/Wal) and per-document snapshots
/// (persist/Snapshot) so the store's state survives restarts and
/// crashes.
///
/// Logging. Attached as a script listener, Persistence assigns every
/// committed operation (open, submit, rollback, erase) a globally
/// monotone sequence number and appends one binary WAL record for it.
/// Listeners run under the store's listener mutex, so sequence order
/// equals log order; per-document order additionally matches commit
/// order because script listeners run under the document lock.
///
/// Snapshots. After Config::SnapshotEvery logged operations on a
/// document, a background pass (or an explicit snapshotDocument call,
/// the SAVE verb) captures the document's full tree -- URIs preserved,
/// so logged scripts stay meaningful against it -- and its rollback
/// history ring, stamped with the document's last logged sequence
/// number. erase() writes a *tombstone* snapshot so compaction can drop
/// the erase record without old records resurrecting the document.
///
/// Recovery. recover() loads the newest valid snapshot of each document,
/// replays the WAL suffix (records with Seq greater than the snapshot's)
/// onto the typed tree decoded from the snapshot -- every script is
/// type-checked and compliance-checked by applyChecked -- and installs
/// the results via DocumentStore::restore with a URI-preserving copy. Torn log tails are
/// CRC-detected and discarded; a record is either fully applied or not
/// at all, so the recovered store always equals a committed prefix of
/// the accepted operations. Orphan records (an erase can overtake an
/// in-flight operation's log record) are skipped and counted.
///
/// Compaction. A WAL segment is dead once every record in it is covered
/// by some durable snapshot (Seq <= the document's snapshot Seq);
/// compact() deletes dead closed segments and superseded snapshot
/// files. The active segment is never touched. Tombstones are kept
/// conservatively: they are cheap, and proving them dead would require
/// knowing the minimum sequence number still present in the log.
///
/// Circuit breaker. All write-side I/O feeds one breaker: WAL appends,
/// fsyncs, and snapshot/tombstone writes share a consecutive-failure
/// count (one disk, one disease), and after Config::BreakerThreshold
/// consecutive failures the breaker trips
/// *open* and the service runs degraded -- commits are acknowledged
/// in-memory only, counted as unlogged, and their documents are marked
/// for resync. While open, a half-open probe (opening a fresh WAL
/// segment) runs on an exponential-backoff-plus-jitter schedule; the
/// first successful probe closes the breaker, after which the
/// background pass writes a fresh snapshot for every marked document,
/// repairing log coverage (a snapshot at the document's current
/// sequence number makes the unlogged gap invisible to replay). A
/// document with an unlogged operation is never logged past the gap:
/// a later record would replay against the wrong base, so its ops stay
/// unlogged until the resync snapshot lands. The durability listener
/// reports, per operation, whether it was logged and whether an fsync
/// covered it -- nothing is ever claimed durable that is not.
///
/// Durability contract. With Config::FsyncEvery = 1 every acknowledged
/// commit survives power loss. With N > 1 (group commit) an fsync
/// happens every N records and on flush/rotation/close, so power loss
/// can drop at most the last N-1 acknowledged commits -- but a plain
/// process crash (kill -9) loses nothing, because completed write(2)
/// calls survive the process in page cache. The background pass also
/// flushes every Config::BackgroundIntervalMs, bounding the loss window
/// in time as well as in records.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_PERSIST_PERSISTENCE_H
#define TRUEDIFF_PERSIST_PERSISTENCE_H

#include "persist/IoEnv.h"
#include "persist/Wal.h"
#include "service/DocumentStore.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace truediff {

namespace blame {
class ProvenanceIndex;
} // namespace blame

namespace persist {

/// What recovery found and rebuilt; all counters are totals across the
/// data directory.
struct RecoveryResult {
  /// Documents installed into the store.
  uint64_t DocsRecovered = 0;
  /// Documents whose replay failed mid-apply and were excluded rather
  /// than restored torn. Always 0 unless the log was corrupted in a way
  /// CRC framing cannot see.
  uint64_t DocsDropped = 0;
  /// Valid snapshots loaded (tombstones included).
  uint64_t SnapshotsLoaded = 0;
  /// Snapshot files that failed CRC/decoding and were ignored.
  uint64_t SnapshotsCorrupt = 0;
  /// WAL records applied during replay.
  uint64_t RecordsReplayed = 0;
  /// WAL records already covered by a snapshot (Seq <= snapshot Seq).
  uint64_t RecordsSkipped = 0;
  /// Records for documents that no longer exist at that point in the
  /// log -- the erase-overtakes-in-flight-operation race.
  uint64_t OrphanRecords = 0;
  /// CRC-valid records whose script failed decoding or type checking;
  /// the document is frozen at its last good state.
  uint64_t InvalidRecords = 0;
  /// Bytes discarded at segment tails (torn writes).
  uint64_t TornBytes = 0;
  /// Highest sequence number seen in any record or snapshot; the live
  /// writer continues from here.
  uint64_t MaxSeq = 0;
  /// Total nodes of all restored trees.
  uint64_t NodesRestored = 0;
  /// Total edits of all replayed scripts.
  uint64_t EditsReplayed = 0;

  /// Per-document outcome, for seeding the live layer and for tests.
  struct RecoveredDoc {
    uint64_t Doc = 0;
    uint64_t LastSeq = 0;
    uint64_t SnapSeq = 0;
    uint64_t Version = 0;
  };
  std::vector<RecoveredDoc> Docs;
};

/// Durable persistence for one DocumentStore. Construct (opens the WAL),
/// then either recoverAndAttach() on a data directory that may hold
/// prior state, or attach() on a store that is already authoritative.
class Persistence {
public:
  struct Config {
    /// Data directory; created if missing. Holds wal-<n>.log segments
    /// and snap-<doc>-<seq>.snap snapshots.
    std::string Dir;
    /// Group-commit batch: fsync once per this many records (1 = every
    /// record durable before its commit is acknowledged).
    size_t FsyncEvery = 8;
    /// WAL segment rotation threshold.
    size_t SegmentBytes = 4u << 20;
    /// Snapshot a document after this many logged operations on it.
    /// 0 disables automatic snapshots (SAVE still works).
    size_t SnapshotEvery = 64;
    /// Run compaction after the background pass wrote snapshots.
    bool CompactAfterSnapshot = true;
    /// Background pass period (snapshots due documents, flushes the
    /// WAL, probes/resyncs the breaker, compacts). 0 disables the
    /// background thread.
    unsigned BackgroundIntervalMs = 200;
    /// I/O seam for every write-side syscall (WAL, snapshots, deletes).
    /// Null means real I/O; tests inject a FaultyIoEnv. Must outlive
    /// this object.
    IoEnv *Env = nullptr;
    /// Consecutive WAL I/O failures before the breaker trips open
    /// (degraded, in-memory-only mode). 0 disables tripping; failures
    /// are still absorbed per operation.
    size_t BreakerThreshold = 3;
    /// Initial half-open probe backoff after a trip; doubled per failed
    /// probe up to BreakerBackoffMaxMs, plus up to 50% deterministic
    /// jitter so a fleet of recovering services does not thundering-herd
    /// a shared disk.
    unsigned BreakerBackoffMs = 100;
    unsigned BreakerBackoffMaxMs = 5000;
  };

  /// Live gauges, WAL counters included.
  struct Stats {
    WalWriter::Stats Wal;
    uint64_t CurrentSegment = 0;
    uint64_t SnapshotsWritten = 0;
    uint64_t TombstonesWritten = 0;
    uint64_t SnapshotsDeleted = 0;
    uint64_t SnapshotFailures = 0;
    uint64_t SegmentsDeleted = 0;
    uint64_t CompactionRuns = 0;
    /// \name Breaker
    /// @{
    /// WAL appends/fsyncs/reopens that failed.
    uint64_t WalAppendFailures = 0;
    /// Times the breaker tripped open.
    uint64_t BreakerTrips = 0;
    /// Half-open probes that failed (breaker stayed open).
    uint64_t ProbeFailures = 0;
    /// Operations acknowledged in-memory only (no WAL record).
    uint64_t UnloggedOps = 0;
    /// Fresh snapshots written to repair unlogged gaps.
    uint64_t ResyncSnapshots = 0;
    /// Erase tombstones still awaiting a successful write (gauge).
    uint64_t PendingTombstones = 0;
    /// Documents currently marked for resync (gauge).
    uint64_t DocsNeedingResync = 0;
    /// True while the breaker is open (gauge).
    bool Degraded = false;
    /// Cumulative microseconds spent degraded, current period included.
    uint64_t DegradedUs = 0;
    /// @}
  };

  /// The health summary behind the wire protocol's `health` verb.
  struct HealthInfo {
    bool Degraded = false;
    uint64_t BreakerTrips = 0;
    uint64_t DegradedUs = 0;
    uint64_t UnloggedOps = 0;
    uint64_t DocsNeedingResync = 0;
    uint64_t ConsecutiveFailures = 0;
  };

  /// Observes the durability outcome of every committed operation.
  /// \p Logged: the record reached the WAL. \p Durable: an fsync
  /// covering it returned before this call (FsyncEvery batch boundary;
  /// for an erase, a durable tombstone also counts). Logged-but-not-
  /// durable operations become durable at the next successful flush().
  /// Unlogged operations (breaker open, or a log-chain gap on the
  /// document) are in-memory only until a resync snapshot covers them.
  /// Called under the store's listener ordering, so per-document calls
  /// are in commit order. Set before traffic.
  using DurabilityListener = std::function<void(service::DocId Doc,
                                                uint64_t Seq, bool Logged,
                                                bool Durable)>;

  /// Opens (creating if needed) the data directory and a fresh WAL
  /// segment. Throws std::runtime_error on I/O failure.
  Persistence(const SignatureTable &Sig, Config C);

  /// Stops the background thread and fsyncs any unsynced WAL tail.
  ~Persistence();

  Persistence(const Persistence &) = delete;
  Persistence &operator=(const Persistence &) = delete;

  /// Rebuilds \p Store from \p Dir: newest valid snapshot per document
  /// plus WAL replay with type checking. \p Store must be empty of the
  /// recovered ids and must not be serving traffic. Standalone -- usable
  /// without a Persistence instance (e.g. offline inspection).
  ///
  /// When \p Prov is non-null it is rebuilt alongside the trees: the
  /// snapshot's provenance blob seeds each document's index and the
  /// replayed WAL suffix is folded on top -- the same incremental step
  /// the live listener runs, so the recovered index equals the one a
  /// never-crashed process would hold. \p Prov is cleared first.
  static RecoveryResult recover(const SignatureTable &Sig,
                                const std::string &Dir,
                                service::DocumentStore &Store,
                                blame::ProvenanceIndex *Prov = nullptr);

  /// recover() into \p Store from this instance's directory, seed the
  /// sequence counter past everything recovered, then attach().
  RecoveryResult recoverAndAttach(service::DocumentStore &Store,
                                  blame::ProvenanceIndex *Prov = nullptr);

  /// Registers the script and erase listeners on \p Store and starts the
  /// background thread. Call before serving traffic; once attached, the
  /// store must not outlive this object's traffic (listeners hold
  /// `this`).
  void attach(service::DocumentStore &Store);

  /// Snapshots one document now (the SAVE verb). Returns false if the
  /// document does not exist or the snapshot could not be written. On
  /// success \p CapturedSeq (when non-null) receives the sequence number
  /// the written snapshot covers -- callers deciding whether the
  /// snapshot repaired a log-chain gap must compare it against the
  /// document's current sequence, because an erase + re-open can slide a
  /// new incarnation under a snapshot captured from the old one.
  bool snapshotDocument(service::DocId Doc, uint64_t *CapturedSeq = nullptr);

  /// Snapshots every document that crossed Config::SnapshotEvery;
  /// returns how many snapshots were written.
  size_t snapshotDueDocuments();

  /// Deletes dead closed WAL segments and superseded snapshot files.
  void compact();

  /// Fsyncs the WAL tail -- the graceful-drain barrier. Returns false
  /// if the fsync failed (the tail's durability is unknown; the failure
  /// feeds the breaker).
  bool flush();

  /// Runs the half-open probe if the breaker is open and its backoff
  /// has elapsed: opens a fresh WAL segment, closing the breaker on
  /// success. Returns true iff the breaker is closed after the call.
  /// The background pass calls this; exposed for tests and drains.
  bool probe();

  /// Writes a fresh snapshot for every document marked by an unlogged
  /// operation, clearing the mark when no further unlogged operation
  /// raced the snapshot. Returns how many documents were repaired. The
  /// background pass calls this once the breaker closes.
  size_t resyncDegraded();

  /// True while the breaker is open (commits are in-memory only).
  bool degraded() const;

  HealthInfo healthInfo() const;

  void setDurabilityListener(DurabilityListener L) {
    DurListener = std::move(L);
  }

  /// Source of a document's canonical provenance blob (the blame
  /// index's snapshotDoc), captured inside snapshotDocument()'s
  /// document-lock section so tree and provenance are one consistent
  /// cut. Set before traffic; absent means snapshots carry an empty
  /// provenance blob.
  void setProvenanceSource(std::function<std::string(service::DocId)> Fn) {
    ProvSource = std::move(Fn);
  }

  Stats stats() const;

  /// The Stats as a JSON object (no trailing newline), for splicing into
  /// service stats output.
  std::string statsJson() const;

  /// Result of the recoverAndAttach() run, if any.
  const RecoveryResult &lastRecovery() const { return LastRecovery; }

  const Config &config() const { return Cfg; }

private:
  using Clock = std::chrono::steady_clock;

  /// Per-document live bookkeeping. Guarded by StateMu.
  struct DocState {
    uint64_t LastSeq = 0;
    uint64_t SnapSeq = 0;
    uint64_t OpsSinceSnap = 0;
    /// Operations acknowledged without a WAL record since the last
    /// covering snapshot; nonzero iff NeedsResync.
    uint64_t UnloggedOps = 0;
    /// The log has a gap for this document: do not log further records
    /// (they would replay against the wrong base) until a fresh
    /// snapshot covers the current state.
    bool NeedsResync = false;
  };

  /// Breaker state. Guarded by StateMu.
  struct BreakerState {
    bool Open = false;
    /// At most one probe at a time; guards the half-open window.
    bool ProbeInFlight = false;
    size_t ConsecutiveFailures = 0;
    unsigned BackoffMs = 0;
    Clock::time_point OpenedAt;
    Clock::time_point NextProbeAt;
  };

  void onScript(service::DocId Doc, uint64_t Version,
                service::DocumentStore::StoreOp Op, const EditScript &Script,
                const service::DocumentStore::ScriptInfo &Info);
  void onErase(service::DocId Doc);
  void backgroundLoop();

  /// Appends \p Rec through the breaker. Returns true if the record
  /// reached the WAL; \p Durable reports whether an fsync covered it.
  /// Never throws: failures feed the breaker instead.
  bool logRecord(const WalRecord &Rec, bool &Durable);

  /// Retries tombstones whose write failed during onErase.
  void writePendingTombstones();

  void noteIoSuccessLocked();
  void noteIoFailureLocked();
  /// Snapshot/tombstone write outcomes feed the same breaker as WAL
  /// appends (one disk, one disease), with two asymmetries: a snapshot
  /// success never closes an open breaker (only a successful WAL probe
  /// proves the log is writable again), and a snapshot failure while the
  /// breaker is open does not touch the probe schedule (background
  /// snapshot retries fail continuously while degraded; feeding them
  /// into the backoff would push the probe out forever).
  void noteSnapshotIoLocked(bool Ok);
  /// Opens the breaker: stamps the trip, resets backoff, schedules the
  /// first half-open probe.
  void tripLocked();
  void scheduleProbeLocked();

  const SignatureTable &Sig;
  const Config Cfg;
  IoEnv &Io;
  WalWriter Wal;
  service::DocumentStore *Store = nullptr;
  RecoveryResult LastRecovery;
  DurabilityListener DurListener;
  std::function<std::string(service::DocId)> ProvSource;

  mutable std::mutex StateMu;
  uint64_t NextSeq = 0;
  std::unordered_map<uint64_t, DocState> DocStates;
  Stats Counters; // non-WAL fields only; WAL fields live in the writer
  BreakerState Brk;
  /// Microseconds of *closed* degraded periods; the current open period
  /// is added on read.
  uint64_t DegradedUsTotal = 0;
  Rng JitterRng{0x62726b6aull};
  /// Erase tombstones to retry: doc -> erase sequence number.
  std::unordered_map<uint64_t, uint64_t> PendingTombs;

  std::thread Background;
  std::mutex BgMu;
  std::condition_variable BgCv;
  bool StopBg = false;
};

} // namespace persist
} // namespace truediff

#endif // TRUEDIFF_PERSIST_PERSISTENCE_H
