//===- persist/Persistence.cpp - Durability for the document store ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Persistence.h"

#include "blame/Provenance.h"
#include "persist/BinaryCodec.h"
#include "persist/Snapshot.h"
#include "truechange/Apply.h"
#include "truechange/Inverse.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include <unistd.h>

using namespace truediff;
using namespace truediff::persist;
using service::DocId;
using service::DocumentStore;

namespace {

WalKind kindFor(DocumentStore::StoreOp Op) {
  switch (Op) {
  case DocumentStore::StoreOp::Open:
    return WalKind::Open;
  case DocumentStore::StoreOp::Submit:
    return WalKind::Submit;
  case DocumentStore::StoreOp::Rollback:
    return WalKind::Rollback;
  }
  return WalKind::Submit;
}

} // namespace

Persistence::Persistence(const SignatureTable &Sig, Config C)
    : Sig(Sig), Cfg(C), Io(C.Env != nullptr ? *C.Env : realIoEnv()),
      Wal(C.Dir, WalWriter::Config{C.FsyncEvery, C.SegmentBytes}, C.Env) {
  Brk.BackoffMs = std::max(1u, Cfg.BreakerBackoffMs);
}

Persistence::~Persistence() {
  {
    std::lock_guard<std::mutex> Lock(BgMu);
    StopBg = true;
  }
  BgCv.notify_all();
  if (Background.joinable())
    Background.join();
  // The WalWriter destructor fsyncs the tail.
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

void Persistence::scheduleProbeLocked() {
  unsigned Jitter =
      static_cast<unsigned>(JitterRng.below(Brk.BackoffMs / 2 + 1));
  Brk.NextProbeAt = Clock::now() + std::chrono::milliseconds(
                                       static_cast<uint64_t>(Brk.BackoffMs) +
                                       Jitter);
}

void Persistence::noteIoSuccessLocked() {
  Brk.ConsecutiveFailures = 0;
  if (Brk.Open) {
    Brk.Open = false;
    DegradedUsTotal += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              Brk.OpenedAt)
            .count());
    Brk.BackoffMs = std::max(1u, Cfg.BreakerBackoffMs);
  }
}

void Persistence::noteIoFailureLocked() {
  ++Counters.WalAppendFailures;
  if (Brk.Open) {
    // A failed half-open probe: stay open, back off further.
    ++Counters.ProbeFailures;
    Brk.BackoffMs = static_cast<unsigned>(
        std::min<uint64_t>(static_cast<uint64_t>(Brk.BackoffMs) * 2,
                           std::max(1u, Cfg.BreakerBackoffMaxMs)));
    scheduleProbeLocked();
    return;
  }
  ++Brk.ConsecutiveFailures;
  if (Cfg.BreakerThreshold != 0 &&
      Brk.ConsecutiveFailures >= Cfg.BreakerThreshold)
    tripLocked();
}

void Persistence::tripLocked() {
  Brk.Open = true;
  Brk.OpenedAt = Clock::now();
  Brk.BackoffMs = std::max(1u, Cfg.BreakerBackoffMs);
  ++Counters.BreakerTrips;
  scheduleProbeLocked();
}

void Persistence::noteSnapshotIoLocked(bool Ok) {
  if (Ok) {
    // Healthy snapshot I/O is evidence the disk works, but only a
    // successful WAL probe closes an open breaker: the WAL is what the
    // durability contract rides on.
    if (!Brk.Open)
      Brk.ConsecutiveFailures = 0;
    return;
  }
  ++Counters.SnapshotFailures;
  if (Brk.Open)
    return; // see the header: never starve the probe schedule
  ++Brk.ConsecutiveFailures;
  if (Cfg.BreakerThreshold != 0 &&
      Brk.ConsecutiveFailures >= Cfg.BreakerThreshold)
    tripLocked();
}

bool Persistence::logRecord(const WalRecord &Rec, bool &Durable) {
  bool Probing = false;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (Brk.Open) {
      // Half-open: one appender at a time may probe, and only once the
      // backoff has elapsed; everyone else is shed immediately.
      if (Brk.ProbeInFlight || Clock::now() < Brk.NextProbeAt)
        return false;
      Brk.ProbeInFlight = true;
      Probing = true;
    }
  }
  bool Ok = false;
  try {
    // A failed append poisons the segment (its tail may hold a torn
    // frame); rotate to a clean one before trying again.
    if (Wal.poisoned())
      Wal.reopenFresh();
    Durable = Wal.append(Rec);
    Ok = true;
  } catch (const std::exception &) {
  }
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (Probing)
      Brk.ProbeInFlight = false;
    if (Ok)
      noteIoSuccessLocked();
    else
      noteIoFailureLocked();
  }
  return Ok;
}

bool Persistence::probe() {
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (!Brk.Open)
      return true;
    if (Brk.ProbeInFlight || Clock::now() < Brk.NextProbeAt)
      return false;
    Brk.ProbeInFlight = true;
  }
  bool Ok = false;
  try {
    Wal.reopenFresh();
    Ok = true;
  } catch (const std::exception &) {
  }
  std::lock_guard<std::mutex> Lock(StateMu);
  Brk.ProbeInFlight = false;
  if (Ok)
    noteIoSuccessLocked();
  else
    noteIoFailureLocked();
  return !Brk.Open;
}

bool Persistence::degraded() const {
  std::lock_guard<std::mutex> Lock(StateMu);
  return Brk.Open;
}

//===----------------------------------------------------------------------===//
// Store listeners
//===----------------------------------------------------------------------===//

void Persistence::onScript(DocId Doc, uint64_t Version,
                           DocumentStore::StoreOp Op, const EditScript &Script,
                           const DocumentStore::ScriptInfo &Info) {
  WalRecord Rec;
  Rec.Kind = kindFor(Op);
  Rec.Doc = Doc;
  Rec.Version = Version;
  Rec.Script = encodeEditScript(Sig, Script);
  Rec.Author = std::string(Info.Author);
  bool Skip = false;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Rec.Seq = ++NextSeq;
    DocState &DS = DocStates[Doc];
    DS.LastSeq = Rec.Seq;
    ++DS.OpsSinceSnap;
    // Log-chain gap: an earlier op on this document never reached the
    // log, so a record appended now would replay against the wrong
    // base. A pending erase tombstone is the same disease for a
    // re-opened id: until the tombstone lands, replay resurrects the
    // erased predecessor, and a record logged now would apply on top of
    // it. Stay unlogged until a resync snapshot covers the gap.
    Skip = DS.NeedsResync || PendingTombs.count(Doc) != 0;
  }
  // Listener invocations are serialized by the store's listener mutex,
  // so sequence order equals append order.
  bool Durable = false;
  bool Logged = !Skip && logRecord(Rec, Durable);
  if (!Logged) {
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Counters.UnloggedOps;
    auto It = DocStates.find(Doc);
    if (It != DocStates.end()) {
      It->second.NeedsResync = true;
      ++It->second.UnloggedOps;
    }
  }
  if (DurListener)
    DurListener(Doc, Rec.Seq, Logged, Logged && Durable);
}

void Persistence::onErase(DocId Doc) {
  WalRecord Rec;
  Rec.Kind = WalKind::Erase;
  Rec.Doc = Doc;
  bool Skip = false;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Rec.Seq = ++NextSeq;
    auto It = DocStates.find(Doc);
    Skip = It != DocStates.end() && It->second.NeedsResync;
    DocStates.erase(Doc);
  }
  bool Durable = false;
  bool Logged = !Skip && logRecord(Rec, Durable);
  if (!Logged) {
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Counters.UnloggedOps;
  }

  // Tombstone so compaction can drop the erase record and everything
  // before it without old records resurrecting the document. Runs under
  // the shard lock (erase listener contract), which also orders it
  // before any re-open of the same id. When the erase record itself is
  // unlogged, the tombstone is the *only* thing preventing recovery
  // from resurrecting the document, so a failed write is queued for
  // retry instead of shrugged off.
  SnapshotData Tomb;
  Tomb.Doc = Doc;
  Tomb.Seq = Rec.Seq;
  Tomb.Tombstone = true;
  bool TombOk = false;
  try {
    writeSnapshotFile(Cfg.Dir, Tomb, &Io);
    TombOk = true;
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Counters.TombstonesWritten;
    noteSnapshotIoLocked(true);
    PendingTombs.erase(Doc);
  } catch (const std::exception &) {
    std::lock_guard<std::mutex> Lock(StateMu);
    noteSnapshotIoLocked(false);
    if (!Logged)
      PendingTombs[Doc] = Rec.Seq;
  }
  if (TombOk) {
    // Older snapshots of the erased document are superseded; best
    // effort.
    for (const SnapshotFileName &F : listSnapshotFiles(Cfg.Dir))
      if (F.Doc == Doc && F.Seq < Rec.Seq &&
          Io.unlinkFile(F.Path.c_str()) == 0) {
        std::lock_guard<std::mutex> Lock(StateMu);
        ++Counters.SnapshotsDeleted;
      }
  }
  if (DurListener)
    DurListener(Doc, Rec.Seq, Logged || TombOk, (Logged && Durable) || TombOk);
}

void Persistence::writePendingTombstones() {
  std::unordered_map<uint64_t, uint64_t> Pending;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Pending = PendingTombs;
  }
  for (const auto &[Doc, Seq] : Pending) {
    SnapshotData Tomb;
    Tomb.Doc = Doc;
    Tomb.Seq = Seq;
    Tomb.Tombstone = true;
    try {
      writeSnapshotFile(Cfg.Dir, Tomb, &Io);
      std::lock_guard<std::mutex> Lock(StateMu);
      ++Counters.TombstonesWritten;
      noteSnapshotIoLocked(true);
      PendingTombs.erase(Doc);
    } catch (const std::exception &) {
      std::lock_guard<std::mutex> Lock(StateMu);
      noteSnapshotIoLocked(false);
    }
  }
}

size_t Persistence::resyncDegraded() {
  if (Store == nullptr)
    return 0;
  // Capture each marked document's unlogged count; the mark is cleared
  // only if no further unlogged op raced the snapshot, so an op that
  // commits between capture and clear keeps the document marked for the
  // next pass.
  std::vector<std::pair<DocId, uint64_t>> Need;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    for (const auto &[Doc, DS] : DocStates)
      if (DS.NeedsResync)
        Need.emplace_back(Doc, DS.UnloggedOps);
  }
  size_t Repaired = 0;
  for (const auto &[Doc, UnloggedAtCapture] : Need) {
    uint64_t SnapSeq = 0;
    if (!snapshotDocument(Doc, &SnapSeq))
      continue; // erased meanwhile, or the write failed: retry next pass
    std::lock_guard<std::mutex> Lock(StateMu);
    // A snapshot at SnapSeq only supersedes a pending erase tombstone it
    // actually covers: an erase + re-open racing this pass leaves a
    // tombstone *newer* than the state we captured, and dropping it
    // would let recovery resurrect the erased predecessor underneath
    // the re-opened document.
    auto Pend = PendingTombs.find(Doc);
    if (Pend != PendingTombs.end() && Pend->second <= SnapSeq)
      PendingTombs.erase(Pend);
    // Same incarnation test for the resync mark: clear it only if the
    // snapshot reaches the document's current sequence number. The
    // unlogged-op count alone is not enough -- an erase + re-open resets
    // it, and the new incarnation can coincidentally match the captured
    // count while the snapshot covers none of its operations.
    auto It = DocStates.find(Doc);
    if (It != DocStates.end() && It->second.NeedsResync &&
        It->second.UnloggedOps == UnloggedAtCapture &&
        It->second.LastSeq <= SnapSeq) {
      It->second.NeedsResync = false;
      It->second.UnloggedOps = 0;
      ++Counters.ResyncSnapshots;
      ++Repaired;
    }
  }
  return Repaired;
}

void Persistence::attach(DocumentStore &S) {
  Store = &S;
  S.addScriptListener([this](DocId Doc, uint64_t Version,
                             DocumentStore::StoreOp Op,
                             const EditScript &Script,
                             const DocumentStore::ScriptInfo &Info) {
    onScript(Doc, Version, Op, Script, Info);
  });
  S.addEraseListener([this](DocId Doc) { onErase(Doc); });
  if (Cfg.BackgroundIntervalMs != 0 && !Background.joinable())
    Background = std::thread([this] { backgroundLoop(); });
}

bool Persistence::snapshotDocument(DocId Doc, uint64_t *CapturedSeq) {
  SnapshotData Snap;
  // The open author is immutable for a document incarnation, so it is
  // safe to read before taking the document lock (openAuthor takes its
  // own locks; calling it inside withDocument would deadlock).
  if (Store != nullptr)
    Snap.OpenAuthor = Store->openAuthor(Doc);
  bool Found =
      Store != nullptr &&
      Store->withDocument(
          Doc, [&](const Tree *T, uint64_t Version,
                   const std::vector<DocumentStore::HistoryEntry> &History) {
            // The document lock is held: no new record for this document
            // can be logged concurrently, so LastSeq is exactly the
            // sequence number of the state being captured.
            {
              std::lock_guard<std::mutex> Lock(StateMu);
              Snap.Seq = DocStates[Doc].LastSeq;
            }
            Snap.Doc = Doc;
            Snap.Version = Version;
            Snap.TreeBlob = encodeTree(Sig, T);
            for (const DocumentStore::HistoryEntry &H : History) {
              Snap.History.emplace_back(H.Version,
                                        encodeEditScript(Sig, *H.Script));
              Snap.HistoryAuthors.push_back(
                  H.Author != nullptr ? *H.Author : std::string());
            }
            // The index listener updates under this same document lock,
            // so the provenance blob matches the tree exactly.
            if (ProvSource)
              Snap.ProvBlob = ProvSource(Doc);
          });
  if (!Found)
    return false;
  Snap.NextUri = Store->nextUri(Doc);

  try {
    writeSnapshotFile(Cfg.Dir, Snap, &Io);
  } catch (const std::exception &) {
    std::lock_guard<std::mutex> Lock(StateMu);
    noteSnapshotIoLocked(false);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    ++Counters.SnapshotsWritten;
    noteSnapshotIoLocked(true);
    auto It = DocStates.find(Doc);
    if (It != DocStates.end()) {
      if (It->second.SnapSeq < Snap.Seq)
        It->second.SnapSeq = Snap.Seq;
      It->second.OpsSinceSnap = 0;
    }
  }
  // Superseded snapshots of this document are dead weight; best effort.
  for (const SnapshotFileName &F : listSnapshotFiles(Cfg.Dir))
    if (F.Doc == Doc && F.Seq < Snap.Seq &&
        Io.unlinkFile(F.Path.c_str()) == 0) {
      std::lock_guard<std::mutex> Lock(StateMu);
      ++Counters.SnapshotsDeleted;
    }
  if (CapturedSeq != nullptr)
    *CapturedSeq = Snap.Seq;
  return true;
}

size_t Persistence::snapshotDueDocuments() {
  if (Cfg.SnapshotEvery == 0)
    return 0;
  std::vector<DocId> Due;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    for (const auto &[Doc, DS] : DocStates)
      if (DS.OpsSinceSnap >= Cfg.SnapshotEvery)
        Due.push_back(Doc);
  }
  size_t Written = 0;
  for (DocId Doc : Due)
    if (snapshotDocument(Doc))
      ++Written;
  return Written;
}

void Persistence::compact() {
  // Coverage comes from valid snapshot *contents*, never file names.
  std::unordered_map<uint64_t, uint64_t> BestSeq;
  struct ValidFile {
    std::string Path;
    uint64_t Doc;
    uint64_t Seq;
  };
  std::vector<ValidFile> Valid;
  for (const SnapshotFileName &F : listSnapshotFiles(Cfg.Dir)) {
    ReadSnapshotResult R = readSnapshotFile(F.Path);
    if (!R.Ok)
      continue; // corrupt files are recovery's diagnostic, not ours
    Valid.push_back({F.Path, R.Snap.Doc, R.Snap.Seq});
    uint64_t &Best = BestSeq[R.Snap.Doc];
    Best = std::max(Best, R.Snap.Seq);
  }

  // Superseded snapshots first, so segment coverage below reflects what
  // will remain on disk.
  for (const ValidFile &F : Valid)
    if (F.Seq < BestSeq[F.Doc] && Io.unlinkFile(F.Path.c_str()) == 0) {
      std::lock_guard<std::mutex> Lock(StateMu);
      ++Counters.SnapshotsDeleted;
    }

  // A closed segment is dead iff every decodable record in it is covered
  // by a snapshot. Torn tail bytes are dead by the recovery contract
  // (recovery discards them too), so they do not pin a segment.
  uint64_t Current = Wal.currentSegment();
  for (const auto &[Index, Path] : listWalSegments(Cfg.Dir)) {
    if (Index >= Current)
      continue;
    WalSegment Seg = readWalSegment(Index, Path);
    if (!Seg.HeaderOk)
      continue; // unreadable: keep for post-mortem, recovery skips it
    bool Dead = true;
    for (const WalRecord &Rec : Seg.Records) {
      auto It = BestSeq.find(Rec.Doc);
      if (It == BestSeq.end() || It->second < Rec.Seq) {
        Dead = false;
        break;
      }
    }
    if (Dead && Io.unlinkFile(Path.c_str()) == 0) {
      std::lock_guard<std::mutex> Lock(StateMu);
      ++Counters.SegmentsDeleted;
    }
  }
  std::lock_guard<std::mutex> Lock(StateMu);
  ++Counters.CompactionRuns;
}

bool Persistence::flush() {
  try {
    Wal.flush();
    return true;
  } catch (const std::exception &) {
    // The tail's durability is unknown; nothing was acknowledged as
    // durable on its strength, so the contract holds. Feed the breaker:
    // a sick fsync is the same disease as a sick write.
    std::lock_guard<std::mutex> Lock(StateMu);
    noteIoFailureLocked();
    return false;
  }
}

void Persistence::backgroundLoop() {
  std::unique_lock<std::mutex> Lock(BgMu);
  while (!StopBg) {
    BgCv.wait_for(Lock, std::chrono::milliseconds(Cfg.BackgroundIntervalMs),
                  [this] { return StopBg; });
    if (StopBg)
      break;
    Lock.unlock();
    // Bound the group-commit loss window in time, not just in records.
    flush();
    // Probe first so a breaker that just re-closed is resynced in the
    // same pass; both are no-ops on a healthy service.
    probe();
    if (!degraded()) {
      writePendingTombstones();
      resyncDegraded();
    }
    size_t Wrote = snapshotDueDocuments();
    if (Wrote != 0 && Cfg.CompactAfterSnapshot)
      compact();
    Lock.lock();
  }
}

Persistence::Stats Persistence::stats() const {
  Stats Out;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Out = Counters;
    Out.Degraded = Brk.Open;
    Out.DegradedUs = DegradedUsTotal;
    if (Brk.Open)
      Out.DegradedUs += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                Brk.OpenedAt)
              .count());
    Out.PendingTombstones = PendingTombs.size();
    for (const auto &[Doc, DS] : DocStates)
      if (DS.NeedsResync)
        ++Out.DocsNeedingResync;
  }
  Out.Wal = Wal.stats();
  Out.CurrentSegment = Wal.currentSegment();
  return Out;
}

Persistence::HealthInfo Persistence::healthInfo() const {
  Stats S = stats();
  HealthInfo H;
  H.Degraded = S.Degraded;
  H.BreakerTrips = S.BreakerTrips;
  H.DegradedUs = S.DegradedUs;
  H.UnloggedOps = S.UnloggedOps;
  H.DocsNeedingResync = S.DocsNeedingResync;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    H.ConsecutiveFailures = Brk.ConsecutiveFailures;
  }
  return H;
}

std::string Persistence::statsJson() const {
  Stats S = stats();
  auto N = [](uint64_t V) { return std::to_string(V); };
  std::string Json = "{\"wal\":{\"records\":" + N(S.Wal.Records) +
                     ",\"bytes\":" + N(S.Wal.Bytes) +
                     ",\"fsyncs\":" + N(S.Wal.Fsyncs) +
                     ",\"rotations\":" + N(S.Wal.Rotations) +
                     ",\"segment\":" + N(S.CurrentSegment) + "}";
  Json += ",\"snapshots\":{\"written\":" + N(S.SnapshotsWritten) +
          ",\"tombstones\":" + N(S.TombstonesWritten) +
          ",\"deleted\":" + N(S.SnapshotsDeleted) +
          ",\"failures\":" + N(S.SnapshotFailures) + "}";
  Json += ",\"compaction\":{\"runs\":" + N(S.CompactionRuns) +
          ",\"segments_deleted\":" + N(S.SegmentsDeleted) + "}";
  {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f",
                  static_cast<double>(S.DegradedUs) / 1e6);
    Json += std::string(",\"breaker\":{\"degraded\":") +
            (S.Degraded ? "true" : "false") +
            ",\"trips\":" + N(S.BreakerTrips) +
            ",\"append_failures\":" + N(S.WalAppendFailures) +
            ",\"probe_failures\":" + N(S.ProbeFailures) +
            ",\"unlogged_ops\":" + N(S.UnloggedOps) +
            ",\"resync_snapshots\":" + N(S.ResyncSnapshots) +
            ",\"pending_tombstones\":" + N(S.PendingTombstones) +
            ",\"docs_needing_resync\":" + N(S.DocsNeedingResync) +
            ",\"wal_reopens\":" + N(S.Wal.Reopens) +
            ",\"degraded_seconds\":" + Buf + "}";
  }
  const RecoveryResult &R = LastRecovery;
  Json += ",\"recovery\":{\"docs\":" + N(R.DocsRecovered) +
          ",\"records_replayed\":" + N(R.RecordsReplayed) +
          ",\"records_skipped\":" + N(R.RecordsSkipped) +
          ",\"orphans\":" + N(R.OrphanRecords) +
          ",\"torn_bytes\":" + N(R.TornBytes) +
          ",\"snapshots_loaded\":" + N(R.SnapshotsLoaded) + "}";
  Json += "}";
  return Json;
}

RecoveryResult Persistence::recoverAndAttach(DocumentStore &S,
                                             blame::ProvenanceIndex *Prov) {
  RecoveryResult R = recover(Sig, Cfg.Dir, S, Prov);
  LastRecovery = R;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    NextSeq = std::max(NextSeq, R.MaxSeq);
    for (const RecoveryResult::RecoveredDoc &D : R.Docs) {
      DocState &DS = DocStates[D.Doc];
      DS.LastSeq = D.LastSeq;
      DS.SnapSeq = D.SnapSeq;
      DS.OpsSinceSnap = 0;
    }
  }
  attach(S);
  return R;
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

namespace {

/// A replayed document tree, URIs preserved, in its own arena, with the
/// applier that keeps its URI index across records. Its derived data is
/// not maintained: installing copies the tree into the store's context,
/// which re-derives every digest.
struct ReplayTree {
  explicit ReplayTree(const SignatureTable &Sig) : Ctx(Sig) {}
  TreeContext Ctx;
  Tree *Root = nullptr;
  ScriptApplier Applier{Ctx, Root, ScriptApplier::Derived::Skip};
};

/// Replay-time state of one document.
struct ReplayDoc {
  std::unique_ptr<ReplayTree> T;
  uint64_t Version = 0;
  uint64_t SnapSeq = 0;
  uint64_t LastSeq = 0;
  bool Live = false;
  /// A record failed to decode or type-check: keep the current (still
  /// consistent) state, apply nothing further.
  bool Frozen = false;
  /// A record failed mid-script, so the log and the replayed state
  /// disagree: exclude the document entirely.
  bool Dropped = false;
  /// Forward scripts of the rollback ring (with authors), oldest first.
  std::vector<DocumentStore::RestoreEntry> History;
  /// Author of version 0, from the snapshot or a replayed open record.
  std::string OpenAuthor;
};

} // namespace

RecoveryResult Persistence::recover(const SignatureTable &Sig,
                                    const std::string &Dir,
                                    DocumentStore &Store,
                                    blame::ProvenanceIndex *Prov) {
  RecoveryResult R;
  std::unordered_map<uint64_t, ReplayDoc> Docs;
  if (Prov != nullptr)
    Prov->clear();

  // Phase 1: newest valid snapshot per document. Validity is decided by
  // file contents (CRC + full decode); names only locate the files.
  std::unordered_map<uint64_t, SnapshotData> BestSnap;
  for (const SnapshotFileName &F : listSnapshotFiles(Dir)) {
    ReadSnapshotResult Res = readSnapshotFile(F.Path);
    if (!Res.Ok) {
      ++R.SnapshotsCorrupt;
      continue;
    }
    auto It = BestSnap.find(Res.Snap.Doc);
    if (It == BestSnap.end() || It->second.Seq < Res.Snap.Seq)
      BestSnap[Res.Snap.Doc] = std::move(Res.Snap);
  }
  for (auto &[Doc, Snap] : BestSnap) {
    ++R.SnapshotsLoaded;
    R.MaxSeq = std::max(R.MaxSeq, Snap.Seq);
    ReplayDoc &D = Docs[Doc];
    D.SnapSeq = D.LastSeq = Snap.Seq;
    if (Snap.Tombstone)
      continue; // D.Live stays false: erased as of Snap.Seq
    auto T = std::make_unique<ReplayTree>(Sig);
    DecodeTreeResult TreeRes = decodeTree(Sig, T->Ctx, Snap.TreeBlob);
    if (!TreeRes.ok()) {
      // CRC passed but the blob is undecodable: without the base state
      // the log suffix is useless for this document.
      ++R.SnapshotsCorrupt;
      ++R.DocsDropped;
      D.Dropped = true;
      continue;
    }
    T->Root = TreeRes.Root;
    T->Ctx.continueUrisFrom(Snap.NextUri);
    D.T = std::move(T);
    D.Version = Snap.Version;
    D.Live = true;
    D.OpenAuthor = Snap.OpenAuthor;
    if (Prov != nullptr && !Snap.ProvBlob.empty() &&
        !Prov->installSnapshot(Doc, Snap.ProvBlob))
      Prov->eraseDoc(Doc); // malformed blob: degrade to unattributed
    for (size_t I = 0; I != Snap.History.size(); ++I) {
      DecodeScriptResult SR = decodeEditScript(Sig, Snap.History[I].second);
      if (!SR.Ok) {
        // History only bounds rollback depth; losing it is benign.
        D.History.clear();
        break;
      }
      DocumentStore::RestoreEntry E;
      E.Version = Snap.History[I].first;
      E.Script = std::move(SR.Script);
      if (I < Snap.HistoryAuthors.size())
        E.Author = Snap.HistoryAuthors[I];
      D.History.push_back(std::move(E));
    }
  }

  // Phase 2: replay the WAL suffix in log order. Segment indices order
  // segments; within a segment, append order holds. Torn tails were
  // already cut by readWalSegment.
  size_t HistoryCap = Store.config().HistoryCapacity;
  for (const auto &[Index, Path] : listWalSegments(Dir)) {
    WalSegment Seg = readWalSegment(Index, Path);
    R.TornBytes += Seg.TornBytes;
    if (!Seg.HeaderOk)
      continue;
    for (WalRecord &Rec : Seg.Records) {
      R.MaxSeq = std::max(R.MaxSeq, Rec.Seq);
      ReplayDoc &D = Docs[Rec.Doc];
      if (Rec.Seq <= D.SnapSeq || D.Dropped || D.Frozen) {
        ++R.RecordsSkipped;
        continue;
      }
      D.LastSeq = Rec.Seq;

      if (Rec.Kind == WalKind::Erase) {
        if (!D.Live) {
          ++R.OrphanRecords;
          continue;
        }
        D.T.reset();
        D.Live = false;
        D.History.clear();
        if (Prov != nullptr)
          Prov->eraseDoc(Rec.Doc);
        ++R.RecordsReplayed;
        continue;
      }

      // Orphan classification precedes script decoding: a record that log
      // order says cannot apply (open over a live document, submit or
      // rollback after an erase) is the erase-overtakes-in-flight race
      // artifact whatever its payload holds, and skipping it must not
      // freeze the document.
      if (Rec.Kind == WalKind::Open ? D.Live : !D.Live) {
        ++R.OrphanRecords;
        continue;
      }

      DecodeScriptResult SR = decodeEditScript(Sig, Rec.Script);
      if (!SR.Ok) {
        D.Frozen = true;
        ++R.InvalidRecords;
        continue;
      }

      if (Rec.Kind == WalKind::Open) {
        auto T = std::make_unique<ReplayTree>(Sig);
        if (!T->Applier.apply(SR.Script).Ok) {
          // The fresh arena is discarded, so nothing tears; but the
          // document cannot come into being.
          D.Frozen = true;
          ++R.InvalidRecords;
          continue;
        }
        R.EditsReplayed += SR.Script.size();
        D.T = std::move(T);
        D.Live = true;
        D.Version = 0;
        D.History.clear();
        D.OpenAuthor = Rec.Author;
        if (Prov != nullptr)
          Prov->apply(Rec.Doc, Rec.Version, DocumentStore::StoreOp::Open,
                      Rec.Author, SR.Script);
        ++R.RecordsReplayed;
        continue;
      }

      // Submit or Rollback on an existing document.
      ApplyResult P = D.T->Applier.apply(SR.Script);
      if (!P.Ok && P.IllTyped) {
        D.Frozen = true;
        ++R.InvalidRecords;
        continue;
      }
      if (!P.Ok) {
        // A well-typed script that fails mid-way does not fit the state
        // it was logged against. The applier left that state untouched,
        // but the log says the document moved past it, so the document
        // is excluded rather than restored at a version it never had.
        D.Dropped = true;
        D.Live = false;
        D.T.reset();
        D.History.clear();
        if (Prov != nullptr)
          Prov->eraseDoc(Rec.Doc);
        ++R.DocsDropped;
        ++R.InvalidRecords;
        continue;
      }
      R.EditsReplayed += SR.Script.size();
      D.Version = Rec.Version;
      if (Prov != nullptr)
        Prov->apply(Rec.Doc, Rec.Version,
                    Rec.Kind == WalKind::Submit
                        ? DocumentStore::StoreOp::Submit
                        : DocumentStore::StoreOp::Rollback,
                    Rec.Author, SR.Script);
      if (Rec.Kind == WalKind::Submit) {
        DocumentStore::RestoreEntry E;
        E.Version = Rec.Version;
        E.Script = std::move(SR.Script);
        E.Author = std::move(Rec.Author);
        D.History.push_back(std::move(E));
        if (D.History.size() > HistoryCap)
          D.History.erase(D.History.begin());
      } else {
        // Rollback consumed the ring's newest record.
        if (!D.History.empty() && D.History.back().Version == Rec.Version + 1)
          D.History.pop_back();
        else
          D.History.clear(); // ring out of sync (capacity eviction): drop
      }
      ++R.RecordsReplayed;
    }
  }

  // Phase 3: install the survivors.
  for (auto &[Doc, D] : Docs) {
    if (!D.Live || !D.T)
      continue;
    service::StoreResult Res = Store.restore(
        Doc, D.Version,
        [&](TreeContext &Ctx) {
          service::BuildResult B;
          B.Root = Ctx.deepCopy(D.T->Root, TreeContext::CopyUris::Preserve);
          // The replay arena's counter covers the snapshot's and every
          // replayed load, rolled-back ones included.
          Ctx.continueUrisFrom(D.T->Ctx);
          return B;
        },
        std::move(D.History), D.OpenAuthor);
    D.T.reset(); // the replay arena is no longer needed
    if (!Res.Ok) {
      if (Prov != nullptr)
        Prov->eraseDoc(Doc);
      ++R.DocsDropped;
      continue;
    }
    ++R.DocsRecovered;
    R.NodesRestored += Res.TreeSize;
    R.Docs.push_back({Doc, D.LastSeq, D.SnapSeq, D.Version});
  }
  return R;
}
