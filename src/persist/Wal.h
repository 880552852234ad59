//===- persist/Wal.h - Edit-script write-ahead log --------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-ahead log of the persistence subsystem: an append-only
/// sequence of CRC32C-framed records, one per committed DocumentStore
/// operation, split into numbered segment files `wal-<n>.log`.
///
/// On-disk format (all fixed-width integers little-endian):
///
///   segment   ::= header record*
///   header    ::= "TDWAL1\n" u8(0)            (8 bytes)
///   record    ::= u32(magic 0x54445752)       ("TDWR")
///                 u32(payload length)
///                 u32(crc32c of payload)
///                 payload
///   payload   ::= u8(kind) varint(doc) varint(seq) varint(version)
///                 varint(|script blob|) script-blob
///                 [ varint(|author|) author ]
///
/// The trailing author field is optional on read (records written
/// before the blame subsystem omit it; they decode as unattributed) and
/// always written. For rollback records it carries the *target*
/// version's author, matching the store's attribution rule.
///
/// The CRC covers only the payload; the magic and length words are
/// implicitly validated by the CRC check on the bytes they frame. A
/// record is *durable* once an fsync covering it returned; a crash can
/// tear at most the unsynced tail, and the reader discards a torn tail
/// at the first frame whose magic, length, or CRC fails -- a partial
/// record is never surfaced.
///
/// Group commit: the writer fsyncs once every Config::FsyncEvery
/// records (and on flush/rotation/close) instead of once per append, so
/// a pool of workers committing concurrently shares fsync cost instead
/// of serializing on the disk. The durability contract is therefore: at
/// most FsyncEvery-1 acknowledged commits can be lost to a power
/// failure; a plain process crash (kill -9) loses nothing that write(2)
/// accepted, because page cache survives the process.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_PERSIST_WAL_H
#define TRUEDIFF_PERSIST_WAL_H

#include "persist/IoEnv.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace truediff {
namespace persist {

/// What kind of store operation a WAL record logs.
enum class WalKind : uint8_t {
  /// Document created; payload is the initializing script.
  Open,
  /// Version committed; payload is the forward script.
  Submit,
  /// Version undone; payload is the applied inverse script.
  Rollback,
  /// Document removed; no payload.
  Erase,
};

/// One logged operation. Seq is a per-document sequence number assigned
/// by the persistence layer; it is strictly increasing per document and
/// is what snapshots cut the log against (versions are not monotone --
/// rollback decreases them).
struct WalRecord {
  WalKind Kind = WalKind::Submit;
  uint64_t Doc = 0;
  uint64_t Seq = 0;
  uint64_t Version = 0;
  /// Binary edit script (persist/BinaryCodec); empty for Erase.
  std::string Script;
  /// Attribution of the operation; empty = unattributed. For Rollback
  /// this is the target version's author (see file comment).
  std::string Author;
};

/// Appends records to segment files in a directory. Thread-safe; every
/// append is written (not necessarily synced) before it returns.
class WalWriter {
public:
  struct Config {
    /// fsync once per this many records. 1 = every record durable before
    /// its append returns; N > 1 = group commit, at most N-1 acknowledged
    /// records lost on power failure.
    size_t FsyncEvery = 8;
    /// Rotate to a fresh segment once the current one exceeds this.
    size_t SegmentBytes = 4u << 20;
  };

  struct Stats {
    uint64_t Records = 0;
    uint64_t Bytes = 0;
    uint64_t Fsyncs = 0;
    uint64_t Rotations = 0;
    /// Fresh segments opened by reopenFresh() after a poisoned one.
    uint64_t Reopens = 0;
  };

  /// Opens a new segment numbered one past the highest existing segment
  /// in \p Dir (existing segments are never appended to: their tails may
  /// be torn, and immutability is what makes compaction safe). Creates
  /// \p Dir if missing. Throws std::runtime_error on I/O failure.
  /// \p Env is the I/O seam; null means real I/O.
  WalWriter(std::string Dir, Config C, IoEnv *Env = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter &) = delete;
  WalWriter &operator=(const WalWriter &) = delete;

  /// Appends \p Rec. Returns true if the record is already durable
  /// (this append triggered the batch fsync), false if its durability
  /// is deferred to a later sync. Throws std::runtime_error if the
  /// write itself fails -- a lost write must fail the commit, not be
  /// discovered at recovery. A failed append *poisons* the writer: the
  /// segment tail may hold a torn frame, and anything appended after it
  /// would be discarded by the reader along with the tear, so further
  /// appends fail fast until reopenFresh() rotates to a clean segment.
  bool append(const WalRecord &Rec);

  /// Fsyncs any unsynced records; the graceful-drain barrier. Works on
  /// a poisoned writer too -- complete frames written before the tear
  /// are still recoverable, and this makes them durable. Throws
  /// std::runtime_error if the fsync fails.
  void flush();

  /// Abandons a poisoned segment and opens a fresh one (the breaker's
  /// half-open probe). The old segment's durable prefix remains valid
  /// for recovery; its tail, if torn, is cut by the reader. Safe to call
  /// on a healthy writer (plain rotation). Throws std::runtime_error if
  /// the fresh segment cannot be created -- the probe failed.
  void reopenFresh();

  /// True after a failed append/fsync until reopenFresh() succeeds.
  bool poisoned() const;

  Stats stats() const;

  /// Index of the segment currently being appended to.
  uint64_t currentSegment() const;

private:
  void openSegment(uint64_t Index);
  void syncLocked();

  const std::string Dir;
  const Config Cfg;
  IoEnv &Env;

  mutable std::mutex Mu;
  int Fd = -1;
  uint64_t SegmentIndex = 0;
  size_t SegmentSize = 0;
  size_t PendingRecords = 0;
  bool Poisoned = false;
  Stats Counters;
};

/// One segment's worth of decoded records plus torn-tail diagnostics.
struct WalSegment {
  uint64_t Index = 0;
  std::string Path;
  std::vector<WalRecord> Records;
  /// Bytes discarded at the tail (torn write or trailing garbage).
  uint64_t TornBytes = 0;
  /// False if the file is unreadable or its header is malformed.
  bool HeaderOk = false;
};

/// Lists `wal-<n>.log` files in \p Dir, ordered by segment index.
std::vector<std::pair<uint64_t, std::string>> listWalSegments(
    const std::string &Dir);

/// Reads one segment, stopping cleanly at the first invalid frame.
/// \p Env is the read seam (null = real I/O); a faulty environment can
/// silently corrupt the returned bytes, which the CRC walk then
/// classifies as a torn tail.
WalSegment readWalSegment(uint64_t Index, const std::string &Path,
                          IoEnv *Env = nullptr);

} // namespace persist
} // namespace truediff

#endif // TRUEDIFF_PERSIST_WAL_H
