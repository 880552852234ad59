//===- persist/Snapshot.h - Per-document snapshot files ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-document snapshot files: the full tree (URIs preserved) plus the
/// rollback history ring, written atomically (temp file, fsync, rename)
/// so a snapshot either exists completely or not at all. Snapshots bound
/// recovery replay and make WAL compaction possible: a log record is
/// dead once some durable snapshot of its document has Seq >= the
/// record's Seq.
///
/// On-disk format:
///
///   file    ::= "TDSNAP1\n" u32(payload length) u32(crc32c of payload)
///               payload
///   payload ::= varint(doc) varint(seq) varint(version) varint(flags)
///               varint(|tree blob|) tree-blob
///               varint(history count)
///               { varint(version) varint(|script blob|) script-blob }*
///               [ blame-ext [ varint(next uri) ] ]
///   blame-ext ::= varint(|prov blob|) prov-blob
///                 varint(|open author|) open-author
///                 { varint(|author|) author }*   (one per history entry)
///   flags   ::= 0 (normal) | 1 (tombstone: document erased; tree blob
///               and history are empty)
///
/// The blame extension is optional on read (snapshots written before
/// the blame subsystem omit it; they restore as unattributed with an
/// empty provenance index) and always written. The prov blob is the
/// ProvenanceIndex's canonical per-document serialization, captured
/// under the same document lock as the tree, so the two always agree.
/// The next URI is optional on read too (older snapshots end after the
/// blame extension and read as 0, "not recorded") and always written.
///
/// File names are `snap-<doc>-<seq>.snap`; the header is authoritative,
/// the name only drives cleanup ordering. Higher Seq supersedes lower.
/// A *tombstone* records that the document was erased at Seq, so the
/// erase record and everything before it can be compacted away without
/// old log records resurrecting the document.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_PERSIST_SNAPSHOT_H
#define TRUEDIFF_PERSIST_SNAPSHOT_H

#include "persist/IoEnv.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace truediff {
namespace persist {

/// In-memory form of one snapshot file. Tree and scripts stay as binary
/// blobs here; decoding needs a SignatureTable and a TreeContext and is
/// recovery's business.
struct SnapshotData {
  uint64_t Doc = 0;
  /// Per-document WAL sequence number of the last operation the snapshot
  /// includes; replay skips records with Seq <= this.
  uint64_t Seq = 0;
  uint64_t Version = 0;
  /// True for a tombstone: the document was erased at Seq.
  bool Tombstone = false;
  /// encodeTree blob of the document's tree, URIs preserved; empty for
  /// tombstones.
  std::string TreeBlob;
  /// The history ring: (version, encodeEditScript blob of the forward
  /// script), oldest first. Inverses are recomputed on recovery.
  std::vector<std::pair<uint64_t, std::string>> History;
  /// Authors of the history ring entries, parallel to History; empty
  /// when the snapshot predates the blame subsystem (unattributed).
  std::vector<std::string> HistoryAuthors;
  /// Author recorded for the document's open; empty = unattributed.
  std::string OpenAuthor;
  /// Canonical ProvenanceIndex blob for the document; empty when the
  /// snapshot predates the blame subsystem.
  std::string ProvBlob;
  /// The document arena's next fresh URI (DocumentStore::nextUri), above
  /// every URI the document issued, rolled-back loads included; recovery
  /// continues from it. 0 = not recorded.
  uint64_t NextUri = 0;
};

/// Writes \p Snap atomically into \p Dir; returns the final path.
/// Throws std::runtime_error on I/O failure -- the temp file is cleaned
/// up and the previous snapshot (if any) is untouched, so a failed
/// write never degrades what recovery can see. \p Env is the I/O seam;
/// null means real I/O.
std::string writeSnapshotFile(const std::string &Dir, const SnapshotData &Snap,
                              IoEnv *Env = nullptr);

/// Result of reading one snapshot file.
struct ReadSnapshotResult {
  bool Ok = false;
  SnapshotData Snap;
  std::string Error;
};

/// Reads and CRC-checks one snapshot file; corrupt or truncated files
/// yield an error, never a partial snapshot. \p Env is the read seam
/// (null = real I/O); a faulty environment can silently corrupt the
/// bytes, which the CRC check then reports as a mismatch.
ReadSnapshotResult readSnapshotFile(const std::string &Path,
                                    IoEnv *Env = nullptr);

/// Lists snapshot files in \p Dir as (path, doc, seq) parsed from the
/// file name, unordered. Callers must still trust only the file header.
struct SnapshotFileName {
  std::string Path;
  uint64_t Doc = 0;
  uint64_t Seq = 0;
};
std::vector<SnapshotFileName> listSnapshotFiles(const std::string &Dir);

} // namespace persist
} // namespace truediff

#endif // TRUEDIFF_PERSIST_SNAPSHOT_H
