//===- replica/Protocol.h - Replication frame payloads ----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Payload codecs for the replication stream (net/Frame.h, ReplMagic).
/// All integers are LEB128 varints; blobs are length-prefixed.
///
///   FollowerHello   last-seq, max-epoch-seen
///   LeaderHello     epoch, current-seq
///   Record          seq, doc, incarnation, op byte, version, script blob
///                   (persist/BinaryCodec encodeEditScript; empty for
///                   erase), author string (length-prefixed; the target
///                   version's author for rollback)
///   DocSnapshot     doc, incarnation, version, seq, flags byte (bit 0 =
///                   tombstone), tree blob (encodeTree, URIs preserved),
///                   provenance blob (blame ProvenanceIndex::snapshotDoc)
///
/// The author and provenance fields are optional-trailing: decoders
/// accept their absence (empty author / empty provenance), so pre-blame
/// peers interoperate.
///   CatchupDone     seq: the initial dump covers everything up to here
///   ResyncReq       doc
///   Ack             seq: the follower applied everything up to here --
///                   the leader's durability watermark (per-follower lag
///                   in stats, and what failover treats as durable)
///   ShardSummary    anti-entropy digest summary of one store shard:
///                   shard, shard-count, as-of-seq, then per document
///                   doc, version and the summaryDigest of its URI
///                   rendering (length 16, then the 16 digest bytes)
///
/// Decoders are total and strict: trailing bytes or truncated varints
/// fail the decode. A follower treats any undecodable frame from its
/// leader as a broken link and reconnects; a leader drops the follower.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_REPLICA_PROTOCOL_H
#define TRUEDIFF_REPLICA_PROTOCOL_H

#include "net/Frame.h"
#include "support/Digest.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace truediff {
namespace replica {

/// Replicated store operation, the StoreOp values plus erase (which the
/// store reports through a separate listener).
enum class ReplOp : uint8_t {
  Open = 0,
  Submit = 1,
  Rollback = 2,
  Erase = 3,
};

struct FollowerHello {
  uint64_t LastSeq = 0;
  uint64_t MaxEpochSeen = 0;
};

struct LeaderHello {
  uint64_t Epoch = 0;
  uint64_t CurrentSeq = 0;
};

/// One replication-log record. Rollback records carry the *applied
/// inverse* script, so a follower only ever patches forward.
struct RecordMsg {
  uint64_t Seq = 0;
  uint64_t Doc = 0;
  /// Bumped each time the doc id is (re-)opened; fences records of a
  /// prior life of the same id.
  uint64_t Incarnation = 0;
  ReplOp Op = ReplOp::Open;
  /// Document version after the operation.
  uint64_t Version = 0;
  /// encodeEditScript blob; empty for Erase.
  std::string Blob;
  /// Attribution of the produced version (rollback: the target version's
  /// author); empty = unattributed. Feeds the follower's provenance
  /// index so blame reads answer identically on either side.
  std::string Author;
};

struct DocSnapshotMsg {
  uint64_t Doc = 0;
  uint64_t Incarnation = 0;
  uint64_t Version = 0;
  /// Global seq of the doc's latest record folded into this snapshot;
  /// records at or below it are already reflected.
  uint64_t Seq = 0;
  /// The document no longer exists; Blob is empty.
  bool Tombstone = false;
  /// encodeTree blob, URIs preserved (empty for tombstones).
  std::string Blob;
  /// Canonical provenance blob of the same document state (blame
  /// ProvenanceIndex::snapshotDoc; empty for tombstones or pre-blame
  /// leaders), installed into the follower's index with the tree.
  std::string ProvBlob;
  /// The document's next fresh URI on the leader (DocumentStore::
  /// nextUri), which the installed document continues from so it never
  /// reissues a URI after a promotion. 0 = not sent (older leaders).
  uint64_t NextUri = 0;
};

struct CatchupDoneMsg {
  uint64_t Seq = 0;
  /// The dump was a snapshot transfer (full state): any document the
  /// follower holds that no snapshot refreshed is stale -- its erase
  /// record may have been evicted from the tail ring -- and must be
  /// dropped. False = tail replay, which is incremental and complete.
  bool SnapshotMode = false;
};

struct ResyncReqMsg {
  uint64_t Doc = 0;
};

/// Follower -> leader applied watermark, sent after every batch that
/// advances the applied seq.
struct AckMsg {
  uint64_t Seq = 0;
};

/// The anti-entropy summary of a document whose URI-subscripted
/// s-expression is \p UriText: SipHash-2-4-128 under the fixed
/// ChecksumKey (support/TreeHash.h), so it agrees across processes and
/// runs. The one place the summary is decided: the scrubber, the
/// follower's summary compare and Follower::read all call it.
Digest summaryDigest(std::string_view UriText);

/// Anti-entropy: the leader's digest summary of one store shard,
/// broadcast periodically by the integrity scrubber. Each entry names a
/// document, its version, and the summaryDigest of its URI rendering --
/// the cross-process-stable content identity (never the node digests,
/// which are keyed per process and meaningless outside it). A follower
/// compares each entry against its own state up to AsOfSeq and requests
/// a resync for any mismatch, catching silent divergence that gap
/// detection cannot (the follower applied *something* for every seq; it
/// was just wrong).
struct ShardSummaryMsg {
  /// Which shard of the document-id space this summarizes (Doc %
  /// ShardCount == Shard for every entry).
  uint64_t Shard = 0;
  uint64_t ShardCount = 1;
  /// Replication seq the summary was taken at. A follower that has not
  /// yet applied up to here skips the comparison -- it would be
  /// comparing different points in time, not detecting corruption.
  uint64_t AsOfSeq = 0;
  struct Entry {
    uint64_t Doc = 0;
    uint64_t Version = 0;
    /// summaryDigest of the document's URI rendering.
    Digest Summary;
  };
  std::vector<Entry> Entries;
};

/// Each encoder renders a complete wire frame (header included).
std::string encodeFollowerHello(const FollowerHello &M);
std::string encodeLeaderHello(const LeaderHello &M);
std::string encodeRecord(const RecordMsg &M);
std::string encodeDocSnapshot(const DocSnapshotMsg &M);
std::string encodeCatchupDone(const CatchupDoneMsg &M);
std::string encodeResyncReq(const ResyncReqMsg &M);
std::string encodeAck(const AckMsg &M);
std::string encodeShardSummary(const ShardSummaryMsg &M);

/// Each decoder parses one frame's payload; false on malformed input.
bool decodeFollowerHello(std::string_view Payload, FollowerHello &Out);
bool decodeLeaderHello(std::string_view Payload, LeaderHello &Out);
bool decodeRecord(std::string_view Payload, RecordMsg &Out);
bool decodeDocSnapshot(std::string_view Payload, DocSnapshotMsg &Out);
bool decodeCatchupDone(std::string_view Payload, CatchupDoneMsg &Out);
bool decodeResyncReq(std::string_view Payload, ResyncReqMsg &Out);
bool decodeAck(std::string_view Payload, AckMsg &Out);
bool decodeShardSummary(std::string_view Payload, ShardSummaryMsg &Out);

} // namespace replica
} // namespace truediff

#endif // TRUEDIFF_REPLICA_PROTOCOL_H
