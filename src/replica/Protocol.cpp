//===- replica/Protocol.cpp - Replication frame payloads -------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Protocol.h"

#include "persist/Varint.h"
#include "support/TreeHash.h"

#include <array>
#include <cstring>

using namespace truediff;
using namespace truediff::replica;
using truediff::net::appendFrame;
using truediff::net::ReplFrame;
using truediff::net::ReplMagic;
using truediff::persist::getVarint;
using truediff::persist::putVarint;

namespace {

std::string frame(ReplFrame Type, const std::string &Payload) {
  std::string Out;
  appendFrame(Out, ReplMagic, static_cast<uint8_t>(Type), Payload);
  return Out;
}

} // namespace

Digest replica::summaryDigest(std::string_view UriText) {
  return sipHash128(ChecksumKey, UriText.data(), UriText.size());
}

std::string replica::encodeFollowerHello(const FollowerHello &M) {
  std::string P;
  putVarint(P, M.LastSeq);
  putVarint(P, M.MaxEpochSeen);
  return frame(ReplFrame::FollowerHello, P);
}

std::string replica::encodeLeaderHello(const LeaderHello &M) {
  std::string P;
  putVarint(P, M.Epoch);
  putVarint(P, M.CurrentSeq);
  return frame(ReplFrame::LeaderHello, P);
}

std::string replica::encodeRecord(const RecordMsg &M) {
  std::string P;
  putVarint(P, M.Seq);
  putVarint(P, M.Doc);
  putVarint(P, M.Incarnation);
  P.push_back(static_cast<char>(M.Op));
  putVarint(P, M.Version);
  putVarint(P, M.Blob.size());
  P += M.Blob;
  putVarint(P, M.Author.size());
  P += M.Author;
  return frame(ReplFrame::Record, P);
}

std::string replica::encodeDocSnapshot(const DocSnapshotMsg &M) {
  std::string P;
  putVarint(P, M.Doc);
  putVarint(P, M.Incarnation);
  putVarint(P, M.Version);
  putVarint(P, M.Seq);
  P.push_back(static_cast<char>(M.Tombstone ? 1 : 0));
  putVarint(P, M.Blob.size());
  P += M.Blob;
  putVarint(P, M.ProvBlob.size());
  P += M.ProvBlob;
  putVarint(P, M.NextUri);
  return frame(ReplFrame::DocSnapshot, P);
}

std::string replica::encodeCatchupDone(const CatchupDoneMsg &M) {
  std::string P;
  putVarint(P, M.Seq);
  P.push_back(static_cast<char>(M.SnapshotMode ? 1 : 0));
  return frame(ReplFrame::CatchupDone, P);
}

std::string replica::encodeResyncReq(const ResyncReqMsg &M) {
  std::string P;
  putVarint(P, M.Doc);
  return frame(ReplFrame::ResyncReq, P);
}

std::string replica::encodeAck(const AckMsg &M) {
  std::string P;
  putVarint(P, M.Seq);
  return frame(ReplFrame::Ack, P);
}

std::string replica::encodeShardSummary(const ShardSummaryMsg &M) {
  std::string P;
  putVarint(P, M.Shard);
  putVarint(P, M.ShardCount);
  putVarint(P, M.AsOfSeq);
  putVarint(P, M.Entries.size());
  for (const ShardSummaryMsg::Entry &E : M.Entries) {
    putVarint(P, E.Doc);
    putVarint(P, E.Version);
    putVarint(P, Digest::NumBytes);
    P.append(reinterpret_cast<const char *>(E.Summary.bytes().data()),
             Digest::NumBytes);
  }
  return frame(ReplFrame::ShardSummary, P);
}

bool replica::decodeFollowerHello(std::string_view Payload,
                                  FollowerHello &Out) {
  size_t Pos = 0;
  auto Seq = getVarint(Payload, Pos);
  auto Epoch = getVarint(Payload, Pos);
  if (!Seq || !Epoch || Pos != Payload.size())
    return false;
  Out.LastSeq = *Seq;
  Out.MaxEpochSeen = *Epoch;
  return true;
}

bool replica::decodeLeaderHello(std::string_view Payload, LeaderHello &Out) {
  size_t Pos = 0;
  auto Epoch = getVarint(Payload, Pos);
  auto Seq = getVarint(Payload, Pos);
  if (!Epoch || !Seq || Pos != Payload.size())
    return false;
  Out.Epoch = *Epoch;
  Out.CurrentSeq = *Seq;
  return true;
}

bool replica::decodeRecord(std::string_view Payload, RecordMsg &Out) {
  size_t Pos = 0;
  auto Seq = getVarint(Payload, Pos);
  auto Doc = getVarint(Payload, Pos);
  auto Inc = getVarint(Payload, Pos);
  if (!Seq || !Doc || !Inc || Pos >= Payload.size())
    return false;
  uint8_t Op = static_cast<uint8_t>(Payload[Pos++]);
  if (Op > static_cast<uint8_t>(ReplOp::Erase))
    return false;
  auto Version = getVarint(Payload, Pos);
  auto BlobLen = getVarint(Payload, Pos);
  if (!Version || !BlobLen || *BlobLen > Payload.size() - Pos)
    return false;
  Out.Seq = *Seq;
  Out.Doc = *Doc;
  Out.Incarnation = *Inc;
  Out.Op = static_cast<ReplOp>(Op);
  Out.Version = *Version;
  Out.Blob = std::string(Payload.substr(Pos, *BlobLen));
  Pos += *BlobLen;
  // Optional trailing author (pre-blame peers omit it).
  Out.Author.clear();
  if (Pos != Payload.size()) {
    auto AuthorLen = getVarint(Payload, Pos);
    if (!AuthorLen || *AuthorLen != Payload.size() - Pos)
      return false;
    Out.Author = std::string(Payload.substr(Pos));
  }
  return true;
}

bool replica::decodeDocSnapshot(std::string_view Payload,
                                DocSnapshotMsg &Out) {
  size_t Pos = 0;
  auto Doc = getVarint(Payload, Pos);
  auto Inc = getVarint(Payload, Pos);
  auto Version = getVarint(Payload, Pos);
  auto Seq = getVarint(Payload, Pos);
  if (!Doc || !Inc || !Version || !Seq || Pos >= Payload.size())
    return false;
  uint8_t Flags = static_cast<uint8_t>(Payload[Pos++]);
  auto BlobLen = getVarint(Payload, Pos);
  if (!BlobLen || *BlobLen > Payload.size() - Pos)
    return false;
  Out.Doc = *Doc;
  Out.Incarnation = *Inc;
  Out.Version = *Version;
  Out.Seq = *Seq;
  Out.Tombstone = (Flags & 1) != 0;
  Out.Blob = std::string(Payload.substr(Pos, *BlobLen));
  Pos += *BlobLen;
  // Optional trailing provenance blob (pre-blame peers omit it), then
  // the optional next URI (older peers omit it).
  Out.ProvBlob.clear();
  Out.NextUri = 0;
  if (Pos != Payload.size()) {
    auto ProvLen = getVarint(Payload, Pos);
    if (!ProvLen || *ProvLen > Payload.size() - Pos)
      return false;
    Out.ProvBlob = std::string(Payload.substr(Pos, *ProvLen));
    Pos += *ProvLen;
  }
  if (Pos != Payload.size()) {
    auto NextUri = getVarint(Payload, Pos);
    if (!NextUri || Pos != Payload.size())
      return false;
    Out.NextUri = *NextUri;
  }
  return true;
}

bool replica::decodeCatchupDone(std::string_view Payload,
                                CatchupDoneMsg &Out) {
  size_t Pos = 0;
  auto Seq = getVarint(Payload, Pos);
  if (!Seq || Pos + 1 != Payload.size())
    return false;
  Out.Seq = *Seq;
  Out.SnapshotMode = (static_cast<uint8_t>(Payload[Pos]) & 1) != 0;
  return true;
}

bool replica::decodeResyncReq(std::string_view Payload, ResyncReqMsg &Out) {
  size_t Pos = 0;
  auto Doc = getVarint(Payload, Pos);
  if (!Doc || Pos != Payload.size())
    return false;
  Out.Doc = *Doc;
  return true;
}

bool replica::decodeAck(std::string_view Payload, AckMsg &Out) {
  size_t Pos = 0;
  auto Seq = getVarint(Payload, Pos);
  if (!Seq || Pos != Payload.size())
    return false;
  Out.Seq = *Seq;
  return true;
}

bool replica::decodeShardSummary(std::string_view Payload,
                                 ShardSummaryMsg &Out) {
  size_t Pos = 0;
  auto Shard = getVarint(Payload, Pos);
  auto Count = getVarint(Payload, Pos);
  auto AsOf = getVarint(Payload, Pos);
  auto N = getVarint(Payload, Pos);
  if (!Shard || !Count || *Count == 0 || !AsOf || !N)
    return false;
  Out.Shard = *Shard;
  Out.ShardCount = *Count;
  Out.AsOfSeq = *AsOf;
  Out.Entries.clear();
  for (uint64_t I = 0; I != *N; ++I) {
    ShardSummaryMsg::Entry E;
    auto Doc = getVarint(Payload, Pos);
    auto Version = getVarint(Payload, Pos);
    auto DigestLen = getVarint(Payload, Pos);
    if (!Doc || !Version || !DigestLen || *DigestLen != Digest::NumBytes ||
        Digest::NumBytes > Payload.size() - Pos)
      return false;
    E.Doc = *Doc;
    E.Version = *Version;
    std::array<uint8_t, Digest::NumBytes> Bytes;
    std::memcpy(Bytes.data(), Payload.data() + Pos, Digest::NumBytes);
    E.Summary = Digest(Bytes);
    Pos += Digest::NumBytes;
    Out.Entries.push_back(std::move(E));
  }
  return Pos == Payload.size();
}
