//===- replica/ReplicationLog.cpp - Leader-side script stream --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/ReplicationLog.h"

#include "persist/BinaryCodec.h"

using namespace truediff;
using namespace truediff::replica;
using service::DocumentStore;

ReplicationLog::ReplicationLog(DocumentStore &Store)
    : ReplicationLog(Store, Config()) {}

ReplicationLog::ReplicationLog(DocumentStore &Store, Config C)
    : Store(Store), Cfg(C) {}

void ReplicationLog::attach() {
  Store.addScriptListener([this](service::DocId Doc, uint64_t Version,
                                 DocumentStore::StoreOp Op,
                                 const EditScript &Script,
                                 const DocumentStore::ScriptInfo &Info) {
    ReplOp R;
    switch (Op) {
    case DocumentStore::StoreOp::Open:
      R = ReplOp::Open;
      break;
    case DocumentStore::StoreOp::Submit:
      R = ReplOp::Submit;
      break;
    case DocumentStore::StoreOp::Rollback:
      R = ReplOp::Rollback;
      break;
    default:
      return;
    }
    commit(Doc, R, Version,
           persist::encodeEditScript(Store.signatures(), Script),
           std::string(Info.Author));
  });
  Store.addEraseListener([this](service::DocId Doc) {
    commit(Doc, ReplOp::Erase, 0, std::string(), std::string());
  });
}

void ReplicationLog::seed(uint64_t BaseSeq,
                          const std::vector<SeedDoc> &SeedDocs) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Seq < BaseSeq)
    Seq = BaseSeq;
  for (const SeedDoc &S : SeedDocs) {
    DocMeta &M = Docs[S.Doc];
    M.Incarnation = S.Incarnation;
    M.Version = S.Version;
    M.LastSeq = S.LastSeq;
    M.Live = true;
  }
}

void ReplicationLog::commit(uint64_t Doc, ReplOp Op, uint64_t Version,
                            std::string Blob, std::string Author) {
  std::lock_guard<std::mutex> Lock(Mu);
  RecordMsg R;
  R.Seq = ++Seq;
  R.Doc = Doc;
  R.Op = Op;
  R.Version = Version;
  R.Blob = std::move(Blob);
  R.Author = std::move(Author);
  DocMeta &M = Docs[Doc];
  if (Op == ReplOp::Open) {
    ++M.Incarnation;
    M.Live = true;
  } else if (Op == ReplOp::Erase) {
    M.Live = false;
  }
  M.Version = Version;
  M.LastSeq = R.Seq;
  R.Incarnation = M.Incarnation;
  Tail.push_back(R);
  if (Tail.size() > Cfg.TailCapacity)
    Tail.pop_front();
  if (OnRecord)
    OnRecord(R);
}

uint64_t ReplicationLog::currentSeq() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Seq;
}

uint64_t ReplicationLog::firstTailSeq() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Tail.empty() ? 0 : Tail.front().Seq;
}

bool ReplicationLog::tailSince(uint64_t AfterSeq,
                               std::vector<RecordMsg> &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (AfterSeq > Seq)
    return false; // a diverged peer claims a future seq: full transfer
  if (!Tail.empty() && Tail.front().Seq > AfterSeq + 1)
    return false; // the continuation was evicted
  if (Tail.empty() && Seq > AfterSeq)
    return false; // records existed but none are retained
  for (const RecordMsg &R : Tail)
    if (R.Seq > AfterSeq)
      Out.push_back(R);
  return true;
}

std::vector<uint64_t> ReplicationLog::liveDocs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<uint64_t> Out;
  for (const auto &[Doc, M] : Docs)
    if (M.Live)
      Out.push_back(Doc);
  return Out;
}

DocSnapshotMsg ReplicationLog::snapshotDoc(uint64_t Doc) const {
  DocSnapshotMsg Snap;
  Snap.Doc = Doc;
  bool Found = Store.withDocument(
      Doc, [&](const Tree *T, uint64_t Version,
               const std::vector<DocumentStore::HistoryEntry> &) {
        // Under the document lock: the listener (and thus this doc's log
        // metadata) cannot advance while we are here, so blob and meta
        // are one consistent cut.
        Snap.Blob = persist::encodeTree(Store.signatures(), T);
        // The index listener updates under this same document lock, so
        // the provenance blob matches the tree exactly.
        if (ProvSource)
          Snap.ProvBlob = ProvSource(Doc);
        Snap.Version = Version;
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = Docs.find(Doc);
        if (It != Docs.end()) {
          Snap.Incarnation = It->second.Incarnation;
          Snap.Seq = It->second.LastSeq;
        }
      });
  if (Found) {
    Snap.NextUri = Store.nextUri(Doc);
  } else {
    std::lock_guard<std::mutex> Lock(Mu);
    Snap.Tombstone = true;
    auto It = Docs.find(Doc);
    if (It != Docs.end()) {
      Snap.Incarnation = It->second.Incarnation;
      Snap.Seq = It->second.LastSeq;
    } else {
      Snap.Seq = Seq;
    }
  }
  return Snap;
}
