//===- blame/Provenance.cpp - Per-node attribution index -------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "blame/Provenance.h"

#include "persist/Varint.h"

#include <algorithm>

using namespace truediff;
using namespace truediff::blame;
using service::DocId;
using service::DocumentStore;
using truediff::persist::getVarint;
using truediff::persist::putVarint;

const char *truediff::blame::provOpName(ProvOp Op) {
  switch (Op) {
  case ProvOp::Insert:
    return "insert";
  case ProvOp::Move:
    return "move";
  case ProvOp::Update:
    return "update";
  case ProvOp::Rollback:
    return "rollback";
  }
  return "unknown";
}

namespace {

/// Interned per-document attribution entry. Author ids index the doc's
/// author table; 0 is the reserved "unattributed" id.
struct Entry {
  uint64_t IntroVersion = 0;
  uint64_t LastVersion = 0;
  uint32_t IntroAuthor = 0;
  uint32_t LastAuthor = 0;
  ProvOp LastOp = ProvOp::Insert;
};

/// Estimated heap cost of one node-map slot (entry, key, bucket links).
constexpr uint64_t NodeCost =
    sizeof(std::pair<const URI, Entry>) + 2 * sizeof(void *);
/// Fixed overhead per interned author string beyond its characters.
constexpr uint64_t AuthorCost = sizeof(std::string) + 2 * sizeof(void *);

} // namespace

struct ProvenanceIndex::DocIndex {
  mutable std::mutex Mu;
  std::unordered_map<URI, Entry> Nodes;
  /// Id I resolves to Authors[I - 1]; id 0 is the empty author.
  std::vector<std::string> Authors;
  std::unordered_map<std::string, uint32_t> AuthorIds;
  uint64_t AuthorBytes = 0;
  /// Version of the last revision folded in.
  uint64_t Version = 0;
  /// What the memory budget is currently charged for this document.
  uint64_t ChargedBytes = 0;
  mutable uint64_t Queries = 0;

  uint32_t intern(std::string_view Author) {
    if (Author.empty())
      return 0;
    auto It = AuthorIds.find(std::string(Author));
    if (It != AuthorIds.end())
      return It->second;
    Authors.emplace_back(Author);
    uint32_t Id = static_cast<uint32_t>(Authors.size());
    AuthorIds.emplace(Authors.back(), Id);
    AuthorBytes += Author.size() + AuthorCost;
    return Id;
  }

  std::string_view author(uint32_t Id) const {
    return Id == 0 ? std::string_view() : std::string_view(Authors[Id - 1]);
  }

  uint64_t estimateBytes() const {
    return sizeof(DocIndex) + Nodes.size() * NodeCost + AuthorBytes;
  }
};

ProvenanceIndex::ProvenanceIndex() : ProvenanceIndex(Config()) {}
ProvenanceIndex::ProvenanceIndex(Config C) : Cfg(C) {}

ProvenanceIndex::~ProvenanceIndex() { clear(); }

void ProvenanceIndex::attach(service::DocumentStore &Store) {
  Store.addScriptListener([this](DocId Doc, uint64_t Version,
                                 DocumentStore::StoreOp Op,
                                 const EditScript &Script,
                                 const DocumentStore::ScriptInfo &Info) {
    apply(Doc, Version, Op, Info.Author, Script);
  });
  Store.addEraseListener([this](DocId Doc) { eraseDoc(Doc); });
}

std::shared_ptr<ProvenanceIndex::DocIndex>
ProvenanceIndex::find(DocId Doc) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  return It == Docs.end() ? nullptr : It->second;
}

std::shared_ptr<ProvenanceIndex::DocIndex>
ProvenanceIndex::findOrCreate(DocId Doc) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  if (It != Docs.end())
    return It->second;
  auto D = std::make_shared<DocIndex>();
  Docs.emplace(Doc, D);
  return D;
}

void ProvenanceIndex::rechargeLocked(DocIndex &D) const {
  uint64_t Now = D.estimateBytes();
  if (Cfg.MemBudget != nullptr) {
    if (Now > D.ChargedBytes)
      Cfg.MemBudget->charge(Now - D.ChargedBytes);
    else if (Now < D.ChargedBytes)
      Cfg.MemBudget->release(D.ChargedBytes - Now);
  }
  D.ChargedBytes = Now;
}

void ProvenanceIndex::apply(DocId Doc, uint64_t Version,
                            DocumentStore::StoreOp Op, std::string_view Author,
                            const EditScript &Script) {
  std::shared_ptr<DocIndex> D = findOrCreate(Doc);
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (Op == DocumentStore::StoreOp::Open) {
    // A fresh document: any state left from a previous incarnation of
    // the id (the erase notification can race an in-flight op) is dead.
    D->Nodes.clear();
    D->Authors.clear();
    D->AuthorIds.clear();
    D->AuthorBytes = 0;
  }
  D->Version = Version;
  uint32_t A = D->intern(Author);
  bool IsRollback = Op == DocumentStore::StoreOp::Rollback;

  for (const Edit &E : Script.edits()) {
    URI Uri = E.Node.Uri;
    switch (E.Kind) {
    case EditKind::Load: {
      Entry &N = D->Nodes[Uri];
      N.IntroVersion = N.LastVersion = Version;
      N.IntroAuthor = N.LastAuthor = A;
      N.LastOp = IsRollback ? ProvOp::Rollback : ProvOp::Insert;
      break;
    }
    case EditKind::Unload:
      D->Nodes.erase(Uri);
      break;
    case EditKind::Detach:
    case EditKind::Attach: {
      auto It = D->Nodes.find(Uri);
      if (It == D->Nodes.end()) {
        // Moving a node the index never saw introduced (it predates the
        // index): adopt it here, conservatively attributed to this
        // revision.
        Entry N;
        N.IntroVersion = N.LastVersion = Version;
        N.IntroAuthor = N.LastAuthor = A;
        N.LastOp = IsRollback ? ProvOp::Rollback : ProvOp::Move;
        D->Nodes.emplace(Uri, N);
        break;
      }
      Entry &N = It->second;
      // Attaching a node this same revision just loaded is part of its
      // introduction, not a move.
      if (!IsRollback && N.LastVersion == Version &&
          N.LastOp == ProvOp::Insert)
        break;
      N.LastVersion = Version;
      N.LastAuthor = A;
      N.LastOp = IsRollback ? ProvOp::Rollback : ProvOp::Move;
      break;
    }
    case EditKind::Update: {
      auto It = D->Nodes.find(Uri);
      if (It == D->Nodes.end()) {
        Entry N;
        N.IntroVersion = N.LastVersion = Version;
        N.IntroAuthor = N.LastAuthor = A;
        N.LastOp = IsRollback ? ProvOp::Rollback : ProvOp::Update;
        D->Nodes.emplace(Uri, N);
        break;
      }
      Entry &N = It->second;
      N.LastVersion = Version;
      N.LastAuthor = A;
      N.LastOp = IsRollback ? ProvOp::Rollback : ProvOp::Update;
      break;
    }
    }
  }
  rechargeLocked(*D);
}

void ProvenanceIndex::eraseDoc(DocId Doc) {
  std::shared_ptr<DocIndex> D;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Docs.find(Doc);
    if (It == Docs.end())
      return;
    D = std::move(It->second);
    Docs.erase(It);
  }
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (Cfg.MemBudget != nullptr && D->ChargedBytes != 0)
    Cfg.MemBudget->release(D->ChargedBytes);
  D->ChargedBytes = 0;
}

void ProvenanceIndex::clear() {
  std::map<DocId, std::shared_ptr<DocIndex>> Taken;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Taken.swap(Docs);
  }
  for (auto &[Doc, D] : Taken) {
    std::lock_guard<std::mutex> Lock(D->Mu);
    if (Cfg.MemBudget != nullptr && D->ChargedBytes != 0)
      Cfg.MemBudget->release(D->ChargedBytes);
    D->ChargedBytes = 0;
  }
}

bool ProvenanceIndex::blameNode(DocId Doc, URI Uri,
                                NodeProvenance &Out) const {
  std::shared_ptr<DocIndex> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  ++D->Queries;
  auto It = D->Nodes.find(Uri);
  if (It == D->Nodes.end())
    return false;
  const Entry &N = It->second;
  Out.IntroVersion = N.IntroVersion;
  Out.LastVersion = N.LastVersion;
  Out.LastOp = N.LastOp;
  Out.IntroAuthor = std::string(D->author(N.IntroAuthor));
  Out.LastAuthor = std::string(D->author(N.LastAuthor));
  return true;
}

bool ProvenanceIndex::DocView::lookup(URI Uri, NodeProvenance &Out) const {
  const auto *Doc = static_cast<const DocIndex *>(D);
  auto It = Doc->Nodes.find(Uri);
  if (It == Doc->Nodes.end())
    return false;
  const Entry &N = It->second;
  Out.IntroVersion = N.IntroVersion;
  Out.LastVersion = N.LastVersion;
  Out.LastOp = N.LastOp;
  Out.IntroAuthor = std::string(Doc->author(N.IntroAuthor));
  Out.LastAuthor = std::string(Doc->author(N.LastAuthor));
  return true;
}

uint64_t ProvenanceIndex::DocView::version() const {
  return static_cast<const DocIndex *>(D)->Version;
}

bool ProvenanceIndex::withDocIndex(
    DocId Doc, const std::function<void(const DocView &)> &Fn) const {
  std::shared_ptr<DocIndex> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  ++D->Queries;
  Fn(DocView(D.get()));
  return true;
}

std::string ProvenanceIndex::snapshotDoc(DocId Doc) const {
  std::string Blob;
  std::shared_ptr<DocIndex> D = find(Doc);
  if (!D) {
    putVarint(Blob, 0); // version
    putVarint(Blob, 0); // authors
    putVarint(Blob, 0); // nodes
    return Blob;
  }
  std::lock_guard<std::mutex> Lock(D->Mu);

  // Canonical form: nodes sorted by URI, author ids remapped to
  // first-use order over that walk, and only referenced authors
  // emitted. Interning order -- which depends on whether the index was
  // built incrementally, replayed, or installed from a snapshot -- thus
  // never shows in the bytes.
  std::vector<std::pair<URI, const Entry *>> Sorted;
  Sorted.reserve(D->Nodes.size());
  for (const auto &[Uri, N] : D->Nodes)
    Sorted.emplace_back(Uri, &N);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const auto &L, const auto &R) { return L.first < R.first; });

  std::vector<uint32_t> Remap(D->Authors.size() + 1, 0);
  std::vector<uint32_t> TableIds; // old ids in canonical order
  auto Canonical = [&](uint32_t Old) -> uint32_t {
    if (Old == 0)
      return 0;
    if (Remap[Old] == 0) {
      TableIds.push_back(Old);
      Remap[Old] = static_cast<uint32_t>(TableIds.size());
    }
    return Remap[Old];
  };
  struct CanonNode {
    URI Uri;
    uint64_t IntroV, LastV;
    uint32_t IntroA, LastA;
    ProvOp Op;
  };
  std::vector<CanonNode> Nodes;
  Nodes.reserve(Sorted.size());
  for (const auto &[Uri, N] : Sorted)
    Nodes.push_back({Uri, N->IntroVersion, N->LastVersion,
                     Canonical(N->IntroAuthor), Canonical(N->LastAuthor),
                     N->LastOp});

  putVarint(Blob, D->Version);
  putVarint(Blob, TableIds.size());
  for (uint32_t Old : TableIds) {
    std::string_view A = D->author(Old);
    putVarint(Blob, A.size());
    Blob.append(A.data(), A.size());
  }
  putVarint(Blob, Nodes.size());
  for (const CanonNode &N : Nodes) {
    putVarint(Blob, N.Uri);
    putVarint(Blob, N.IntroV);
    putVarint(Blob, N.IntroA);
    putVarint(Blob, N.LastV);
    putVarint(Blob, N.LastA);
    Blob.push_back(static_cast<char>(N.Op));
  }
  return Blob;
}

bool ProvenanceIndex::installSnapshot(DocId Doc, std::string_view Blob) {
  // Decode fully into fresh state before touching the live index: a
  // malformed blob must leave the previous state intact.
  size_t Pos = 0;
  auto Version = getVarint(Blob, Pos);
  auto NumAuthors = getVarint(Blob, Pos);
  if (!Version || !NumAuthors || *NumAuthors > Blob.size())
    return false;
  std::vector<std::string> Authors;
  Authors.reserve(*NumAuthors);
  for (uint64_t I = 0; I != *NumAuthors; ++I) {
    auto Len = getVarint(Blob, Pos);
    if (!Len || *Len > Blob.size() - Pos)
      return false;
    Authors.emplace_back(Blob.substr(Pos, *Len));
    Pos += *Len;
  }
  auto NumNodes = getVarint(Blob, Pos);
  if (!NumNodes || *NumNodes > Blob.size())
    return false;
  std::unordered_map<URI, Entry> Nodes;
  Nodes.reserve(*NumNodes);
  for (uint64_t I = 0; I != *NumNodes; ++I) {
    auto Uri = getVarint(Blob, Pos);
    auto IntroV = getVarint(Blob, Pos);
    auto IntroA = getVarint(Blob, Pos);
    auto LastV = getVarint(Blob, Pos);
    auto LastA = getVarint(Blob, Pos);
    if (!Uri || !IntroV || !IntroA || !LastV || !LastA ||
        Pos >= Blob.size())
      return false;
    uint8_t Op = static_cast<uint8_t>(Blob[Pos++]);
    if (*IntroA > Authors.size() || *LastA > Authors.size() ||
        Op > static_cast<uint8_t>(ProvOp::Rollback))
      return false;
    Entry N;
    N.IntroVersion = *IntroV;
    N.LastVersion = *LastV;
    N.IntroAuthor = static_cast<uint32_t>(*IntroA);
    N.LastAuthor = static_cast<uint32_t>(*LastA);
    N.LastOp = static_cast<ProvOp>(Op);
    Nodes.emplace(static_cast<URI>(*Uri), N);
  }
  if (Pos != Blob.size())
    return false;

  std::shared_ptr<DocIndex> D = findOrCreate(Doc);
  std::lock_guard<std::mutex> Lock(D->Mu);
  D->Nodes = std::move(Nodes);
  D->Authors = std::move(Authors);
  D->AuthorIds.clear();
  D->AuthorBytes = 0;
  for (uint32_t I = 0; I != D->Authors.size(); ++I) {
    D->AuthorIds.emplace(D->Authors[I], I + 1);
    D->AuthorBytes += D->Authors[I].size() + AuthorCost;
  }
  D->Version = *Version;
  rechargeLocked(*D);
  return true;
}

ProvenanceIndex::Stats ProvenanceIndex::stats() const {
  Stats Out;
  std::map<DocId, std::shared_ptr<DocIndex>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Snapshot = Docs;
  }
  for (const auto &[Doc, D] : Snapshot) {
    std::lock_guard<std::mutex> Lock(D->Mu);
    DocStats DS;
    DS.Doc = Doc;
    DS.Nodes = D->Nodes.size();
    DS.Bytes = D->estimateBytes();
    DS.Queries = D->Queries;
    ++Out.Docs;
    Out.Nodes += DS.Nodes;
    Out.Bytes += DS.Bytes;
    Out.Queries += DS.Queries;
    Out.PerDoc.push_back(std::move(DS));
  }
  return Out;
}

std::string ProvenanceIndex::statsJsonFragment() const {
  Stats S = stats();
  auto N = [](uint64_t V) { return std::to_string(V); };
  std::string Json = "\"blame\":{\"docs\":" + N(S.Docs) +
                     ",\"provenance_nodes\":" + N(S.Nodes) +
                     ",\"provenance_bytes\":" + N(S.Bytes) +
                     ",\"blame_queries\":" + N(S.Queries) + ",\"per_doc\":[";
  bool First = true;
  for (const DocStats &DS : S.PerDoc) {
    if (!First)
      Json += ',';
    First = false;
    Json += "{\"doc\":" + N(DS.Doc) + ",\"nodes\":" + N(DS.Nodes) +
            ",\"bytes\":" + N(DS.Bytes) + ",\"queries\":" + N(DS.Queries) +
            "}";
  }
  Json += "]}";
  return Json;
}
