//===- tests/blame_test.cpp - Blame/provenance subsystem tests -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the blame subsystem (src/blame): the incremental-equals-
/// replay property over seeded mutation chains (the subsystem's core
/// correctness claim, run on both digest paths and both digest
/// policies), the rollback attribution rule, the typed degradation at
/// the history-ring eviction boundary, canonical snapshot round trips,
/// memory-budget accounting, the author token and blame/history verbs
/// of the wire protocol, and durability: a crash-recovered provenance
/// index must be byte-identical to the live one. Runs under ASan/UBSan
/// and TSan in CI.
///
//===----------------------------------------------------------------------===//

#include "blame/Provenance.h"
#include "blame/Render.h"

#include "corpus/JsonGen.h"
#include "json/Json.h"
#include "persist/BinaryCodec.h"
#include "persist/Persistence.h"
#include "persist/Snapshot.h"
#include "persist/Wal.h"
#include "service/DocumentStore.h"
#include "service/Wire.h"
#include "support/Rng.h"

#include "TestLang.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::service;
using namespace truediff::testlang;

namespace {

/// The version of the last revision folded into \p Doc's index; false
/// when the document is unknown.
bool docVersion(const blame::ProvenanceIndex &Prov, uint64_t Doc,
                uint64_t *Out) {
  return Prov.withDocIndex(
      Doc, [&](const blame::ProvenanceIndex::DocView &V) { *Out = V.version(); });
}

constexpr uint64_t NumDocs = 6;

/// A unique scratch directory, removed on destruction (the data dirs
/// here hold only WAL segments and snapshot files).
class TempDir {
public:
  TempDir() {
    std::string Tmpl = ::testing::TempDir() + "blameXXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    const char *P = ::mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Dir = P ? P : "";
  }
  ~TempDir() {
    for (const auto &[Index, Path] : persist::listWalSegments(Dir))
      ::unlink(Path.c_str());
    for (const persist::SnapshotFileName &F : persist::listSnapshotFiles(Dir))
      ::unlink(F.Path.c_str());
    ::rmdir(Dir.c_str());
  }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

/// Builder that decodes a binary tree blob -- lets the workload reuse
/// corpus-generated JSON trees across document contexts.
TreeBuilder blobBuilder(const SignatureTable &Sig, std::string Blob) {
  return [&Sig, Blob = std::move(Blob)](TreeContext &Ctx) -> BuildResult {
    persist::DecodeTreeResult D =
        persist::decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
    if (!D.ok())
      return {nullptr, D.Error, ErrCode::MalformedFrame};
    return {D.Root, "", ErrCode::None};
  };
}

/// One captured script-stream event, erase included, in emission order.
/// The replay index folds exactly these -- the from-scratch half of the
/// incremental-equals-replay property.
struct StreamEvent {
  bool IsErase = false;
  DocId Doc = 0;
  uint64_t Version = 0;
  DocumentStore::StoreOp Op = DocumentStore::StoreOp::Open;
  std::string Author;
  EditScript Script;
};

/// Drives a seeded workload of authored opens, submits, rollbacks, and
/// erases against \p Store, recording every stream event into \p Log.
void runSeededWorkload(DocumentStore &Store, const SignatureTable &Sig,
                       uint64_t Steps, uint64_t Seed,
                       std::vector<StreamEvent> *Log = nullptr) {
  if (Log != nullptr) {
    Store.addScriptListener([Log](DocId Doc, uint64_t Version,
                                  DocumentStore::StoreOp Op,
                                  const EditScript &Script,
                                  const DocumentStore::ScriptInfo &Info) {
      StreamEvent E;
      E.Doc = Doc;
      E.Version = Version;
      E.Op = Op;
      E.Author = std::string(Info.Author);
      E.Script = Script;
      Log->push_back(std::move(E));
    });
    Store.addEraseListener([Log](DocId Doc) {
      StreamEvent E;
      E.IsErase = true;
      E.Doc = Doc;
      Log->push_back(std::move(E));
    });
  }

  static const char *const Authors[] = {"ada", "grace", "barbara", "edsger"};
  Rng R(Seed);
  TreeContext Ctx(Sig);
  std::map<uint64_t, Tree *> Model;
  corpus::JsonGenOptions Opts;
  Opts.MaxDepth = 3;
  Opts.MaxFanout = 4;
  for (uint64_t I = 0; I != Steps; ++I) {
    uint64_t Doc = 1 + R.below(NumDocs);
    const char *Author = Authors[R.below(4)];
    auto It = Model.find(Doc);
    if (It == Model.end()) {
      Tree *T = corpus::generateJson(Ctx, R, Opts);
      StoreResult SR =
          Store.open(Doc, blobBuilder(Sig, persist::encodeTree(Sig, T)), Author);
      ASSERT_TRUE(SR.Ok) << SR.Error;
      Model[Doc] = T;
      continue;
    }
    unsigned Dice = static_cast<unsigned>(R.below(100));
    if (Dice < 70) {
      Tree *Next = corpus::mutateJson(Ctx, R, It->second);
      SubmitOptions SubOpts;
      SubOpts.Author = Author;
      StoreResult SR = Store.submit(
          Doc, blobBuilder(Sig, persist::encodeTree(Sig, Next)), SubOpts);
      ASSERT_TRUE(SR.Ok) << SR.Error;
      It->second = Next;
    } else if (Dice < 85) {
      Store.rollback(Doc); // may fail cleanly at version 0
    } else {
      Store.erase(Doc);
      Model.erase(Doc);
    }
  }
}

/// The incremental-equals-replay property under one store configuration:
/// an index maintained by the live listener must serialize byte-identically
/// to one built by folding the captured stream from scratch.
void checkIncrementalEqualsReplay(DocumentStore::Config StoreCfg,
                                  uint64_t Steps, uint64_t Seed) {
  SignatureTable Sig = json::makeJsonSignature();
  DocumentStore Store(Sig, StoreCfg);
  blame::ProvenanceIndex Incremental;
  Incremental.attach(Store);
  std::vector<StreamEvent> Log;
  runSeededWorkload(Store, Sig, Steps, Seed, &Log);
  ASSERT_FALSE(Log.empty());

  blame::ProvenanceIndex Replay;
  for (const StreamEvent &E : Log) {
    if (E.IsErase)
      Replay.eraseDoc(E.Doc);
    else
      Replay.apply(E.Doc, E.Version, E.Op, E.Author, E.Script);
  }

  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc)
    EXPECT_EQ(Incremental.snapshotDoc(Doc), Replay.snapshotDoc(Doc))
        << "doc " << Doc << " diverged (seed " << Seed << ")";
  blame::ProvenanceIndex::Stats A = Incremental.stats();
  blame::ProvenanceIndex::Stats B = Replay.stats();
  EXPECT_EQ(A.Docs, B.Docs);
  EXPECT_EQ(A.Nodes, B.Nodes);
}

/// S-expression builder over the test language.
TreeBuilder expBuilder(const std::string &Text) {
  return makeSExprBuilder(Text);
}

/// URI of the first node tagged \p Tag in a whole-tree blame payload
/// (lines are "<indent><tag>#<uri> ..."); NullURI when absent.
URI findTaggedUri(const std::string &Payload, const std::string &Tag) {
  std::string Needle = Tag + "#";
  size_t Pos = 0;
  while ((Pos = Payload.find(Needle, Pos)) != std::string::npos) {
    bool AtStart = Pos == 0 || Payload[Pos - 1] == ' ' ||
                   Payload[Pos - 1] == '\n';
    if (AtStart)
      return std::strtoull(Payload.c_str() + Pos + Needle.size(), nullptr, 10);
    Pos += Needle.size();
  }
  return NullURI;
}

} // namespace

//===----------------------------------------------------------------------===//
// The core property: incremental == from-scratch replay
//===----------------------------------------------------------------------===//

TEST(BlameProperty, IncrementalEqualsReplayWarm) {
  DocumentStore::Config C;
  checkIncrementalEqualsReplay(C, 500, 0xb1a3e001);
}

TEST(BlameProperty, IncrementalEqualsReplayCold) {
  DocumentStore::Config C;
  C.PersistDigests = false;
  checkIncrementalEqualsReplay(C, 500, 0xb1a3e002);
}

//===----------------------------------------------------------------------===//
// Attribution rules
//===----------------------------------------------------------------------===//

TEST(BlameAttribution, OpenIntroducesEveryNode) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  Response R = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Every line of the tree is attributed to ada's open.
  EXPECT_EQ(R.Payload.find("intro=v0:ada last=v0:ada insert"),
            R.Payload.find("intro="));
  EXPECT_EQ(R.Payload.find("grace"), std::string::npos);
}

TEST(BlameAttribution, UpdateReattributesLastTouchOnly) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  SubmitOptions Opts;
  Opts.Author = "grace";
  ASSERT_TRUE(Store.submit(1, expBuilder("(Add (Num 9) (Num 2))"), Opts).Ok);

  Response R = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(R.Ok) << R.Error;
  // The updated literal's node: intro stays ada, last becomes grace.
  EXPECT_NE(R.Payload.find("intro=v0:ada last=v1:grace update"),
            std::string::npos)
      << R.Payload;
  // Untouched nodes keep their open attribution.
  EXPECT_NE(R.Payload.find("intro=v0:ada last=v0:ada insert"),
            std::string::npos)
      << R.Payload;
}

TEST(BlameAttribution, RollbackAttributesToTargetVersionAuthor) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  SubmitOptions Opts;
  Opts.Author = "grace";
  ASSERT_TRUE(Store.submit(1, expBuilder("(Add (Num 9) (Num 2))"), Opts).Ok);
  Opts.Author = "barbara";
  ASSERT_TRUE(Store.submit(1, expBuilder("(Add (Num 7) (Num 2))"), Opts).Ok);

  // Rollback v2 -> v1: the touched node is re-attributed to grace (the
  // target version's author), never to whoever asked for the rollback.
  ASSERT_TRUE(Store.rollback(1).Ok);
  Response R = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Payload.find("last=v1:grace rollback"), std::string::npos)
      << R.Payload;
  EXPECT_EQ(R.Payload.find("barbara"), std::string::npos) << R.Payload;

  // Rollback v1 -> v0: the target is the open, so attribution falls
  // back to the open's author.
  ASSERT_TRUE(Store.rollback(1).Ok);
  R = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Payload.find("last=v0:ada rollback"), std::string::npos)
      << R.Payload;
  EXPECT_EQ(R.Payload.find("grace"), std::string::npos) << R.Payload;
}

TEST(BlameAttribution, SingleNodeProbeNeedsNoStore) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  Response Tree = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(Tree.Ok);
  URI Root = findTaggedUri(Tree.Payload, "Add");
  ASSERT_NE(Root, NullURI);

  blame::NodeProvenance P;
  ASSERT_TRUE(Prov.blameNode(1, Root, P));
  EXPECT_EQ(P.IntroVersion, 0u);
  EXPECT_EQ(P.IntroAuthor, "ada");
  EXPECT_EQ(P.LastAuthor, "ada");
  EXPECT_EQ(P.LastOp, blame::ProvOp::Insert);
  EXPECT_FALSE(Prov.blameNode(1, Root + 100000, P));
  EXPECT_FALSE(Prov.blameNode(42, Root, P));
}

//===----------------------------------------------------------------------===//
// History and the ring-eviction boundary
//===----------------------------------------------------------------------===//

TEST(BlameHistory, EvictionDegradesTyped) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config C;
  C.HistoryCapacity = 4;
  DocumentStore Store(Sig, C);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  // v1 introduces a Call node (grace); later submits only touch the
  // right-hand Num, pushing v1 out of the 4-entry ring.
  SubmitOptions Opts;
  Opts.Author = "grace";
  ASSERT_TRUE(
      Store.submit(1, expBuilder("(Add (Call (Num 1) \"f\") (Num 2))"), Opts)
          .Ok);
  Response Tree = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(Tree.Ok);
  URI CallUri = findTaggedUri(Tree.Payload, "Call");
  ASSERT_NE(CallUri, NullURI);

  Opts.Author = "barbara";
  for (int N = 10; N != 16; ++N)
    ASSERT_TRUE(Store.submit(1,
                             expBuilder("(Add (Call (Num 1) \"f\") (Num " +
                                        std::to_string(N) + "))"),
                             Opts)
                    .Ok);

  // The ring now holds v4..v7; nothing retained touches the Call node
  // and its v1 introduction is gone: a typed error, never a silently
  // empty chain.
  Response H = blame::historyResponse(Store, Prov, 1, CallUri);
  EXPECT_FALSE(H.Ok);
  EXPECT_EQ(H.Code, ErrCode::HistoryExhausted);
  EXPECT_NE(H.Error.find("evicted"), std::string::npos) << H.Error;

  // Attribution itself never degrades: the index still knows v1/grace.
  blame::NodeProvenance P;
  ASSERT_TRUE(Prov.blameNode(1, CallUri, P));
  EXPECT_EQ(P.IntroVersion, 1u);
  EXPECT_EQ(P.IntroAuthor, "grace");

  // Touch the node again: its chain is now partially retained, so the
  // answer succeeds but carries an explicit eviction marker.
  Opts.Author = "edsger";
  ASSERT_TRUE(
      Store.submit(1, expBuilder("(Add (Call (Num 1) \"g\") (Num 15))"), Opts)
          .Ok);
  H = blame::historyResponse(Store, Prov, 1, CallUri);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_NE(H.Payload.find("v8 by edsger"), std::string::npos) << H.Payload;
  EXPECT_NE(H.Payload.find("evicted: revisions before v"), std::string::npos)
      << H.Payload;
}

TEST(BlameHistory, CompleteChainListsAllTouchesAndOpen) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  SubmitOptions Opts;
  Opts.Author = "grace";
  ASSERT_TRUE(Store.submit(1, expBuilder("(Add (Num 9) (Num 2))"), Opts).Ok);

  Response Tree = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(Tree.Ok);
  URI NumUri = findTaggedUri(Tree.Payload, "Num");
  ASSERT_NE(NumUri, NullURI);

  Response H = blame::historyResponse(Store, Prov, 1, NumUri);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_NE(H.Payload.find("v1 by grace (update)"), std::string::npos)
      << H.Payload;
  EXPECT_NE(H.Payload.find("v0 by ada (open)"), std::string::npos)
      << H.Payload;
  EXPECT_EQ(H.Payload.find("evicted"), std::string::npos) << H.Payload;

  Response Missing = blame::historyResponse(Store, Prov, 1, NumUri + 100000);
  EXPECT_FALSE(Missing.Ok);
  EXPECT_EQ(Missing.Code, ErrCode::NoSuchNode);
  Response NoDoc = blame::historyResponse(Store, Prov, 9, NumUri);
  EXPECT_FALSE(NoDoc.Ok);
  EXPECT_EQ(NoDoc.Code, ErrCode::NoSuchDocument);
}

//===----------------------------------------------------------------------===//
// Canonical serialization, budget accounting, stats
//===----------------------------------------------------------------------===//

TEST(BlameSnapshot, RoundTripAndMalformedRejection) {
  SignatureTable Sig = json::makeJsonSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);
  runSeededWorkload(Store, Sig, 120, 0x5eed);

  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    std::string Blob = Prov.snapshotDoc(Doc);
    uint64_t Version = 0;
    if (!docVersion(Prov, Doc, &Version))
      continue;
    blame::ProvenanceIndex Fresh;
    ASSERT_TRUE(Fresh.installSnapshot(Doc, Blob)) << "doc " << Doc;
    EXPECT_EQ(Fresh.snapshotDoc(Doc), Blob) << "doc " << Doc;
    uint64_t FreshVersion = 0;
    ASSERT_TRUE(docVersion(Fresh, Doc, &FreshVersion));
    EXPECT_EQ(FreshVersion, Version);
  }

  blame::ProvenanceIndex Fresh;
  EXPECT_FALSE(Fresh.installSnapshot(1, "garbage"));
  EXPECT_FALSE(Fresh.installSnapshot(1, std::string("\xff\xff\xff\xff", 4)));
  uint64_t V = 0;
  EXPECT_FALSE(docVersion(Fresh, 1, &V));
}

TEST(BlameBudget, IndexBytesChargedAndReleased) {
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(0); // unlimited, but an honest gauge
  DocumentStore Store(Sig);
  blame::ProvenanceIndex::Config C;
  C.MemBudget = &Budget;
  blame::ProvenanceIndex Prov(C);
  Prov.attach(Store);

  ASSERT_TRUE(Store.open(1, expBuilder("(Add (Num 1) (Num 2))"), "ada").Ok);
  EXPECT_GT(Budget.used(), 0u);
  blame::ProvenanceIndex::Stats S = Prov.stats();
  EXPECT_EQ(Budget.used(), S.Bytes);
  EXPECT_EQ(S.Docs, 1u);
  EXPECT_EQ(S.Nodes, 3u);

  ASSERT_TRUE(Store.erase(1));
  EXPECT_EQ(Budget.used(), 0u);
  EXPECT_EQ(Prov.stats().Docs, 0u);
}

TEST(BlameStats, QueriesCountedAndJsonFragmentShaped) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);
  ASSERT_TRUE(Store.open(1, expBuilder("(Num 1)"), "ada").Ok);

  blame::NodeProvenance P;
  Response Tree = blame::blameResponse(Store, Prov, 1, false, NullURI);
  ASSERT_TRUE(Tree.Ok);
  URI Root = findTaggedUri(Tree.Payload, "Num");
  ASSERT_TRUE(Prov.blameNode(1, Root, P));
  EXPECT_GE(Prov.stats().Queries, 2u);

  std::string J = Prov.statsJsonFragment();
  EXPECT_EQ(J.rfind("\"blame\":{", 0), 0u) << J;
  EXPECT_NE(J.find("\"blame_queries\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"provenance_nodes\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"provenance_bytes\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"per_doc\":["), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Wire protocol: author token and the blame/history verbs
//===----------------------------------------------------------------------===//

TEST(BlameWire, AuthorTokenParsed) {
  WireCommand C = parseWireCommand("open 1 author=ada (Add (a) (b))");
  ASSERT_EQ(C.K, WireCommand::Kind::Open);
  EXPECT_EQ(C.Doc, 1u);
  EXPECT_EQ(C.Author, "ada");
  EXPECT_EQ(C.Arg, "(Add (a) (b))");

  C = parseWireCommand("submit 2 author=grace-h_77 (a)");
  ASSERT_EQ(C.K, WireCommand::Kind::Submit);
  EXPECT_EQ(C.Author, "grace-h_77");
  EXPECT_EQ(C.Arg, "(a)");

  // No token: the author stays empty and the tree text is untouched.
  C = parseWireCommand("submit 2 (author (a))");
  ASSERT_EQ(C.K, WireCommand::Kind::Submit);
  EXPECT_EQ(C.Author, "");
  EXPECT_EQ(C.Arg, "(author (a))");

  // The token must be followed by a tree.
  C = parseWireCommand("open 1 author=ada");
  EXPECT_EQ(C.K, WireCommand::Kind::Invalid);
}

TEST(BlameWire, BlameAndHistoryVerbsParsed) {
  WireCommand C = parseWireCommand("blame 3");
  ASSERT_EQ(C.K, WireCommand::Kind::Blame);
  EXPECT_EQ(C.Doc, 3u);
  EXPECT_FALSE(C.HasUri);

  C = parseWireCommand("blame 3 17");
  ASSERT_EQ(C.K, WireCommand::Kind::Blame);
  EXPECT_TRUE(C.HasUri);
  EXPECT_EQ(C.Uri, 17u);

  C = parseWireCommand("history 3 17");
  ASSERT_EQ(C.K, WireCommand::Kind::History);
  EXPECT_EQ(C.Doc, 3u);
  EXPECT_EQ(C.Uri, 17u);

  EXPECT_EQ(parseWireCommand("history 3").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("blame").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("blame 3 x").K, WireCommand::Kind::Invalid);
}

//===----------------------------------------------------------------------===//
// Durability: crash recovery rebuilds the index byte-identically
//===----------------------------------------------------------------------===//

TEST(BlameDurability, RecoveredIndexByteIdentical) {
  TempDir Dir;
  SignatureTable Sig = json::makeJsonSignature();

  std::map<uint64_t, std::string> LiveBlobs;
  std::map<uint64_t, uint64_t> LiveVersions;
  {
    DocumentStore Store(Sig);
    blame::ProvenanceIndex Prov;
    persist::Persistence::Config PC;
    PC.Dir = Dir.path();
    PC.SnapshotEvery = 8; // mix snapshot-covered state with a WAL tail
    PC.BackgroundIntervalMs = 0;
    persist::Persistence P(Sig, PC);
    P.setProvenanceSource(
        [&Prov](DocId Doc) { return Prov.snapshotDoc(Doc); });
    P.recoverAndAttach(Store, &Prov);
    Prov.attach(Store);

    runSeededWorkload(Store, Sig, 150, 0xdeadb1a3);
    // Snapshot a couple of documents explicitly so recovery exercises
    // both the snapshot-seeding and the WAL-folding paths.
    P.snapshotDocument(1);
    P.snapshotDocument(2);
    for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
      uint64_t V = 0;
      if (!docVersion(Prov, Doc, &V))
        continue;
      LiveBlobs[Doc] = Prov.snapshotDoc(Doc);
      LiveVersions[Doc] = V;
    }
    // Crash: Persistence flushes its tail on destruction; a kill -9
    // loses nothing more because completed writes survive in page cache.
  }
  ASSERT_FALSE(LiveBlobs.empty());

  DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  persist::RecoveryResult R =
      persist::Persistence::recover(Sig, Dir.path(), Store, &Prov);
  EXPECT_EQ(R.DocsRecovered, LiveBlobs.size());

  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    auto It = LiveBlobs.find(Doc);
    if (It == LiveBlobs.end()) {
      uint64_t V = 0;
      EXPECT_FALSE(docVersion(Prov, Doc, &V)) << "doc " << Doc;
      continue;
    }
    EXPECT_EQ(Prov.snapshotDoc(Doc), It->second) << "doc " << Doc;
    uint64_t V = 0;
    ASSERT_TRUE(docVersion(Prov, Doc, &V)) << "doc " << Doc;
    EXPECT_EQ(V, LiveVersions[Doc]) << "doc " << Doc;
  }

  // The recovered index serves blame without any history replay: the
  // whole-tree response renders directly against the restored trees.
  for (const auto &[Doc, Blob] : LiveBlobs) {
    Response B = blame::blameResponse(Store, Prov, Doc, false, NullURI);
    EXPECT_TRUE(B.Ok) << "doc " << Doc << ": " << B.Error;
  }
}
