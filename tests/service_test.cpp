//===- tests/service_test.cpp - Concurrent diff service tests --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the service layer: DocumentStore versioning and rollback
/// (inverse round trips at the store level), DiffService worker pool
/// semantics (backpressure, graceful shutdown), the wire protocol, the
/// metrics, and a multi-threaded hammer that the CI runs under
/// ThreadSanitizer: 8+ client threads over 64+ documents with no lost
/// updates, and a script stream that replays to every stored tree.
///
//===----------------------------------------------------------------------===//

#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "service/Metrics.h"
#include "service/Wire.h"

#include "corpus/Mutator.h"
#include "corpus/PyGen.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "tree/SExpr.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"

#include "DeepModule.h"
#include "TestLang.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

using namespace truediff;
using namespace truediff::service;
using namespace truediff::testlang;

namespace {

TreeBuilder sexprBuilder(const std::string &Text) {
  return makeSExprBuilder(Text);
}

/// Builds a random Python module from a fixed seed; deterministic per
/// seed, usable concurrently (every invocation owns its Rng).
TreeBuilder moduleBuilder(uint64_t Seed) {
  return [Seed](TreeContext &Ctx) -> BuildResult {
    Rng R(Seed);
    corpus::PyGenOptions Opts;
    Opts.NumFunctions = 2;
    Opts.NumClasses = 1;
    Opts.MethodsPerClass = 2;
    Opts.StmtsPerBody = 3;
    return BuildResult{corpus::generateModule(Ctx, R, Opts), ""};
  };
}

/// Replays a store's script stream into one MTree per document -- the
/// standard semantics of Figure 2 -- so a test can check that the stream
/// alone reproduces every stored tree, URIs included.
class ScriptReplay {
public:
  ScriptReplay(const SignatureTable &Sig, DocumentStore &Store) : Sig(Sig) {
    Store.addScriptListener([this](DocId Doc, uint64_t,
                                   DocumentStore::StoreOp Op,
                                   const EditScript &Script,
                                   const DocumentStore::ScriptInfo &) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Op == DocumentStore::StoreOp::Open) {
        Trees.erase(Doc);
        Trees.emplace(Doc, MTree(this->Sig));
      }
      auto It = Trees.find(Doc);
      if (It == Trees.end() || !It->second.patchChecked(Script).Ok)
        ++Failures;
    });
  }

  /// The replayed document in the form DocumentSnapshot::UriText has.
  std::string uriText(DocId Doc) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Trees.find(Doc);
    return It == Trees.end() ? std::string() : It->second.toString();
  }

  size_t failures() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Failures;
  }

private:
  const SignatureTable &Sig;
  mutable std::mutex Mu;
  std::unordered_map<DocId, MTree> Trees;
  size_t Failures = 0;
};

/// A complete binary tree of \p Depth levels of \p Op nodes over Num
/// leaves numbered from \p First. Trees with different operators share
/// no inner node, so a submit (or rollback) that changes the operator
/// unloads all 2^(Depth-1) - 1 inner nodes of the stored tree and loads
/// as many new ones: the garbage that arena compaction reclaims.
std::string opTreeText(const std::string &Op, int Depth, int First) {
  if (Depth <= 1)
    return "(Num " + std::to_string(First) + ")";
  int Half = 1 << (Depth - 2);
  return "(" + Op + " " + opTreeText(Op, Depth - 1, First) + " " +
         opTreeText(Op, Depth - 1, First + Half) + ")";
}

/// Every URI of \p Doc's stored tree.
std::set<URI> storedUris(const DocumentStore &Store, DocId Doc) {
  std::set<URI> Out;
  Store.withDocument(
      Doc, [&](const Tree *Root, uint64_t,
               const std::vector<DocumentStore::HistoryEntry> &) {
        std::vector<const Tree *> Stack{Root};
        while (!Stack.empty()) {
          const Tree *T = Stack.back();
          Stack.pop_back();
          Out.insert(T->uri());
          for (size_t I = 0; I != T->arity(); ++I)
            Stack.push_back(T->kid(I));
        }
      });
  return Out;
}

/// The Load edits of \p Script.
std::vector<const Edit *> loadsOf(const EditScript &Script) {
  std::vector<const Edit *> Out;
  for (const Edit &E : Script.edits())
    if (E.Kind == EditKind::Load)
      Out.push_back(&E);
  return Out;
}

//===----------------------------------------------------------------------===//
// DocumentStore
//===----------------------------------------------------------------------===//

class StoreTest : public ::testing::Test {
protected:
  StoreTest() : Sig(makeExpSignature()), Store(Sig) {}
  SignatureTable Sig;
  DocumentStore Store;
};

TEST_F(StoreTest, OpenSubmitSnapshot) {
  StoreResult R = Store.open(1, sexprBuilder("(Add (a) (b))"));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 0u);
  EXPECT_EQ(R.TreeSize, 3u);
  EXPECT_FALSE(R.Script.empty()); // the initializing script

  R = Store.submit(1, sexprBuilder("(Add (a) (Mul (b) (c)))"));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 1u);
  EXPECT_EQ(R.TreeSize, 5u);
  EXPECT_FALSE(R.Script.empty());
  EXPECT_EQ(R.NodesDiffed, 3u + 5u);

  DocumentSnapshot S = Store.snapshot(1);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.Version, 1u);
  EXPECT_EQ(S.Text, "(Add (a) (Mul (b) (c)))");

  EXPECT_TRUE(Store.contains(1));
  EXPECT_FALSE(Store.contains(2));
  EXPECT_FALSE(Store.open(1, sexprBuilder("(a)")).Ok); // already exists
  EXPECT_FALSE(Store.submit(2, sexprBuilder("(a)")).Ok);
  EXPECT_FALSE(Store.snapshot(2).Ok);
}

TEST_F(StoreTest, ScriptStreamReconstructsDocument) {
  // Applying the emitted init + submit scripts onto an empty MTree must
  // reconstruct the document: the script stream alone carries the full
  // state, which is what a remote truechange consumer relies on.
  MTree M(Sig);
  std::vector<EditScript> Stream;
  Store.addScriptListener([&](DocId, uint64_t, DocumentStore::StoreOp,
                              const EditScript &S,
                              const DocumentStore::ScriptInfo &) {
    Stream.push_back(S);
  });
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Sub (a) (b))")).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Sub (Add (a) (b)) (b))")).Ok);
  ASSERT_EQ(Stream.size(), 2u);
  for (const EditScript &S : Stream)
    ASSERT_TRUE(M.patchChecked(S).Ok);
  TreeContext Out(Sig);
  ParseResult Want = parseSExpr(Out, "(Sub (Add (a) (b)) (b))");
  ASSERT_TRUE(Want.ok());
  EXPECT_TRUE(M.equalsTree(Want.Root));
}

TEST_F(StoreTest, RollbackRestoresExactTrees) {
  // The store-level inverse round trip: apply script then its recorded
  // inverse restores a tree equal to the original -- including URIs,
  // which is stronger than structural equality.
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Add (Num 1) (Num 2))")).Ok);
  DocumentSnapshot V0 = Store.snapshot(1);

  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (Num 2) (Num 3))")).Ok);
  DocumentSnapshot V1 = Store.snapshot(1);

  ASSERT_TRUE(
      Store.submit(1, sexprBuilder("(Mul (Num 2) (Add (Num 3) (a)))")).Ok);

  StoreResult R = Store.rollback(1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 1u);
  DocumentSnapshot S = Store.snapshot(1);
  EXPECT_EQ(S.Text, V1.Text);
  EXPECT_EQ(S.UriText, V1.UriText); // literal, URI-level restoration

  R = Store.rollback(1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 0u);
  S = Store.snapshot(1);
  EXPECT_EQ(S.Text, V0.Text);
  EXPECT_EQ(S.UriText, V0.UriText);

  EXPECT_FALSE(Store.rollback(1).Ok); // history exhausted
}

TEST_F(StoreTest, RollbackAfterResubmitKeepsHistoryConsistent) {
  ASSERT_TRUE(Store.open(1, sexprBuilder("(a)")).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Add (a) (b))")).Ok);
  DocumentSnapshot V1 = Store.snapshot(1);
  ASSERT_TRUE(Store.rollback(1).Ok);
  // Diverge: submit something else, then roll all the way back again.
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (c) (d))")).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (d) (c))")).Ok);
  ASSERT_TRUE(Store.rollback(1).Ok);
  DocumentSnapshot S = Store.snapshot(1);
  EXPECT_EQ(S.Text, "(Mul (c) (d))");
  ASSERT_TRUE(Store.rollback(1).Ok);
  EXPECT_EQ(Store.snapshot(1).Text, "(a)");
  (void)V1;
}

TEST_F(StoreTest, ApplyRecordReplaysAnotherStoresStream) {
  // Replica mode: a second store fed this store's script stream through
  // applyRecord ends URI-identical with a clean digest cache, keeps the
  // same history ring (its own rollback emits the same inverse), and
  // refuses a record that does not follow without touching the document.
  struct Rec {
    DocumentStore::StoreOp Op;
    uint64_t Version;
    EditScript Script;
    std::string Author;
  };
  std::vector<Rec> Stream;
  Store.addScriptListener([&](DocId, uint64_t Version,
                              DocumentStore::StoreOp Op, const EditScript &S,
                              const DocumentStore::ScriptInfo &Info) {
    Stream.push_back({Op, Version, S, std::string(Info.Author)});
  });
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Add (Num 1) (Num 2))")).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (Num 2) (Num 3))")).Ok);
  ASSERT_TRUE(
      Store.submit(1, sexprBuilder("(Mul (Num 2) (Add (Num 3) (a)))")).Ok);
  ASSERT_TRUE(Store.rollback(1).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Sub (Num 3) (Num 2))")).Ok);

  DocumentStore Replica(Sig);
  for (const Rec &R : Stream) {
    StoreResult A = Replica.applyRecord(1, R.Op, R.Version, R.Script, R.Author);
    ASSERT_TRUE(A.Ok) << A.Error;
    EXPECT_EQ(A.Version, R.Version);
  }
  DocumentSnapshot Want = Store.snapshot(1);
  EXPECT_EQ(Replica.snapshot(1).UriText, Want.UriText);
  EXPECT_EQ(Replica.snapshot(1).Version, Want.Version);
  EXPECT_FALSE(Replica.checkDigests(1).has_value());

  // A version that skips ahead does not follow.
  StoreResult Skip = Replica.applyRecord(1, DocumentStore::StoreOp::Submit,
                                         Want.Version + 2, Stream[1].Script,
                                         "");
  EXPECT_EQ(Skip.Code, ErrCode::CasMismatch);
  // The initializing script is ill-typed against a filled root.
  StoreResult Ill = Replica.applyRecord(1, DocumentStore::StoreOp::Submit,
                                        Want.Version + 1, Stream[0].Script,
                                        "");
  EXPECT_FALSE(Ill.Ok);
  EXPECT_EQ(Replica.snapshot(1).UriText, Want.UriText);
  EXPECT_EQ(Replica.snapshot(1).Version, Want.Version);

  StoreResult Back = Store.rollback(1);
  StoreResult ReplicaBack = Replica.rollback(1);
  ASSERT_TRUE(Back.Ok && ReplicaBack.Ok) << ReplicaBack.Error;
  EXPECT_EQ(serializeEditScript(Sig, ReplicaBack.Script),
            serializeEditScript(Sig, Back.Script));
  EXPECT_EQ(Replica.snapshot(1).UriText, Store.snapshot(1).UriText);

  // Erased and opened again: the Open record replaces the earlier life.
  ASSERT_TRUE(Store.erase(1));
  Stream.clear();
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Num 7)")).Ok);
  ASSERT_TRUE(Replica
                  .applyRecord(1, Stream[0].Op, Stream[0].Version,
                               Stream[0].Script, Stream[0].Author)
                  .Ok);
  EXPECT_EQ(Replica.snapshot(1).UriText, Store.snapshot(1).UriText);
  EXPECT_EQ(Replica.snapshot(1).Version, 0u);
}

TEST(StoreConfigTest, HistoryRingIsBounded) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config Cfg;
  Cfg.HistoryCapacity = 2;
  DocumentStore Store(Sig, Cfg);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(b)")).Ok);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(c)")).Ok);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(d)")).Ok);
  EXPECT_TRUE(Store.rollback(1).Ok);  // v3 -> v2
  EXPECT_TRUE(Store.rollback(1).Ok);  // v2 -> v1
  EXPECT_FALSE(Store.rollback(1).Ok); // v1's record was evicted
  EXPECT_EQ(Store.snapshot(1).Text, "(b)");
}

TEST(StoreConfigTest, RollbackPastEvictedHistoryFailsCleanly) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config Cfg;
  Cfg.HistoryCapacity = 2;
  DocumentStore Store(Sig, Cfg);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);

  // At version 0 there is nothing to undo; that is its own error, not the
  // eviction one.
  StoreResult R = Store.rollback(1);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no history"), std::string::npos) << R.Error;

  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(b)")).Ok);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(c)")).Ok);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(d)")).Ok); // evicts v1's record
  ASSERT_TRUE(Store.rollback(1).Ok);                        // v3 -> v2
  ASSERT_TRUE(Store.rollback(1).Ok);                        // v2 -> v1
  DocumentSnapshot AtBoundary = Store.snapshot(1);

  // v1's record was evicted from the ring: the rollback must fail with a
  // clean protocol error naming the eviction, not hand back a torn tree.
  R = Store.rollback(1);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("evicted from the history ring"), std::string::npos)
      << R.Error;

  // The failed rollback touched nothing: same version, same URIs, digests
  // still clean, and the document keeps serving.
  DocumentSnapshot After = Store.snapshot(1);
  EXPECT_EQ(After.Version, AtBoundary.Version);
  EXPECT_EQ(After.UriText, AtBoundary.UriText);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(Add (a) (b))")).Ok);
  EXPECT_EQ(Store.snapshot(1).Text, "(Add (a) (b))");
}

TEST(StoreConfigTest, CompactionPreservesRollback) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config Cfg;
  Cfg.CompactionFactor = 1; // compact aggressively
  Cfg.HistoryCapacity = 64;
  DocumentStore Store(Sig, Cfg);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder("(Num 0)")).Ok);

  // Each version swaps the operator of a 63-node tree, so every submit
  // and every rollback leaves 31 unloaded nodes in the arena: several
  // compactions on the way up and on the way down.
  const char *Ops[] = {"Add", "Sub", "Mul"};
  std::vector<DocumentSnapshot> Snaps;
  Snaps.push_back(Store.snapshot(1));
  for (int I = 1; I <= 24; ++I) {
    std::string Text = opTreeText(Ops[I % 3], 6, I);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder(Text)).Ok);
    Snaps.push_back(Store.snapshot(1));
    ASSERT_EQ(Store.checkDigests(1), std::nullopt) << "at version " << I;
  }
  uint64_t CompactionsUp = Store.stats().Compactions;
  EXPECT_GT(CompactionsUp, 0u);
  for (int I = 24; I >= 1; --I) {
    ASSERT_TRUE(Store.rollback(1).Ok) << "at version " << I;
    DocumentSnapshot S = Store.snapshot(1);
    EXPECT_EQ(S.Text, Snaps[static_cast<size_t>(I) - 1].Text);
    EXPECT_EQ(S.UriText, Snaps[static_cast<size_t>(I) - 1].UriText);
    ASSERT_EQ(Store.checkDigests(1), std::nullopt) << "back at " << I - 1;
  }
  EXPECT_GT(Store.stats().Compactions, CompactionsUp);
}

TEST_F(StoreTest, EraseRemovesDocument) {
  ASSERT_TRUE(Store.open(1, sexprBuilder("(a)")).Ok);
  EXPECT_TRUE(Store.erase(1));
  EXPECT_FALSE(Store.erase(1));
  EXPECT_FALSE(Store.contains(1));
  EXPECT_FALSE(Store.submit(1, sexprBuilder("(b)")).Ok);
}

TEST_F(StoreTest, BuilderErrorsAreReported) {
  StoreResult R = Store.open(1, sexprBuilder("(Nope)"));
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_FALSE(Store.contains(1));

  ASSERT_TRUE(Store.open(2, sexprBuilder("(a)")).Ok);
  R = Store.submit(2, sexprBuilder("(Nope ("));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(Store.snapshot(2).Version, 0u); // unchanged
}

//===----------------------------------------------------------------------===//
// Document arenas
//===----------------------------------------------------------------------===//

TEST(StoreArenaTest, RefusedSubmitsLeaveTheArenaAndTheBudgetUntouched) {
  // A submit builds its target in an arena of its own, so a refused
  // build's partial tree -- a syntax error, the node or depth cap, the
  // memory budget -- dies with the request instead of staying in the
  // document's arena, charged to the budget until compaction.
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(256 << 10);
  DocumentStore::Config Cfg;
  Cfg.MemBudget = &Budget;
  DocumentStore Store(Sig, Cfg);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder(opTreeText("Add", 5, 0))).Ok);
  const uint64_t Arena = Store.stats().ArenaNodes;
  const size_t Charged = Budget.used();
  ASSERT_GT(Charged, 0u);

  std::string Big = opTreeText("Mul", 8, 0); // 255 nodes
  ParseLimits NodeCap;
  NodeCap.MaxNodes = 100;
  ParseLimits DepthCap;
  DepthCap.MaxDepth = 4;
  struct Refusal {
    TreeBuilder Build;
    ErrCode Code;
  };
  const std::vector<Refusal> Refusals = {
      // Every node but the root is built before the missing paren shows.
      {makeSExprBuilder(Big.substr(0, Big.size() - 1)), ErrCode::BuildFailed},
      {makeSExprBuilder(Big, NodeCap), ErrCode::TreeTooLarge},
      {makeSExprBuilder(Big, DepthCap), ErrCode::TreeTooDeep},
      // 4,095 nodes do not fit in the budget.
      {makeSExprBuilder(opTreeText("Mul", 12, 0)), ErrCode::MemoryBudget},
  };
  for (int Round = 0; Round != 8; ++Round)
    for (const Refusal &F : Refusals) {
      StoreResult R = Store.submit(1, F.Build);
      ASSERT_FALSE(R.Ok);
      EXPECT_EQ(R.Code, F.Code) << errCodeName(R.Code) << ": " << R.Error;
      ASSERT_EQ(Store.stats().ArenaNodes, Arena) << "round " << Round;
      ASSERT_EQ(Budget.used(), Charged) << "round " << Round;
    }

  // The document still serves, and an accepted submit's arena charge
  // outlives it only for the nodes the diff loaded.
  StoreResult R = Store.submit(1, makeSExprBuilder(Big));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Store.stats().ArenaNodes, Arena + loadsOf(R.Script).size());
  EXPECT_EQ(Store.snapshot(1).Text, Big);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
}

TEST(StoreArenaTest, SubmitsAndRollbacksGrowTheArenaByExactlyTheirLoads) {
  // Between compactions (disabled here), a document's arena grows only by
  // the nodes an in-place edit loads: a submit's target tree is never
  // kept, and a Load always introduces a URI the tree does not carry.
  SignatureTable Sig = python::makePythonSignature();
  DocumentStore::Config Cfg;
  Cfg.CompactionFactor = 0;
  Cfg.HistoryCapacity = 64;
  DocumentStore Store(Sig, Cfg);
  uint64_t Seed = tests::testSeed(0xa4e7a);
  SEED_TRACE(Seed);
  Rng R(Seed);
  TreeContext Scratch(Sig);
  corpus::PyGenOptions GenOpts;
  GenOpts.NumFunctions = 3;
  GenOpts.NumClasses = 1;
  GenOpts.StmtsPerBody = 4;
  const Tree *Module = corpus::generateModule(Scratch, R, GenOpts);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder(printSExpr(Sig, Module))).Ok);

  uint64_t Undoable = 0, Loads = 0;
  for (int Step = 0; Step != 120; ++Step) {
    std::set<URI> Before = storedUris(Store, 1);
    uint64_t ArenaBefore = Store.stats().ArenaNodes;
    StoreResult Res;
    if (Undoable != 0 && R.chance(30)) {
      --Undoable;
      Res = Store.rollback(1);
    } else {
      ++Undoable;
      Module = corpus::mutateModule(Scratch, R, Module, {});
      Res = Store.submit(1, makeSExprBuilder(printSExpr(Sig, Module)));
    }
    ASSERT_TRUE(Res.Ok) << Res.Error;
    std::vector<const Edit *> Loaded = loadsOf(Res.Script);
    Loads += Loaded.size();
    ASSERT_EQ(Store.stats().ArenaNodes - ArenaBefore, Loaded.size())
        << "step " << Step;
    for (const Edit *E : Loaded)
      ASSERT_EQ(Before.count(E->Node.Uri), 0u)
          << "step " << Step << " loads live URI " << E->Node.Uri;
    ASSERT_EQ(Store.stats().LiveNodes, Res.TreeSize);
  }
  EXPECT_GT(Loads, 0u);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);

  // The replace-root fallback keeps the target itself: the request arena
  // becomes the document's, holding exactly the stored tree.
  SubmitOptions Fallback;
  Fallback.UseFallback = [] { return true; };
  Module = corpus::mutateModule(Scratch, R, Module, {});
  StoreResult Res =
      Store.submit(1, makeSExprBuilder(printSExpr(Sig, Module)), Fallback);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_TRUE(Res.UsedFallback);
  EXPECT_EQ(Store.stats().ArenaNodes, Res.TreeSize);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
}

//===----------------------------------------------------------------------===//
// Warm-path digest cache
//===----------------------------------------------------------------------===//

TEST(StoreArenaTest, LoadsAfterACompactionTakeUrisNeverIssuedBefore) {
  // A rollback unloads the nodes its submit loaded, the highest URIs the
  // document has issued. A compaction right after it must not restart
  // the counter above the live tree: the next submit's loads would take
  // URIs that earlier scripts already gave to other nodes.
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config Cfg;
  Cfg.CompactionFactor = 1;
  Cfg.HistoryCapacity = 64;
  DocumentStore Store(Sig, Cfg);
  std::vector<URI> Loaded; // the newest script's loads
  URI MaxIssued = NullURI;
  Store.addScriptListener([&](DocId, uint64_t, DocumentStore::StoreOp,
                              const EditScript &S,
                              const DocumentStore::ScriptInfo &) {
    Loaded.clear();
    for (const Edit *E : loadsOf(S)) {
      Loaded.push_back(E->Node.Uri);
      MaxIssued = std::max(MaxIssued, E->Node.Uri);
    }
  });
  ASSERT_TRUE(Store.open(1, makeSExprBuilder(opTreeText("Add", 6, 0))).Ok);
  const char *Ops[] = {"Add", "Sub", "Mul"};
  for (int I = 1; I <= 16; ++I)
    ASSERT_TRUE(
        Store.submit(1, makeSExprBuilder(opTreeText(Ops[I % 3], 6, I))).Ok);
  bool Compacted = false;
  for (int I = 0; I != 16 && !Compacted; ++I) {
    uint64_t Before = Store.stats().Compactions;
    ASSERT_TRUE(Store.rollback(1).Ok);
    Compacted = Store.stats().Compactions > Before;
  }
  ASSERT_TRUE(Compacted) << "no rollback compacted the arena";

  URI IssuedBefore = MaxIssued;
  ASSERT_TRUE(Store.submit(1, makeSExprBuilder(opTreeText("Add", 7, 0))).Ok);
  ASSERT_FALSE(Loaded.empty());
  for (URI U : Loaded)
    EXPECT_GT(U, IssuedBefore) << "a load reissued URI " << U;
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
}

//===----------------------------------------------------------------------===//
// Text cache: a get renders each version once
//===----------------------------------------------------------------------===//

/// \p Doc's stored tree, printed afresh.
std::string printedTree(const DocumentStore &Store, DocId Doc) {
  std::string Out;
  Store.withDocument(Doc, [&](const Tree *Root, uint64_t,
                              const std::vector<DocumentStore::HistoryEntry> &) {
    Out = printSExpr(Store.signatures(), Root);
  });
  return Out;
}

/// Reads \p Doc once, so its text is cached, runs \p Change, and expects
/// the next read to answer the changed tree.
void expectGetFollows(DocumentStore &Store, DocId Doc, const char *Path,
                      const std::function<void()> &Change) {
  std::string Before = Store.snapshotText(Doc).Text;
  Change();
  std::string After = Store.snapshotText(Doc).Text;
  EXPECT_EQ(After, printedTree(Store, Doc)) << Path;
  EXPECT_NE(After, Before) << Path << " did not change the tree";
}

TEST(TextCacheTest, GetAnswersTheCurrentTreeAfterEveryChange) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  struct Rec {
    DocumentStore::StoreOp Op;
    uint64_t Version;
    EditScript Script;
  };
  std::vector<Rec> Stream;
  Store.addScriptListener([&](DocId, uint64_t Version,
                              DocumentStore::StoreOp Op, const EditScript &S,
                              const DocumentStore::ScriptInfo &) {
    Stream.push_back({Op, Version, S});
  });
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Add (Num 1) (Num 2))")).Ok);
  expectGetFollows(Store, 1, "submit", [&] {
    ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (Num 2) (Num 3))")).Ok);
  });
  expectGetFollows(Store, 1, "fallback submit", [&] {
    SubmitOptions Opts;
    Opts.UseFallback = [] { return true; };
    StoreResult R = Store.submit(1, sexprBuilder("(Sub (Num 4) (a))"), Opts);
    ASSERT_TRUE(R.Ok && R.UsedFallback);
  });
  expectGetFollows(Store, 1, "rollback",
                   [&] { ASSERT_TRUE(Store.rollback(1).Ok); });

  // A replica fed the same records: its submit and rollback records.
  DocumentStore Replica(Sig);
  ASSERT_EQ(Stream.size(), 4u);
  ASSERT_TRUE(Replica.applyRecord(1, Stream[0].Op, 0, Stream[0].Script, "").Ok);
  for (size_t I = 1; I != Stream.size(); ++I)
    expectGetFollows(Replica, 1, "record", [&] {
      StoreResult R = Replica.applyRecord(1, Stream[I].Op, Stream[I].Version,
                                          Stream[I].Script, "");
      ASSERT_TRUE(R.Ok) << R.Error;
    });
  EXPECT_EQ(Replica.snapshotText(1).Text, Store.snapshotText(1).Text);

  expectGetFollows(Store, 1, "repair", [&] {
    ASSERT_TRUE(Store.repair(1, 1, sexprBuilder("(Num 9)"), {}).Ok);
  });
  expectGetFollows(Store, 1, "mutateForTest", [&] {
    ASSERT_TRUE(Store.mutateForTest(1, [](Tree *Root, uint64_t &) {
      Root->setLits(std::vector<Literal>{Literal(int64_t(10))});
    }));
  });
}

TEST(TextCacheTest, RollbackThenSubmitReusesTheVersionNumberForANewTree) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Num 0)")).Ok);
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Add (Num 1) (a))")).Ok);
  EXPECT_EQ(Store.snapshotText(1).Text, "(Add (Num 1) (a))");
  ASSERT_TRUE(Store.rollback(1).Ok);
  EXPECT_EQ(Store.snapshotText(1).Text, "(Num 0)");
  ASSERT_TRUE(Store.submit(1, sexprBuilder("(Mul (b) (Num 2))")).Ok);
  DocumentSnapshot S = Store.snapshotText(1);
  EXPECT_EQ(S.Version, 1u);
  EXPECT_EQ(S.Text, "(Mul (b) (Num 2))");
}

TEST(TextCacheTest, RollbackRestoresUpdatedLiteralsInPlace) {
  // The submit updates three literals of reused nodes in place (they live
  // in the document arena's literal slab); rollback must write the old
  // values back and leave digests that a rebuild reproduces.
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  const std::string Old = "(Add (Num 1) (Call (Var \"" + std::string(40, 'x') +
                          "\") \"f\"))";
  const std::string New = "(Add (Num 2) (Call (Var \"" + std::string(90, 'y') +
                          "\") \"g\"))";
  ASSERT_TRUE(Store.open(1, sexprBuilder(Old)).Ok);
  StoreResult R = Store.submit(1, sexprBuilder(New));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Store.snapshotText(1).Text, New);
  ASSERT_TRUE(Store.rollback(1).Ok);
  EXPECT_EQ(Store.snapshotText(1).Text, Old);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
  ASSERT_TRUE(Store.submit(1, sexprBuilder(New)).Ok);
  EXPECT_EQ(Store.snapshotText(1).Text, New);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
}

TEST(TextCacheTest, ReadsOfOneVersionRenderOnce) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  DiffService Service(Store, ServiceConfig());
  ASSERT_TRUE(Service.open(1, makeSExprBuilder(opTreeText("Add", 4, 0))).Ok);
  EXPECT_EQ(Store.stats().TextRenders, 0u); // filled by reads, not writes

  Response First = Service.getVersion(1);
  Response Second = Service.getVersion(1);
  ASSERT_TRUE(First.Ok && Second.Ok);
  EXPECT_EQ(Second.Payload, First.Payload);
  EXPECT_EQ(Store.stats().TextRenders, 1u);
  // snapshot() reuses the text and prints only its URI form.
  EXPECT_EQ(Store.snapshot(1).Text, First.Payload);
  EXPECT_EQ(Store.stats().TextRenders, 1u);
  EXPECT_NE(Service.statsJson().find("\"text_renders\":1,"), std::string::npos)
      << Service.statsJson();

  ASSERT_TRUE(Service.submit(1, makeSExprBuilder(opTreeText("Mul", 4, 0))).Ok);
  EXPECT_EQ(Store.stats().TextRenders, 1u);
  EXPECT_EQ(Service.getVersion(1).Payload, opTreeText("Mul", 4, 0));
  EXPECT_EQ(Service.getVersion(1).Payload, opTreeText("Mul", 4, 0));
  EXPECT_EQ(Store.stats().TextRenders, 2u);
}

/// Replays identical chains of document versions into a warm store (Step-1
/// digests persisted across requests, the default) and a cold store (every
/// request rehashes from scratch). The cache is purely an optimisation:
/// the emitted scripts must be byte-identical, every script must
/// type-check, and the warm store's cached digests must always equal a
/// from-scratch recomputation.
TEST(DigestCacheTest, WarmAndColdScriptsAreByteIdentical) {
  constexpr unsigned NumChains = 25;
  constexpr unsigned MutationsPerChain = 20; // 25 x 20 = 500 warm diffs

  SignatureTable Sig = python::makePythonSignature();
  LinearTypeChecker Checker(Sig);
  uint64_t Seed = tests::testSeed(11);
  SEED_TRACE(Seed);
  uint64_t WarmRehashed = 0, ColdRehashed = 0;
  for (unsigned Chain = 0; Chain != NumChains; ++Chain) {
    // Generate the version texts once, outside either store.
    TreeContext Scratch(Sig);
    Rng R(Chain * 48271 + Seed);
    corpus::PyGenOptions GenOpts;
    GenOpts.NumFunctions = 2;
    GenOpts.NumClasses = 1;
    GenOpts.MethodsPerClass = 2;
    GenOpts.StmtsPerBody = 3;
    const Tree *Module = corpus::generateModule(Scratch, R, GenOpts);
    std::vector<std::string> Versions{printSExpr(Sig, Module)};
    for (unsigned I = 0; I != MutationsPerChain; ++I) {
      Module = corpus::mutateModule(Scratch, R, Module, {});
      Versions.push_back(printSExpr(Sig, Module));
    }

    DocumentStore::Config ColdCfg;
    ColdCfg.PersistDigests = false;
    DocumentStore Warm(Sig), Cold(Sig, ColdCfg);
    for (size_t V = 0; V != Versions.size(); ++V) {
      TreeBuilder Build = makeSExprBuilder(Versions[V]);
      StoreResult WR = V == 0 ? Warm.open(1, Build) : Warm.submit(1, Build);
      StoreResult CR = V == 0 ? Cold.open(1, Build) : Cold.submit(1, Build);
      ASSERT_TRUE(WR.Ok) << WR.Error;
      ASSERT_TRUE(CR.Ok) << CR.Error;
      ASSERT_EQ(serializeEditScript(Sig, WR.Script),
                serializeEditScript(Sig, CR.Script))
          << "chain " << Chain << " version " << V;
      auto TC = V == 0 ? Checker.checkInitializing(WR.Script)
                       : Checker.checkWellTyped(WR.Script);
      ASSERT_TRUE(TC.Ok) << TC.Error;
      ASSERT_EQ(Warm.checkDigests(1), std::nullopt)
          << "chain " << Chain << " version " << V;
    }
    WarmRehashed += Warm.stats().NodesRehashed;
    ColdRehashed += Cold.stats().NodesRehashed;
    EXPECT_GT(Warm.stats().NodesDigestCacheSaved, 0u);
  }
  // Small mutations against ~100-node modules: the warm path must rehash
  // far fewer nodes than the cold path over the whole corpus.
  EXPECT_LT(WarmRehashed * 2, ColdRehashed)
      << "warm " << WarmRehashed << " vs cold " << ColdRehashed;
}

TEST(DigestCacheTest, CacheSurvivesRollbackAndCompaction) {
  // Rollback applies the inverse in place and rehashes only the paths it
  // touches; compaction copies the document into a fresh context,
  // re-deriving every digest. Either way the cached digests must equal a
  // from-scratch rebuild after every step, and later warm diffs must
  // still emit scripts byte-identical to a cold store driven through the
  // same sequence.
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config WarmCfg;
  WarmCfg.CompactionFactor = 1; // compact aggressively
  WarmCfg.HistoryCapacity = 64;
  DocumentStore::Config ColdCfg = WarmCfg;
  ColdCfg.PersistDigests = false;
  DocumentStore Warm(Sig, WarmCfg), Cold(Sig, ColdCfg);

  auto Step = [&](auto Op) {
    StoreResult WR = Op(Warm), CR = Op(Cold);
    ASSERT_TRUE(WR.Ok) << WR.Error;
    ASSERT_TRUE(CR.Ok) << CR.Error;
    EXPECT_EQ(serializeEditScript(Sig, WR.Script),
              serializeEditScript(Sig, CR.Script));
    ASSERT_EQ(Warm.checkDigests(1), std::nullopt);
    ASSERT_EQ(Cold.checkDigests(1), std::nullopt);
  };
  Step([](DocumentStore &S) { return S.open(1, makeSExprBuilder("(Num 0)")); });
  uint64_t Seed = tests::testSeed(4242);
  SEED_TRACE(Seed);
  Rng R(Seed);
  uint64_t Undoable = 0;
  for (int Round = 0; Round != 40; ++Round) {
    if (Undoable != 0 && R.chance(25)) {
      --Undoable;
      Step([](DocumentStore &S) { return S.rollback(1); });
    } else {
      // The operator changes every round, so most steps unload and load
      // the 63 inner nodes of a 127-node tree and the arenas compact.
      ++Undoable;
      const char *Ops[] = {"Add", "Sub", "Mul"};
      std::string Text = opTreeText(Ops[Round % 3], 7,
                                    static_cast<int>(R.range(0, 9)));
      Step([&](DocumentStore &S) { return S.submit(1, makeSExprBuilder(Text)); });
    }
  }
  EXPECT_GT(Warm.stats().Compactions, 0u);
  EXPECT_GT(Cold.stats().Compactions, 0u);
}

//===----------------------------------------------------------------------===//
// DiffService
//===----------------------------------------------------------------------===//

TEST(DiffServiceTest, SubmitReturnsSerializedScript) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  DiffService Service(Store, Cfg);

  Response R = Service.open(1, makeSExprBuilder("(Add (a) (b))"));
  ASSERT_TRUE(R.Ok) << R.Error;

  R = Service.submit(1, makeSExprBuilder("(Add (b) (a))"));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 1u);
  EXPECT_GT(R.EditCount, 0u);
  ASSERT_FALSE(R.Payload.empty());

  // The payload is the textual form of the script the store recorded.
  bool Seen = Store.withDocument(
      1, [&](const Tree *, uint64_t,
             const std::vector<DocumentStore::HistoryEntry> &History) {
        ASSERT_EQ(History.size(), 1u);
        EXPECT_EQ(serializeEditScript(Sig, *History.back().Script),
                  R.Payload);
        EXPECT_EQ(History.back().Script->size(), R.EditCount);
      });
  EXPECT_TRUE(Seen);

  R = Service.getVersion(1);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Version, 1u);
  EXPECT_EQ(R.Payload, "(Add (b) (a))");

  R = Service.stats();
  ASSERT_TRUE(R.Ok);
  EXPECT_NE(R.Payload.find("\"scripts_emitted\":1"), std::string::npos);
  EXPECT_NE(R.Payload.find("\"store\":{\"documents\":1"), std::string::npos);

  Service.shutdown();
  EXPECT_FALSE(Service.submit(1, makeSExprBuilder("(a)")).Ok);
}

TEST(DiffServiceTest, StatsCarryArenaNodesAndCompactions) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  DiffService Service(Store, ServiceConfig());
  ASSERT_TRUE(Service.open(1, makeSExprBuilder(opTreeText("Add", 4, 0))).Ok);
  ASSERT_TRUE(Service.submit(1, makeSExprBuilder(opTreeText("Mul", 4, 0))).Ok);
  StoreStats S = Store.stats();
  EXPECT_EQ(S.LiveNodes, 15u);
  EXPECT_EQ(S.ArenaNodes, 15u + 7u); // the open plus 7 loaded inner nodes
  std::string J = Service.statsJson();
  EXPECT_NE(J.find("\"live_nodes\":15,\"arena_nodes\":22,\"compactions\":0"),
            std::string::npos)
      << J;
}

TEST(DeepDocumentTest, HundredThousandStatementSubmitDiffsOnAWorker) {
  // Appending one statement to a 100,000-statement module once crashed a
  // worker: truediff's Steps 2 and 4 recursed along the StmtCons spine,
  // which the append edits from top to bottom, and overflowed the
  // worker's default stack. Both steps are iterative now, so the submit
  // diffs like any other and the service keeps answering.
  constexpr int Stmts = 100000;
  SignatureTable Sig = python::makePythonSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  DiffService Service(Store, Cfg);

  ASSERT_TRUE(
      Service.open(1, makeSExprBuilder(tests::deepModuleText(Stmts - 1))).Ok);
  Response R =
      Service.submit(1, makeSExprBuilder(tests::deepModuleText(Stmts)));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Fallback);
  EXPECT_EQ(R.Version, 1u);

  DocumentSnapshot After = Store.snapshot(1);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.TreeSize, 2u * Stmts + 2u);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
  R = Service.getVersion(1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Payload, After.Text);
}

TEST(DiffServiceTest, BackpressureRejectsWhenQueueFull) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 2;
  DiffService Service(Store, Cfg);

  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);

  // A builder that blocks the single worker until released.
  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  auto Slow = [Gate](TreeContext &Ctx) -> BuildResult {
    Gate.wait();
    return BuildResult{Ctx.make("b", {}, {}), ""};
  };

  std::future<Response> F1 = Service.submitAsync(1, Slow);
  // Wait until the worker has dequeued F1 and is parked in the builder.
  while (Service.queueDepth() != 0)
    std::this_thread::yield();

  std::future<Response> F2 = Service.submitAsync(1, makeSExprBuilder("(c)"));
  std::future<Response> F3 = Service.submitAsync(1, makeSExprBuilder("(d)"));
  std::future<Response> F4 = Service.submitAsync(1, makeSExprBuilder("(a)"));

  Response R4 = F4.get(); // rejected immediately, worker still blocked
  EXPECT_FALSE(R4.Ok);
  EXPECT_NE(R4.Error.find("queue full"), std::string::npos);
  EXPECT_GE(Service.metrics().Rejected.load(), 1u);

  GateP.set_value();
  EXPECT_TRUE(F1.get().Ok);
  EXPECT_TRUE(F2.get().Ok);
  EXPECT_TRUE(F3.get().Ok);
}

TEST(DiffServiceTest, GracefulShutdownDrainsAcceptedWork) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 64;
  DiffService Service(Store, Cfg);

  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);

  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  auto Slow = [Gate](TreeContext &Ctx) -> BuildResult {
    Gate.wait();
    return BuildResult{Ctx.make("b", {}, {}), ""};
  };

  std::vector<std::future<Response>> Futures;
  Futures.push_back(Service.submitAsync(1, Slow));
  for (int I = 0; I != 5; ++I)
    Futures.push_back(Service.submitAsync(1, makeSExprBuilder("(c)")));

  std::thread Release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    GateP.set_value();
  });
  Service.shutdown(); // must drain all six accepted submits
  Release.join();

  for (std::future<Response> &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  EXPECT_EQ(Store.snapshot(1).Version, 6u);
}

//===----------------------------------------------------------------------===//
// Deadlines, fallback scripts, and the shutdown race
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, FallbackScriptIsWellTypedAndReconstructs) {
  // The degraded answer must uphold every script guarantee: applying the
  // emitted stream (init + fallback) onto an empty MTree with full
  // compliance checking reconstructs the target, and the recorded
  // inverse still rolls the document back exactly.
  MTree M(Sig);
  std::vector<EditScript> Stream;
  Store.addScriptListener([&](DocId, uint64_t, DocumentStore::StoreOp,
                              const EditScript &S,
                              const DocumentStore::ScriptInfo &) {
    Stream.push_back(S);
  });
  ASSERT_TRUE(Store.open(1, sexprBuilder("(Sub (Add (a) (b)) (b))")).Ok);
  DocumentSnapshot V0 = Store.snapshot(1);

  SubmitOptions Opts;
  Opts.UseFallback = [] { return true; };
  StoreResult R =
      Store.submit(1, sexprBuilder("(Mul (Num 1) (Num 2))"), Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.UsedFallback);
  EXPECT_EQ(R.Version, 1u);
  EXPECT_FALSE(R.Script.empty());

  ASSERT_EQ(Stream.size(), 2u);
  for (const EditScript &S : Stream)
    ASSERT_TRUE(M.patchChecked(S).Ok);
  TreeContext Out(Sig);
  ParseResult Want = parseSExpr(Out, "(Mul (Num 1) (Num 2))");
  ASSERT_TRUE(Want.ok());
  EXPECT_TRUE(M.equalsTree(Want.Root));

  // The stored tree's digest cache stayed coherent through the
  // replace-root path, and rollback undoes it URI-exactly.
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
  ASSERT_TRUE(Store.rollback(1).Ok);
  DocumentSnapshot S = Store.snapshot(1);
  EXPECT_EQ(S.Text, V0.Text);
  EXPECT_EQ(S.UriText, V0.UriText);
  EXPECT_EQ(Store.checkDigests(1), std::nullopt);
}

TEST(DiffServiceTest, ExpiredQueuedRequestsAreShedWithRetryHint) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 8;
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);

  // Park the single worker in a builder, then queue a submit whose 1ms
  // deadline expires while it waits.
  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  auto Slow = [Gate](TreeContext &Ctx) -> BuildResult {
    Gate.wait();
    return BuildResult{Ctx.make("b", {}, {}), ""};
  };
  std::future<Response> F1 = Service.submitAsync(1, Slow);
  while (Service.queueDepth() != 0)
    std::this_thread::yield();
  std::future<Response> F2 =
      Service.submitAsync(1, makeSExprBuilder("(c)"), /*DeadlineMs=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  GateP.set_value();

  EXPECT_TRUE(F1.get().Ok);
  Response R2 = F2.get();
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("deadline expired"), std::string::npos) << R2.Error;
  EXPECT_GE(R2.RetryAfterMs, 1u);
  EXPECT_EQ(Service.metrics().DeadlineExpired.load(), 1u);
  // The shed request never executed: only the gated submit advanced the
  // document.
  EXPECT_EQ(Store.snapshot(1).Version, 1u);
  // The wire rendering carries the hint.
  std::string Wire = formatWireResponse(R2);
  EXPECT_NE(Wire.find(" retry_after_ms="), std::string::npos) << Wire;
}

TEST(DiffServiceTest, OverDeadlineDiffAnswersWithFallbackScript) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(Add (Num 1) (Num 2))")).Ok);

  // The build itself overruns the 5ms deadline, so the post-build check
  // must choose the replace-root fallback instead of diffing.
  auto SlowBuild = [](TreeContext &Ctx) -> BuildResult {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return makeSExprBuilder("(Mul (c) (d))")(Ctx);
  };
  uint64_t FallbacksBefore = Service.metrics().FallbackScripts.load();
  Response R = Service.submit(1, SlowBuild, /*DeadlineMs=*/5);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Fallback);
  EXPECT_EQ(R.Version, 1u);
  EXPECT_FALSE(R.Payload.empty());
  EXPECT_EQ(Service.metrics().FallbackScripts.load(), FallbacksBefore + 1);
  EXPECT_EQ(Store.snapshot(1).Text, "(Mul (c) (d))");
  // The ok line is marked so clients know the script is not minimal.
  std::string Wire = formatWireResponse(R);
  EXPECT_NE(Wire.find(" fallback=1"), std::string::npos) << Wire;

  // Without a deadline the same service still serves minimal diffs.
  Response R2 = Service.submit(1, makeSExprBuilder("(Mul (c) (c))"));
  ASSERT_TRUE(R2.Ok);
  EXPECT_FALSE(R2.Fallback);
}

TEST(ConcurrentServiceTest, ShutdownRaceNeverBreaksPromises) {
  // Requests racing shutdown() must each get exactly one of: a real
  // response (drained) or a rejection -- never a broken std::promise.
  SignatureTable Sig = makeExpSignature();
  uint64_t Seed = tests::testSeed(77);
  SEED_TRACE(Seed);
  constexpr int Rounds = 12;
  constexpr int Producers = 4;
  constexpr int PerProducer = 24;
  Rng Pacing(Seed);
  for (int Round = 0; Round != Rounds; ++Round) {
    DocumentStore Store(Sig);
    ServiceConfig Cfg;
    Cfg.Workers = 2;
    Cfg.QueueCapacity = 4; // small: exercise full-queue and closed paths
    DiffService Service(Store, Cfg);
    ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);

    std::vector<std::vector<std::future<Response>>> Futures(Producers);
    std::vector<std::thread> Threads;
    for (int T = 0; T != Producers; ++T)
      Threads.emplace_back([&, T] {
        for (int I = 0; I != PerProducer; ++I)
          Futures[T].push_back(
              Service.submitAsync(1, makeSExprBuilder("(b)")));
      });

    // Close somewhere inside the producers' submission window.
    std::this_thread::sleep_for(
        std::chrono::microseconds(Pacing.below(1500)));
    Service.shutdown();
    for (std::thread &T : Threads)
      T.join();

    uint64_t Accepted = 0;
    for (auto &PerThread : Futures)
      for (std::future<Response> &F : PerThread) {
        ASSERT_TRUE(F.valid());
        try {
          Response R = F.get(); // must never throw broken_promise
          if (R.Ok)
            ++Accepted;
          else
            EXPECT_FALSE(R.Error.empty());
        } catch (const std::future_error &E) {
          FAIL() << "broken promise in round " << Round << ": " << E.what();
        }
      }
    // Every accepted request really executed before the workers joined.
    EXPECT_EQ(Store.snapshot(1).Version, Accepted);
  }
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(WireTest, ParsesCommands) {
  WireCommand C = parseWireCommand("open 12 (Add (a) (b))");
  EXPECT_EQ(C.K, WireCommand::Kind::Open);
  EXPECT_EQ(C.Doc, 12u);
  EXPECT_EQ(C.Arg, "(Add (a) (b))");

  C = parseWireCommand("submit 3 (a)");
  EXPECT_EQ(C.K, WireCommand::Kind::Submit);
  C = parseWireCommand("rollback 3");
  EXPECT_EQ(C.K, WireCommand::Kind::Rollback);
  C = parseWireCommand("get 3");
  EXPECT_EQ(C.K, WireCommand::Kind::Get);
  C = parseWireCommand("stats");
  EXPECT_EQ(C.K, WireCommand::Kind::Stats);
  C = parseWireCommand("health");
  EXPECT_EQ(C.K, WireCommand::Kind::Health);
  EXPECT_EQ(parseWireCommand("health extra").K, WireCommand::Kind::Invalid);
  C = parseWireCommand("quit");
  EXPECT_EQ(C.K, WireCommand::Kind::Quit);

  EXPECT_EQ(parseWireCommand("").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("open x (a)").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("open 1").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("rollback 1 extra").K,
            WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("frobnicate 1").K, WireCommand::Kind::Invalid);
}

TEST(WireTest, ToleratesCrlfFraming) {
  // One trailing '\r' is line framing from a CRLF transport, not payload.
  WireCommand C = parseWireCommand("get 3\r");
  EXPECT_EQ(C.K, WireCommand::Kind::Get);
  EXPECT_EQ(C.Doc, 3u);
  C = parseWireCommand("open 1 (a)\r");
  EXPECT_EQ(C.K, WireCommand::Kind::Open);
  EXPECT_EQ(C.Arg, "(a)");

  // A bare "\r" or whitespace-only frame is an empty command.
  EXPECT_EQ(parseWireCommand("\r").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("   \t ").K, WireCommand::Kind::Invalid);
}

TEST(WireTest, RejectsControlCharacters) {
  // Interior control bytes never reach a tree builder: NUL, escape bytes
  // and interior '\r' (frame smuggling) all fail with a protocol error.
  WireCommand C = parseWireCommand(std::string_view("open 1 (a\x01)", 12));
  EXPECT_EQ(C.K, WireCommand::Kind::Invalid);
  EXPECT_NE(C.Error.find("control character 0x01"), std::string::npos)
      << C.Error;

  C = parseWireCommand(std::string_view("get\0 3", 6));
  EXPECT_EQ(C.K, WireCommand::Kind::Invalid);
  EXPECT_NE(C.Error.find("0x00"), std::string::npos) << C.Error;

  C = parseWireCommand("submit 2 (a)\rrollback 2");
  EXPECT_EQ(C.K, WireCommand::Kind::Invalid);
  EXPECT_NE(C.Error.find("0x0d"), std::string::npos) << C.Error;
}

TEST(WireTest, BoundsFrameSize) {
  // Oversized frames are rejected before any parsing work happens.
  std::string Huge = "open 1 " + std::string(MaxWireLineBytes, 'x');
  WireCommand C = parseWireCommand(Huge);
  EXPECT_EQ(C.K, WireCommand::Kind::Invalid);
  EXPECT_NE(C.Error.find("oversized frame"), std::string::npos) << C.Error;

  // The largest legal frame still reaches the command parser (it fails
  // later, in the s-expression parser, which is not the framing layer's
  // business).
  std::string MaxLegal = "open 1 ";
  MaxLegal += std::string(MaxWireLineBytes - MaxLegal.size(), 'x');
  EXPECT_EQ(parseWireCommand(MaxLegal).K, WireCommand::Kind::Open);
}

TEST(WireTest, RejectsOverflowingDocIds) {
  // UINT64_MAX parses; anything bigger is rejected instead of silently
  // wrapping onto another client's document.
  WireCommand C = parseWireCommand("get 18446744073709551615");
  EXPECT_EQ(C.K, WireCommand::Kind::Get);
  EXPECT_EQ(C.Doc, std::numeric_limits<DocId>::max());
  EXPECT_EQ(parseWireCommand("get 18446744073709551616").K,
            WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("get 99999999999999999999999").K,
            WireCommand::Kind::Invalid);
}

TEST(WireTest, FormatsResponses) {
  Response R;
  R.Ok = true;
  R.Version = 3;
  R.EditCount = 5;
  R.CoalescedSize = 2;
  R.TreeSize = 40;
  R.Payload = "load(Num_9, [], [])";
  EXPECT_EQ(formatWireResponse(R),
            "ok version=3 edits=5 coalesced=2 size=40\n"
            "load(Num_9, [], [])\n.\n");

  Response E;
  E.Error = "no such document";
  EXPECT_EQ(formatWireResponse(E), "err no such document\n.\n");
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, HistogramPercentilesAreOrdered) {
  LatencyHistogram H;
  for (int I = 1; I <= 1000; ++I)
    H.record(static_cast<double>(I) / 100.0); // 0.01ms .. 10ms
  LatencyHistogram::Summary S = H.summarize();
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_LE(S.P50Ms, S.P95Ms);
  EXPECT_LE(S.P95Ms, S.P99Ms);
  EXPECT_LE(S.P99Ms, S.MaxMs * 2.0); // bucket upper bound rounds up
  EXPECT_NEAR(S.MeanMs, 5.0, 0.5);
  EXPECT_NEAR(S.MaxMs, 10.0, 0.1);
}

TEST(MetricsTest, HistogramResolvesSubMillisecondShifts) {
  // Eight buckets per power of two: a percentile lands within 12.5% of
  // the latency it summarizes. Power-of-two buckets reported 2.048 ms for
  // all of these.
  LatencyHistogram Point;
  for (int I = 0; I != 1000; ++I)
    Point.record(1.3);
  LatencyHistogram::Summary S = Point.summarize();
  EXPECT_GE(S.P50Ms, 1.3);
  EXPECT_LE(S.P50Ms, 1.3 * 1.125);

  // Below the maximum, so the bucket bound itself is what p50 reports.
  for (double Ms : {1.3, 1.1, 1.9, 0.35, 0.0125}) {
    LatencyHistogram H;
    for (int I = 0; I != 600; ++I)
      H.record(Ms);
    for (int I = 0; I != 400; ++I)
      H.record(50.0);
    S = H.summarize();
    EXPECT_GE(S.P50Ms, Ms) << Ms;
    EXPECT_LE(S.P50Ms, Ms * 1.125) << Ms;
    EXPECT_EQ(S.P99Ms, 50.0) << Ms;
  }
}

TEST(MetricsTest, JsonDumpHasAllSections) {
  ServiceMetrics M;
  M.Ops[static_cast<unsigned>(OpKind::Submit)].Requests = 7;
  M.QueueWait.record(0.5);
  std::string J = M.toJson(3, 256, 4);
  for (const char *Key :
       {"\"workers\":4",
        "\"queue\":{\"depth\":3,\"capacity\":256,\"doc_queues\":0}",
        "\"open\"", "\"submit\"", "\"rollback\"", "\"get_version\"",
        "\"stats\"", "\"queue_wait\"", "\"requests\":7",
        "\"deadline_expired\":0", "\"fallback_scripts\":0",
        "\"shed\":0", "\"admission_rejected\":0", "\"budget_rejected\":0",
        "\"mem_used_bytes\":0", "\"mem_budget_bytes\":0",
        "\"breaker_trips\":0", "\"degraded_seconds\":0.000000"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
}

TEST(MetricsTest, RobustnessCountersAreMonotone) {
  // The counters the failure-mode matrix (DESIGN.md Section 10) leans on
  // must exist and only ever grow as events accumulate.
  ServiceMetrics M;
  auto Dump = [&] { return M.toJson(0, 8, 1); };
  std::string Before = Dump();
  EXPECT_NE(Before.find("\"deadline_expired\":0"), std::string::npos);
  M.DeadlineExpired.fetch_add(1);
  M.FallbackScripts.fetch_add(2);
  M.BreakerTrips.store(1);
  M.DegradedUs.store(1500000); // 1.5s degraded
  std::string After = Dump();
  EXPECT_NE(After.find("\"deadline_expired\":1"), std::string::npos) << After;
  EXPECT_NE(After.find("\"fallback_scripts\":2"), std::string::npos) << After;
  EXPECT_NE(After.find("\"breaker_trips\":1"), std::string::npos) << After;
  EXPECT_NE(After.find("\"degraded_seconds\":1.500000"), std::string::npos)
      << After;
  M.DeadlineExpired.fetch_add(1);
  EXPECT_NE(Dump().find("\"deadline_expired\":2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Concurrent hammer (run under TSan in CI)
//===----------------------------------------------------------------------===//

TEST(ConcurrentServiceTest, ReadersShareCachedTextWithARecordApplier) {
  // Two reader threads and one record-applying thread on one replica
  // document: readers fill the text cache under the document lock while
  // records drop it. Every read must answer the text of a version that
  // was current at some point during that read.
  SignatureTable Sig = makeExpSignature();
  DocumentStore Leader(Sig);
  struct Rec {
    DocumentStore::StoreOp Op;
    uint64_t Version;
    EditScript Script;
    std::string Text; // the leader's tree after the record
  };
  std::vector<Rec> Stream;
  Leader.addScriptListener([&](DocId, uint64_t Version,
                               DocumentStore::StoreOp Op, const EditScript &S,
                               const DocumentStore::ScriptInfo &) {
    Stream.push_back({Op, Version, S, ""});
  });
  ASSERT_TRUE(Leader.open(1, makeSExprBuilder(opTreeText("Add", 5, 0))).Ok);
  Stream.back().Text = printedTree(Leader, 1);
  const char *Ops[] = {"Add", "Sub", "Mul"};
  for (int I = 1; I <= 120; ++I) {
    if (I % 4 == 0)
      ASSERT_TRUE(Leader.rollback(1).Ok);
    else
      ASSERT_TRUE(
          Leader.submit(1, makeSExprBuilder(opTreeText(Ops[I % 3], 5, I))).Ok);
    Stream.back().Text = printedTree(Leader, 1);
  }

  DocumentStore Replica(Sig);
  ASSERT_TRUE(
      Replica.applyRecord(1, Stream[0].Op, 0, Stream[0].Script, "").Ok);
  std::atomic<size_t> Applied{1};
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Reads{0}, Mismatches{0};
  auto Reader = [&] {
    while (!Done.load()) {
      // Applied counts published records; the record being applied may
      // already be visible to the read, so the read may see one more.
      size_t Lo = Applied.load();
      DocumentSnapshot S = Replica.snapshotText(1);
      size_t Hi = std::min(Applied.load() + 1, Stream.size());
      bool Match = false;
      for (size_t I = Lo; I <= Hi && !Match; ++I)
        Match = S.Version == Stream[I - 1].Version &&
                S.Text == Stream[I - 1].Text;
      Reads.fetch_add(1);
      if (!Match)
        Mismatches.fetch_add(1);
    }
  };
  std::thread R1(Reader), R2(Reader);
  std::thread Applier([&] {
    for (size_t I = 1; I != Stream.size(); ++I) {
      StoreResult R = Replica.applyRecord(1, Stream[I].Op, Stream[I].Version,
                                          Stream[I].Script, "");
      if (!R.Ok)
        Mismatches.fetch_add(1);
      Applied.store(I + 1);
      std::this_thread::yield();
    }
    Done.store(true);
  });
  Applier.join();
  R1.join();
  R2.join();
  EXPECT_EQ(Mismatches.load(), 0u) << "of " << Reads.load() << " reads";
  EXPECT_GT(Reads.load(), 0u);
  EXPECT_EQ(Replica.snapshotText(1).Text, Stream.back().Text);
}

TEST(ConcurrentServiceTest, HammerManyClientsManyDocuments) {
  constexpr unsigned NumClients = 8;
  constexpr unsigned NumDocs = 64;
  constexpr unsigned OpsPerClient = 48;

  SignatureTable Sig = python::makePythonSignature();
  DocumentStore::Config StoreCfg;
  StoreCfg.NumShards = 8;
  StoreCfg.HistoryCapacity = 8;
  DocumentStore Store(Sig, StoreCfg);
  ScriptReplay Replay(Sig, Store);

  ServiceConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = 4096; // ample: this test is about races, not rejects
  DiffService Service(Store, Cfg);

  // Every document is opened up front so all ops target live documents.
  for (DocId Doc = 1; Doc <= NumDocs; ++Doc)
    ASSERT_TRUE(Service.open(Doc, moduleBuilder(Doc)).Ok);

  // Per-document tallies of *successful* version-changing operations.
  std::array<std::atomic<int64_t>, NumDocs + 1> Submits{};
  std::array<std::atomic<int64_t>, NumDocs + 1> Rollbacks{};

  std::vector<std::thread> Clients;
  Clients.reserve(NumClients);
  for (unsigned C = 0; C != NumClients; ++C) {
    Clients.emplace_back([&, C] {
      Rng R(C * 7919 + 17);
      for (unsigned I = 0; I != OpsPerClient; ++I) {
        DocId Doc = static_cast<DocId>(R.below(NumDocs) + 1);
        uint64_t Kind = R.below(100);
        if (Kind < 55) {
          Response Resp = Service.submit(Doc, moduleBuilder(R.next()));
          if (Resp.Ok)
            Submits[Doc].fetch_add(1, std::memory_order_relaxed);
        } else if (Kind < 70) {
          Response Resp = Service.rollback(Doc);
          if (Resp.Ok)
            Rollbacks[Doc].fetch_add(1, std::memory_order_relaxed);
        } else if (Kind < 95) {
          Response Resp = Service.getVersion(Doc);
          EXPECT_TRUE(Resp.Ok);
        } else {
          EXPECT_TRUE(Service.stats().Ok);
        }
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  Service.shutdown();

  // No lost updates: each document's final version equals its successful
  // submits minus its successful rollbacks, and the replay -- fed purely
  // by the script stream -- agrees with the store's final trees.
  for (DocId Doc = 1; Doc <= NumDocs; ++Doc) {
    DocumentSnapshot S = Store.snapshot(Doc);
    ASSERT_TRUE(S.Ok);
    int64_t Expected = Submits[Doc].load() - Rollbacks[Doc].load();
    EXPECT_EQ(static_cast<int64_t>(S.Version), Expected) << "doc " << Doc;
    EXPECT_EQ(Replay.uriText(Doc), S.UriText) << "doc " << Doc;
  }
  EXPECT_EQ(Replay.failures(), 0u);
}

TEST(ConcurrentServiceTest, RollbackUnderContentionRestoresSnapshots) {
  // Writers hammer one document while readers snapshot it; afterwards,
  // rolling everything back restores the opening tree exactly.
  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config StoreCfg;
  StoreCfg.HistoryCapacity = 1024;
  DocumentStore Store(Sig, StoreCfg);
  ASSERT_TRUE(Store.open(1, makeSExprBuilder("(Add (Num 1) (Num 2))")).Ok);
  DocumentSnapshot V0 = Store.snapshot(1);

  constexpr unsigned NumWriters = 4;
  constexpr unsigned SubmitsPerWriter = 32;
  std::vector<std::thread> Writers;
  for (unsigned W = 0; W != NumWriters; ++W) {
    Writers.emplace_back([&, W] {
      for (unsigned I = 0; I != SubmitsPerWriter; ++I) {
        std::string Text = "(Mul (Num " + std::to_string(W) + ") (Num " +
                           std::to_string(I) + "))";
        ASSERT_TRUE(Store.submit(1, makeSExprBuilder(Text)).Ok);
      }
    });
  }
  std::thread Reader([&] {
    for (int I = 0; I != 64; ++I)
      ASSERT_TRUE(Store.snapshot(1).Ok);
  });
  for (std::thread &T : Writers)
    T.join();
  Reader.join();

  ASSERT_EQ(Store.snapshot(1).Version, NumWriters * SubmitsPerWriter);
  for (unsigned I = 0; I != NumWriters * SubmitsPerWriter; ++I)
    ASSERT_TRUE(Store.rollback(1).Ok) << "rollback " << I;
  DocumentSnapshot S = Store.snapshot(1);
  EXPECT_EQ(S.Text, V0.Text);
  EXPECT_EQ(S.UriText, V0.UriText);
}

} // namespace
