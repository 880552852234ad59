//===- tests/incremental_test.cpp - Unit tests for the IncA driver ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "incremental/Pipeline.h"

#include "corpus/Corpus.h"
#include "truechange/MTree.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::incremental;

namespace {

//===----------------------------------------------------------------------===//
// Indices
//===----------------------------------------------------------------------===//

TEST(IndexTest, OneToOneBasics) {
  BidirectionalOneToOneIndex<int, int> Idx;
  Idx.put(1, 10);
  Idx.put(2, 20);
  EXPECT_EQ(Idx.get(1), 10);
  EXPECT_EQ(Idx.getReverse(20), 2);
  EXPECT_EQ(Idx.size(), 2u);
  Idx.eraseKey(1);
  EXPECT_FALSE(Idx.get(1).has_value());
  EXPECT_FALSE(Idx.getReverse(10).has_value());
  Idx.put(1, 10); // slot vacated, reusable
  EXPECT_EQ(Idx.get(1), 10);
}

TEST(IndexTest, ManyToOneBasics) {
  BidirectionalManyToOneIndex<int, int> Idx;
  Idx.put(1, 100);
  Idx.put(2, 100);
  EXPECT_EQ(Idx.get(1), 100);
  ASSERT_NE(Idx.getReverse(100), nullptr);
  EXPECT_EQ(Idx.getReverse(100)->size(), 2u);
  Idx.put(1, 200); // re-targeting moves between reverse sets
  EXPECT_EQ(Idx.getReverse(100)->size(), 1u);
  Idx.eraseKey(2);
  EXPECT_EQ(Idx.getReverse(100), nullptr);
}

//===----------------------------------------------------------------------===//
// Database consistency under edit scripts
//===----------------------------------------------------------------------===//

class DatabaseTest : public ::testing::TestWithParam<IndexMode> {
protected:
  DatabaseTest() : Sig(python::makePythonSignature()), Ctx(Sig) {}

  /// Checks that the database content equals the given tree.
  void expectMatchesTree(const TreeDatabase &Db, const Tree *T) {
    // Root link points at the tree.
    auto Top = Db.childOf(NullURI, Sig.rootLink());
    ASSERT_TRUE(Top.has_value());
    EXPECT_EQ(*Top, T->uri());
    size_t Visited = 0;
    std::function<void(const Tree *)> Walk = [&](const Tree *Node) {
      ++Visited;
      const NodeRow *Row = Db.node(Node->uri());
      ASSERT_NE(Row, nullptr);
      EXPECT_EQ(Row->Tag, Node->tag());
      const TagSignature &TagSig = Sig.signature(Node->tag());
      for (size_t I = 0, E = Node->numLits(); I != E; ++I) {
        bool Found = false;
        for (const LitRef &Lit : Row->Lits)
          if (Lit.Link == TagSig.Lits[I].Link)
            Found = Lit.Value == Node->lit(I);
        EXPECT_TRUE(Found) << "literal mismatch";
      }
      for (size_t I = 0, E = Node->arity(); I != E; ++I) {
        auto Kid = Db.childOf(Node->uri(), TagSig.Kids[I].Link);
        ASSERT_TRUE(Kid.has_value());
        EXPECT_EQ(*Kid, Node->kid(I)->uri());
        auto Parent = Db.parentOf(*Kid);
        ASSERT_TRUE(Parent.has_value());
        EXPECT_EQ(*Parent, Node->uri());
        Walk(Node->kid(I));
      }
    };
    Walk(T);
    EXPECT_EQ(Db.numNodes(), Visited + 1); // + virtual root
  }

  SignatureTable Sig;
  TreeContext Ctx;
};

TEST_P(DatabaseTest, InitFromTreeMatches) {
  Rng R(3);
  Tree *T = corpus::generateModule(Ctx, R);
  TreeDatabase Db(Sig, GetParam());
  Db.initFromTree(T);
  expectMatchesTree(Db, T);
}

TEST_P(DatabaseTest, EditScriptsKeepDatabaseConsistent) {
  Rng R(5);
  Tree *Current = corpus::generateModule(Ctx, R);
  TreeDatabase Db(Sig, GetParam());
  Db.initFromTree(Current);

  for (int Commit = 0; Commit != 10; ++Commit) {
    Tree *Next = corpus::mutateModule(Ctx, R, Current);
    TrueDiff Diff(Ctx);
    DiffResult Result = Diff.compareTo(Current, Next);
    Db.applyScript(Result.Script);
    Current = Result.Patched;
    expectMatchesTree(Db, Current);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DatabaseTest,
                         ::testing::Values(IndexMode::OneToOne,
                                           IndexMode::ManyToOne));

//===----------------------------------------------------------------------===//
// Analyses: incremental == from-scratch
//===----------------------------------------------------------------------===//

class AnalysisTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisTest, IncrementalMatchesRecompute) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 131 + 7);

  Tree *Current = corpus::generateModule(Ctx, R);
  TreeDatabase Db(Sig, IndexMode::OneToOne);
  Db.initFromTree(Current);

  TagCensus Census;
  Census.recomputeAll(Db);
  CallGraph Calls(Sig);
  Calls.recomputeAll(Db);
  DefUseAnalysis DefUse(Sig);
  DefUse.recomputeAll(Db);

  for (int Commit = 0; Commit != 8; ++Commit) {
    Tree *Next = corpus::mutateModule(Ctx, R, Current);
    TrueDiff Diff(Ctx);
    DiffResult Result = Diff.compareTo(Current, Next);
    Db.applyScript(Result.Script);
    Current = Result.Patched;

    Census.update(Result.Script);
    Calls.update(Db, Result.Script);
    DefUse.update(Db, Result.Script);

    TagCensus FreshCensus;
    FreshCensus.recomputeAll(Db);
    ASSERT_TRUE(Census == FreshCensus) << "census diverged at commit "
                                       << Commit;
    CallGraph FreshCalls(Sig);
    FreshCalls.recomputeAll(Db);
    ASSERT_TRUE(Calls == FreshCalls) << "call graph diverged at commit "
                                     << Commit;
    DefUseAnalysis FreshDefUse(Sig);
    FreshDefUse.recomputeAll(Db);
    ASSERT_TRUE(DefUse == FreshDefUse) << "def-use diverged at commit "
                                       << Commit;
  }
}

TEST(DefUseTest, DefsAndUsesOfAFunction) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  auto R = python::parsePython(Ctx, "def f(a, b):\n"
                                    "    total = a + b\n"
                                    "    for i in range(total):\n"
                                    "        total += helper(i, c)\n"
                                    "    x, y = split(total)\n"
                                    "    return x\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  TreeDatabase Db(Sig, IndexMode::OneToOne);
  Db.initFromTree(R.Module);
  DefUseAnalysis DefUse(Sig);
  DefUse.recomputeAll(Db);

  ASSERT_EQ(DefUse.numFunctions(), 1u);
  const Tree *Func = R.Module->kid(0)->kid(0);
  const auto *Info = DefUse.infoOf(Func->uri());
  ASSERT_NE(Info, nullptr);

  // Defs: parameters a and b, total (assign + augassign), loop var i,
  // tuple targets x and y.
  EXPECT_EQ(Info->Defs.size(), 6u);
  EXPECT_EQ(Info->Defs.at("total").size(), 2u); // = and +=
  EXPECT_EQ(Info->Defs.at("i").size(), 1u);
  EXPECT_TRUE(Info->Defs.count("x"));
  EXPECT_TRUE(Info->Defs.count("y"));

  // Uses: a, b, total (augassign reads it and range(total)), i, x.
  EXPECT_TRUE(Info->Uses.count("a"));
  EXPECT_TRUE(Info->Uses.count("total"));
  EXPECT_TRUE(Info->Uses.count("i"));
  EXPECT_TRUE(Info->Uses.count("x"));
  EXPECT_FALSE(Info->Uses.count("y")); // defined, never read

  // Free variables: the builtins/globals range, helper, split, c.
  std::set<std::string> Free = Info->freeVariables();
  EXPECT_TRUE(Free.count("range"));
  EXPECT_TRUE(Free.count("helper"));
  EXPECT_TRUE(Free.count("split"));
  EXPECT_TRUE(Free.count("c"));
  EXPECT_FALSE(Free.count("total"));
}

TEST(DefUseTest, NestedFunctionsHaveSeparateScopes) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  auto R = python::parsePython(Ctx, "def outer(a):\n"
                                    "    def inner(b):\n"
                                    "        return b + 1\n"
                                    "    return a\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  TreeDatabase Db(Sig, IndexMode::OneToOne);
  Db.initFromTree(R.Module);
  DefUseAnalysis DefUse(Sig);
  DefUse.recomputeAll(Db);
  ASSERT_EQ(DefUse.numFunctions(), 2u);

  const Tree *Outer = R.Module->kid(0)->kid(0);
  const auto *OuterInfo = DefUse.infoOf(Outer->uri());
  ASSERT_NE(OuterInfo, nullptr);
  // Outer does not see inner's b.
  EXPECT_FALSE(OuterInfo->Defs.count("b"));
  EXPECT_FALSE(OuterInfo->Uses.count("b"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisTest,
                         ::testing::Range<uint64_t>(0, 15));

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TEST(PipelineTest, StepsThroughHistory) {
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 8;
  Opts.CommitsPerFile = 8;
  std::vector<corpus::CommitPair> Pairs = corpus::buildCommitCorpus(Opts);
  ASSERT_FALSE(Pairs.empty());

  IncrementalPipeline Pipeline(IndexMode::OneToOne);
  ASSERT_TRUE(Pipeline.init(Pairs[0].Before));
  for (const corpus::CommitPair &Pair : Pairs) {
    if (Pair.Before != python::unparsePython(
                           python::makePythonSignature(),
                           Pipeline.currentTree()))
      break; // next file's history started
    auto Stats = Pipeline.step(Pair.After);
    ASSERT_TRUE(Stats.has_value());
    EXPECT_GT(Stats->EditCount, 0u);
    EXPECT_LE(Stats->DirtyFunctions, Stats->TotalFunctions + 1);
  }
}

TEST(PipelineTest, IncrementalCheaperThanFullOnBigFiles) {
  // Not a strict perf assertion (CI noise), but the dirty set must be a
  // small fraction of all functions for a single-statement edit.
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(2024);
  corpus::PyGenOptions Gen;
  Gen.NumFunctions = 40;
  Tree *Module = corpus::generateModule(Ctx, R, Gen);
  std::string Src = python::unparsePython(Sig, Module);

  IncrementalPipeline Pipeline(IndexMode::OneToOne);
  ASSERT_TRUE(Pipeline.init(Src));

  // A *local* edit (module-wide renames legitimately dirty many
  // functions): retry until the mutator applied a local operation.
  corpus::MutatorOptions Mut;
  Mut.MinOps = 1;
  Mut.MaxOps = 1;
  Tree *Next = nullptr;
  for (int Attempt = 0; Attempt != 50; ++Attempt) {
    corpus::MutationReport Report;
    Tree *Candidate = corpus::mutateModule(Ctx, R, Module, Mut, &Report);
    ASSERT_EQ(Report.Applied.size(), 1u);
    corpus::MutationKind Kind = Report.Applied[0];
    if (Kind != corpus::MutationKind::RenameIdentifier &&
        Kind != corpus::MutationKind::ReorderTopLevel) {
      Next = Candidate;
      break;
    }
  }
  ASSERT_NE(Next, nullptr);
  auto Stats = Pipeline.step(python::unparsePython(Sig, Next));
  ASSERT_TRUE(Stats.has_value());
  EXPECT_GT(Stats->TotalFunctions, 30u);
  EXPECT_LT(Stats->DirtyFunctions, 10u);
}

} // namespace
