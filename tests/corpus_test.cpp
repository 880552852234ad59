//===- tests/corpus_test.cpp - Unit tests for the corpus generators --------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"

#include "corpus/JsonGen.h"
#include "corpus/Sketch.h"
#include "json/Json.h"
#include "python/Python.h"

#include "Validate.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::corpus;

namespace {

class CorpusTest : public ::testing::Test {
protected:
  CorpusTest() : Sig(python::makePythonSignature()), Ctx(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
};

//===----------------------------------------------------------------------===//
// Sketches
//===----------------------------------------------------------------------===//

TEST_F(CorpusTest, SketchRoundTrip) {
  Rng R(1);
  Tree *T = generateModule(Ctx, R);
  TreeSketch S = TreeSketch::of(T);
  size_t Nodes = 0;
  S.foreach([&](TreeSketch &) { ++Nodes; });
  EXPECT_EQ(Nodes, T->size());
  Tree *Back = S.build(Ctx);
  EXPECT_TRUE(treeEqualsModuloUris(T, Back));
}

TEST_F(CorpusTest, ListVectorRoundTrip) {
  Rng R(2);
  Tree *T = generateModule(Ctx, R);
  TreeSketch S = TreeSketch::of(T);
  std::vector<TreeSketch> Stmts = listToVector(Sig, S.Kids[0]);
  EXPECT_FALSE(Stmts.empty());
  TreeSketch Rebuilt =
      vectorToList(Sig, "StmtCons", "StmtNil", Stmts);
  S.Kids[0] = Rebuilt;
  EXPECT_TRUE(treeEqualsModuloUris(T, S.build(Ctx)));
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST_F(CorpusTest, GeneratedModulesAreWellTyped) {
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    Rng R(Seed);
    Tree *T = generateModule(Ctx, R);
    EXPECT_FALSE(tests::validateTree(Ctx.signatures(), T).has_value()) << "seed " << Seed;
  }
}

TEST_F(CorpusTest, GeneratedModulesUnparseAndReparse) {
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    Rng R(Seed * 31 + 5);
    Tree *T = generateModule(Ctx, R);
    std::string Src = python::unparsePython(Sig, T);
    python::PyParseResult P = python::parsePython(Ctx, Src);
    ASSERT_TRUE(P.ok()) << P.Error << "\n" << Src;
    EXPECT_TRUE(treeEqualsModuloUris(T, P.Module)) << Src;
  }
}

TEST_F(CorpusTest, GeneratorIsDeterministic) {
  Rng R1(99), R2(99);
  Tree *A = generateModule(Ctx, R1);
  Tree *B = generateModule(Ctx, R2);
  EXPECT_TRUE(treeEqualsModuloUris(A, B));
}

TEST_F(CorpusTest, SizeTargetedGeneration) {
  Rng R(7);
  Tree *T = generateModuleOfSize(Ctx, R, 5000);
  EXPECT_GE(T->size(), 5000u);
  EXPECT_FALSE(tests::validateTree(Ctx.signatures(), T).has_value());
}

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

TEST_F(CorpusTest, MutationsPreserveWellTypedness) {
  Rng R(11);
  Tree *T = generateModule(Ctx, R);
  for (int I = 0; I != 30; ++I) {
    MutationReport Report;
    Tree *Mutated = mutateModule(Ctx, R, T, MutatorOptions(), &Report);
    ASSERT_FALSE(tests::validateTree(Ctx.signatures(), Mutated).has_value());
    // Mutated modules still unparse to parseable source.
    std::string Src = python::unparsePython(Sig, Mutated);
    python::PyParseResult P = python::parsePython(Ctx, Src);
    ASSERT_TRUE(P.ok()) << P.Error << "\n" << Src;
    EXPECT_TRUE(treeEqualsModuloUris(Mutated, P.Module));
    T = Mutated;
  }
}

TEST_F(CorpusTest, MutationsUsuallyChangeTheTree) {
  Rng R(13);
  Tree *T = generateModule(Ctx, R);
  unsigned Changed = 0;
  for (int I = 0; I != 20; ++I) {
    Tree *Mutated = mutateModule(Ctx, R, T, MutatorOptions());
    Changed += !treeEqualsModuloUris(T, Mutated);
  }
  EXPECT_GE(Changed, 15u);
}

TEST_F(CorpusTest, EveryMutationKindApplies) {
  Rng R(17);
  Tree *T = generateModule(Ctx, R);
  std::set<MutationKind> Seen;
  for (int I = 0; I != 300 && Seen.size() < 11; ++I) {
    MutationReport Report;
    T = mutateModule(Ctx, R, T, MutatorOptions(), &Report);
    Seen.insert(Report.Applied.begin(), Report.Applied.end());
  }
  EXPECT_EQ(Seen.size(), 11u) << "some mutation kinds never applied";
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

TEST_F(CorpusTest, CorpusPairsParseAndDiffer) {
  CorpusOptions Opts;
  Opts.NumPairs = 12;
  Opts.CommitsPerFile = 4;
  std::vector<CommitPair> Pairs = buildCommitCorpus(Opts);
  ASSERT_EQ(Pairs.size(), 12u);
  for (const CommitPair &Pair : Pairs) {
    EXPECT_NE(Pair.Before, Pair.After);
    EXPECT_FALSE(Pair.Mutations.empty());
    TreeContext Local(Sig);
    auto B = python::parsePython(Local, Pair.Before);
    auto A = python::parsePython(Local, Pair.After);
    ASSERT_TRUE(B.ok()) << B.Error;
    ASSERT_TRUE(A.ok()) << A.Error;
    EXPECT_FALSE(treeEqualsModuloUris(B.Module, A.Module));
  }
}

TEST_F(CorpusTest, CorpusIsDeterministic) {
  CorpusOptions Opts;
  Opts.NumPairs = 5;
  std::vector<CommitPair> A = buildCommitCorpus(Opts);
  std::vector<CommitPair> B = buildCommitCorpus(Opts);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Before, B[I].Before);
    EXPECT_EQ(A[I].After, B[I].After);
  }
}

//===----------------------------------------------------------------------===//
// JSON workload generator
//===----------------------------------------------------------------------===//

TEST_F(CorpusTest, JsonGeneratorProducesValidDocuments) {
  SignatureTable Sig2 = truediff::json::makeJsonSignature();
  TreeContext Ctx2(Sig2);
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    Rng R(Seed * 97 + 1);
    Tree *Doc = generateJson(Ctx2, R);
    EXPECT_FALSE(tests::validateTree(Ctx2.signatures(), Doc).has_value());
    // Round trips through the JSON printer/parser.
    auto P = truediff::json::parseJson(
        Ctx2, truediff::json::unparseJson(Sig2, Doc));
    ASSERT_TRUE(P.ok()) << P.Error;
    EXPECT_TRUE(treeEqualsModuloUris(Doc, P.Value));
  }
}

TEST_F(CorpusTest, JsonMutationsChangeAndStayValid) {
  SignatureTable Sig2 = truediff::json::makeJsonSignature();
  TreeContext Ctx2(Sig2);
  Rng R(31);
  Tree *Doc = generateJson(Ctx2, R);
  unsigned Changed = 0;
  for (int I = 0; I != 20; ++I) {
    Tree *Next = mutateJson(Ctx2, R, Doc);
    EXPECT_FALSE(tests::validateTree(Ctx2.signatures(), Next).has_value());
    Changed += !treeEqualsModuloUris(Doc, Next);
    Doc = Next;
  }
  EXPECT_GE(Changed, 15u);
}

TEST_F(CorpusTest, CommitsChainWithinFile) {
  CorpusOptions Opts;
  Opts.NumPairs = 6;
  Opts.CommitsPerFile = 6;
  std::vector<CommitPair> Pairs = buildCommitCorpus(Opts);
  // Consecutive pairs of one file chain: After[i] == Before[i+1] (holds
  // until a no-op commit is skipped; require at least one chained link).
  unsigned Chained = 0;
  for (size_t I = 0; I + 1 < Pairs.size(); ++I)
    Chained += Pairs[I].After == Pairs[I + 1].Before;
  EXPECT_GE(Chained, 1u);
}

} // namespace
