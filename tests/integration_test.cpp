//===- tests/integration_test.cpp - Full-pipeline integration tests --------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the complete evaluation pipeline on the synthetic commit corpus:
/// parse both versions, diff with all four tools, and verify every
/// invariant -- truediff scripts type check (Conjecture 4.2) and patch the
/// standard semantics to the target (Conjecture 4.3), Gumtree actions
/// reproduce the target rose tree, hdiff and lcsdiff patches apply.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "gumtree/GumTree.h"
#include "hdiff/HDiff.h"
#include "lcsdiff/LcsDiff.h"
#include "python/Python.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include "RoseEquals.h"

#include <gtest/gtest.h>

using namespace truediff;

namespace {

class IntegrationTest : public ::testing::Test {
protected:
  IntegrationTest() : Sig(python::makePythonSignature()) {}

  std::vector<corpus::CommitPair> corpusPairs(unsigned NumPairs,
                                              uint64_t Seed) {
    corpus::CorpusOptions Opts;
    Opts.NumPairs = NumPairs;
    Opts.Seed = Seed;
    return corpus::buildCommitCorpus(Opts);
  }

  SignatureTable Sig;
};

TEST_F(IntegrationTest, TrueDiffInvariantsOnCorpus) {
  std::vector<corpus::CommitPair> Pairs = corpusPairs(40, 7);
  LinearTypeChecker Checker(Sig);

  for (size_t I = 0; I != Pairs.size(); ++I) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pairs[I].Before);
    auto After = python::parsePython(Ctx, Pairs[I].After);
    ASSERT_TRUE(Before.ok()) << Before.Error;
    ASSERT_TRUE(After.ok()) << After.Error;

    MTree Standard = MTree::fromTree(Sig, Before.Module);
    uint64_t SrcSize = Before.Module->size();
    uint64_t DstSize = After.Module->size();

    TrueDiff Diff(Ctx);
    DiffResult Result = Diff.compareTo(Before.Module, After.Module);

    auto TC = Checker.checkWellTyped(Result.Script);
    ASSERT_TRUE(TC.Ok) << "pair " << I << ": " << TC.Error;

    auto PR = Standard.patchChecked(Result.Script);
    ASSERT_TRUE(PR.Ok) << "pair " << I << ": " << PR.Error;
    EXPECT_TRUE(Standard.equalsTree(After.Module)) << "pair " << I;
    EXPECT_TRUE(treeEqualsModuloUris(Result.Patched, After.Module));
    EXPECT_LE(Result.Script.size(), SrcSize + DstSize + 2);
  }
}

TEST_F(IntegrationTest, ChainedHistoryInOneContext) {
  // A whole history through one context, reusing patched trees, as the
  // incremental driver does.
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 15;
  Opts.CommitsPerFile = 15;
  Opts.Seed = 21;
  std::vector<corpus::CommitPair> Pairs = corpus::buildCommitCorpus(Opts);

  TreeContext Ctx(Sig);
  LinearTypeChecker Checker(Sig);
  auto First = python::parsePython(Ctx, Pairs[0].Before);
  ASSERT_TRUE(First.ok());
  Tree *Current = First.Module;
  std::string CurrentSrc = Pairs[0].Before;

  for (const corpus::CommitPair &Pair : Pairs) {
    if (Pair.Before != CurrentSrc)
      break; // next file started
    auto Next = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Next.ok());
    TrueDiff Diff(Ctx);
    DiffResult Result = Diff.compareTo(Current, Next.Module);
    ASSERT_TRUE(Checker.checkWellTyped(Result.Script).Ok);
    EXPECT_TRUE(treeEqualsModuloUris(Result.Patched, Next.Module));
    Current = Result.Patched;
    CurrentSrc = Pair.After;
  }
}

TEST_F(IntegrationTest, GumtreeReproducesCorpusTargets) {
  std::vector<corpus::CommitPair> Pairs = corpusPairs(15, 11);
  for (const corpus::CommitPair &Pair : Pairs) {
    TreeContext Ctx(Sig);
    gumtree::RoseForest Forest;
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Before.ok() && After.ok());
    gumtree::RNode *Src = Forest.fromTree(Sig, Before.Module);
    gumtree::RNode *Dst = Forest.fromTree(Sig, After.Module);
    gumtree::GumTreeResult R = gumtree::gumtreeDiff(Forest, Src, Dst);
    ASSERT_NE(R.PatchedSource, nullptr);
    EXPECT_TRUE(tests::roseEquals(R.PatchedSource, Dst));
  }
}

TEST_F(IntegrationTest, HdiffAppliesOnCorpus) {
  std::vector<corpus::CommitPair> Pairs = corpusPairs(15, 13);
  for (const corpus::CommitPair &Pair : Pairs) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Before.ok() && After.ok());
    hdiff::HDiff Differ(Ctx);
    hdiff::HDiffPatch Patch = Differ.diff(Before.Module, After.Module);
    Tree *Applied = Differ.apply(Patch, Before.Module);
    ASSERT_NE(Applied, nullptr);
    EXPECT_TRUE(treeEqualsModuloUris(Applied, After.Module));
  }
}

TEST_F(IntegrationTest, LcsAppliesOnCorpus) {
  std::vector<corpus::CommitPair> Pairs = corpusPairs(15, 17);
  for (const corpus::CommitPair &Pair : Pairs) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Before.ok() && After.ok());
    lcsdiff::LcsScript Script = lcsdiff::lcsDiff(Before.Module, After.Module);
    Tree *Applied = lcsdiff::applyLcs(Ctx, Before.Module, Script);
    ASSERT_NE(Applied, nullptr);
    EXPECT_TRUE(treeEqualsModuloUris(Applied, After.Module));
  }
}

TEST_F(IntegrationTest, ConcisenessOrderOnCorpus) {
  // The paper's qualitative claims: truediff patches are in Gumtree's
  // ballpark, while hdiff patches are much larger and lcsdiff scripts
  // mention the whole traversal.
  std::vector<corpus::CommitPair> Pairs = corpusPairs(25, 19);
  double TrueDiffTotal = 0, GumtreeTotal = 0, HdiffTotal = 0,
         LcsTotal = 0;
  for (const corpus::CommitPair &Pair : Pairs) {
    TreeContext Ctx(Sig);
    gumtree::RoseForest Forest;
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Before.ok() && After.ok());

    hdiff::HDiff HDiffer(Ctx);
    HdiffTotal += static_cast<double>(
        HDiffer.diff(Before.Module, After.Module).numConstructors());
    LcsTotal += static_cast<double>(
        lcsdiff::lcsDiff(Before.Module, After.Module).size());
    GumtreeTotal += static_cast<double>(
        gumtree::gumtreeDiff(Forest, Forest.fromTree(Sig, Before.Module),
                             Forest.fromTree(Sig, After.Module))
            .patchSize());

    TrueDiff Diff(Ctx);
    TrueDiffTotal += static_cast<double>(
        Diff.compareTo(Before.Module, After.Module).Script.coalescedSize());
  }
  // hdiff and lcsdiff patches are an order of magnitude larger.
  EXPECT_GT(HdiffTotal, 3 * TrueDiffTotal);
  EXPECT_GT(LcsTotal, 3 * TrueDiffTotal);
  // truediff within a small factor of Gumtree (paper: ratio ~1.01).
  EXPECT_LT(TrueDiffTotal, 3 * GumtreeTotal + 50);
}

} // namespace
