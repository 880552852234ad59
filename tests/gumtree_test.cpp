//===- tests/gumtree_test.cpp - Unit tests for the Gumtree baseline --------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "gumtree/GumTree.h"

#include "python/Python.h"
#include "support/Rng.h"

#include "RoseEquals.h"
#include "TestLang.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::gumtree;
using namespace truediff::testlang;

namespace {

class GumTreeTest : public ::testing::Test {
protected:
  GumTreeTest() : Sig(makeExpSignature()), Ctx(Sig) {}

  RNode *rose(Tree *T) { return Forest.fromTree(Sig, T); }

  /// Diffs and asserts the simulated script reproduces the target.
  GumTreeResult checkedDiff(RNode *Src, RNode *Dst,
                            GumTreeOptions Opts = GumTreeOptions()) {
    GumTreeResult R = gumtreeDiff(Forest, Src, Dst, Opts);
    EXPECT_TRUE(R.PatchedSource != nullptr &&
                tests::roseEquals(R.PatchedSource, Dst))
        << "patched: "
        << (R.PatchedSource ? RoseForest::toString(Sig, R.PatchedSource)
                            : "<null>")
        << "\ntarget:  " << RoseForest::toString(Sig, Dst);
    return R;
  }

  SignatureTable Sig;
  TreeContext Ctx;
  RoseForest Forest;
};

TEST_F(GumTreeTest, RoseTreeConversion) {
  Tree *T = add(Ctx, num(Ctx, 1), call(Ctx, "f", var(Ctx, "x")));
  RNode *R = rose(T);
  EXPECT_EQ(R->Size, 4u);
  EXPECT_EQ(R->Height, 3u);
  EXPECT_EQ(R->Kids[0]->Label, "1");
  EXPECT_EQ(R->Kids[1]->Label, "\"f\"");
  EXPECT_EQ(RoseForest::toString(Sig, R),
            "Add(Num{1},Call{\"f\"}(Var{\"x\"}))");
}

TEST_F(GumTreeTest, IsomorphismByHash) {
  RNode *A = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *B = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *C = rose(add(Ctx, num(Ctx, 2), num(Ctx, 1)));
  EXPECT_TRUE(A->isomorphicTo(B));
  EXPECT_FALSE(A->isomorphicTo(C));
}

TEST_F(GumTreeTest, TopDownMapsIdenticalSubtrees) {
  RNode *Src = rose(add(Ctx, sub(Ctx, num(Ctx, 1), num(Ctx, 2)),
                        mul(Ctx, num(Ctx, 3), num(Ctx, 4))));
  RNode *Dst = rose(mul(Ctx, sub(Ctx, num(Ctx, 1), num(Ctx, 2)),
                        mul(Ctx, num(Ctx, 3), num(Ctx, 4))));
  GumTreeOptions Opts;
  MappingStore M = computeMappings(Src, Dst, Opts);
  // Sub(1,2) is unique and isomorphic: must be mapped with descendants.
  EXPECT_TRUE(M.hasSrc(Src->Kids[0]));
  EXPECT_TRUE(M.areMapped(Src->Kids[0], Dst->Kids[0]));
  EXPECT_TRUE(M.areMapped(Src->Kids[0]->Kids[0], Dst->Kids[0]->Kids[0]));
}

TEST_F(GumTreeTest, DiceCoefficient) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(sub(Ctx, num(Ctx, 1), num(Ctx, 2)));
  MappingStore M;
  M.add(Src->Kids[0], Dst->Kids[0]);
  EXPECT_DOUBLE_EQ(diceCoefficient(Src, Dst, M), 0.5);
  M.add(Src->Kids[1], Dst->Kids[1]);
  EXPECT_DOUBLE_EQ(diceCoefficient(Src, Dst, M), 1.0);
}

TEST_F(GumTreeTest, IdenticalTreesNeedNoActions) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  GumTreeResult R = checkedDiff(Src, Dst);
  EXPECT_EQ(R.patchSize(), 0u);
}

TEST_F(GumTreeTest, LabelChangeYieldsUpdate) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(add(Ctx, num(Ctx, 1), num(Ctx, 9)));
  GumTreeResult R = checkedDiff(Src, Dst);
  ASSERT_EQ(R.patchSize(), 1u);
  EXPECT_EQ(R.Actions[0].Kind, ActionKind::Update);
  EXPECT_EQ(R.Actions[0].NewLabel, "9");
}

TEST_F(GumTreeTest, PaperSwapExampleYieldsTwoMoves) {
  // Section 1: Chawathe-style tools express the swap with two moves.
  RNode *Src = rose(add(Ctx, sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")),
                        mul(Ctx, leaf(Ctx, "c"), leaf(Ctx, "d"))));
  RNode *Dst = rose(add(Ctx, leaf(Ctx, "d"),
                        mul(Ctx, leaf(Ctx, "c"),
                            sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")))));
  GumTreeResult R = checkedDiff(Src, Dst);
  size_t Moves = 0;
  for (const Action &A : R.Actions)
    Moves += A.Kind == ActionKind::Move;
  EXPECT_EQ(R.patchSize(), 2u) << "expected the optimal 2-move script";
  EXPECT_EQ(Moves, 2u);
}

TEST_F(GumTreeTest, InsertionIntoContainer) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(add(Ctx, num(Ctx, 1), mul(Ctx, num(Ctx, 2), num(Ctx, 3))));
  GumTreeResult R = checkedDiff(Src, Dst);
  size_t Inserts = 0;
  for (const Action &A : R.Actions)
    Inserts += A.Kind == ActionKind::Insert;
  EXPECT_GE(Inserts, 2u); // Mul and Num(3)
}

TEST_F(GumTreeTest, DeletionOfSubtree) {
  RNode *Src = rose(add(Ctx, mul(Ctx, num(Ctx, 7), num(Ctx, 8)), num(Ctx, 1)));
  RNode *Dst = rose(num(Ctx, 1));
  GumTreeResult R = checkedDiff(Src, Dst);
  size_t Deletes = 0;
  for (const Action &A : R.Actions)
    Deletes += A.Kind == ActionKind::Delete;
  EXPECT_GE(Deletes, 3u);
}

TEST_F(GumTreeTest, RootReplacement) {
  RNode *Src = rose(num(Ctx, 1));
  RNode *Dst = rose(call(Ctx, "f", var(Ctx, "x")));
  checkedDiff(Src, Dst);
}

TEST_F(GumTreeTest, BottomUpMatchesRenamedContainer) {
  // Call("f", big) vs Call("g", big): top-down maps the payload, bottom-up
  // must match the renamed Call container via dice.
  Tree *Payload1 = add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)),
                       mul(Ctx, num(Ctx, 3), num(Ctx, 4)));
  Tree *Payload2 = add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)),
                       mul(Ctx, num(Ctx, 3), num(Ctx, 4)));
  RNode *Src = rose(call(Ctx, "f", Payload1));
  RNode *Dst = rose(call(Ctx, "g", Payload2));
  GumTreeResult R = checkedDiff(Src, Dst);
  // One update action suffices; no deletes or inserts.
  ASSERT_EQ(R.patchSize(), 1u);
  EXPECT_EQ(R.Actions[0].Kind, ActionKind::Update);
}

TEST_F(GumTreeTest, ActionToStringIsReadable) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(add(Ctx, num(Ctx, 1), num(Ctx, 3)));
  GumTreeResult R = checkedDiff(Src, Dst);
  ASSERT_EQ(R.Actions.size(), 1u);
  EXPECT_EQ(actionToString(Sig, R.Actions[0]), "update Num{2} to {3}");
}

TEST_F(GumTreeTest, AmbiguousIsomorphicPairsResolveByParentDice) {
  // Two identical Num(1) leaves on each side; the one under the matching
  // parent must win. MinHeight=1 so leaves take part in the top-down
  // phase.
  RNode *Src = rose(add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)),
                        sub(Ctx, num(Ctx, 1), num(Ctx, 3))));
  RNode *Dst = rose(add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)),
                        sub(Ctx, num(Ctx, 1), num(Ctx, 9))));
  GumTreeOptions Opts;
  Opts.MinHeight = 1;
  MappingStore M = computeMappings(Src, Dst, Opts);
  // Mul(1,2) is unique-isomorphic; the ambiguous Num(1)s must pair with
  // their own parents: Mul's 1 with Mul's 1, Sub's 1 with Sub's 1.
  EXPECT_EQ(M.dstOf(Src->Kids[0]->Kids[0]), Dst->Kids[0]->Kids[0]);
  EXPECT_EQ(M.dstOf(Src->Kids[1]->Kids[0]), Dst->Kids[1]->Kids[0]);
}

TEST_F(GumTreeTest, MinHeightGatesTopDownPhase) {
  RNode *Src = rose(add(Ctx, num(Ctx, 1), num(Ctx, 2)));
  RNode *Dst = rose(sub(Ctx, num(Ctx, 1), num(Ctx, 3)));
  GumTreeOptions Tall;
  Tall.MinHeight = 3; // taller than anything here: top-down is inert
  Tall.MaxRecoverySize = 0;
  Tall.MinDice = 0.99;
  MappingStore M = computeMappings(Src, Dst, Tall);
  EXPECT_EQ(M.size(), 0u);
}

TEST_F(GumTreeTest, ConsListsFlattenToBlockNodes) {
  // The Python statement-list encoding becomes one n-ary block node.
  SignatureTable PySig = python::makePythonSignature();
  TreeContext PyCtx(PySig);
  auto M = python::parsePython(PyCtx, "a = 1\nb = 2\nc = 3\n");
  ASSERT_TRUE(M.ok());
  RNode *R = Forest.fromTree(PySig, M.Module);
  // Module -> block(list) -> three Assign children.
  ASSERT_EQ(R->Kids.size(), 1u);
  EXPECT_EQ(PySig.name(R->Kids[0]->Type), "StmtNil");
  EXPECT_EQ(R->Kids[0]->Kids.size(), 3u);
  // Without flattening the spine survives.
  RNode *Spine = Forest.fromTree(PySig, M.Module, /*FlattenLists=*/false);
  EXPECT_EQ(PySig.name(Spine->Kids[0]->Type), "StmtCons");
}

TEST_F(GumTreeTest, MappingStoreIsBidirectional) {
  RNode *A = rose(num(Ctx, 1));
  RNode *B = rose(num(Ctx, 1));
  MappingStore M;
  M.add(A, B);
  EXPECT_EQ(M.dstOf(A), B);
  EXPECT_EQ(M.srcOf(B), A);
  EXPECT_TRUE(M.areMapped(A, B));
  EXPECT_FALSE(M.areMapped(B, A));
  EXPECT_EQ(M.size(), 1u);
}

class GumTreeRandomTest : public ::testing::TestWithParam<uint64_t> {};

/// Random rose trees: scripts must always reproduce the target.
TEST_P(GumTreeRandomTest, ScriptsReproduceTarget) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  RoseForest Forest;
  Rng R(GetParam() * 104729 + 17);

  std::function<Tree *(int)> Gen = [&](int Depth) -> Tree * {
    if (Depth <= 1 || R.chance(30))
      return R.chance(50) ? num(Ctx, R.range(0, 5))
                          : var(Ctx, (const char *[]){"x", "y"}[R.below(2)]);
    switch (R.below(4)) {
    case 0:
      return add(Ctx, Gen(Depth - 1), Gen(Depth - 1));
    case 1:
      return sub(Ctx, Gen(Depth - 1), Gen(Depth - 1));
    case 2:
      return mul(Ctx, Gen(Depth - 1), Gen(Depth - 1));
    default:
      return call(Ctx, "f", Gen(Depth - 1));
    }
  };

  RNode *Src = Forest.fromTree(Sig, Gen(6));
  RNode *Dst = Forest.fromTree(Sig, Gen(6));
  GumTreeResult Result = gumtreeDiff(Forest, Src, Dst, GumTreeOptions());
  ASSERT_NE(Result.PatchedSource, nullptr);
  EXPECT_TRUE(tests::roseEquals(Result.PatchedSource, Dst));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GumTreeRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

} // namespace
