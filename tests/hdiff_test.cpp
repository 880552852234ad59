//===- tests/hdiff_test.cpp - Unit tests for the hdiff baseline ------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hdiff/HDiff.h"

#include "support/Rng.h"

#include "TestLang.h"

#include <gtest/gtest.h>

#include <set>

using namespace truediff;
using namespace truediff::hdiff;
using namespace truediff::testlang;

namespace {

/// Number of distinct metavariables a patch binds or uses.
size_t numMetaVars(const HDiffPatch &Patch) {
  std::set<int> Vars;
  std::vector<const PatchNode *> Stack{Patch.Deletion, Patch.Insertion};
  while (!Stack.empty()) {
    const PatchNode *N = Stack.back();
    Stack.pop_back();
    if (N->IsMetaVar)
      Vars.insert(N->Var);
    Stack.insert(Stack.end(), N->Kids.begin(), N->Kids.end());
  }
  return Vars.size();
}

class HDiffTest : public ::testing::Test {
protected:
  HDiffTest() : Sig(makeExpSignature()), Ctx(Sig), Differ(Ctx) {}

  /// Diffs, checks apply(diff(src,dst), src) == dst, returns the patch.
  HDiffPatch checkedDiff(const Tree *Src, const Tree *Dst) {
    HDiffPatch Patch = Differ.diff(Src, Dst);
    Tree *Applied = Differ.apply(Patch, Src);
    EXPECT_NE(Applied, nullptr) << Patch.toString(Sig);
    if (Applied != nullptr) {
      EXPECT_TRUE(treeEqualsModuloUris(Applied, Dst))
          << Patch.toString(Sig);
    }
    return Patch;
  }

  SignatureTable Sig;
  TreeContext Ctx;
  HDiff Differ;
};

TEST_F(HDiffTest, IdenticalTreesShareEverything) {
  Tree *Src = add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)), num(Ctx, 3));
  Tree *Dst = add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)), num(Ctx, 3));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  // The whole tree is one shared metavariable: zero constructors.
  EXPECT_EQ(Patch.numConstructors(), 0u);
  EXPECT_EQ(numMetaVars(Patch), 1u);
}

TEST_F(HDiffTest, SmallChangeMentionsSpine) {
  // A literal change deep in the tree: the patch must spell out every
  // constructor on the path (the paper's conciseness criticism).
  Tree *Shared = mul(Ctx, num(Ctx, 5), num(Ctx, 6));
  Tree *Src = add(Ctx, Ctx.deepCopy(Shared),
                  call(Ctx, "f", sub(Ctx, num(Ctx, 1), num(Ctx, 2))));
  Tree *Dst = add(Ctx, Ctx.deepCopy(Shared),
                  call(Ctx, "f", sub(Ctx, num(Ctx, 1), num(Ctx, 9))));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  // Spine Add-Call-Sub plus leaves appears on both sides: strictly more
  // constructors than truediff's single update edit.
  EXPECT_GE(Patch.numConstructors(), 8u) << Patch.toString(Sig);
}

TEST_F(HDiffTest, SwapUsesMetavariables) {
  // The Section 1 example: hdiff expresses the swap as
  // Add(#1, Mul(#2,#3)) ~> Add(#3, Mul(#2,#1)) (modulo variable names).
  Tree *Src = add(Ctx, sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")),
                  mul(Ctx, leaf(Ctx, "c"), leaf(Ctx, "d")));
  Tree *Dst = add(Ctx, leaf(Ctx, "d"),
                  mul(Ctx, leaf(Ctx, "c"),
                      sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b"))));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  EXPECT_GE(numMetaVars(Patch), 1u);
  // Both Add spines and both Mul spines are mentioned.
  EXPECT_GE(Patch.numConstructors(), 4u);
}

TEST_F(HDiffTest, ClosureExposesHiddenVariable) {
  // Src = Call("w", Sub(a,b));  Dst = Add(Sub(a,b), Mul(a, Num(1))).
  // The leaf pair inside Sub is shared, but Dst also uses `a`-like
  // subtrees hidden inside the shared Sub; closure must expand.
  Tree *Inner = sub(Ctx, mul(Ctx, num(Ctx, 7), num(Ctx, 8)), num(Ctx, 9));
  Tree *Src = call(Ctx, "w", Ctx.deepCopy(Inner));
  Tree *Dst = add(Ctx, Ctx.deepCopy(Inner),
                  mul(Ctx, num(Ctx, 7), num(Ctx, 8)));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  // Mul(7,8) is used separately in Dst but hidden inside the shared Sub
  // in Src. Apply correctness (checked above) proves closure worked.
  EXPECT_GE(numMetaVars(Patch), 1u);
}

TEST_F(HDiffTest, DuplicationBindsVariableTwice) {
  Tree *Payload = mul(Ctx, num(Ctx, 4), num(Ctx, 5));
  Tree *Src = call(Ctx, "f", Ctx.deepCopy(Payload));
  Tree *Dst = add(Ctx, Ctx.deepCopy(Payload), Ctx.deepCopy(Payload));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  EXPECT_EQ(numMetaVars(Patch), 1u) << Patch.toString(Sig);
}

TEST_F(HDiffTest, ApplyRejectsNonMatchingTree) {
  Tree *Src = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *Dst = add(Ctx, num(Ctx, 1), num(Ctx, 3));
  HDiffPatch Patch = Differ.diff(Src, Dst);
  Tree *Other = mul(Ctx, num(Ctx, 1), num(Ctx, 2));
  EXPECT_EQ(Differ.apply(Patch, Other), nullptr);
}

TEST_F(HDiffTest, RepeatedVariableRequiresEqualBindings) {
  // Pattern with a repeated variable must reject inconsistent trees.
  Tree *Payload = mul(Ctx, num(Ctx, 4), num(Ctx, 5));
  Tree *Src = add(Ctx, Ctx.deepCopy(Payload), Ctx.deepCopy(Payload));
  Tree *Dst = call(Ctx, "g", Ctx.deepCopy(Payload));
  HDiffPatch Patch = Differ.diff(Src, Dst);
  ASSERT_NE(Differ.apply(Patch, Src), nullptr);
  // Same shape, different second payload: only rejected when the pattern
  // actually repeats a variable; otherwise it still matches.
  Tree *Inconsistent = add(Ctx, Ctx.deepCopy(Payload),
                           mul(Ctx, num(Ctx, 4), num(Ctx, 6)));
  std::string Dump = Patch.toString(Sig);
  if (numMetaVars(Patch) == 1 &&
      Dump.find("#0") != Dump.rfind("#0")) { // variable occurs twice
    EXPECT_EQ(Differ.apply(Patch, Inconsistent), nullptr) << Dump;
  }
}

TEST_F(HDiffTest, PatchToStringShowsRewriting) {
  Tree *Src = add(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)), num(Ctx, 3));
  Tree *Dst = sub(Ctx, mul(Ctx, num(Ctx, 1), num(Ctx, 2)), num(Ctx, 3));
  HDiffPatch Patch = checkedDiff(Src, Dst);
  std::string S = Patch.toString(Sig);
  EXPECT_NE(S.find("~>"), std::string::npos);
  EXPECT_NE(S.find("#0"), std::string::npos);
}

class HDiffRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HDiffRandomTest, ApplyDiffRoundTrips) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  HDiff Differ(Ctx);
  Rng R(GetParam() * 7907 + 3);

  std::function<Tree *(int)> Gen = [&](int Depth) -> Tree * {
    if (Depth <= 1 || R.chance(30))
      return num(Ctx, R.range(0, 4));
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

  Tree *Src = Gen(6);
  Tree *Dst = Gen(6);
  HDiffPatch Patch = Differ.diff(Src, Dst);
  Tree *Applied = Differ.apply(Patch, Src);
  ASSERT_NE(Applied, nullptr) << Patch.toString(Sig);
  EXPECT_TRUE(treeEqualsModuloUris(Applied, Dst)) << Patch.toString(Sig);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HDiffRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

} // namespace
