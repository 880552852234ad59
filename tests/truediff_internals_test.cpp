//===- tests/truediff_internals_test.cpp - Shares, registry, buffer --------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests for truediff's Step 2/3 machinery: subtree shares
/// (availability, preferred selection, lazy deregistration), the share
/// registry (interning by structure hash), the session's diff-state
/// reset, and the edit buffer's negative-before-positive ordering.
///
//===----------------------------------------------------------------------===//

#include "truediff/EditBuffer.h"
#include "truediff/SubtreeShare.h"
#include "truediff/TrueDiff.h"

#include "TestLang.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::testlang;

namespace {

class InternalsTest : public ::testing::Test {
protected:
  InternalsTest() : Sig(makeExpSignature()), Ctx(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
};

//===----------------------------------------------------------------------===//
// SubtreeShare
//===----------------------------------------------------------------------===//

TEST_F(InternalsTest, TakeAnyIsRegistrationOrdered) {
  SubtreeShare Share;
  Tree *A = num(Ctx, 1);
  Tree *B = num(Ctx, 2);
  Share.registerAvailableTree(A);
  Share.registerAvailableTree(B);
  EXPECT_EQ(Share.takeAny(), A);
  Share.deregisterAvailableTree(A);
  EXPECT_EQ(Share.takeAny(), B);
  Share.deregisterAvailableTree(B);
  EXPECT_EQ(Share.takeAny(), nullptr);
}

TEST_F(InternalsTest, TakeAnySkipsDeregisteredLazily) {
  SubtreeShare Share;
  Tree *A = num(Ctx, 1);
  Tree *B = num(Ctx, 2);
  Share.registerAvailableTree(A);
  Share.registerAvailableTree(B);
  Share.deregisterAvailableTree(A);
  EXPECT_FALSE(Share.isAvailable(A));
  EXPECT_EQ(Share.takeAny(), B);
}

TEST_F(InternalsTest, TakePreferredMatchesLiteralHash) {
  SubtreeShare Share;
  Tree *N5 = num(Ctx, 5);
  Tree *N7 = num(Ctx, 7);
  Share.registerAvailableTree(N5);
  Share.registerAvailableTree(N7);
  Tree *Probe7 = num(Ctx, 7);
  EXPECT_EQ(Share.takePreferred(Probe7->literalHash()), N7);
  Tree *Probe9 = num(Ctx, 9);
  EXPECT_EQ(Share.takePreferred(Probe9->literalHash()), nullptr);
}

TEST_F(InternalsTest, TakePreferredSkipsConsumedCandidates) {
  SubtreeShare Share;
  Tree *A = num(Ctx, 7);
  Tree *B = num(Ctx, 7);
  Share.registerAvailableTree(A);
  Share.registerAvailableTree(B);
  // Build the index first, then consume A through another path.
  EXPECT_EQ(Share.takePreferred(A->literalHash()), A);
  Share.deregisterAvailableTree(A);
  EXPECT_EQ(Share.takePreferred(A->literalHash()), B);
}

//===----------------------------------------------------------------------===//
// SubtreeRegistry
//===----------------------------------------------------------------------===//

TEST_F(InternalsTest, RegistryInternsByStructureHash) {
  SubtreeRegistry Registry;
  Tree *A = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *B = add(Ctx, num(Ctx, 9), num(Ctx, 8)); // structurally equivalent
  Tree *C = sub(Ctx, num(Ctx, 1), num(Ctx, 2)); // different shape
  SubtreeShare *SA = Registry.assignShare(A);
  SubtreeShare *SB = Registry.assignShare(B);
  SubtreeShare *SC = Registry.assignShare(C);
  EXPECT_EQ(SA, SB);
  EXPECT_NE(SA, SC);
  EXPECT_EQ(Registry.numShares(), 2u);
  EXPECT_EQ(A->share(), SA);
}

TEST_F(InternalsTest, AssignShareIsIdempotent) {
  SubtreeRegistry Registry;
  Tree *A = num(Ctx, 1);
  SubtreeShare *First = Registry.assignShare(A);
  EXPECT_EQ(Registry.assignShare(A), First);
}

TEST_F(InternalsTest, AssignShareAndRegisterMakesAvailable) {
  SubtreeRegistry Registry;
  Tree *A = num(Ctx, 3);
  SubtreeShare *Share = Registry.assignShareAndRegisterTree(A);
  EXPECT_TRUE(Share->isAvailable(A));
  EXPECT_EQ(Share->takeAny(), A);
}

//===----------------------------------------------------------------------===//
// Tree diff-state helpers
//===----------------------------------------------------------------------===//

TEST_F(InternalsTest, AssignTreeIsSymmetric) {
  Tree *A = num(Ctx, 1);
  Tree *B = num(Ctx, 1);
  A->assignTree(B);
  EXPECT_EQ(A->assigned(), B);
  EXPECT_EQ(B->assigned(), A);
  A->unassignTree();
  EXPECT_EQ(A->assigned(), nullptr);
  EXPECT_EQ(B->assigned(), nullptr);
}

TEST_F(InternalsTest, ClearDiffStateResetsEverything) {
  // Step 2 descends through the Muls and preemptively pairs the first
  // Sub(a, b)s, so the source's a and b get no share; Step 3 then takes
  // the source Mul for the target's second Mul, which marks them and
  // covers the target Mul's kids. Num 7 is unloaded.
  auto Mul = [&](Tree *Right) {
    return mul(Ctx, sub(Ctx, var(Ctx, "a"), var(Ctx, "b")), Right);
  };
  Tree *Source = add(Ctx, Mul(num(Ctx, 4)), num(Ctx, 7));
  Tree *Target = add(Ctx, Mul(var(Ctx, "x")), Mul(num(Ctx, 4)));
  std::vector<Tree *> Nodes;
  Source->foreachTree([&](Tree *T) { Nodes.push_back(T); });
  Tree *SourceA = Source->kid(0)->kid(0)->kid(0);
  Target->foreachTree([&](Tree *T) { Nodes.push_back(T); });

  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Source, Target);
  EXPECT_EQ(R.Patched->kid(1)->kid(0)->kid(0), SourceA)
      << "the source Mul was not moved as a whole";
  R.Patched->foreachTree([&](Tree *T) { Nodes.push_back(T); });
  for (const Tree *T : Nodes) {
    EXPECT_EQ(T->share(), nullptr) << "uri " << T->uri();
    EXPECT_EQ(T->assigned(), nullptr) << "uri " << T->uri();
    EXPECT_FALSE(T->covered()) << "uri " << T->uri();
    EXPECT_FALSE(T->shareAvailable()) << "uri " << T->uri();
    EXPECT_EQ(T->mark(), 0u) << "uri " << T->uri();
  }
}

//===----------------------------------------------------------------------===//
// EditBuffer
//===----------------------------------------------------------------------===//

TEST_F(InternalsTest, NegativesPrecedePositives) {
  TagId NumTag = Sig.lookup("Num");
  TagId AddTag = Sig.lookup("Add");
  LinkId E1 = Sig.lookup("e1");
  LinkId N = Sig.lookup("n");

  EditBuffer Buffer;
  Buffer.emit(Edit::attach(NodeRef{NumTag, 9}, E1, NodeRef{AddTag, 1}));
  Buffer.emit(Edit::detach(NodeRef{NumTag, 2}, E1, NodeRef{AddTag, 1}));
  Buffer.emit(Edit::load(NodeRef{NumTag, 9}, {},
                         {LitRef{N, Literal(int64_t(4))}}));
  Buffer.emit(Edit::unload(NodeRef{NumTag, 2}, {},
                           {LitRef{N, Literal(int64_t(3))}}));
  EXPECT_EQ(Buffer.size(), 4u);

  EditScript Script = std::move(Buffer).toEditScript();
  ASSERT_EQ(Script.size(), 4u);
  // Negative edits in emission order, then positives in emission order.
  EXPECT_EQ(Script[0].Kind, EditKind::Detach);
  EXPECT_EQ(Script[1].Kind, EditKind::Unload);
  EXPECT_EQ(Script[2].Kind, EditKind::Attach);
  EXPECT_EQ(Script[3].Kind, EditKind::Load);
}

TEST_F(InternalsTest, UpdatesCountAsPositive) {
  TagId NumTag = Sig.lookup("Num");
  LinkId N = Sig.lookup("n");
  Edit Update = Edit::update(NodeRef{NumTag, 1},
                             {LitRef{N, Literal(int64_t(1))}},
                             {LitRef{N, Literal(int64_t(2))}});
  EXPECT_FALSE(Update.isNegative());

  EditBuffer Buffer;
  Buffer.emit(Update);
  Buffer.emit(Edit::detach(NodeRef{NumTag, 2}, Sig.lookup("e1"),
                           NodeRef{Sig.lookup("Add"), 3}));
  EditScript Script = std::move(Buffer).toEditScript();
  EXPECT_EQ(Script[0].Kind, EditKind::Detach);
  EXPECT_EQ(Script[1].Kind, EditKind::Update);
}

} // namespace
