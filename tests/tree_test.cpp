//===- tests/tree_test.cpp - Unit tests for the tree substrate -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"
#include "tree/Signature.h"
#include "tree/Tree.h"

#include "TestLang.h"
#include "Validate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace truediff;
using namespace truediff::testlang;

namespace {

class TreeTest : public ::testing::Test {
protected:
  TreeTest() : Sig(makeExpSignature()), Ctx(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
};

//===----------------------------------------------------------------------===//
// Signatures and subtyping
//===----------------------------------------------------------------------===//

TEST_F(TreeTest, RootTagSignature) {
  const TagSignature &RootSig = Sig.signature(Sig.rootTag());
  ASSERT_EQ(RootSig.Kids.size(), 1u);
  EXPECT_EQ(RootSig.Kids[0].Link, Sig.rootLink());
  EXPECT_EQ(RootSig.Kids[0].Sort, Sig.anySort());
  EXPECT_EQ(RootSig.Result, Sig.rootSort());
}

TEST_F(TreeTest, SubsortReflexiveAndTop) {
  SortId Exp = Sig.sort("Exp");
  EXPECT_TRUE(Sig.isSubsort(Exp, Exp));
  EXPECT_TRUE(Sig.isSubsort(Exp, Sig.anySort()));
  EXPECT_FALSE(Sig.isSubsort(Sig.anySort(), Exp));
}

TEST_F(TreeTest, DeclaredSubsortsAreTransitive) {
  SignatureTable S;
  S.declareSubsort("Lit", "Exp");
  S.declareSubsort("Exp", "Node");
  EXPECT_TRUE(S.isSubsort(S.sort("Lit"), S.sort("Exp")));
  EXPECT_TRUE(S.isSubsort(S.sort("Lit"), S.sort("Node")));
  EXPECT_FALSE(S.isSubsort(S.sort("Node"), S.sort("Lit")));
}

TEST_F(TreeTest, KidAndLitIndex) {
  const TagSignature &AddSig = Sig.signature(Sig.lookup("Add"));
  EXPECT_EQ(AddSig.kidIndex(Sig.lookup("e1")), 0);
  EXPECT_EQ(AddSig.kidIndex(Sig.lookup("e2")), 1);
  EXPECT_EQ(AddSig.kidIndex(Sig.lookup("n")), -1);
  const TagSignature &NumSig = Sig.signature(Sig.lookup("Num"));
  EXPECT_EQ(NumSig.litIndex(Sig.lookup("n")), 0);
}

TEST_F(TreeTest, TagsOfSort) {
  SortId Exp = Sig.sort("Exp");
  for (const char *Name :
       {"Num", "Var", "Add", "Sub", "Mul", "Call", "a", "b", "c", "d"})
    EXPECT_TRUE(Sig.isSubsort(Sig.signature(Sig.lookup(Name)).Result, Exp))
        << Name;
  EXPECT_FALSE(Sig.isSubsort(Sig.signature(Sig.rootTag()).Result, Exp));
}

//===----------------------------------------------------------------------===//
// Construction and derived data
//===----------------------------------------------------------------------===//

TEST_F(TreeTest, FreshUrisAndSizes) {
  Tree *T = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  EXPECT_EQ(T->size(), 3u);
  EXPECT_EQ(T->height(), 2u);
  EXPECT_NE(T->uri(), T->kid(0)->uri());
  EXPECT_NE(T->kid(0)->uri(), T->kid(1)->uri());
  EXPECT_EQ(T->kid(0)->height(), 1u);
}

TEST_F(TreeTest, StructuralEquivalenceIgnoresLiterals) {
  Tree *A = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *B = add(Ctx, num(Ctx, 3), num(Ctx, 4));
  Tree *C = sub(Ctx, num(Ctx, 1), num(Ctx, 2));
  // Paper Section 4.1: Add(Num(1),Num(2)) ~ Add(Num(3),Num(4)) but not
  // Sub(Num(1),Num(2)).
  EXPECT_EQ(A->structureHash(), B->structureHash());
  EXPECT_NE(A->structureHash(), C->structureHash());
}

TEST_F(TreeTest, LiteralEquivalenceIgnoresTags) {
  Tree *A = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *C = sub(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *D = add(Ctx, num(Ctx, 1), num(Ctx, 3));
  // Add(Num(1),Num(2)) and Sub(Num(1),Num(2)) have equivalent literals.
  EXPECT_EQ(A->literalHash(), C->literalHash());
  EXPECT_NE(A->literalHash(), D->literalHash());
}

TEST_F(TreeTest, EqualsModuloUris) {
  Tree *A = call(Ctx, "f", num(Ctx, 1));
  Tree *B = call(Ctx, "f", num(Ctx, 1));
  Tree *C = call(Ctx, "g", num(Ctx, 1));
  EXPECT_TRUE(A->equalsModuloUris(*B));
  EXPECT_FALSE(A->equalsModuloUris(*C));
  EXPECT_TRUE(treeEqualsModuloUris(A, B));
  EXPECT_FALSE(treeEqualsModuloUris(A, C));
}

TEST_F(TreeTest, DeepCopyPreservesContentFreshUris) {
  Tree *A = mul(Ctx, var(Ctx, "x"), add(Ctx, num(Ctx, 1), var(Ctx, "y")));
  Tree *B = Ctx.deepCopy(A);
  EXPECT_TRUE(treeEqualsModuloUris(A, B));
  EXPECT_TRUE(A->equalsModuloUris(*B));
  EXPECT_NE(A->uri(), B->uri());
}

TEST_F(TreeTest, ValidateAcceptsWellFormed) {
  Tree *A = add(Ctx, num(Ctx, 1), call(Ctx, "f", var(Ctx, "x")));
  EXPECT_FALSE(tests::validateTree(Ctx.signatures(), A).has_value());
}

TEST_F(TreeTest, RefreshDerivedAfterMutation) {
  Tree *A = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *B = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  ASSERT_EQ(A->structureHash(), B->structureHash());
  // Mutate A's kid and refresh: hashes must diverge (different shape).
  A->setKid(1, sub(Ctx, num(Ctx, 3), num(Ctx, 4)));
  A->refreshDerived();
  EXPECT_NE(A->structureHash(), B->structureHash());
  EXPECT_EQ(A->size(), 5u);
  EXPECT_EQ(A->height(), 3u);
}

TEST_F(TreeTest, ForeachTreeAndSubtree) {
  Tree *A = add(Ctx, num(Ctx, 1), mul(Ctx, num(Ctx, 2), num(Ctx, 3)));
  size_t All = 0, Proper = 0;
  A->foreachTree([&](Tree *) { ++All; });
  A->foreachSubtree([&](Tree *) { ++Proper; });
  EXPECT_EQ(All, 5u);
  EXPECT_EQ(Proper, 4u);
}

//===----------------------------------------------------------------------===//
// S-expressions
//===----------------------------------------------------------------------===//

TEST_F(TreeTest, ParsePrintRoundTrip) {
  const char *Text = "(Add (Num 1) (Call (Var \"x\") \"f\"))";
  ParseResult R = parseSExpr(Ctx, Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(printSExpr(Sig, R.Root), Text);
}

TEST_F(TreeTest, ParseReportsUnknownTag) {
  ParseResult R = parseSExpr(Ctx, "(Bogus)");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown tag"), std::string::npos);
}

TEST_F(TreeTest, ParseReportsArityErrors) {
  ParseResult R = parseSExpr(Ctx, "(Add (Num 1))");
  EXPECT_FALSE(R.ok());
}

TEST_F(TreeTest, ParseReportsTrailingInput) {
  ParseResult R = parseSExpr(Ctx, "(Num 1) (Num 2)");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("trailing"), std::string::npos);
}

TEST_F(TreeTest, ParseHandlesCommentsAndEscapes) {
  ParseResult R = parseSExpr(Ctx, "; a comment\n(Var \"a\\\"b\")");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Root->lit(0).asString(), "a\"b");
}

TEST_F(TreeTest, PrintWithUris) {
  Tree *T = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  std::string S = printSExprWithUris(Sig, T);
  EXPECT_NE(S.find("Add_"), std::string::npos);
  EXPECT_NE(S.find("Num_"), std::string::npos);
}

TEST_F(TreeTest, ParsedTreeEqualsBuiltTree) {
  ParseResult R = parseSExpr(Ctx, "(Mul (Num 6) (Num 7))");
  ASSERT_TRUE(R.ok());
  Tree *Built = mul(Ctx, num(Ctx, 6), num(Ctx, 7));
  EXPECT_TRUE(treeEqualsModuloUris(R.Root, Built));
  EXPECT_TRUE(R.Root->equalsModuloUris(*Built));
}

//===----------------------------------------------------------------------===//
// Arena: node slabs, kid slabs, and budget accounting
//===----------------------------------------------------------------------===//

TEST_F(TreeTest, ArenaKeepsNodesAndKidArraysStableAcrossSlabs) {
  // 5000 Add nodes and their leaves span over a hundred node slabs and
  // about ten kid slabs; every node must still read back exactly as
  // built.
  struct Built {
    Tree *Node;
    URI Uri;
    Tree *Kids[2];
  };
  std::vector<Built> Log;
  Tree *Acc = num(Ctx, 0);
  for (int I = 1; I != 5000; ++I) {
    Tree *Leaf = I % 2 == 0 ? num(Ctx, I) : var(Ctx, std::to_string(I));
    Tree *Next = add(Ctx, Acc, Leaf);
    Log.push_back({Next, Next->uri(), {Acc, Leaf}});
    Acc = Next;
    ASSERT_EQ(Ctx.numNodes(), 1u + 2u * I);
  }
  for (const Built &B : Log) {
    ASSERT_EQ(B.Node->uri(), B.Uri);
    ASSERT_EQ(B.Node->tag(), Sig.lookup("Add"));
    ASSERT_EQ(B.Node->arity(), 2u);
    ASSERT_EQ(B.Node->kid(0), B.Kids[0]);
    ASSERT_EQ(B.Node->kid(1), B.Kids[1]);
  }

  // Kid arrays are disjoint: rewiring one node leaves its neighbours be.
  Tree *Fresh = num(Ctx, -1);
  Log[100].Node->setKid(1, Fresh);
  EXPECT_EQ(Log[100].Node->kid(1), Fresh);
  EXPECT_EQ(Log[99].Node->kid(1), Log[99].Kids[1]);
  EXPECT_EQ(Log[101].Node->kid(0), Log[101].Kids[0]);
  EXPECT_EQ(Log[101].Node->kid(1), Log[101].Kids[1]);
  Acc->refreshDerived();

  // A deep copy spans fresh slabs and agrees node for node.
  size_t Before = Ctx.numNodes();
  Tree *Copy = Ctx.deepCopy(Acc);
  EXPECT_EQ(Ctx.numNodes(), Before + Acc->size());
  EXPECT_TRUE(treeEqualsModuloUris(Acc, Copy));
  EXPECT_TRUE(Acc->equalsModuloUris(*Copy));
}

TEST(TreeArenaTest, NodesWiderThanAKidSlab) {
  // A node with more kids than a kid slab holds gets an array of its
  // own, even while the current slab still has room for small ones; its
  // preimage is far past the one-shot hashing bound, too.
  SignatureTable Sig;
  std::vector<std::pair<std::string, std::string>> Links;
  for (int I = 0; I != 1500; ++I)
    Links.push_back({std::to_string(I), "E"});
  Sig.defineTag("Wide", "E", Links, {});
  Sig.defineTag("Pair", "E", {{"l", "E"}, {"r", "E"}}, {});
  Sig.defineTag("Leaf", "E", {}, {{"n", LitKind::Int}});
  TreeContext Ctx(Sig);
  std::vector<Tree *> Kids;
  for (int I = 0; I != 1500; ++I)
    Kids.push_back(Ctx.make("Leaf", {}, {Literal(int64_t(I))}));
  Tree *P1 = Ctx.make("Pair", {Kids[0], Kids[1]}, {});
  Tree *W = Ctx.make("Wide", Kids, {});
  Tree *W2 = Ctx.make("Wide", Kids, {});
  Tree *P2 = Ctx.make("Pair", {Kids[2], Kids[3]}, {});
  ASSERT_EQ(W->arity(), 1500u);
  for (size_t I = 0; I != Kids.size(); ++I) {
    ASSERT_EQ(W->kid(I), Kids[I]);
    ASSERT_EQ(W2->kid(I), Kids[I]);
  }
  EXPECT_EQ(P1->kid(0), Kids[0]);
  EXPECT_EQ(P1->kid(1), Kids[1]);
  EXPECT_EQ(P2->kid(0), Kids[2]);
  EXPECT_EQ(P2->kid(1), Kids[3]);
  EXPECT_EQ(W->size(), 1501u);
  EXPECT_EQ(W->structureHash(), W2->structureHash());
  EXPECT_EQ(W->literalHash(), W2->literalHash());
  EXPECT_FALSE(tests::validateTree(Ctx.signatures(), W).has_value());
}

TEST(TreeArenaTest, BudgetChargedOncePerNodeAndReleasedInFull) {
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget;
  {
    TreeContext Ctx(Sig);
    Ctx.attachBudget(&Budget);
    size_t Used = Budget.used();
    Tree *N = num(Ctx, 1);
    EXPECT_EQ(Budget.used() - Used, sizeof(Tree) + sizeof(Literal));
    Used = Budget.used();
    Tree *A = add(Ctx, N, num(Ctx, 2));
    EXPECT_EQ(Budget.used() - Used,
              2 * sizeof(Tree) + sizeof(Literal) + 2 * sizeof(Tree *));
    Tree *T = A;
    for (int I = 0; I != 1000; ++I)
      T = add(Ctx, T, num(Ctx, I));
    // Every node so far is in T, so copying it charges the same again.
    size_t BeforeCopy = Budget.used();
    ASSERT_EQ(Ctx.numNodes(), T->size());
    Tree *Copy = Ctx.deepCopy(T);
    EXPECT_EQ(Copy->size(), T->size());
    EXPECT_EQ(Budget.used(), 2 * BeforeCopy);
    EXPECT_EQ(Budget.used(), Ctx.bytesCharged());
  }
  EXPECT_EQ(Budget.used(), 0u);
}

TEST(TreeArenaTest, LiteralsLiveInTheArenaAndUpdateInPlace) {
  // Literals are carved from the context's literal slab, as kid arrays
  // are: a view stays valid, setLits overwrites in place, and nodes with
  // more literals than a slab holds get an array of their own.
  SignatureTable Sig = makeExpSignature();
  std::vector<std::pair<std::string, LitKind>> Many;
  for (int I = 0; I != 300; ++I)
    Many.push_back({std::string("l").append(std::to_string(I)), LitKind::Int});
  Sig.defineTag("ManyLits", "Exp", {}, Many);
  TreeContext Ctx(Sig);
  std::string Long(100, 'q');
  Tree *Before = var(Ctx, "short");
  std::vector<Literal> ManyVals;
  for (int I = 0; I != 300; ++I)
    ManyVals.emplace_back(int64_t(I));
  Tree *Wide = Ctx.make("ManyLits", {}, ManyVals);
  Tree *V = var(Ctx, Long);
  Tree *After = num(Ctx, 7);
  ASSERT_EQ(Wide->numLits(), 300u);
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(Wide->lit(I).asInt(), I);
  EXPECT_EQ(Before->lit(0).asString(), "short");
  EXPECT_EQ(After->lit(0).asInt(), 7);

  const Literal *Slot = &V->lit(0);
  LitSpan View = V->lits();
  Digest OldLit = V->literalHash();
  std::vector<Literal> Renamed{Literal(std::string(200, 'r'))};
  V->setLits(Renamed);
  EXPECT_EQ(&V->lit(0), Slot);
  EXPECT_EQ(View[0].asString(), std::string(200, 'r'));
  EXPECT_EQ(Before->lit(0).asString(), "short");
  EXPECT_EQ(After->lit(0).asInt(), 7);
  V->refreshDerived();
  EXPECT_NE(V->literalHash(), OldLit);
  EXPECT_EQ(V->literalHash(), var(Ctx, std::string(200, 'r'))->literalHash());

  // A copy owns its own literals.
  Tree *Copy = Ctx.deepCopy(V);
  EXPECT_NE(&Copy->lit(0), &V->lit(0));
  V->setLits(std::vector<Literal>{Literal(Long)});
  EXPECT_EQ(Copy->lit(0).asString(), std::string(200, 'r'));
}

TEST(TreeArenaTest, BytesChargedIsTheSameEstimateAsBeforeTheLiteralSlab) {
  // A node is charged sizeof(Tree), its kid pointers, its literals and
  // their string payloads, as when each node held a literal vector. For
  // this tree that is 4 nodes of 120 bytes, 3 kid pointers, 3 literals of
  // 40 bytes, and the strings' capacities: 15 (short, in place) and 40.
  static_assert(sizeof(Tree) == 120 && sizeof(Literal) == 40,
                "the figures below assume the LP64 layout");
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget;
  TreeContext Ctx(Sig);
  Ctx.attachBudget(&Budget);
  Tree *T = add(Ctx, num(Ctx, 1), call(Ctx, "f", var(Ctx, std::string(40, 'x'))));
  constexpr size_t Charged = 4 * 120 + 3 * 8 + 3 * 40 + 15 + 40;
  EXPECT_EQ(Ctx.bytesCharged(), Charged);
  Ctx.deepCopy(T);
  Ctx.deepCopy(T, TreeContext::CopyUris::Fresh);
  EXPECT_EQ(Ctx.bytesCharged(), 3 * Charged);
  EXPECT_EQ(Budget.used(), Ctx.bytesCharged());
}

} // namespace
