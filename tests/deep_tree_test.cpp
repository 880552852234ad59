//===- tests/deep_tree_test.cpp - Deep-chain traversal regression ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression test for the recursive-traversal stack overflow: a
/// pathologically deep (but admission-legal) unary chain used to crash
/// foreachTree/refreshDerived/deepCopy, the whole-tree
/// checks validate/treeEqualsModuloUris/compareDerived (the scrubber's
/// digest check) -- and MTree's fromTree/render/isClosedWellFormed/
/// toTree/equalsTree/toString -- once it exceeded the thread stack, and so
/// did the s-expression reader and printers and the binary tree codec
/// that carries snapshots. The in-place applier and truediff's Steps 2
/// and 4 are driven over the same depth. All of these are now iterative
/// with explicit work stacks; this test drives each of them over a
/// ~300k-deep chain and is meant to run under ASan, whose instrumented
/// frames blow the stack far earlier than production builds would.
///
//===----------------------------------------------------------------------===//

#include "persist/BinaryCodec.h"
#include "tree/SExpr.h"
#include "tree/Tree.h"
#include "truechange/Apply.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truediff/TrueDiff.h"

#include "TestLang.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace truediff;
using namespace truediff::testlang;

namespace {

constexpr uint64_t ChainDepth = 300000;

/// Builds Call("f", Call("f", ... Num(0))) iteratively, ChainDepth Calls.
Tree *deepChain(TreeContext &Ctx) {
  Tree *T = num(Ctx, 0);
  for (uint64_t I = 0; I != ChainDepth; ++I)
    T = call(Ctx, "f", T);
  return T;
}

TEST(DeepTreeTest, TraversalsSurviveDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);

  uint64_t All = 0, Proper = 0;
  T->foreachTree([&](Tree *) { ++All; });
  T->foreachSubtree([&](Tree *) { ++Proper; });
  EXPECT_EQ(All, ChainDepth + 1);
  EXPECT_EQ(Proper, ChainDepth);

  T->refreshDerived(Sig);
  EXPECT_EQ(T->size(), ChainDepth + 1);
  EXPECT_EQ(T->height(), ChainDepth + 1);

  // Dirty-path rehash down the full chain: worst case, every node dirty.
  T->foreachTree([](Tree *N) { N->markDerivedDirty(); });
  EXPECT_EQ(T->rehashDirtyPaths(Sig), ChainDepth + 1);
  T->foreachTree([&](Tree *N) { EXPECT_FALSE(N->derivedDirty()); });
}

TEST(DeepTreeTest, DeepCopySurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  Tree *Copy = Ctx.deepCopy(T);
  EXPECT_TRUE(Copy->equalsModuloUris(*T));
  EXPECT_NE(Copy->uri(), T->uri());
  EXPECT_EQ(Copy->size(), ChainDepth + 1);
}

TEST(DeepTreeTest, WholeTreeChecksSurviveDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  EXPECT_FALSE(Ctx.validate(T).has_value());

  TreeContext Scratch(Sig);
  Tree *Fresh = Scratch.deepCopy(T);
  EXPECT_TRUE(treeEqualsModuloUris(T, Fresh));
  EXPECT_FALSE(compareDerived(T, Fresh).has_value());

  // A divergence at the very bottom is found after walking the full depth.
  Tree *Bottom = Fresh;
  while (Bottom->arity() != 0)
    Bottom = Bottom->kid(0);
  TreeContext::corruptDerivedForTest(Bottom);
  std::optional<std::string> Err = compareDerived(Fresh, T);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(*Err, "stale structure hash at uri " + std::to_string(Bottom->uri()));

  Tree *Other = Scratch.make("Num", {}, {Literal(int64_t(1))});
  Tree *Parent = Fresh;
  while (Parent->kid(0)->arity() != 0)
    Parent = Parent->kid(0);
  Parent->setKid(0, Other);
  EXPECT_FALSE(treeEqualsModuloUris(T, Fresh));
}

TEST(DeepTreeTest, SExprSurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);

  std::string Text = printSExpr(Sig, T);
  EXPECT_EQ(Text.size(), ChainDepth * 11 + 7); // "(Call " ... " \"f\")"

  TreeContext Fresh(Sig);
  ParseResult P = parseSExpr(Fresh, Text);
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Root->size(), ChainDepth + 1);
  EXPECT_TRUE(P.Root->equalsModuloUris(*T));
  EXPECT_TRUE(printSExpr(Sig, P.Root) == Text);

  // The depth cap is admission policy, checked on the way down.
  TreeContext Capped(Sig);
  ParseResult Deep = parseSExpr(Capped, Text, ParseLimits{0, 1000});
  EXPECT_FALSE(Deep.ok());
  EXPECT_EQ(Deep.Fail, ParseFail::TooDeep);
  EXPECT_EQ(Deep.Error, "input nesting exceeds the depth cap of 1000");
  EXPECT_EQ(Capped.numNodes(), 0u);

  // A syntax error at the very bottom unwinds cleanly.
  std::string Broken = Text;
  Broken.replace(Broken.find("(Num 0)"), 7, "(Num 0 0)");
  TreeContext Unused(Sig);
  ParseResult Bad = parseSExpr(Unused, Broken);
  EXPECT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.Fail, ParseFail::Syntax);
}

TEST(DeepTreeTest, BinaryCodecSurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  std::string Blob = persist::encodeTree(Sig, T);

  TreeContext Fresh(Sig);
  persist::DecodeTreeResult D = persist::decodeTree(Sig, Fresh, Blob);
  ASSERT_TRUE(D.ok()) << D.Error;
  EXPECT_EQ(D.Root->uri(), T->uri());
  EXPECT_EQ(D.Root->size(), ChainDepth + 1);
  EXPECT_TRUE(D.Root->equalsModuloUris(*T));
  EXPECT_TRUE(printSExprWithUris(Sig, D.Root) == printSExprWithUris(Sig, T));

  // Fresh-URI mode decodes into a context that already holds the chain.
  persist::DecodeTreeResult Again =
      persist::decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
  ASSERT_TRUE(Again.ok()) << Again.Error;
  EXPECT_TRUE(Again.Root->equalsModuloUris(*T));
  EXPECT_NE(Again.Root->uri(), T->uri());

  // Every strict prefix is rejected, however deep the cut.
  for (size_t Cut : {Blob.size() - 1, Blob.size() / 2, size_t(40)}) {
    TreeContext Scratch(Sig);
    EXPECT_FALSE(
        persist::decodeTree(Sig, Scratch, std::string_view(Blob).substr(0, Cut))
            .ok());
  }
}

TEST(DeepTreeTest, InPlaceApplySurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  const Tree *Leaf = T;
  while (Leaf->arity() != 0)
    Leaf = Leaf->kid(0);
  LinkId N = Sig.lookup("n");
  EditScript Bump({Edit::update(NodeRef{Leaf->tag(), Leaf->uri()},
                                {LitRef{N, Literal(int64_t(0))}},
                                {LitRef{N, Literal(int64_t(1))}})});

  // Re-literaling the bottom leaf dirties the whole chain: the index
  // build, the ancestor walk and the rehash all cover the full depth.
  Tree *Root = T;
  ApplyResult R = applyChecked(Ctx, Root, Bump);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.NodesRehashed, ChainDepth + 1);
  TreeContext Scratch(Sig);
  EXPECT_FALSE(compareDerived(Root, Scratch.deepCopy(Root)).has_value());

  ASSERT_TRUE(applyChecked(Ctx, Root, invertScript(Bump)).Ok);
  EXPECT_EQ(Leaf->lit(0), Literal(int64_t(0)));
}

TEST(DeepTreeTest, DiffSurvivesDeepChains) {
  // truediff's Steps 2 and 4 walk the source and target simultaneously;
  // each case drives one of their traversals down the whole chain.
  SignatureTable Sig = makeExpSignature();
  auto Check = [&](const char *What, auto MakeSource, auto MakeTarget) {
    SCOPED_TRACE(What);
    TreeContext Ctx(Sig);
    Tree *Source = MakeSource(Ctx);
    Tree *Target = MakeTarget(Ctx);
    TrueDiffOptions Opts;
    Opts.IncrementalRehash = true;
    TrueDiff Differ(Ctx, Opts);
    DiffResult R = Differ.compareTo(Source, Target);
    EXPECT_TRUE(treeEqualsModuloUris(R.Patched, Target));
    TreeContext Scratch(Sig);
    EXPECT_FALSE(compareDerived(R.Patched, Scratch.deepCopy(R.Patched)));
    return R.Script.size();
  };
  auto Chain = [](Tree *Leaf) {
    return [Leaf](TreeContext &Ctx) {
      Tree *T = Leaf == nullptr ? num(Ctx, 0) : Leaf;
      for (uint64_t I = 0; I != ChainDepth; ++I)
        T = call(Ctx, "f", T);
      return T;
    };
  };
  auto Small = [](TreeContext &Ctx) { return num(Ctx, 5); };

  // Same constructors all the way down, different leaves: the in-place
  // traversal reaches the bottom (detach, unload, three loads, attach).
  EXPECT_EQ(Check("in place", Chain(nullptr),
                  [&](TreeContext &Ctx) {
                    return Chain(add(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")))(
                        Ctx);
                  }),
            6u);
  // Different roots: the whole target chain is loaded around the reused
  // Num (detach, loads, an update of its literal, attach), or the whole
  // source chain unloaded.
  EXPECT_EQ(Check("load", Small, Chain(nullptr)), ChainDepth + 3);
  EXPECT_EQ(Check("unload", Chain(nullptr), Small), ChainDepth + 3);
  // Same shape, one literal changed at the bottom: the update walk.
  EXPECT_EQ(Check("update", Chain(nullptr),
                  [&](TreeContext &Ctx) { return Chain(num(Ctx, 1))(Ctx); }),
            1u);
}

TEST(DeepTreeTest, MTreeSurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);

  // The expected renderings, built without recursion: ChainDepth
  // "(Call_u " openers, the Num leaf, then ChainDepth " \"f\")" closers.
  std::string Text, UriText;
  const Tree *N = T;
  for (; N->arity() != 0; N = N->kid(0)) {
    Text += "(Call ";
    UriText += "(Call_" + std::to_string(N->uri()) + " ";
  }
  Text += "(Num 0)";
  UriText += "(Num_" + std::to_string(N->uri()) + " 0)";
  for (uint64_t I = 0; I != ChainDepth; ++I) {
    Text += " \"f\")";
    UriText += " \"f\")";
  }

  MTree M = MTree::fromTree(Sig, T);
  EXPECT_EQ(M.indexSize(), ChainDepth + 2); // plus the root
  EXPECT_TRUE(M.isClosedWellFormed());
  EXPECT_TRUE(M.equalsTree(T));

  MTree::Rendering R = M.render(MTree::Forms::Both);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Size, ChainDepth + 1);
  EXPECT_TRUE(R.Text == Text);
  EXPECT_TRUE(R.UriText == UriText);
  EXPECT_TRUE(M.render(MTree::Forms::Plain).Text == Text);
  EXPECT_TRUE(M.render(MTree::Forms::WithUris).UriText == UriText);
  EXPECT_TRUE(M.toString() == UriText);

  TreeContext Fresh(Sig);
  Tree *Back = M.toTreePreservingUris(Fresh);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->uri(), T->uri());
  EXPECT_EQ(Back->size(), ChainDepth + 1);
  EXPECT_TRUE(Back->equalsModuloUris(*T));

  // A hole at the very bottom: every check walks the full depth first.
  const Tree *Bottom = T;
  while (Bottom->kid(0)->arity() != 0)
    Bottom = Bottom->kid(0);
  const Tree *Leaf = Bottom->kid(0);
  ASSERT_TRUE(M.processEdit(Edit::detach(NodeRef{Leaf->tag(), Leaf->uri()},
                                         Sig.lookup("a"),
                                         NodeRef{Bottom->tag(), Bottom->uri()}))
                  .Ok);
  EXPECT_FALSE(M.isClosedWellFormed());
  EXPECT_FALSE(M.render(MTree::Forms::Both).Ok);
  EXPECT_FALSE(M.equalsTree(T));
  EXPECT_EQ(M.toTreePreservingUris(Fresh), nullptr);
  EXPECT_NE(M.toString().find("<hole>"), std::string::npos);
}

} // namespace
