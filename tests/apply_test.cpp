//===- tests/apply_test.cpp - Checked in-place script application ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for applyChecked (truechange/Apply.h), the typed in-place applier
/// that rolls back stored documents and replays the log on recovery:
///  - initializing, forward and inverse scripts land on the expected tree,
///    URI for URI, with digests equal to a from-scratch rebuild;
///  - a failing script leaves the tree exactly as it was, and an
///    ill-typed one applies nothing;
///  - a Load may name a detached subtree whose own slot is still empty;
///  - differentially against MTree::patchChecked, the paper's reference
///    semantics: on Theorem 3.6's corrupted scripts and on corpus
///    mutation chains both make the same accept/reject decision with the
///    same error index and message, and accepted scripts yield equal
///    trees, URIs included.
///
//===----------------------------------------------------------------------===//

#include "truechange/Apply.h"
#include "truechange/InitScript.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"

#include "corpus/Corpus.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "tree/SExpr.h"
#include "truediff/TrueDiff.h"

#include "ScriptFuzz.h"
#include "TestLang.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace truediff;
using namespace truediff::testlang;

namespace {

/// The first node whose cached derived data differs from a from-scratch
/// rebuild of \p T, or nullopt if every digest, height and size is fresh.
std::optional<std::string> staleDerived(const SignatureTable &Sig,
                                        const Tree *T) {
  TreeContext Scratch(Sig);
  return compareDerived(T, Scratch.deepCopy(T));
}

class ApplyTest : public ::testing::Test {
protected:
  ApplyTest() : Sig(makeExpSignature()), Ctx(Sig) {}

  NodeRef ref(const Tree *T) const { return NodeRef{T->tag(), T->uri()}; }
  LinkId link(const char *Name) const { return Sig.lookup(Name); }
  LitRef n(int64_t V) const { return LitRef{link("n"), Literal(V)}; }

  /// MTree::patchChecked's verdict on \p Script against a tree with
  /// \p Source's URIs: the same gate applyChecked runs first, then the
  /// reference semantics.
  MTree::PatchResult oracle(const Tree *Source, const EditScript &Script) {
    LinearTypeChecker Checker(Sig);
    TypeCheckResult Typed = Checker.checkWellTyped(Script);
    if (!Typed.Ok) {
      MTree::PatchResult R;
      R.Ok = false;
      R.ErrorIndex = Typed.ErrorIndex;
      R.Error = Typed.Error;
      return R;
    }
    MTree M = MTree::fromTree(Sig, Source);
    return M.patchChecked(Script);
  }

  SignatureTable Sig;
  TreeContext Ctx;
};

TEST_F(ApplyTest, InitializingScriptFillsAnEmptySlot) {
  Tree *T = add(Ctx, num(Ctx, 1), call(Ctx, "f", var(Ctx, "x")));
  TreeContext Doc(Sig);
  Tree *Root = nullptr;
  ApplyResult R = applyChecked(Doc, Root, buildInitializingScript(Sig, T));
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_NE(Root, nullptr);
  EXPECT_EQ(printSExprWithUris(Sig, Root), printSExprWithUris(Sig, T));
  EXPECT_EQ(R.NodesRehashed, T->size());
  EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
}

TEST_F(ApplyTest, ForwardThenInverseRestoresUrisAndDigests) {
  // A wide unchanged left operand, a changed right one: the apply must
  // rehash only the root-to-edit paths.
  auto Wide = [&] {
    Tree *T = num(Ctx, 0);
    for (int I = 1; I != 20; ++I)
      T = add(Ctx, T, mul(Ctx, num(Ctx, I), var(Ctx, "v")));
    return T;
  };
  Tree *Source = add(Ctx, Wide(), sub(Ctx, num(Ctx, 1), num(Ctx, 2)));
  Tree *Target = add(Ctx, Wide(), sub(Ctx, num(Ctx, 2), call(Ctx, "g",
                                                             num(Ctx, 1))));
  TreeContext Doc(Sig);
  Tree *Root = Doc.deepCopy(Source, TreeContext::CopyUris::Preserve);
  std::string Before = printSExprWithUris(Sig, Root);

  DiffResult D = TrueDiff(Ctx).compareTo(Source, Target);
  ApplyResult R = applyChecked(Doc, Root, D.Script);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(printSExprWithUris(Sig, Root), printSExprWithUris(Sig, D.Patched));
  EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
  EXPECT_LT(R.NodesRehashed, Root->size() / 4);

  ApplyResult Back = applyChecked(Doc, Root, invertScript(D.Script));
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(printSExprWithUris(Sig, Root), Before);
  EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
}

TEST_F(ApplyTest, FailedApplyLeavesTreeExactlyAsItWas) {
  Tree *A = num(Ctx, 1), *B = num(Ctx, 2);
  Tree *Top = add(Ctx, A, B);
  NodeRef Fresh{Sig.lookup("Num"), Ctx.peekNextUri()};
  // Swaps the operands, loads a node in B's place, unloads B, and
  // re-literals A -- then fails on an Update whose old literal is wrong.
  EditScript Script({
      Edit::detach(ref(A), link("e1"), ref(Top)),
      Edit::detach(ref(B), link("e2"), ref(Top)),
      Edit::attach(ref(A), link("e2"), ref(Top)),
      Edit::load(Fresh, {}, {n(9)}),
      Edit::attach(Fresh, link("e1"), ref(Top)),
      Edit::unload(ref(B), {}, {n(2)}),
      Edit::update(ref(A), {n(1)}, {n(5)}),
      Edit::update(ref(A), {n(42)}, {n(3)}),
  });
  std::string Before = printSExprWithUris(Sig, Top);
  MTree::PatchResult Want = oracle(Top, Script);
  ASSERT_FALSE(Want.Ok);

  Tree *Root = Top;
  ApplyResult R = applyChecked(Ctx, Root, Script);
  ASSERT_FALSE(R.Ok);
  EXPECT_FALSE(R.IllTyped);
  EXPECT_EQ(R.ErrorIndex, 7u);
  EXPECT_EQ(R.ErrorIndex, Want.ErrorIndex);
  EXPECT_EQ(R.Error, Want.Error);
  EXPECT_EQ(Root, Top);
  EXPECT_EQ(printSExprWithUris(Sig, Root), Before);
  EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
  for (const Tree *T : {Root, A, B})
    EXPECT_FALSE(T->derivedDirty());
}

TEST_F(ApplyTest, IllTypedScriptAppliesNothing) {
  Tree *A = num(Ctx, 1), *B = num(Ctx, 2);
  Tree *Top = add(Ctx, A, B);
  std::string Before = printSExprWithUris(Sig, Top);
  // Detaching without re-attaching leaks a root and a slot.
  EditScript Leak({Edit::detach(ref(B), link("e2"), ref(Top))});
  Tree *Root = Top;
  ApplyResult R = applyChecked(Ctx, Root, Leak);
  ASSERT_FALSE(R.Ok);
  EXPECT_TRUE(R.IllTyped);
  EXPECT_EQ(R.ErrorIndex, 1u);
  EXPECT_EQ(R.Error, oracle(Top, Leak).Error);
  EXPECT_EQ(printSExprWithUris(Sig, Root), Before);
}

TEST_F(ApplyTest, LoadMayNameADetachedSubtreeWithAnEmptySlot) {
  Tree *One = num(Ctx, 1);
  Tree *Call = call(Ctx, "f", One);
  Tree *Top = add(Ctx, Call, num(Ctx, 2));
  NodeRef Sub{Sig.lookup("Sub"), Ctx.peekNextUri()};
  NodeRef Seven{Sig.lookup("Num"), Ctx.peekNextUri() + 1};
  // Sub is loaded over Call while Call's own slot is still empty; Call is
  // refilled only afterwards. Eager hashing at the Load would read
  // Call's stale digests.
  EditScript Script({
      Edit::detach(ref(Call), link("e1"), ref(Top)),
      Edit::detach(ref(One), link("a"), ref(Call)),
      Edit::load(Sub, {{link("e1"), Call->uri()}, {link("e2"), One->uri()}},
                 {}),
      Edit::load(Seven, {}, {n(7)}),
      Edit::attach(Seven, link("a"), ref(Call)),
      Edit::attach(Sub, link("e1"), ref(Top)),
  });
  MTree M = MTree::fromTree(Sig, Top);
  ASSERT_TRUE(M.patchChecked(Script).Ok);

  Tree *Root = Top;
  ApplyResult R = applyChecked(Ctx, Root, Script);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(printSExpr(Sig, Root),
            "(Add (Sub (Call (Num 7) \"f\") (Num 1)) (Num 2))");
  EXPECT_EQ(printSExprWithUris(Sig, Root),
            M.render(MTree::Forms::WithUris).UriText);
  EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
}

TEST_F(ApplyTest, PreDefinedRootIsNeverUnloaded) {
  // Well-typed: unloading the root node frees its slot's tree as a root,
  // and loading a node with the root's URI consumes it again. MTree
  // accepts this and swaps out its own root; the applier refuses.
  Tree *Top = num(Ctx, 1);
  NodeRef RootNode{Sig.rootTag(), NullURI};
  std::vector<KidRef> Kids{{Sig.rootLink(), Top->uri()}};
  EditScript Swap({Edit::unload(RootNode, Kids, {}),
                   Edit::load(RootNode, Kids, {})});
  ASSERT_TRUE(LinearTypeChecker(Sig).checkWellTyped(Swap).Ok);
  ASSERT_TRUE(oracle(Top, Swap).Ok);

  Tree *Root = Top;
  ApplyResult R = applyChecked(Ctx, Root, Swap);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorIndex, 0u);
  EXPECT_EQ(Root, Top);
}

//===----------------------------------------------------------------------===//
// Differential tests against the reference semantics
//===----------------------------------------------------------------------===//

class ApplyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

/// Theorem36FuzzTest's corrupted scripts, each applied to a fresh copy of
/// the base tree by both appliers.
TEST_P(ApplyDifferentialTest, CorruptedScriptsDecideLikeMTree) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 677 + 101);
  LinearTypeChecker Checker(Sig);

  Tree *Base = corpus::generateModule(Ctx, R);
  Tree *Mutated = corpus::mutateModule(Ctx, R, Base);
  TreeContext Keep(Sig);
  const Tree *Pristine = Keep.deepCopy(Base, TreeContext::CopyUris::Preserve);
  const std::string PristineText = printSExprWithUris(Sig, Pristine);
  DiffResult Result = TrueDiff(Ctx).compareTo(Base, Mutated);

  size_t Accepted = 0, Rejected = 0;
  for (int Round = 0; Round != 40; ++Round) {
    EditScript Bad = tests::corruptScript(R, Result.Script);

    MTree M = MTree::fromTree(Sig, Pristine);
    TypeCheckResult Typed = Checker.checkWellTyped(Bad);
    MTree::PatchResult Want;
    if (Typed.Ok) {
      Want = M.patchChecked(Bad);
    } else {
      Want.Ok = false;
      Want.ErrorIndex = Typed.ErrorIndex;
      Want.Error = Typed.Error;
    }

    TreeContext Doc(Sig);
    Tree *Root = Doc.deepCopy(Pristine, TreeContext::CopyUris::Preserve);
    ApplyResult Got = applyChecked(Doc, Root, Bad);
    ASSERT_EQ(Got.Ok, Want.Ok) << Bad.toString(Sig);
    if (!Got.Ok) {
      ++Rejected;
      EXPECT_EQ(Got.IllTyped, !Typed.Ok);
      EXPECT_EQ(Got.ErrorIndex, Want.ErrorIndex) << Bad.toString(Sig);
      EXPECT_EQ(Got.Error, Want.Error);
      EXPECT_EQ(printSExprWithUris(Sig, Root), PristineText);
    } else {
      ++Accepted;
      EXPECT_EQ(printSExprWithUris(Sig, Root),
                M.render(MTree::Forms::WithUris).UriText);
    }
    EXPECT_EQ(staleDerived(Sig, Root), std::nullopt);
  }
  EXPECT_GT(Rejected, 0u);
  (void)Accepted; // some corruptions (commuting swaps) stay valid
}

/// A chain of corpus mutations, applied forwards and then undone by the
/// inverses, on a typed tree and on an MTree side by side. One
/// ScriptApplier serves the whole chain, so its URI index is carried from
/// script to script; before each step a copy of the script that fails on
/// its very last edit must undo the whole diff and leave the index to be
/// rebuilt.
TEST_P(ApplyDifferentialTest, MutationChainsMatchMTreeForwardAndBack) {
  constexpr int Steps = 8;
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 7919 + 3);

  Tree *Cur = corpus::generateModule(Ctx, R);
  TreeContext Doc(Sig);
  Tree *Root = Doc.deepCopy(Cur, TreeContext::CopyUris::Preserve);
  ScriptApplier Applier(Doc, Root);
  MTree M = MTree::fromTree(Sig, Cur);
  std::vector<std::string> Texts{printSExprWithUris(Sig, Root)};
  std::vector<EditScript> Scripts;
  uint64_t Rehashed = 0, Sizes = 0;

  for (int Step = 0; Step != Steps; ++Step) {
    Tree *Next = corpus::mutateModule(Ctx, R, Cur);
    DiffResult D = TrueDiff(Ctx).compareTo(Cur, Next);
    Cur = D.Patched;
    // Well-typed, but the module's body does not hold a statement list
    // with the module's own URI.
    std::vector<Edit> Edits = D.Script.edits();
    NodeRef Module{D.Patched->tag(), D.Patched->uri()};
    NodeRef Claimed{Sig.lookup("StmtCons"), Module.Uri};
    Edits.push_back(Edit::detach(Claimed, Sig.lookup("body"), Module));
    Edits.push_back(Edit::attach(Claimed, Sig.lookup("body"), Module));
    ApplyResult Torn = Applier.apply(EditScript(std::move(Edits)));
    ASSERT_FALSE(Torn.Ok);
    EXPECT_FALSE(Torn.IllTyped);
    EXPECT_EQ(Torn.ErrorIndex, D.Script.size());
    EXPECT_EQ(printSExprWithUris(Sig, Root), Texts.back());

    MTree::PatchResult Want = M.patchChecked(D.Script);
    ASSERT_TRUE(Want.Ok) << Want.Error;
    ApplyResult Got = Applier.apply(D.Script);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    Texts.push_back(printSExprWithUris(Sig, Root));
    EXPECT_EQ(Texts.back(), printSExprWithUris(Sig, D.Patched));
    EXPECT_EQ(Texts.back(), M.render(MTree::Forms::WithUris).UriText);
    ASSERT_EQ(staleDerived(Sig, Root), std::nullopt) << "step " << Step;
    Rehashed += Got.NodesRehashed;
    Sizes += Root->size();
    Scripts.push_back(D.Script);
  }
  // Small mutations of whole modules: most of each tree keeps its digests.
  EXPECT_LT(Rehashed * 2, Sizes);

  for (int Step = Steps; Step != 0; --Step) {
    EditScript Inverse = invertScript(Scripts[Step - 1]);
    ASSERT_TRUE(M.patchChecked(Inverse).Ok);
    ApplyResult Got = Applier.apply(Inverse);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(printSExprWithUris(Sig, Root), Texts[Step - 1]);
    EXPECT_EQ(Texts[Step - 1], M.render(MTree::Forms::WithUris).UriText);
    ASSERT_EQ(staleDerived(Sig, Root), std::nullopt) << "undo " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyDifferentialTest,
                         ::testing::Range<uint64_t>(0, 25));

} // namespace
