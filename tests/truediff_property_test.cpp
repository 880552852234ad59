//===- tests/truediff_property_test.cpp - Property tests for truediff ------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests (parameterized over RNG seeds): for random source
/// and target trees, every truediff script
///   - is well-typed (Conjecture 4.2),
///   - transforms the source MTree into the target tree (Conjecture 4.3),
///   - produces a patched tree equal to the target with unique URIs,
/// and the conciseness is bounded by the trivial rebuild script.
///
//===----------------------------------------------------------------------===//

#include "truediff/TrueDiff.h"

#include "support/Rng.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"

#include "TestLang.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::testlang;

namespace {

/// Generates a random expression tree of at most \p MaxDepth.
Tree *randomExp(TreeContext &Ctx, Rng &R, int MaxDepth) {
  static const char *Vars[] = {"x", "y", "z", "acc", "tmp"};
  static const char *Funcs[] = {"f", "g", "len", "sqrt"};
  if (MaxDepth <= 1 || R.chance(25)) {
    switch (R.below(3)) {
    case 0:
      return num(Ctx, R.range(0, 9));
    case 1:
      return var(Ctx, Vars[R.below(5)]);
    default:
      return leaf(Ctx, (const char *[]){"a", "b", "c", "d"}[R.below(4)]);
    }
  }
  switch (R.below(4)) {
  case 0:
    return add(Ctx, randomExp(Ctx, R, MaxDepth - 1),
               randomExp(Ctx, R, MaxDepth - 1));
  case 1:
    return sub(Ctx, randomExp(Ctx, R, MaxDepth - 1),
               randomExp(Ctx, R, MaxDepth - 1));
  case 2:
    return mul(Ctx, randomExp(Ctx, R, MaxDepth - 1),
               randomExp(Ctx, R, MaxDepth - 1));
  default:
    return call(Ctx, Funcs[R.below(4)], randomExp(Ctx, R, MaxDepth - 1));
  }
}

/// Produces a mutated copy of \p T: each node has a small chance to be
/// replaced, literal-edited, or child-swapped, simulating a code change.
Tree *mutateExp(TreeContext &Ctx, Rng &R, const Tree *T, unsigned Percent) {
  if (R.chance(Percent))
    return randomExp(Ctx, R, 3);
  const SignatureTable &Sig = Ctx.signatures();
  std::vector<Tree *> Kids;
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Kids.push_back(mutateExp(Ctx, R, T->kid(I), Percent));
  if (Kids.size() == 2 && R.chance(Percent))
    std::swap(Kids[0], Kids[1]);
  std::vector<Literal> Lits(T->lits().begin(), T->lits().end());
  if (!Lits.empty() && R.chance(Percent) &&
      Lits[0].kind() == LitKind::Int)
    Lits[0] = Literal(R.range(0, 9));
  (void)Sig;
  return Ctx.make(T->tag(), std::move(Kids), std::move(Lits));
}

class TrueDiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrueDiffPropertyTest, RandomPairInvariants) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam());

  Tree *Source = randomExp(Ctx, R, 7);
  Tree *Target = R.chance(50) ? mutateExp(Ctx, R, Source, 10)
                              : randomExp(Ctx, R, 7);

  uint64_t SourceSize = Source->size();
  uint64_t TargetSize = Target->size();

  MTree Before = MTree::fromTree(Sig, Source);
  TrueDiff Diff(Ctx);
  DiffResult Result = Diff.compareTo(Source, Target);

  // Conjecture 4.2: the script is well-typed.
  LinearTypeChecker Checker(Sig);
  auto TC = Checker.checkWellTyped(Result.Script);
  ASSERT_TRUE(TC.Ok) << TC.Error << "\n" << Result.Script.toString(Sig);

  // Conjecture 4.3: patching the source MTree yields the target.
  auto PR = Before.patchChecked(Result.Script);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  EXPECT_TRUE(Before.equalsTree(Target));

  // The patched tree equals the target and has unique URIs.
  EXPECT_TRUE(treeEqualsModuloUris(Result.Patched, Target));
  EXPECT_TRUE(Result.Patched->equalsModuloUris(*Target));
  std::unordered_set<URI> Seen;
  Result.Patched->foreachTree(
      [&](Tree *T) { EXPECT_TRUE(Seen.insert(T->uri()).second); });

  // Conciseness sanity: never worse than delete-everything plus
  // load-everything plus the two root edits.
  EXPECT_LE(Result.Script.size(), SourceSize + TargetSize + 2);
}

TEST_P(TrueDiffPropertyTest, SelfDiffIsEmptyAfterCopy) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 7919 + 13);
  Tree *Source = randomExp(Ctx, R, 6);
  Tree *Copy = Ctx.deepCopy(Source);
  TrueDiff Diff(Ctx);
  DiffResult Result = Diff.compareTo(Source, Copy);
  EXPECT_EQ(Result.Script.size(), 0u) << Result.Script.toString(Sig);
}

TEST_P(TrueDiffPropertyTest, AblationsPreserveCorrectness) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 31337 + 7);

  for (int Mode = 0; Mode != 3; ++Mode) {
    Tree *Source = randomExp(Ctx, R, 6);
    Tree *Target = mutateExp(Ctx, R, Source, 15);
    MTree Before = MTree::fromTree(Sig, Source);

    TrueDiffOptions Opts;
    Opts.PreferLiteralMatches = Mode != 1;
    Opts.HeightPriority = Mode != 2;
    TrueDiff Diff(Ctx, Opts);
    DiffResult Result = Diff.compareTo(Source, Target);

    LinearTypeChecker Checker(Sig);
    auto TC = Checker.checkWellTyped(Result.Script);
    ASSERT_TRUE(TC.Ok) << "mode " << Mode << ": " << TC.Error << "\n"
                       << Result.Script.toString(Sig);
    auto PR = Before.patchChecked(Result.Script);
    ASSERT_TRUE(PR.Ok) << "mode " << Mode << ": " << PR.Error;
    EXPECT_TRUE(Before.equalsTree(Target));
    EXPECT_TRUE(treeEqualsModuloUris(Result.Patched, Target));
  }
}

/// Asserts that \p Stored carries exactly the derived data a from-scratch
/// recomputation yields (structure/literal hash, height, size), node for
/// node, and that no dirty marks are left behind.
void expectDerivedFresh(const SignatureTable &Sig, Tree *Stored) {
  TreeContext Scratch(Sig);
  const Tree *Fresh = Scratch.deepCopy(Stored);
  std::function<void(Tree *, const Tree *)> Walk = [&](Tree *A,
                                                       const Tree *B) {
    EXPECT_FALSE(A->derivedDirty()) << "dirty mark left at uri " << A->uri();
    EXPECT_EQ(A->structureHash(), B->structureHash())
        << "stale structure hash at uri " << A->uri();
    EXPECT_EQ(A->literalHash(), B->literalHash())
        << "stale literal hash at uri " << A->uri();
    EXPECT_EQ(A->height(), B->height()) << "stale height at uri " << A->uri();
    EXPECT_EQ(A->size(), B->size()) << "stale size at uri " << A->uri();
    ASSERT_EQ(A->arity(), B->arity());
    for (size_t I = 0, E = A->arity(); I != E; ++I)
      Walk(A->kid(I), B->kid(I));
  };
  Walk(Stored, Fresh);
}

TEST_P(TrueDiffPropertyTest, IncrementalRehashMatchesFullRefresh) {
  // Run the same diff twice -- once with the dirty-path rehash, once with
  // the paper-faithful full refresh. The scripts must be byte-identical
  // (the cache is an optimisation, never a semantic change) and the
  // incremental patched tree's digests must equal a from-scratch
  // recomputation, while rehashing no more nodes than the full refresh.
  SignatureTable Sig = makeExpSignature();
  std::array<std::string, 2> Scripts;
  for (int Mode = 0; Mode != 2; ++Mode) {
    TreeContext Ctx(Sig);
    Rng R(GetParam() * 2654435761u + 17);
    Tree *Source = randomExp(Ctx, R, 7);
    Tree *Target = R.chance(70) ? mutateExp(Ctx, R, Source, 10)
                                : randomExp(Ctx, R, 6);
    uint64_t PatchedCap = Target->size();

    TrueDiffOptions Opts;
    Opts.IncrementalRehash = Mode == 0;
    TrueDiff Diff(Ctx, Opts);
    DiffResult Result = Diff.compareTo(Source, Target);
    Scripts[Mode] = Result.Script.toString(Sig);

    EXPECT_LE(Result.NodesRehashed, PatchedCap);
    if (Opts.IncrementalRehash)
      expectDerivedFresh(Sig, Result.Patched);
    else
      EXPECT_EQ(Result.NodesRehashed, Result.Patched->size());
  }
  EXPECT_EQ(Scripts[0], Scripts[1]);
}

TEST_P(TrueDiffPropertyTest, IncrementalRehashStaysFreshAcrossRounds) {
  // The incremental contract across diffing rounds (Section 6): each
  // round's patched tree is the next round's pre-hashed source, so stale
  // digests would compound. After every round the stored tree must agree
  // with a from-scratch rebuild.
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 7691 + 3);
  Tree *Current = randomExp(Ctx, R, 6);
  for (int Round = 0; Round != 8; ++Round) {
    Tree *Target = mutateExp(Ctx, R, Current, 12);
    TrueDiff Diff(Ctx);
    DiffResult Result = Diff.compareTo(Current, Target);
    ASSERT_TRUE(treeEqualsModuloUris(Result.Patched, Target));
    expectDerivedFresh(Sig, Result.Patched);
    Current = Result.Patched;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrueDiffPropertyTest,
                         ::testing::Range<uint64_t>(0, 60));

} // namespace
