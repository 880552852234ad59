//===- tests/truechange_extra_test.cpp - Inversion, wire format, fuzzing ---===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the truechange extensions built on the paper's core:
///  - script inversion (undo): applying a script and its inverse restores
///    the original tree, and the inverse of a well-typed script is
///    well-typed with swapped contexts;
///  - the wire format scripts travel in (persist/BinaryCodec): decoding
///    is the exact inverse of encoding, and a decoded script applies
///    exactly like the original;
///  - adversarial fuzzing of Theorem 3.6: randomly corrupted scripts are
///    either rejected (by the type checker or the compliance checks) or
///    still yield closed, well-formed trees;
///  - MTree's closedness check and printer: toString is byte-identical to
///    the typed-tree printer, and isClosedWellFormed fails exactly where
///    the tree is not closed and well-formed.
///
//===----------------------------------------------------------------------===//

#include "truechange/InitScript.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"

#include "corpus/Corpus.h"
#include "persist/BinaryCodec.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "tree/SExpr.h"
#include "truediff/TrueDiff.h"

#include "ScriptFuzz.h"
#include "TestLang.h"

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>

using namespace truediff;
using namespace truediff::testlang;

namespace {

//===----------------------------------------------------------------------===//
// Inversion
//===----------------------------------------------------------------------===//

class InverseTest : public ::testing::Test {
protected:
  InverseTest() : Sig(makeExpSignature()), Ctx(Sig), Checker(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
  LinearTypeChecker Checker;
};

TEST_F(InverseTest, InvertsEachKind) {
  NodeRef N{Sig.lookup("Num"), 3};
  NodeRef P{Sig.lookup("Add"), 1};
  LinkId E1 = Sig.lookup("e1");

  Edit D = Edit::detach(N, E1, P);
  EXPECT_EQ(invertEdit(D).Kind, EditKind::Attach);
  EXPECT_EQ(invertEdit(invertEdit(D)).Kind, EditKind::Detach);

  Edit L = Edit::load(N, {}, {LitRef{Sig.lookup("n"), Literal(int64_t(7))}});
  EXPECT_EQ(invertEdit(L).Kind, EditKind::Unload);

  Edit U = Edit::update(N, {LitRef{Sig.lookup("n"), Literal(int64_t(1))}},
                        {LitRef{Sig.lookup("n"), Literal(int64_t(2))}});
  Edit UI = invertEdit(U);
  EXPECT_EQ(UI.Kind, EditKind::Update);
  EXPECT_EQ(UI.Lits[0].Value, Literal(int64_t(1)));
  EXPECT_EQ(UI.OldLits[0].Value, Literal(int64_t(2)));
}

TEST_F(InverseTest, UndoRestoresOriginalTree) {
  Tree *Source = add(Ctx, sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")),
                     mul(Ctx, leaf(Ctx, "c"), leaf(Ctx, "d")));
  Tree *Target = add(Ctx, leaf(Ctx, "d"),
                     mul(Ctx, leaf(Ctx, "c"),
                         sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b"))));
  Tree *SourceCopy = Ctx.deepCopy(Source);

  MTree M = MTree::fromTree(Sig, Source);
  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Source, Target);

  ASSERT_TRUE(M.patchChecked(R.Script).Ok);
  EXPECT_TRUE(M.equalsTree(Target));

  EditScript Undo = invertScript(R.Script);
  ASSERT_TRUE(Checker.checkWellTyped(Undo).Ok)
      << Undo.toString(Sig);
  ASSERT_TRUE(M.patchChecked(Undo).Ok);
  EXPECT_TRUE(M.equalsTree(SourceCopy)) << M.toString();
}

TEST_F(InverseTest, InversionIsAnInvolution) {
  Tree *Source = add(Ctx, num(Ctx, 1), call(Ctx, "f", num(Ctx, 2)));
  Tree *Target = mul(Ctx, call(Ctx, "g", num(Ctx, 2)), num(Ctx, 3));
  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Source, Target);
  EXPECT_EQ(invertScript(invertScript(R.Script)).toString(Sig),
            R.Script.toString(Sig));
}

class InversePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InversePropertyTest, UndoOnPythonCorpus) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 733 + 11);
  LinearTypeChecker Checker(Sig);

  Tree *Base = corpus::generateModule(Ctx, R);
  Tree *Mutated = corpus::mutateModule(Ctx, R, Base);
  Tree *BaseCopy = Ctx.deepCopy(Base);

  MTree M = MTree::fromTree(Sig, Base);
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Base, Mutated);

  ASSERT_TRUE(M.patchChecked(Result.Script).Ok);
  EditScript Undo = invertScript(Result.Script);
  ASSERT_TRUE(Checker.checkWellTyped(Undo).Ok);
  ASSERT_TRUE(M.patchChecked(Undo).Ok);
  EXPECT_TRUE(M.equalsTree(BaseCopy));
  EXPECT_TRUE(M.isClosedWellFormed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InversePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

/// Encodes \p S and decodes it back, as a script crossing the wire does.
persist::DecodeScriptResult overTheWire(const SignatureTable &Sig,
                                        const EditScript &S) {
  return persist::decodeEditScript(Sig, persist::encodeEditScript(Sig, S));
}

class SerializeTest : public ::testing::Test {
protected:
  SerializeTest() : Sig(makeExpSignature()), Ctx(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
};

TEST_F(SerializeTest, RoundTripAllEditKinds) {
  TagId NumTag = Sig.lookup("Num");
  TagId AddTag = Sig.lookup("Add");
  TagId CallTag = Sig.lookup("Call");
  LinkId E1 = Sig.lookup("e1"), E2 = Sig.lookup("e2");
  LinkId N = Sig.lookup("n"), F = Sig.lookup("f"), A = Sig.lookup("a");

  EditScript S;
  S.append(Edit::detach(NodeRef{NumTag, 5}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::unload(NodeRef{NumTag, 5}, {},
                        {LitRef{N, Literal(int64_t(-7))}}));
  S.append(Edit::load(NodeRef{CallTag, 9}, {KidRef{A, 6}},
                      {LitRef{F, Literal("fn \"quoted\"\n")}}));
  S.append(Edit::attach(NodeRef{CallTag, 9}, E2, NodeRef{AddTag, 1}));
  S.append(Edit::update(NodeRef{NumTag, 6},
                        {LitRef{N, Literal(int64_t(2))}},
                        {LitRef{N, Literal(int64_t(3))}}));

  std::string Text = serializeEditScript(Sig, S);
  persist::DecodeScriptResult P = overTheWire(Sig, S);
  ASSERT_TRUE(P.Ok) << P.Error << "\n" << Text;
  EXPECT_EQ(serializeEditScript(Sig, P.Script), Text);
  EXPECT_EQ(P.Script.size(), S.size());
}

TEST_F(SerializeTest, RoundTripFloatAndBoolLiterals) {
  SignatureTable PySig = python::makePythonSignature();
  EditScript S;
  S.append(Edit::load(NodeRef{PySig.lookup("FloatLit"), 3}, {},
                      {LitRef{PySig.lookup("value"), Literal(2.5)}}));
  S.append(Edit::load(NodeRef{PySig.lookup("BoolLit"), 4}, {},
                      {LitRef{PySig.lookup("value"), Literal(true)}}));
  persist::DecodeScriptResult P = overTheWire(PySig, S);
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Script[0].Lits[0].Value, Literal(2.5));
  EXPECT_EQ(P.Script[1].Lits[0].Value, Literal(true));
}

TEST_F(SerializeTest, ParsedScriptAppliesIdentically) {
  Tree *Source = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *Target = mul(Ctx, num(Ctx, 2), num(Ctx, 1));
  MTree M1 = MTree::fromTree(Sig, Source);
  MTree M2 = MTree::fromTree(Sig, Source);

  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Source, Target);
  persist::DecodeScriptResult P = overTheWire(Sig, R.Script);
  ASSERT_TRUE(P.Ok) << P.Error;

  ASSERT_TRUE(M1.patchChecked(R.Script).Ok);
  ASSERT_TRUE(M2.patchChecked(P.Script).Ok);
  EXPECT_EQ(M1.toString(), M2.toString());
}

TEST_F(SerializeTest, ReportsErrors) {
  SignatureTable PySig = python::makePythonSignature();
  EditScript S;
  S.append(Edit::detach(NodeRef{Sig.lookup("Num"), 1}, Sig.lookup("e1"),
                        NodeRef{Sig.lookup("Add"), 2}));
  std::string Blob = persist::encodeEditScript(Sig, S);
  EXPECT_TRUE(persist::decodeEditScript(Sig, Blob).Ok);
  // Names the signature does not know, a torn blob, and noise.
  EXPECT_FALSE(persist::decodeEditScript(PySig, Blob).Ok);
  EXPECT_FALSE(
      persist::decodeEditScript(Sig, Blob.substr(0, Blob.size() - 1)).Ok);
  EXPECT_FALSE(persist::decodeEditScript(Sig, "explode(Num_1)").Ok);
  persist::DecodeScriptResult Empty = overTheWire(Sig, EditScript());
  ASSERT_TRUE(Empty.Ok) << Empty.Error;
  EXPECT_EQ(Empty.Script.size(), 0u);
}

class SerializePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializePropertyTest, RoundTripOnPythonCorpus) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 881 + 23);

  Tree *Base = corpus::generateModule(Ctx, R);
  Tree *Mutated = corpus::mutateModule(Ctx, R, Base);
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Base, Mutated);

  persist::DecodeScriptResult P = overTheWire(Sig, Result.Script);
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(serializeEditScript(Sig, P.Script),
            serializeEditScript(Sig, Result.Script));
}

TEST_P(SerializePropertyTest, ParsedScriptAppliesToTarget) {
  // The full wire round trip: encode -> decode -> apply to the base tree
  // yields the target tree, i.e. the wire form preserves not just
  // syntax but the script's semantics.
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 881 + 23);

  Tree *Base = corpus::generateModule(Ctx, R);
  Tree *Mutated = corpus::mutateModule(Ctx, R, Base);

  MTree M = MTree::fromTree(Sig, Base);
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Base, Mutated);

  persist::DecodeScriptResult P = overTheWire(Sig, Result.Script);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_TRUE(M.patchChecked(P.Script).Ok);
  EXPECT_TRUE(M.equalsTree(Mutated));
  EXPECT_TRUE(M.isClosedWellFormed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Initializing scripts (Definition 3.2)
//===----------------------------------------------------------------------===//

class InitScriptTest : public ::testing::Test {
protected:
  InitScriptTest() : Sig(makeExpSignature()), Ctx(Sig), Checker(Sig) {}
  SignatureTable Sig;
  TreeContext Ctx;
  LinearTypeChecker Checker;
};

TEST_F(InitScriptTest, BuildsTreeFromEmpty) {
  Tree *T = add(Ctx, call(Ctx, "f", num(Ctx, 1)), var(Ctx, "x"));
  EditScript Init = buildInitializingScript(Sig, T);
  EXPECT_EQ(Init.size(), T->size() + 1); // one load per node + attach

  auto TC = Checker.checkInitializing(Init);
  EXPECT_TRUE(TC.Ok) << TC.Error;
  // An initializing script is NOT well-typed against a closed tree.
  EXPECT_FALSE(Checker.checkWellTyped(Init).Ok);

  MTree Empty(Sig);
  ASSERT_TRUE(Empty.patchChecked(Init).Ok);
  EXPECT_TRUE(Empty.equalsTree(T));
  EXPECT_TRUE(Empty.isClosedWellFormed());
}

TEST_F(InitScriptTest, MatchesPaperDelta1Shape) {
  // Section 3.1's Delta_1 builds Add(Var("a"), Var("b")) with three loads
  // and one attach, loads bottom-up.
  Tree *T = add(Ctx, var(Ctx, "a"), var(Ctx, "b"));
  EditScript Init = buildInitializingScript(Sig, T);
  ASSERT_EQ(Init.size(), 4u);
  EXPECT_EQ(Init[0].Kind, EditKind::Load);
  EXPECT_EQ(Init[1].Kind, EditKind::Load);
  EXPECT_EQ(Init[2].Kind, EditKind::Load);
  EXPECT_EQ(Init[3].Kind, EditKind::Attach);
  EXPECT_EQ(Init[2].Node.Uri, T->uri()); // root loaded last
  EXPECT_EQ(Init[3].Node.Uri, T->uri());
}

TEST_F(InitScriptTest, TransmitTreeThenPatchPipeline) {
  // Full transmission scenario: send the initial tree as a script, then
  // send a diff; the receiver reconstructs the target without ever
  // seeing a tree.
  Tree *V1 = add(Ctx, num(Ctx, 1), num(Ctx, 2));
  Tree *V2 = add(Ctx, num(Ctx, 1), mul(Ctx, num(Ctx, 2), num(Ctx, 3)));
  EditScript Init = buildInitializingScript(Sig, V1);

  TrueDiff Differ(Ctx);
  Tree *V1Copy = Ctx.deepCopy(V1);
  DiffResult R = Differ.compareTo(V1, V2);
  (void)V1Copy;

  // Receiver side: decode both scripts, replay from empty.
  MTree Receiver(Sig);
  persist::DecodeScriptResult P1 = overTheWire(Sig, Init);
  persist::DecodeScriptResult P2 = overTheWire(Sig, R.Script);
  ASSERT_TRUE(P1.Ok && P2.Ok);
  ASSERT_TRUE(Receiver.patchChecked(P1.Script).Ok);
  ASSERT_TRUE(Receiver.patchChecked(P2.Script).Ok);
  EXPECT_TRUE(Receiver.equalsTree(V2));
}

class InitScriptPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InitScriptPropertyTest, InitializesRandomPythonModules) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 557 + 41);
  LinearTypeChecker Checker(Sig);

  Tree *Module = corpus::generateModule(Ctx, R);
  EditScript Init = buildInitializingScript(Sig, Module);
  ASSERT_TRUE(Checker.checkInitializing(Init).Ok);

  MTree Empty(Sig);
  ASSERT_TRUE(Empty.patchChecked(Init).Ok);
  EXPECT_TRUE(Empty.equalsTree(Module));
  EXPECT_TRUE(Empty.isClosedWellFormed());
  EXPECT_EQ(Empty.toString(), printSExprWithUris(Sig, Module));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InitScriptPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

//===----------------------------------------------------------------------===//
// Theorem 3.6 under adversarial corruption
//===----------------------------------------------------------------------===//

/// Every node of the trees rooted at \p Roots.
std::vector<Tree *> nodesOf(std::initializer_list<Tree *> Roots) {
  std::vector<Tree *> Nodes;
  for (Tree *Root : Roots)
    Root->foreachTree([&](Tree *T) { Nodes.push_back(T); });
  return Nodes;
}

/// A diff session must leave no share, assignment, covered flag,
/// availability flag or mark behind on any node it saw: the next session
/// would read a share pointer into a freed registry.
void expectNoDiffState(const std::vector<Tree *> &Nodes) {
  size_t Stamped = 0;
  for (const Tree *T : Nodes)
    if (T->share() != nullptr || T->assigned() != nullptr || T->covered() ||
        T->shareAvailable() || T->mark() != 0)
      ++Stamped;
  EXPECT_EQ(Stamped, 0u) << "of " << Nodes.size() << " nodes";
}

class Theorem36FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem36FuzzTest, AcceptedScriptsYieldWellFormedTrees) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 677 + 101);
  LinearTypeChecker Checker(Sig);

  Tree *Base = corpus::generateModule(Ctx, R);
  Tree *Mutated = corpus::mutateModule(Ctx, R, Base);
  // Rebuilds Base with its own URIs, which the script refers to, so a
  // corrupted script applies until the corruption bites instead of
  // failing on its first edit.
  EditScript Init = buildInitializingScript(Sig, Base);
  std::vector<Tree *> Seen = nodesOf({Base, Mutated});
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Base, Mutated);
  for (Tree *T : nodesOf({Result.Patched}))
    Seen.push_back(T);
  expectNoDiffState(Seen);

  size_t Accepted = 0, TypeRejected = 0, PatchRejected = 0, Midway = 0;
  for (int Round = 0; Round != 40; ++Round) {
    EditScript Bad = tests::corruptScript(R, Result.Script);
    if (!Checker.checkWellTyped(Bad).Ok) {
      ++TypeRejected;
      continue;
    }
    MTree M(Sig);
    ASSERT_TRUE(M.patchChecked(Init).Ok);
    MTree::PatchResult Patched = M.patchChecked(Bad);
    if (Patched.Ok) {
      // Theorem 3.6: a script that passes the type system and the
      // compliance checks must produce a closed, well-typed tree.
      EXPECT_TRUE(M.isClosedWellFormed())
          << "corrupted script accepted but tree malformed:\n"
          << Bad.toString(Sig);
      ++Accepted;
    } else {
      ++PatchRejected;
      if (Patched.ErrorIndex > 0)
        ++Midway;
    }
  }
  // Most corruptions must be caught; a few (e.g. swapping commuting
  // edits) legitimately stay valid.
  EXPECT_GT(TypeRejected + PatchRejected, 0u);
  (void)Accepted;
  // At least a third of the scripts the compliance checks reject apply an
  // edit first (over all seeds: 93 of 104; from a deep copy with fresh
  // URIs it was 1 of 396). Single-edit scripts whose one edit is
  // corrupted fail at index 0, so the share is not 1.
  EXPECT_GE(3 * Midway, PatchRejected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem36FuzzTest,
                         ::testing::Range<uint64_t>(0, 25));

TEST(DiffSessionStateTest, NoNodeKeepsDiffStateOnCorpusPairs) {
  // One differ diffs each file's commits in a chain, each patched tree
  // the next source, so state a session left behind would reach the next.
  SignatureTable Sig = python::makePythonSignature();
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 40;
  Opts.Seed = 36;
  std::vector<corpus::CommitPair> Pairs = corpus::buildCommitCorpus(Opts);
  TreeContext Ctx(Sig);
  TrueDiff Differ(Ctx);
  Tree *Current = nullptr;
  const std::string *CurrentSrc = nullptr;
  for (const corpus::CommitPair &Pair : Pairs) {
    if (CurrentSrc == nullptr || Pair.Before != *CurrentSrc) {
      auto Before = python::parsePython(Ctx, Pair.Before);
      ASSERT_TRUE(Before.ok());
      Current = Before.Module;
    }
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(After.ok());
    std::vector<Tree *> Seen = nodesOf({Current, After.Module});
    DiffResult R = Differ.compareTo(Current, After.Module);
    for (Tree *T : nodesOf({R.Patched}))
      Seen.push_back(T);
    expectNoDiffState(Seen);
    Current = R.Patched;
    CurrentSrc = &Pair.After;
  }
}

//===----------------------------------------------------------------------===//
// The closedness check and the printer against their oracles
//===----------------------------------------------------------------------===//

/// isClosedWellFormed() as its contract states it, written recursively
/// over MTree's public surface: the check's independent oracle (for
/// shallow trees only). Counting past the index size fails at once, so
/// cycles an unchecked patch may build still terminate.
bool referenceClosedWellFormed(const SignatureTable &Sig, MTree &M) {
  size_t Reachable = 1; // the root
  std::function<bool(const MNode *)> Walk = [&](const MNode *N) {
    if (N == nullptr || ++Reachable > M.indexSize() || !Sig.hasTag(N->Tag))
      return false;
    const TagSignature &TagSig = Sig.signature(N->Tag);
    for (const KidSpec &Spec : TagSig.Kids) {
      auto It = N->Kids.find(Spec.Link);
      if (It == N->Kids.end() || !Walk(It->second))
        return false;
    }
    for (const LitSpec &Spec : TagSig.Lits) {
      auto It = N->Lits.find(Spec.Link);
      if (It == N->Lits.end() || It->second.kind() != Spec.Kind)
        return false;
    }
    return true;
  };
  auto Top = M.root()->Kids.find(Sig.rootLink());
  return Top != M.root()->Kids.end() && Walk(Top->second) &&
         Reachable == M.indexSize();
}

/// The tree is closed by both checks and toString() prints it with no
/// defect marker. Given \p T, toString() must also equal
/// printSExprWithUris of it.
::testing::AssertionResult printsClosed(const SignatureTable &Sig, MTree &M,
                                        const Tree *T = nullptr) {
  if (!M.isClosedWellFormed() || !referenceClosedWellFormed(Sig, M))
    return ::testing::AssertionFailure() << "tree is not closed";
  std::string Text = M.toString();
  for (const char *Marker : {"<hole>", "<missing>", "<unknown>"})
    if (Text.find(Marker) != std::string::npos)
      return ::testing::AssertionFailure() << "closed tree prints " << Text;
  if (T != nullptr && Text != printSExprWithUris(Sig, T))
    return ::testing::AssertionFailure()
           << "URI form differs:\n  toString: " << Text
           << "\n  printer:  " << printSExprWithUris(Sig, T);
  return ::testing::AssertionSuccess();
}

/// Both closedness checks refuse the tree.
::testing::AssertionResult countsAsMalformed(const SignatureTable &Sig,
                                             MTree &M) {
  if (M.isClosedWellFormed() || referenceClosedWellFormed(Sig, M))
    return ::testing::AssertionFailure() << "tree counts as closed";
  return ::testing::AssertionSuccess();
}

class RenderOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RenderOracleTest, MatchesTypedPrintersAlongAPatchedHistory) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 7451 + 3);

  Tree *Cur = corpus::generateModule(Ctx, R);
  MTree M = MTree::fromTree(Sig, Cur);
  EXPECT_TRUE(printsClosed(Sig, M, Cur));
  TrueDiff Differ(Ctx);
  for (int Step = 0; Step != 4; ++Step) {
    Tree *Next = corpus::mutateModule(Ctx, R, Cur);
    DiffResult D = Differ.compareTo(Cur, Next);
    ASSERT_TRUE(M.patchChecked(D.Script).Ok);
    // The patched typed tree keeps the URIs the script speaks about, so
    // it prints exactly what the patched MTree prints.
    EXPECT_TRUE(printsClosed(Sig, M, D.Patched)) << "after step " << Step;
    EXPECT_EQ(M.indexSize(), D.Patched->size() + 1);
    Cur = D.Patched;
  }
}

TEST_P(RenderOracleTest, FailsExactlyWhereTheReferenceDoes) {
  // Unchecked patching with corrupted scripts leaves arbitrary states:
  // holes, leaks, double attachments, even cycles.
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 313 + 17);

  Tree *Base = corpus::generateModule(Ctx, R);
  // An unrelated module as the target, so the script is mostly
  // structural: corrupting it opens the tree in many ways.
  Tree *Mutated = corpus::generateModule(Ctx, R);
  // Rebuilds Base with its own URIs, which the script refers to.
  EditScript Init = buildInitializingScript(Sig, Base);
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Base, Mutated);

  size_t Closed = 0, Open = 0;
  for (int Round = 0; Round != 40; ++Round) {
    MTree M(Sig);
    ASSERT_TRUE(M.patchChecked(Init).Ok);
    M.patch(tests::corruptScript(R, Result.Script));
    bool Reference = referenceClosedWellFormed(Sig, M);
    EXPECT_EQ(M.isClosedWellFormed(), Reference);
    if (Reference) {
      EXPECT_TRUE(printsClosed(Sig, M));
      ++Closed;
    } else {
      ++Open;
    }
  }
  EXPECT_GT(Open, 0u);
  EXPECT_GT(Closed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenderOracleTest,
                         ::testing::Range<uint64_t>(0, 10));

class RenderDefectTest : public ::testing::Test {
protected:
  RenderDefectTest()
      : Sig(makeExpSignature()), Ctx(Sig),
        T(add(Ctx, num(Ctx, 1), call(Ctx, "f", num(Ctx, 2)))),
        M(MTree::fromTree(Sig, T)) {}

  NodeRef ref(const Tree *N) const { return NodeRef{N->tag(), N->uri()}; }

  void apply(const Edit &E) { ASSERT_TRUE(M.processEdit(E).Ok); }

  SignatureTable Sig;
  TreeContext Ctx;
  Tree *T;
  MTree M;
};

TEST_F(RenderDefectTest, ClosedTreeRenders) {
  EXPECT_TRUE(printsClosed(Sig, M, T));
  EXPECT_EQ(printSExpr(Sig, T), "(Add (Num 1) (Call (Num 2) \"f\"))");
}

TEST_F(RenderDefectTest, DetachedHoleFails) {
  // Detach and unload the first operand: nothing leaks, but e1 is empty.
  const Tree *Kid = T->kid(0);
  apply(Edit::detach(ref(Kid), Sig.lookup("e1"), ref(T)));
  apply(Edit::unload(ref(Kid), {}, {LitRef{Sig.lookup("n"), Literal(int64_t(1))}}));
  EXPECT_TRUE(countsAsMalformed(Sig, M));
  EXPECT_NE(M.toString().find("<hole>"), std::string::npos) << M.toString();
}

TEST_F(RenderDefectTest, LeakedDetachedSubtreeFails) {
  // Detach without unload and fill the slot again: the tree is closed,
  // but the index still holds the detached node.
  const Tree *Kid = T->kid(0);
  NodeRef Fresh{Sig.lookup("Num"), 1000};
  apply(Edit::detach(ref(Kid), Sig.lookup("e1"), ref(T)));
  apply(Edit::load(Fresh, {}, {LitRef{Sig.lookup("n"), Literal(int64_t(7))}}));
  apply(Edit::attach(Fresh, Sig.lookup("e1"), ref(T)));
  EXPECT_TRUE(countsAsMalformed(Sig, M));
  // Unloading the leak closes the tree again.
  apply(Edit::unload(ref(Kid), {}, {LitRef{Sig.lookup("n"), Literal(int64_t(1))}}));
  EXPECT_TRUE(printsClosed(Sig, M));
}

TEST_F(RenderDefectTest, CycleFailsAndTerminates) {
  // Unchecked edits can hang the root under its own descendant: the
  // walk must stop once it has seen more nodes than the index holds.
  const Tree *Call = T->kid(1);
  const Tree *Leaf = Call->kid(0);
  apply(Edit::detach(ref(Leaf), Sig.lookup("a"), ref(Call)));
  apply(Edit::unload(ref(Leaf), {}, {LitRef{Sig.lookup("n"), Literal(int64_t(2))}}));
  apply(Edit::attach(ref(T), Sig.lookup("a"), ref(Call)));
  EXPECT_TRUE(countsAsMalformed(Sig, M));
}

TEST_F(RenderDefectTest, RemovedLiteralFails) {
  MNode *Call = M.root()->Kids.at(Sig.rootLink())->Kids.at(Sig.lookup("e2"));
  Literal Saved = Call->Lits.at(Sig.lookup("f"));
  Call->Lits.erase(Sig.lookup("f"));
  EXPECT_TRUE(countsAsMalformed(Sig, M));
  EXPECT_NE(M.toString().find("<missing>"), std::string::npos)
      << M.toString();
  // A literal of the wrong kind is no better than none.
  Call->Lits.emplace(Sig.lookup("f"), Literal(int64_t(3)));
  EXPECT_TRUE(countsAsMalformed(Sig, M));
  Call->Lits[Sig.lookup("f")] = Saved;
  EXPECT_TRUE(printsClosed(Sig, M));
}

} // namespace
