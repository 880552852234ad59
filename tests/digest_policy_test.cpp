//===- tests/digest_policy_test.cpp - Digest policy seam tests -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pluggable Step-1 digest policy (support/TreeHash.h):
///   - Fast128 is deterministic, streaming-consistent, and length-armoured;
///   - DigestHash spreads attacker-shaped digests that share a prefix
///     (the bucket-flooding regression: the old functor exposed the raw
///     digest prefix as the bucket key);
///   - the central property: fast-hash and SHA-256 policies produce
///     byte-identical edit scripts and identical touched-URI sets over
///     hundreds of seeded mutation chains, cold and warm, with every
///     script passing the linear type checker;
///   - SHA-256 node digests from the paired one-shot kernel equal the
///     streamed digests of the same preimages, node for node, including
///     preimages around and past the kernel's buffer bound.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "support/Sha256.h"
#include "support/TreeHash.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include "TestLang.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <unordered_set>

using namespace truediff;
using namespace truediff::testlang;

namespace {

//===----------------------------------------------------------------------===//
// Fast128 hasher
//===----------------------------------------------------------------------===//

TEST(Fast128Test, DeterministicAndOneShotMatchesStreaming) {
  std::vector<uint8_t> Data(1000);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 31 + 7);

  Digest OneShot = Fast128::hash(Data.data(), Data.size());
  EXPECT_EQ(OneShot, Fast128::hash(Data.data(), Data.size()));

  // Streaming in awkward chunk sizes (straddling the 64-byte block
  // boundary) must agree with the one-shot hash.
  Rng R(42);
  for (int Trial = 0; Trial != 20; ++Trial) {
    Fast128 H;
    size_t Off = 0;
    while (Off < Data.size()) {
      size_t Chunk = std::min<size_t>(1 + R.below(130), Data.size() - Off);
      H.update(Data.data() + Off, Chunk);
      Off += Chunk;
    }
    EXPECT_EQ(H.finish(), OneShot) << "trial " << Trial;
  }
}

TEST(Fast128Test, DistinctInputsAndLengthArmouring) {
  // Zero-padded tails must not collide with shorter all-zero inputs: the
  // finalizer folds in the total length.
  std::array<uint8_t, 128> Zeros{};
  std::unordered_set<std::string> Seen;
  for (size_t Len = 0; Len <= Zeros.size(); ++Len)
    EXPECT_TRUE(Seen.insert(Fast128::hash(Zeros.data(), Len).toHex()).second)
        << "collision among zero inputs at length " << Len;

  EXPECT_NE(Fast128::hash("abc", 3), Fast128::hash("abd", 3));

  // The 128-bit digest lives in bytes [0,16); the rest stays zero so kid
  // digest truncation (Tree.cpp's KidDigestBytes) loses nothing.
  Digest D = Fast128::hash("hello", 5);
  for (size_t I = 16; I != Digest::NumBytes; ++I)
    EXPECT_EQ(D.bytes()[I], 0u);
  EXPECT_NE(D.word(0) | D.word(1), 0u);
}

TEST(Fast128Test, ProcessSeedIsStable) {
  EXPECT_EQ(processDigestSeed(), processDigestSeed());
  EXPECT_EQ(digestTableSeed(), processDigestSeed());
}

//===----------------------------------------------------------------------===//
// DigestHash bucket flooding
//===----------------------------------------------------------------------===//

TEST(DigestHashTest, SpreadsDigestsSharingAPrefix) {
  // Regression: DigestHash used to return the raw 8-byte digest prefix,
  // so digests crafted to share a prefix all landed in one bucket. With
  // the seeded finisher, 4096 digests with an identical word(0) must
  // produce (essentially) 4096 distinct table hashes.
  DigestHash H;
  std::unordered_set<size_t> Hashes;
  for (uint64_t I = 0; I != 4096; ++I) {
    std::array<uint8_t, Digest::NumBytes> B{};
    // Same first word for all; the counter only in the second word.
    std::memset(B.data(), 0xAB, 8);
    std::memcpy(B.data() + 8, &I, sizeof(I));
    Hashes.insert(H(Digest(B)));
  }
  EXPECT_GE(Hashes.size(), 4090u);
}

//===----------------------------------------------------------------------===//
// Cross-policy property: identical scripts, cold and warm
//===----------------------------------------------------------------------===//

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

Tree *mutateExp(TreeContext &Ctx, Rng &R, const Tree *T, unsigned Percent) {
  if (R.chance(Percent))
    return randomExp(Ctx, R, 3);
  std::vector<Tree *> Kids;
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Kids.push_back(mutateExp(Ctx, R, T->kid(I), Percent));
  if (Kids.size() == 2 && R.chance(Percent))
    std::swap(Kids[0], Kids[1]);
  std::vector<Literal> Lits = T->lits();
  if (!Lits.empty() && R.chance(Percent) && Lits[0].kind() == LitKind::Int)
    Lits[0] = Literal(R.range(0, 9));
  return Ctx.make(T->tag(), std::move(Kids), std::move(Lits));
}

TEST(DigestPolicyProperty, ScriptsIdenticalAcrossPoliciesColdAndWarm) {
  // The digest policy selects how subtree equivalence is *computed*, never
  // what it *is*: over 500 seeded mutation chains, replayed under every
  // (policy x rehash-mode) combination in a fresh context with an
  // identical allocation sequence, the serialized scripts and touched-URI
  // sets must agree byte for byte, and every script must type-check.
  SignatureTable Sig = makeExpSignature();
  LinearTypeChecker Checker(Sig);
  constexpr int NumChains = 500;
  constexpr int Rounds = 3;
  const std::array<std::pair<DigestPolicy, bool>, 4> Combos = {{
      {DigestPolicy::Sha256, /*IncrementalRehash=*/false}, // cold
      {DigestPolicy::Sha256, /*IncrementalRehash=*/true},  // warm
      {DigestPolicy::Fast128, /*IncrementalRehash=*/false},
      {DigestPolicy::Fast128, /*IncrementalRehash=*/true},
  }};

  for (uint64_t Seed = 0; Seed != NumChains; ++Seed) {
    std::array<std::vector<std::string>, 4> Scripts;
    std::array<std::vector<std::vector<URI>>, 4> Touched;
    for (size_t C = 0; C != Combos.size(); ++C) {
      TreeContext Ctx(Sig, Combos[C].first);
      Rng R(Seed * 1000003 + 1);
      Tree *Current = randomExp(Ctx, R, 5);
      TrueDiffOptions Opts;
      Opts.IncrementalRehash = Combos[C].second;
      for (int Round = 0; Round != Rounds; ++Round) {
        Tree *Target = mutateExp(Ctx, R, Current, 15);
        TrueDiff Diff(Ctx, Opts);
        DiffResult Res = Diff.compareTo(Current, Target);
        auto TC = Checker.checkWellTyped(Res.Script);
        ASSERT_TRUE(TC.Ok) << "seed " << Seed << " combo " << C << " round "
                           << Round << ": " << TC.Error;
        Scripts[C].push_back(serializeEditScript(Sig, Res.Script));
        Touched[C].push_back(Res.Script.touchedUris());
        Current = Res.Patched;
      }
    }
    for (size_t C = 1; C != Combos.size(); ++C) {
      ASSERT_EQ(Scripts[C], Scripts[0]) << "seed " << Seed << " combo " << C;
      ASSERT_EQ(Touched[C], Touched[0]) << "seed " << Seed << " combo " << C;
    }
  }
}

//===----------------------------------------------------------------------===//
// SHA-256 node digests: paired one-shot kernel vs. streaming reference
//===----------------------------------------------------------------------===//

/// \p T's structure and literal hashes recomputed by streaming their
/// preimages field by field through Sha256: u32 tag, u32 arity, and 16
/// bytes of each kid structure hash; u32 literal count, each literal as a
/// kind byte plus little-endian payload (strings length-prefixed), and 16
/// bytes of each kid literal hash.
std::pair<Digest, Digest> streamedNodeDigests(const Tree *T) {
  Sha256 S;
  S.updateU32(T->tag());
  S.updateU32(static_cast<uint32_t>(T->arity()));
  for (size_t I = 0; I != T->arity(); ++I)
    S.update(T->kid(I)->structureHash().bytes().data(), 16);
  Sha256 L;
  L.updateU32(static_cast<uint32_t>(T->numLits()));
  for (const Literal &Lit : T->lits()) {
    uint8_t Kind = static_cast<uint8_t>(Lit.kind());
    L.update(&Kind, 1);
    switch (Lit.kind()) {
    case LitKind::Int:
      L.updateU64(static_cast<uint64_t>(Lit.asInt()));
      break;
    case LitKind::Float: {
      double V = Lit.asFloat();
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof(Bits));
      L.updateU64(Bits);
      break;
    }
    case LitKind::Bool: {
      uint8_t B = Lit.asBool() ? 1 : 0;
      L.update(&B, 1);
      break;
    }
    case LitKind::String:
      L.updateU64(Lit.asString().size());
      L.update(Lit.asString());
      break;
    }
  }
  for (size_t I = 0; I != T->arity(); ++I)
    L.update(T->kid(I)->literalHash().bytes().data(), 16);
  return {S.finish(), L.finish()};
}

/// Checks every node of \p Root against streamedNodeDigests; returns the
/// number of nodes checked.
size_t expectStreamedDigests(Tree *Root) {
  size_t Checked = 0;
  Root->foreachTree([&](Tree *T) {
    auto [Struct, Lit] = streamedNodeDigests(T);
    EXPECT_EQ(T->structureHash(), Struct) << "uri " << T->uri();
    EXPECT_EQ(T->literalHash(), Lit) << "uri " << T->uri();
    ++Checked;
  });
  return Checked;
}

TEST(Sha256NodeDigestTest, SeededPythonCorpusMatchesStreaming) {
  SignatureTable Sig = python::makePythonSignature();
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 20;
  Opts.Seed = 7;
  size_t Checked = 0;
  for (const corpus::CommitPair &Pair : corpus::buildCommitCorpus(Opts)) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    ASSERT_TRUE(Before.ok() && After.ok());
    Checked += expectStreamedDigests(Before.Module);
    Checked += expectStreamedDigests(After.Module);
    // The patched tree's nodes are rehashed after the diff.
    TrueDiff Differ(Ctx);
    Checked += expectStreamedDigests(
        Differ.compareTo(Ctx.deepCopy(Before.Module), After.Module).Patched);
  }
  EXPECT_GT(Checked, 10000u);
}

TEST(Sha256NodeDigestTest, PreimagesAroundTheBufferBoundMatchStreaming) {
  // Call's literal preimage is 4 (count) + 1 (kind) + 8 (length) + the
  // name + 16 (one kid): name lengths put it just under, at, and just
  // over Sha256::PairMaxBytes, where the kernel hands off to streaming,
  // and at the block-padding edges below.
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  const size_t Overhead = 4 + 1 + 8 + 16;
  const size_t Max = Sha256::PairMaxBytes;
  for (size_t Preimage : {Overhead, size_t(55), size_t(56), size_t(63),
                          size_t(64), size_t(119), size_t(120), Max - 1, Max,
                          Max + 1}) {
    std::string Name(Preimage - Overhead, 'f');
    Tree *T = call(Ctx, Name, add(Ctx, num(Ctx, 1), var(Ctx, Name)));
    expectStreamedDigests(T);
  }
}

TEST(Sha256NodeDigestTest, LongStringLiteralTakesTheStreamingPath) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  std::string Long(5000, 'x');
  for (size_t I = 0; I != Long.size(); ++I)
    Long[I] = static_cast<char>('a' + I % 26);
  Tree *T = call(Ctx, Long, var(Ctx, Long));
  EXPECT_EQ(expectStreamedDigests(T), 2u);
  // The digest is a function of content: an equal rebuild agrees, a
  // one-byte change does not.
  Tree *Same = call(Ctx, Long, var(Ctx, Long));
  EXPECT_TRUE(Same->equalsModuloUris(*T));
  std::string Changed = Long;
  Changed.back() = '!';
  EXPECT_NE(var(Ctx, Changed)->literalHash(), T->kid(0)->literalHash());
}

} // namespace
