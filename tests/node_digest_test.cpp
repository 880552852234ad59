//===- tests/node_digest_test.cpp - Keyed node digest tests ----------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Step-1 node digest (support/TreeHash.h):
///   - SipHash-2-4-128 matches the reference implementation's vectors;
///   - the process key and seed are fixed for the process;
///   - DigestHash spreads attacker-shaped digests that share a prefix
///     (the bucket-flooding regression: the old functor exposed the raw
///     digest prefix as the bucket key);
///   - the central property: scripts do not depend on the key. Over
///     hundreds of seeded mutation chains, cold and warm, two keys yield
///     byte-identical edit scripts and identical touched-URI sets, and
///     every script passes the linear type checker;
///   - each node's digests equal the keyed hash of its preimages written
///     field by field, including preimages around and past the stack
///     buffer, which spill to the heap.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "python/Python.h"
#include "support/Rng.h"
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
// SipHash-2-4-128 and the process key
//===----------------------------------------------------------------------===//

TEST(SipHashTest, ReferenceVectors) {
  // Key 00 01 .. 0f, message 00 01 .. (len-1): the layout of the
  // reference implementation's vectors_sip128.
  const DigestKey Key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  const std::pair<size_t, const char *> Vectors[] = {
      {0, "a3817f04ba25a8e66df67214c7550293"},
      {1, "da87c1d86b99af44347659119b22fc45"},
      {7, "a1f1ebbed8dbc153c0b84aa61ff08239"},
      {8, "3b62a9ba6258f5610f83e264f31497b4"},
      {9, "264499060ad9baabc47f8b02bb6d71ed"},
      {15, "5493e99933b0a8117e08ec0f97cfc3d9"},
      {16, "6ee2a4ca67b054bbfd3315bf85230577"},
      {17, "473d06e8738db89854c066c47ae47740"},
      {31, "2939b0183223fafc1723de4f52c43d35"},
      {32, "7c3956ca5eeafc3e363e9d556546eb68"},
      {63, "5150d1772f50834a503e069a973fbd7c"},
  };
  uint8_t Msg[64];
  for (size_t I = 0; I != sizeof(Msg); ++I)
    Msg[I] = static_cast<uint8_t>(I);
  for (const auto &[Len, Hex] : Vectors)
    EXPECT_EQ(sipHash128(Key, Msg, Len).toHex(), Hex) << "length " << Len;
  // Unaligned input reads the same bytes.
  uint8_t Shifted[65];
  std::memcpy(Shifted + 1, Msg, 63);
  EXPECT_EQ(sipHash128(Key, Shifted + 1, 63).toHex(),
            "5150d1772f50834a503e069a973fbd7c");
}

TEST(DigestKeyTest, ProcessKeyAndSeedAreStable) {
  EXPECT_EQ(processDigestSeed(), processDigestSeed());
  EXPECT_EQ(digestTableSeed(), processDigestSeed());
  const DigestKey &A = processDigestKey();
  const DigestKey &B = processDigestKey();
  EXPECT_EQ(A.K0, B.K0);
  EXPECT_EQ(A.K1, B.K1);
  EXPECT_NE(A.K0 | A.K1, 0u);
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
  // The key changes how subtree equivalence is *computed*, never what it
  // *is*: over 500 seeded mutation chains, replayed under every (key x
  // rehash-mode) combination in a fresh context with an identical
  // allocation sequence, the serialized scripts and touched-URI sets
  // must agree byte for byte, and every script must type-check.
  SignatureTable Sig = makeExpSignature();
  LinearTypeChecker Checker(Sig);
  constexpr int NumChains = 500;
  constexpr int Rounds = 3;
  const DigestKey Process = processDigestKey();
  const DigestKey Second{~Process.K0, Process.K1 ^ 0x5bd1e9955bd1e995ULL};
  const std::array<std::pair<DigestKey, bool>, 4> Combos = {{
      {Process, /*IncrementalRehash=*/false}, // cold
      {Process, /*IncrementalRehash=*/true},  // warm
      {Second, /*IncrementalRehash=*/false},
      {Second, /*IncrementalRehash=*/true},
  }};

  for (uint64_t Seed = 0; Seed != NumChains; ++Seed) {
    std::array<std::vector<std::string>, 4> Scripts;
    std::array<std::vector<std::vector<URI>>, 4> Touched;
    for (size_t C = 0; C != Combos.size(); ++C) {
      // Every tree of this combination is built and diffed under its key.
      setProcessDigestKeyForTest(Combos[C].first);
      TreeContext Ctx(Sig);
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
    setProcessDigestKeyForTest(Process);
    for (size_t C = 1; C != Combos.size(); ++C) {
      ASSERT_EQ(Scripts[C], Scripts[0]) << "seed " << Seed << " combo " << C;
      ASSERT_EQ(Touched[C], Touched[0]) << "seed " << Seed << " combo " << C;
    }
  }
}

//===----------------------------------------------------------------------===//
// Node digests: stack and heap preimages vs. a field-by-field reference
//===----------------------------------------------------------------------===//

void putU32(std::string &S, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    S.push_back(static_cast<char>(V >> (8 * I)));
}

void putU64(std::string &S, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    S.push_back(static_cast<char>(V >> (8 * I)));
}

/// \p T's structure and literal hashes recomputed from preimages written
/// field by field: u32 tag, u32 arity, and each kid structure hash; u32
/// literal count, each literal as a kind byte plus little-endian payload
/// (strings length-prefixed), and each kid literal hash.
std::pair<Digest, Digest> streamedNodeDigests(const Tree *T) {
  std::string S;
  putU32(S, T->tag());
  putU32(S, static_cast<uint32_t>(T->arity()));
  for (size_t I = 0; I != T->arity(); ++I)
    S.append(reinterpret_cast<const char *>(
                 T->kid(I)->structureHash().bytes().data()),
             Digest::NumBytes);
  std::string L;
  putU32(L, static_cast<uint32_t>(T->numLits()));
  for (const Literal &Lit : T->lits()) {
    L.push_back(static_cast<char>(Lit.kind()));
    switch (Lit.kind()) {
    case LitKind::Int:
      putU64(L, static_cast<uint64_t>(Lit.asInt()));
      break;
    case LitKind::Float: {
      double V = Lit.asFloat();
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof(Bits));
      putU64(L, Bits);
      break;
    }
    case LitKind::Bool:
      L.push_back(Lit.asBool() ? 1 : 0);
      break;
    case LitKind::String:
      putU64(L, Lit.asString().size());
      L += Lit.asString();
      break;
    }
  }
  for (size_t I = 0; I != T->arity(); ++I)
    L.append(reinterpret_cast<const char *>(
                 T->kid(I)->literalHash().bytes().data()),
             Digest::NumBytes);
  const DigestKey &Key = processDigestKey();
  return {sipHash128(Key, S.data(), S.size()),
          sipHash128(Key, L.data(), L.size())};
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
  // name + 16 (one kid): name lengths walk it across the 256-byte stack
  // buffer, past which the preimage goes to the heap, and across
  // SipHash's 8-byte word edges below.
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  const size_t Overhead = 4 + 1 + 8 + 16;
  std::vector<size_t> Preimages = {Overhead, 39, 40, 41, 47, 48};
  for (size_t Len = 248; Len != 266; ++Len)
    Preimages.push_back(Len);
  for (size_t Preimage : Preimages) {
    std::string Name(Preimage - Overhead, 'f');
    Tree *T = call(Ctx, Name, add(Ctx, num(Ctx, 1), var(Ctx, Name)));
    expectStreamedDigests(T);
  }
}

TEST(Sha256NodeDigestTest, LongStringLiteralTakesTheStreamingPath) {
  // A 5000-byte literal's and a wide node's preimages spill to the heap.
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

  // A node with 20 kids has a 328-byte structure preimage.
  SignatureTable WideSig = makeExpSignature();
  std::vector<std::pair<std::string, std::string>> Slots;
  for (int I = 0; I != 20; ++I)
    Slots.push_back({"k" + std::to_string(I), "Exp"});
  WideSig.defineTag("Wide", "Exp", Slots, {});
  TreeContext WideCtx(WideSig);
  std::vector<Tree *> Kids;
  for (int I = 0; I != 20; ++I)
    Kids.push_back(num(WideCtx, I));
  Tree *Wide = WideCtx.make("Wide", Kids, {});
  EXPECT_EQ(expectStreamedDigests(Wide), 21u);
}

} // namespace
