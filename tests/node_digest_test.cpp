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
///     buffer, which spill to the heap;
///   - the 8-lane kernel equals sipHash128 at every length 0-300 under
///     random keys and on the reference vectors;
///   - every whole-tree builder, which derives through the batched
///     Tree::deriveAll, gives each node the digests, height and size that
///     per-node TreeContext::make gives it, under the process key and
///     under a key swapped in for the test.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "persist/BinaryCodec.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "support/TreeHash.h"
#include "tree/SExpr.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include "DeepModule.h"
#include "TestLang.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
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

/// Lays \p Len bytes at \p Msg into lane \p Lane of a sipHash128x8 input
/// of sipWords(Len) words.
void putLane(std::vector<uint64_t> &Words, size_t Lane, const uint8_t *Msg,
             size_t Len) {
  size_t NumWords = sipWords(Len);
  for (size_t W = 0; W != NumWords; ++W) {
    uint64_t V = 0;
    for (size_t B = 0; B != 8 && 8 * W + B < Len; ++B)
      V |= uint64_t(Msg[8 * W + B]) << (8 * B);
    if (W + 1 == NumWords)
      V |= uint64_t(Len) << 56;
    Words[SipLanes * W + Lane] = V;
  }
}

TEST(SipHashTest, EightLaneKernelMatchesScalarAtEveryLength) {
  // Every length 0-300 under fresh random keys. Each lane gets its own
  // message, and lanes mix the byte lengths that share a word count.
  Rng R(2012);
  for (size_t Len = 0; Len <= 300; ++Len) {
    const DigestKey Key{R.next(), R.next()};
    size_t NumWords = sipWords(Len);
    std::vector<uint64_t> Words(SipLanes * NumWords);
    std::vector<std::vector<uint8_t>> Msgs;
    for (size_t L = 0; L != SipLanes; ++L) {
      size_t LaneLen = L % 2 == 0 ? Len : 8 * (NumWords - 1) + R.below(8);
      std::vector<uint8_t> Msg(LaneLen);
      for (uint8_t &B : Msg)
        B = static_cast<uint8_t>(R.next());
      putLane(Words, L, Msg.data(), Msg.size());
      Msgs.push_back(std::move(Msg));
    }
    Digest Out[SipLanes];
    sipHash128x8(Key, Words.data(), NumWords, Out);
    for (size_t L = 0; L != SipLanes; ++L)
      ASSERT_EQ(Out[L], sipHash128(Key, Msgs[L].data(), Msgs[L].size()))
          << "length " << Msgs[L].size() << " lane " << L;
  }
}

TEST(SipHashTest, EightLaneKernelReproducesReferenceVectors) {
  // The reference vectors of ReferenceVectors, eight copies per batch.
  // Lengths 8, 9 and 15 share a word count, so one batch mixes them.
  const DigestKey Key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  uint8_t Msg[64];
  for (size_t I = 0; I != sizeof(Msg); ++I)
    Msg[I] = static_cast<uint8_t>(I);
  const std::pair<size_t, const char *> Vectors[] = {
      {0, "a3817f04ba25a8e66df67214c7550293"},
      {7, "a1f1ebbed8dbc153c0b84aa61ff08239"},
      {16, "6ee2a4ca67b054bbfd3315bf85230577"},
      {63, "5150d1772f50834a503e069a973fbd7c"},
  };
  for (const auto &[Len, Hex] : Vectors) {
    std::vector<uint64_t> Words(SipLanes * sipWords(Len));
    for (size_t L = 0; L != SipLanes; ++L)
      putLane(Words, L, Msg, Len);
    Digest Out[SipLanes];
    sipHash128x8(Key, Words.data(), sipWords(Len), Out);
    for (size_t L = 0; L != SipLanes; ++L)
      EXPECT_EQ(Out[L].toHex(), Hex) << "length " << Len << " lane " << L;
  }
  const std::pair<size_t, const char *> Mixed[] = {
      {8, "3b62a9ba6258f5610f83e264f31497b4"},
      {9, "264499060ad9baabc47f8b02bb6d71ed"},
      {15, "5493e99933b0a8117e08ec0f97cfc3d9"},
  };
  std::vector<uint64_t> Words(SipLanes * 2);
  for (size_t L = 0; L != SipLanes; ++L)
    putLane(Words, L, Msg, Mixed[L % 3].first);
  Digest Out[SipLanes];
  sipHash128x8(Key, Words.data(), 2, Out);
  for (size_t L = 0; L != SipLanes; ++L)
    EXPECT_EQ(Out[L].toHex(), Mixed[L % 3].second) << "lane " << L;
  EXPECT_NE(std::string(sipHash128x8Clone()), "");
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
  std::vector<Literal> Lits(T->lits().begin(), T->lits().end());
  if (!Lits.empty() && R.chance(Percent) && Lits[0].kind() == LitKind::Int)
    Lits[0] = Literal(R.range(0, 9));
  return Ctx.make(T->tag(), std::move(Kids), std::move(Lits));
}

TEST(DigestKeyProperty, ScriptsIdenticalAcrossKeysColdAndWarm) {
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

TEST(KeyedNodeDigestTest, SeededPythonCorpusMatchesFieldByFieldReference) {
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

TEST(KeyedNodeDigestTest, PreimagesAroundTheBufferBoundMatchReference) {
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

TEST(KeyedNodeDigestTest, LongPreimagesSpillToTheHeap) {
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

//===----------------------------------------------------------------------===//
// Batched builders vs. per-node make()
//===----------------------------------------------------------------------===//

/// Rebuilds \p T in \p Ctx with one TreeContext::make per node, each
/// derived on its own with the scalar sipHash128: the reference the
/// batched builders must reproduce. Iterative, for deep chains.
Tree *rebuildPerNode(TreeContext &Ctx, const Tree *T) {
  struct Frame {
    const Tree *Src;
    size_t NextKid;
  };
  std::vector<Frame> Stack{{T, 0}};
  std::vector<Tree *> Done;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextKid < Top.Src->arity()) {
      Stack.push_back({Top.Src->kid(Top.NextKid++), 0});
      continue;
    }
    const Tree *Src = Top.Src;
    Stack.pop_back();
    size_t Arity = Src->arity();
    Tree *Node = Ctx.make(Src->tag(), Done.data() + Done.size() - Arity,
                          Arity, Src->lits());
    Done.resize(Done.size() - Arity);
    Done.push_back(Node);
  }
  return Done.front();
}

/// Runs every batched builder over \p T and checks each node's digests,
/// height and size against rebuildPerNode. Returns the nodes checked.
size_t expectBuildersMatchPerNodeMake(const SignatureTable &Sig,
                                      const Tree *T) {
  TreeContext RefCtx(Sig);
  const Tree *Ref = rebuildPerNode(RefCtx, T);
  auto Expect = [&](const Tree *Built, const char *Builder) {
    ASSERT_NE(Built, nullptr) << Builder;
    EXPECT_EQ(compareDerived(Built, Ref), std::nullopt) << Builder;
    EXPECT_FALSE(Built->derivedDirty()) << Builder;
  };
  {
    TreeContext Ctx(Sig);
    Expect(Ctx.deepCopy(T), "deepCopy fresh");
  }
  {
    TreeContext Ctx(Sig);
    Expect(Ctx.deepCopy(T, TreeContext::CopyUris::Preserve),
           "deepCopy preserve");
  }
  {
    TreeContext Ctx(Sig);
    ParseResult P = parseSExpr(Ctx, printSExpr(Sig, T));
    EXPECT_TRUE(P.ok()) << P.Error;
    Expect(P.Root, "parseSExpr");
  }
  std::string Blob = persist::encodeTree(Sig, T);
  for (bool Preserve : {true, false}) {
    TreeContext Ctx(Sig);
    persist::DecodeTreeResult D = persist::decodeTree(Sig, Ctx, Blob, Preserve);
    EXPECT_TRUE(D.ok()) << D.Error;
    Expect(D.Root, Preserve ? "decodeTree preserve" : "decodeTree fresh");
  }
  {
    // refreshDerived re-derives a whole tree in place.
    TreeContext Ctx(Sig);
    Tree *Copy = Ctx.deepCopy(T);
    TreeContext::corruptDerivedForTest(Copy);
    Copy->refreshDerived();
    Expect(Copy, "refreshDerived");
  }
  return Ref->size();
}

TEST(BatchedDeriveTest, SeededCorpusMatchesPerNodeMake) {
  SignatureTable Sig = python::makePythonSignature();
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 12;
  Opts.Seed = 24;
  size_t Checked = 0;
  for (const corpus::CommitPair &Pair : corpus::buildCommitCorpus(Opts)) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pair.Before);
    ASSERT_TRUE(Before.ok());
    Checked += expectBuildersMatchPerNodeMake(Sig, Before.Module);
  }
  EXPECT_GT(Checked, 10000u);
}

TEST(BatchedDeriveTest, DeepModuleChainMatchesPerNodeMake) {
  // A StmtCons spine fills one lane per level: every level is a lone job.
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  ParseResult P = parseSExpr(Ctx, tests::deepModuleText(20000, "Break"));
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(expectBuildersMatchPerNodeMake(Sig, P.Root), 40002u);
}

TEST(BatchedDeriveTest, LongLiteralsAndWideNodesMatchPerNodeMake) {
  // Preimages past the largest batch go to sipHash128: a 5,000-byte
  // literal, and a node of 20 kids beside batched narrow ones.
  SignatureTable Sig = makeExpSignature();
  std::vector<std::pair<std::string, std::string>> Slots;
  for (int I = 0; I != 20; ++I)
    Slots.push_back({std::string("k").append(std::to_string(I)), "Exp"});
  Sig.defineTag("Wide", "Exp", Slots, {});
  TreeContext Ctx(Sig);
  std::string Long(5000, 'x');
  for (size_t I = 0; I != Long.size(); ++I)
    Long[I] = static_cast<char>('a' + I % 26);
  std::vector<Tree *> Kids;
  for (int I = 0; I != 20; ++I)
    Kids.push_back(I % 3 == 0 ? call(Ctx, Long, var(Ctx, Long.substr(I)))
                              : add(Ctx, num(Ctx, I), var(Ctx, "v")));
  Tree *Wide = Ctx.make("Wide", Kids, {});
  EXPECT_EQ(expectBuildersMatchPerNodeMake(Sig, Wide), 1u + 7 * 2 + 13 * 3);
}

TEST(BatchedDeriveTest, SwappedKeyReachesTheBatchedPath) {
  // deriveAll reads the process key on every call: a key swapped in with
  // setProcessDigestKeyForTest changes batched digests exactly as it
  // changes per-node ones.
  SignatureTable Sig = python::makePythonSignature();
  corpus::CorpusOptions Opts;
  Opts.NumPairs = 2;
  Opts.Seed = 3;
  corpus::CommitPair Pair = corpus::buildCommitCorpus(Opts).front();
  TreeContext Ctx(Sig);
  auto Before = python::parsePython(Ctx, Pair.Before);
  ASSERT_TRUE(Before.ok());
  const DigestKey Process = processDigestKey();
  TreeContext Old(Sig);
  Tree *UnderOld = Old.deepCopy(Before.Module);
  setProcessDigestKeyForTest({Process.K0 ^ 0x9E3779B97F4A7C15ULL,
                              ~Process.K1});
  expectBuildersMatchPerNodeMake(Sig, Before.Module);
  TreeContext New(Sig);
  Tree *UnderNew = New.deepCopy(Before.Module);
  setProcessDigestKeyForTest(Process);
  EXPECT_NE(UnderNew->structureHash(), UnderOld->structureHash());
  EXPECT_NE(UnderNew->literalHash(), UnderOld->literalHash());
  TreeContext Back(Sig);
  EXPECT_EQ(compareDerived(Back.deepCopy(Before.Module), UnderOld),
            std::nullopt);
}

/// One function statement holding every arity-0 tag of the Python
/// signature (the literal-free StmtNil, ParamNil, Pass, Break, Continue,
/// NoneLit, ExprNil and EntryNil; Param, Import, ImportFrom, Name,
/// IntLit, FloatLit, StrLit and BoolLit with literals), 33 nodes, its
/// literals varied by \p I: strings of 0 to 23 bytes cover every tail
/// length of a SipHash word.
Tree *everyLeafFunction(TreeContext &Ctx, int I) {
  auto Make = [&](const char *Tag, std::vector<Tree *> Kids,
                  std::vector<Literal> Lits = {}) {
    return Ctx.make(Tag, Kids, std::move(Lits));
  };
  auto Str = [](std::string S) { return Literal(std::move(S)); };
  std::string Text(static_cast<size_t>(I % 24), static_cast<char>('a' + I % 26));
  Tree *Args = Make("ExprNil", {});
  for (Tree *Arg :
       {Make("DictExpr", {Make("EntryNil", {})}), Make("NoneLit", {}),
        Make("BoolLit", {}, {Literal(I % 2 == 0)}),
        Make("StrLit", {}, {Str(Text)}),
        Make("FloatLit", {}, {Literal(0.5 * I)}),
        Make("IntLit", {}, {Literal(int64_t(-I))})})
    Args = Make("ExprCons", {Arg, Args});
  Tree *Body = Make("StmtNil", {});
  for (Tree *Stmt :
       {Make("ExprStmt", {Make("Call", {Make("Name", {}, {Str("g")}), Args})}),
        Make("ImportFrom", {}, {Str("m" + Text), Str("n")}),
        Make("Import", {}, {Str("os")}), Make("Continue", {}),
        Make("Break", {}), Make("Pass", {})})
    Body = Make("StmtCons", {Stmt, Body});
  Tree *Params = Make("ParamCons", {Make("Param", {}, {Str("p" + Text)}),
                                    Make("ParamNil", {})});
  return Make("FuncDef", {Params, Body}, {Str("f" + std::to_string(I))});
}

/// A module of \p Units everyLeafFunction statements.
Tree *everyLeafModule(TreeContext &Ctx, int Units) {
  Tree *Body = Ctx.make("StmtNil", {}, {});
  for (int I = Units; I != 0; --I)
    Body = Ctx.make("StmtCons", {everyLeafFunction(Ctx, I), Body}, {});
  return Ctx.make("Module", {Body}, {});
}

TEST(BatchedDeriveTest, EveryLeafTagMatchesPerNodeMake) {
  // A DeriveBatch hashes each leaf tag's structure digest once per build
  // and gives every leaf without literals one literal digest; every
  // builder must still agree with per-node make() on each leaf tag, in
  // every chunk.
  SignatureTable Sig = python::makePythonSignature();
  std::set<TagId> LeafTags;
  for (TagId Tag = 1; Tag != 1000; ++Tag)
    if (const TagSignature *S = Sig.findSignature(Tag); S && S->Kids.empty())
      LeafTags.insert(Tag);
  TreeContext Ctx(Sig);
  Tree *Module = everyLeafModule(Ctx, 48);
  std::set<TagId> Seen;
  Module->foreachTree([&](Tree *T) {
    if (T->arity() == 0)
      Seen.insert(T->tag());
  });
  EXPECT_EQ(Seen, LeafTags);
  EXPECT_EQ(LeafTags.size(), 16u);
  // Three chunk boundaries at least, each with leaves of every tag on
  // both sides.
  EXPECT_GT(expectBuildersMatchPerNodeMake(Sig, Module),
            3 * DeriveBatch::Chunk);
}

TEST(BatchedDeriveTest, LeafMemoFollowsAKeySwap) {
  // The leaf memo lives in one build's DeriveBatch and is filled under
  // the key read when the build starts, so a build after a key swap
  // hashes every leaf under the new key.
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Src(Sig);
  Tree *Module = everyLeafModule(Src, 20);
  const DigestKey Process = processDigestKey();
  TreeContext Before(Sig);
  Tree *UnderOld = Before.deepCopy(Module);
  {
    TreeContext Ref(Sig);
    EXPECT_EQ(compareDerived(UnderOld, rebuildPerNode(Ref, Module)),
              std::nullopt);
  }
  setProcessDigestKeyForTest({~Process.K0, Process.K1 ^ 0x5851F42D4C957F2DULL});
  TreeContext After(Sig);
  Tree *UnderNew = After.deepCopy(UnderOld);
  TreeContext Ref(Sig);
  std::optional<std::string> Diff =
      compareDerived(UnderNew, rebuildPerNode(Ref, Module));
  size_t Checked = expectBuildersMatchPerNodeMake(Sig, UnderOld);
  setProcessDigestKeyForTest(Process);
  EXPECT_EQ(Diff, std::nullopt);
  EXPECT_EQ(Checked, Module->size());
  // Every leaf's digests changed with the key.
  std::vector<const Tree *> Old, New;
  UnderOld->foreachTree([&](Tree *T) { Old.push_back(T); });
  UnderNew->foreachTree([&](Tree *T) { New.push_back(T); });
  ASSERT_EQ(Old.size(), New.size());
  for (size_t I = 0; I != Old.size(); ++I) {
    if (Old[I]->arity() != 0)
      continue;
    EXPECT_NE(Old[I]->structureHash(), New[I]->structureHash()) << I;
    EXPECT_NE(Old[I]->literalHash(), New[I]->literalHash()) << I;
  }
}

} // namespace
