//===- tests/reader_test.cpp - Tree readers: identity and corruption -------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the readers that build trees from external input: the binary
/// tree codec in both URI modes, the s-expression reader and the Python
/// parser.
///
/// Identity: on seeded corpus trees every reader builds what
/// TreeContext::deepCopy builds from the source tree, with the same
/// digests, heights and sizes at every node and the same URIs.
///
/// Corruption: encodeTree blobs and printSExpr text are fed to the
/// readers with seeded byte flips and truncations, and with hand-made
/// structural corruptions (duplicate URIs, wrong kid or literal counts,
/// wrong literal kinds, kids of the wrong sort, symbols that are not
/// tags). Each input gives a well-formed tree or one of the reader's
/// documented errors, never a crash; a structural corruption gives
/// exactly its error.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "persist/BinaryCodec.h"
#include "persist/Varint.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "tree/SExpr.h"

#include "TestSeed.h"
#include "Validate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

using namespace truediff;

namespace {

/// The Python sources of \p Pairs seeded corpus pairs, before and after.
std::vector<std::string> corpusSources(unsigned Pairs, uint64_t Seed) {
  corpus::CorpusOptions Opts;
  Opts.NumPairs = Pairs;
  Opts.Seed = Seed;
  std::vector<std::string> Out;
  for (const corpus::CommitPair &P : corpus::buildCommitCorpus(Opts)) {
    Out.push_back(P.Before);
    Out.push_back(P.After);
  }
  return Out;
}

/// Expects \p Got to be \p Want node for node: the same digests, heights
/// and sizes everywhere, the same shape and literals, the same URIs.
void expectSameTree(const SignatureTable &Sig, const Tree *Got,
                    const Tree *Want) {
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(compareDerived(Got, Want), std::nullopt);
  EXPECT_TRUE(treeEqualsModuloUris(Got, Want));
  EXPECT_EQ(printSExprWithUris(Sig, Got), printSExprWithUris(Sig, Want));
}

//===----------------------------------------------------------------------===//
// Identity
//===----------------------------------------------------------------------===//

TEST(ReaderIdentityTest, EveryReaderBuildsWhatDeepCopyBuilds) {
  SignatureTable Sig = python::makePythonSignature();
  const uint64_t Seed = tests::testSeed(17001);
  SEED_TRACE(Seed);
  for (const std::string &Src : corpusSources(12, Seed)) {
    TreeContext SrcCtx(Sig);
    python::PyParseResult P = python::parsePython(SrcCtx, Src);
    ASSERT_TRUE(P.ok()) << P.Error;
    const Tree *T = P.Module;

    // Fresh URIs follow construction order: post-order, as every
    // streaming reader builds.
    TreeContext FreshCtx(Sig);
    const Tree *Fresh = FreshCtx.deepCopy(T);
    TreeContext KeptCtx(Sig);
    const Tree *Kept = KeptCtx.deepCopy(T, TreeContext::CopyUris::Preserve);

    std::string Blob = persist::encodeTree(Sig, T);
    {
      TreeContext Ctx(Sig);
      persist::DecodeTreeResult D =
          persist::decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
      ASSERT_TRUE(D.ok()) << D.Error;
      expectSameTree(Sig, D.Root, Fresh);
    }
    {
      TreeContext Ctx(Sig);
      persist::DecodeTreeResult D = persist::decodeTree(Sig, Ctx, Blob);
      ASSERT_TRUE(D.ok()) << D.Error;
      expectSameTree(Sig, D.Root, Kept);
    }
    {
      TreeContext Ctx(Sig);
      ParseResult S = parseSExpr(Ctx, printSExpr(Sig, T));
      ASSERT_TRUE(S.ok()) << S.Error;
      expectSameTree(Sig, S.Root, Fresh);
    }
    {
      // The Python parser builds a FuncDef's parameter list and a
      // ClassDef's base list after the body, so its URIs follow its own
      // order (pinned below); digests match deepCopy at every node.
      TreeContext Ctx(Sig);
      python::PyParseResult Q =
          python::parsePython(Ctx, python::unparsePython(Sig, T));
      ASSERT_TRUE(Q.ok()) << Q.Error;
      EXPECT_EQ(compareDerived(Q.Module, Fresh), std::nullopt);
      EXPECT_EQ(printSExprWithUris(Sig, Q.Module),
                printSExprWithUris(Sig, T));
    }
  }
}

TEST(ReaderIdentityTest, PythonParserKeepsItsUriOrder) {
  SignatureTable Sig = python::makePythonSignature();
  TreeContext Ctx(Sig);
  python::PyParseResult P = python::parsePython(Ctx, "import os\n"
                                                     "class A(B, C):\n"
                                                     "    def f(self, x):\n"
                                                     "        if x > 1:\n"
                                                     "            return [x]\n"
                                                     "        y = -x\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  // The URIs parsePython hands out, in its build order.
  EXPECT_EQ(
      printSExprWithUris(Sig, P.Module),
      "(Module_38 (StmtCons_37 (Import_1 \"os\") (StmtCons_36 "
      "(ClassDef_34 (ExprCons_33 (Name_2 \"B\") (ExprCons_32 (Name_3 "
      "\"C\") (ExprNil_31))) (StmtCons_30 (FuncDef_28 (ParamCons_27 "
      "(Param_4 \"self\") (ParamCons_26 (Param_5 \"x\") (ParamNil_25))) "
      "(StmtCons_24 (If_17 (Compare_8 (Name_6 \"x\") (IntLit_7 1) \">\") "
      "(StmtCons_15 (Return_13 (ListExpr_12 (ExprCons_11 (Name_9 \"x\") "
      "(ExprNil_10)))) (StmtNil_14)) (StmtNil_16)) (StmtCons_23 "
      "(Assign_21 (Name_18 \"y\") (UnaryOp_20 (Name_19 \"x\") \"-\")) "
      "(StmtNil_22))) \"f\") (StmtNil_29)) \"A\") (StmtNil_35))))");
}

//===----------------------------------------------------------------------===//
// Corruption
//===----------------------------------------------------------------------===//

/// Every message decodeTree gives for a malformed blob.
bool isCodecError(const std::string &M) {
  static const std::set<std::string> Fixed = {
      "truncated varint",
      "overlong varint",
      "truncated byte",
      "truncated byte string",
      "symbol table too large",
      "symbol name too long",
      "symbol index out of range",
      "invalid literal kind",
      "tree has too many nodes",
      "node symbol is not a constructor tag",
      "duplicate URI in tree",
      "kid count does not match tag signature",
      "literal count does not match tag signature",
      "literal kind does not match tag signature",
      "kid sort does not match slot sort",
      "trailing bytes after tree",
      "invalid tree blob",
  };
  return Fixed.count(M) != 0 || M.rfind("unknown symbol '", 0) == 0;
}

/// Every message parseSExpr gives for malformed text.
bool isSExprError(const std::string &M) {
  static const std::regex Known(
      "(expected '.'|expected symbol|expected literal|expected string "
      "literal|expected 'true' or 'false'|unterminated string literal|"
      "unknown tag '.*'|kid sort mismatch under '[A-Za-z]+'|trailing input "
      "after s-expression) at offset [0-9]+");
  return std::regex_match(M, Known);
}

/// One hand-made structural corruption of one node (by pre-order index).
enum class Damage {
  DuplicateUri, ///< the node carries the root's URI
  KidCount,     ///< one kid more than its signature has
  LitCount,     ///< one literal more than its signature has
  LitKind,      ///< its first literal has the wrong kind
  SlotSort,     ///< its tag becomes one of another sort, same arities
  NotATag,      ///< its tag becomes a link name
};

/// encodeTree's format written node by node, with \p What done to node
/// \p At: a local symbol table, then per node (pre-order) tag index, URI
/// and kid count, the kids, then the literal count and literals.
std::string damagedBlob(const SignatureTable &Sig, const Tree *T, Damage What,
                        size_t At, const std::string &SwapTag) {
  std::vector<std::string> Names;
  std::map<std::string, uint64_t> Index;
  auto Local = [&](const std::string &Name) {
    auto [It, Fresh] = Index.emplace(Name, Names.size());
    if (Fresh)
      Names.push_back(Name);
    return It->second;
  };
  std::string Body;
  auto Lit = [&](const Literal &L, bool WrongKind) {
    LitKind Kind = L.kind();
    if (WrongKind)
      Kind = Kind == LitKind::String ? LitKind::Int : LitKind::String;
    Body.push_back(static_cast<char>(Kind));
    switch (Kind) {
    case LitKind::Int:
      persist::putVarint(Body, persist::zigzag(WrongKind ? 7 : L.asInt()));
      break;
    case LitKind::Float: {
      double V = L.asFloat();
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof(Bits));
      for (int I = 0; I != 8; ++I)
        Body.push_back(static_cast<char>(Bits >> (8 * I)));
      break;
    }
    case LitKind::Bool:
      Body.push_back(L.asBool() ? 1 : 0);
      break;
    case LitKind::String: {
      std::string S = WrongKind ? "x" : L.asString();
      persist::putVarint(Body, S.size());
      Body += S;
      break;
    }
    }
  };
  struct Frame {
    const Tree *Node;
    size_t NextKid;
    bool Hit;
  };
  std::vector<Frame> Stack;
  size_t Pre = 0;
  auto Open = [&](const Tree *N) {
    bool Hit = Pre++ == At;
    std::string Tag = Sig.name(N->tag());
    if (Hit && What == Damage::SlotSort)
      Tag = SwapTag;
    if (Hit && What == Damage::NotATag)
      Tag = "body";
    persist::putVarint(Body, Local(Tag));
    bool Dup = Hit && What == Damage::DuplicateUri;
    persist::putVarint(Body, Dup ? T->uri() : N->uri());
    persist::putVarint(Body,
                       N->arity() + (Hit && What == Damage::KidCount ? 1 : 0));
    Stack.push_back({N, 0, Hit});
  };
  Open(T);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextKid < Top.Node->arity()) {
      Open(Top.Node->kid(Top.NextKid++));
      continue;
    }
    Frame F = Top;
    Stack.pop_back();
    bool ExtraLit = F.Hit && What == Damage::LitCount;
    persist::putVarint(Body, F.Node->numLits() + (ExtraLit ? 1 : 0));
    for (size_t I = 0, E = F.Node->numLits(); I != E; ++I)
      Lit(F.Node->lit(I), F.Hit && What == Damage::LitKind && I == 0);
    if (ExtraLit)
      Lit(Literal(std::string("extra")), false);
  }
  std::string Out;
  persist::putVarint(Out, Names.size());
  for (const std::string &Name : Names) {
    persist::putVarint(Out, Name.size());
    Out += Name;
  }
  return Out + Body;
}

/// Decodes \p Blob in both URI modes: each gives a well-formed tree with
/// the blob's shape, or a documented error. Returns the fresh-mode error.
std::string decodeEitherWay(const SignatureTable &Sig,
                            const std::string &Blob) {
  std::string Error;
  for (bool Preserve : {false, true}) {
    TreeContext Ctx(Sig);
    persist::DecodeTreeResult D = persist::decodeTree(Sig, Ctx, Blob, Preserve);
    if (D.ok()) {
      EXPECT_EQ(tests::validateTree(Ctx.signatures(), D.Root), std::nullopt);
      EXPECT_EQ(D.Fail, ParseFail::None);
    } else {
      EXPECT_TRUE(isCodecError(D.Error)) << D.Error;
      EXPECT_EQ(D.Fail, ParseFail::Syntax) << D.Error;
    }
    if (!Preserve)
      Error = D.Error;
  }
  return Error;
}

TEST(ReaderFuzzTest, StructuralBlobCorruptionsGiveTheirErrors) {
  SignatureTable Sig = python::makePythonSignature();
  const uint64_t Seed = tests::testSeed(17002);
  SEED_TRACE(Seed);
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
  for (const std::string &Src : corpusSources(4, Seed)) {
    TreeContext Ctx(Sig);
    python::PyParseResult P = python::parsePython(Ctx, Src);
    ASSERT_TRUE(P.ok()) << P.Error;
    const Tree *T = P.Module;
    // Pre-order indices of every node, of the nodes with literals, and
    // of the Names (an Expr that becomes a Param, same arities).
    std::vector<size_t> All, WithLits, Names;
    {
      size_t Pre = 0;
      std::vector<const Tree *> Stack{T};
      while (!Stack.empty()) {
        const Tree *N = Stack.back();
        Stack.pop_back();
        All.push_back(Pre);
        if (N->numLits() != 0)
          WithLits.push_back(Pre);
        if (Sig.name(N->tag()) == "Name")
          Names.push_back(Pre);
        ++Pre;
        for (size_t I = N->arity(); I != 0; --I)
          Stack.push_back(N->kid(I - 1));
      }
    }
    ASSERT_FALSE(WithLits.empty());
    ASSERT_FALSE(Names.empty());
    auto Pick = [&](const std::vector<size_t> &From) {
      return From[R.below(From.size())];
    };
    for (int Round = 0; Round != 8; ++Round) {
      EXPECT_EQ(decodeEitherWay(Sig, damagedBlob(Sig, T, Damage::DuplicateUri,
                                                 1 + R.below(All.size() - 1),
                                                 "")),
                "duplicate URI in tree");
      EXPECT_EQ(decodeEitherWay(
                    Sig, damagedBlob(Sig, T, Damage::KidCount, Pick(All), "")),
                "kid count does not match tag signature");
      EXPECT_EQ(decodeEitherWay(
                    Sig, damagedBlob(Sig, T, Damage::LitCount, Pick(All), "")),
                "literal count does not match tag signature");
      EXPECT_EQ(decodeEitherWay(Sig, damagedBlob(Sig, T, Damage::LitKind,
                                                 Pick(WithLits), "")),
                "literal kind does not match tag signature");
      EXPECT_EQ(decodeEitherWay(Sig, damagedBlob(Sig, T, Damage::SlotSort,
                                                 Pick(Names), "Param")),
                "kid sort does not match slot sort");
      EXPECT_EQ(decodeEitherWay(
                    Sig, damagedBlob(Sig, T, Damage::NotATag, Pick(All), "")),
                "node symbol is not a constructor tag");
    }
    // Undamaged, the hand-written encoder is encodeTree.
    EXPECT_TRUE(damagedBlob(Sig, T, Damage::KidCount, All.size(), "") ==
                persist::encodeTree(Sig, T));
  }
}

TEST(ReaderFuzzTest, SeededBlobFlipsAndTruncationsNeverCrash) {
  SignatureTable Sig = python::makePythonSignature();
  const uint64_t Seed = tests::testSeed(17003);
  const uint64_t Iters = tests::testIters("TRUEDIFF_CHAOS_ITERS", 60);
  SEED_TRACE(Seed);
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 5);
  std::vector<std::string> Blobs;
  for (const std::string &Src : corpusSources(2, Seed)) {
    TreeContext Ctx(Sig);
    python::PyParseResult P = python::parsePython(Ctx, Src);
    ASSERT_TRUE(P.ok()) << P.Error;
    Blobs.push_back(persist::encodeTree(Sig, P.Module));
  }
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    SCOPED_TRACE("iteration " + std::to_string(Iter));
    std::string Blob = Blobs[R.below(Blobs.size())];
    if (R.chance(30)) {
      Blob.resize(R.below(Blob.size()));
    } else {
      for (uint64_t Flips = 1 + R.below(3); Flips != 0; --Flips)
        Blob[R.below(Blob.size())] = static_cast<char>(R.below(256));
    }
    decodeEitherWay(Sig, Blob);
  }
}

/// Parses \p Text: a well-formed tree, or a documented error.
std::string parseOrError(const SignatureTable &Sig, const std::string &Text) {
  TreeContext Ctx(Sig);
  ParseResult P = parseSExpr(Ctx, Text);
  if (P.ok()) {
    EXPECT_EQ(tests::validateTree(Ctx.signatures(), P.Root), std::nullopt);
    return std::string();
  }
  EXPECT_TRUE(isSExprError(P.Error)) << P.Error;
  EXPECT_EQ(P.Fail, ParseFail::Syntax) << P.Error;
  return P.Error;
}

/// \p Text with the first \p From after a seeded position replaced by
/// \p To (or unchanged if there is none).
std::string replaceOne(Rng &R, std::string Text, const std::string &From,
                       const std::string &To) {
  size_t At = Text.find(From, R.below(Text.size()));
  if (At == std::string::npos)
    At = Text.find(From);
  if (At != std::string::npos)
    Text.replace(At, From.size(), To);
  return Text;
}

TEST(ReaderFuzzTest, SExprCorruptionsGiveTheirErrors) {
  SignatureTable Sig = python::makePythonSignature();
  const uint64_t Seed = tests::testSeed(17004);
  const uint64_t Iters = tests::testIters("TRUEDIFF_CHAOS_ITERS", 60);
  SEED_TRACE(Seed);
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<std::string> Texts;
  for (const std::string &Src : corpusSources(2, Seed)) {
    TreeContext Ctx(Sig);
    python::PyParseResult P = python::parsePython(Ctx, Src);
    ASSERT_TRUE(P.ok()) << P.Error;
    Texts.push_back(printSExpr(Sig, P.Module));
  }
  auto Matches = [](const std::string &M, const char *Pattern) {
    return std::regex_match(M, std::regex(Pattern));
  };
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    SCOPED_TRACE("iteration " + std::to_string(Iter));
    const std::string &Text = Texts[R.below(Texts.size())];
    // Structural damage, each with its own error.
    std::string M = parseOrError(Sig, replaceOne(R, Text, "(Name ", "(Nope "));
    EXPECT_TRUE(Matches(M, "unknown tag 'Nope' at offset [0-9]+")) << M;
    M = parseOrError(Sig, replaceOne(R, Text, "(Name ", "(Param "));
    EXPECT_TRUE(Matches(M, "kid sort mismatch under '[A-Za-z]+' at offset "
                           "[0-9]+"))
        << M;
    M = parseOrError(Sig, replaceOne(R, Text, "(Name \"", "(Name 7 \""));
    EXPECT_TRUE(Matches(M, "expected string literal at offset [0-9]+")) << M;
    M = parseOrError(Sig, replaceOne(R, Text, " (StmtNil)", ""));
    EXPECT_TRUE(Matches(M, "expected '\\(' at offset [0-9]+")) << M;
    M = parseOrError(Sig, replaceOne(R, Text, "(StmtNil)", "(StmtNil) (Pass)"));
    EXPECT_TRUE(Matches(M, "expected '\\)' at offset [0-9]+")) << M;

    // Seeded flips and truncations: a tree or a documented error.
    std::string Bad = Text;
    if (R.chance(30)) {
      Bad.resize(R.below(Bad.size()));
    } else {
      for (uint64_t Flips = 1 + R.below(3); Flips != 0; --Flips)
        Bad[R.below(Bad.size())] = static_cast<char>(32 + R.below(95));
    }
    parseOrError(Sig, Bad);
  }
}

} // namespace
