//===- tests/persist_test.cpp - Durable persistence tests ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistence subsystem: CRC32C and varint primitives,
/// the binary tree/script codec (round trips, hostile literals, total
/// decoding of corrupt input), the WAL writer/reader (group commit,
/// rotation, torn tails), snapshot files, recovery, compaction -- and
/// the crash-point property test: a WAL truncated at *every byte
/// offset* must recover to exactly the state after some committed
/// prefix of operations, never a half-applied one. The concurrency
/// tests run under TSan in CI.
///
//===----------------------------------------------------------------------===//

#include "persist/BinaryCodec.h"
#include "persist/Crc32c.h"
#include "persist/Persistence.h"
#include "persist/Snapshot.h"
#include "persist/Varint.h"
#include "persist/Wal.h"

#include "corpus/Mutator.h"
#include "corpus/PyGen.h"
#include "python/Python.h"
#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "service/Wire.h"
#include "support/Rng.h"
#include "tree/SExpr.h"
#include "truechange/InitScript.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include "DeepModule.h"
#include "TestLang.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::persist;
using namespace truediff::service;
using namespace truediff::testlang;

namespace {

/// A unique scratch directory, removed (recursively, one level deep --
/// the data dirs here hold only files) on destruction.
class TempDir {
public:
  TempDir() {
    std::string Tmpl = ::testing::TempDir() + "persistXXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    const char *P = ::mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Dir = P ? P : "";
  }
  ~TempDir() {
    for (const auto &[Index, Path] : listWalSegments(Dir))
      ::unlink(Path.c_str());
    for (const SnapshotFileName &F : listSnapshotFiles(Dir))
      ::unlink(F.Path.c_str());
    ::rmdir(Dir.c_str());
  }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Random s-expression over the test language, literals included.
std::string randomExpText(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.below(3) == 0) {
    switch (R.below(3)) {
    case 0:
      return "(Num " + std::to_string(R.below(100)) + ")";
    case 1:
      return "(Var \"" + std::string(1, static_cast<char>('a' + R.below(26))) +
             "\")";
    default:
      return R.below(2) != 0 ? "(a)" : "(b)";
    }
  }
  static const char *Ops[] = {"Add", "Sub", "Mul"};
  return std::string("(") + Ops[R.below(3)] + " " + randomExpText(R, Depth - 1) +
         " " + randomExpText(R, Depth - 1) + ")";
}

/// (version, uri-annotated text) of every live document among \p Ids.
std::map<DocId, std::pair<uint64_t, std::string>>
captureState(const DocumentStore &Store, const std::vector<DocId> &Ids) {
  std::map<DocId, std::pair<uint64_t, std::string>> Out;
  for (DocId Doc : Ids) {
    DocumentSnapshot S = Store.snapshot(Doc);
    if (S.Ok)
      Out[Doc] = {S.Version, S.UriText};
  }
  return Out;
}

void expectStoreMatches(
    DocumentStore &Store, const std::vector<DocId> &Ids,
    const std::map<DocId, std::pair<uint64_t, std::string>> &Expected) {
  for (DocId Doc : Ids) {
    auto It = Expected.find(Doc);
    if (It == Expected.end()) {
      EXPECT_FALSE(Store.contains(Doc)) << "doc " << Doc << " should be gone";
      continue;
    }
    DocumentSnapshot S = Store.snapshot(Doc);
    ASSERT_TRUE(S.Ok) << "doc " << Doc << " missing";
    EXPECT_EQ(S.Version, It->second.first) << "doc " << Doc;
    EXPECT_EQ(S.UriText, It->second.second) << "doc " << Doc;
    auto Stale = Store.checkDigests(Doc);
    EXPECT_FALSE(Stale.has_value()) << "doc " << Doc << ": " << *Stale;
  }
}

Persistence::Config plainConfig(const std::string &Dir) {
  Persistence::Config C;
  C.Dir = Dir;
  C.FsyncEvery = 1;
  C.SnapshotEvery = 0;       // snapshots only when a test asks
  C.BackgroundIntervalMs = 0; // no background thread unless a test asks
  return C;
}

//===----------------------------------------------------------------------===//
// CRC32C and varints
//===----------------------------------------------------------------------===//

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector.
  EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8a9136aau);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  std::string Data = "the quick brown fox jumps over the lazy dog";
  for (size_t Split = 0; Split <= Data.size(); ++Split) {
    uint32_t C = crc32c(0, Data.data(), Split);
    C = crc32c(C, Data.data() + Split, Data.size() - Split);
    EXPECT_EQ(C, crc32c(Data)) << "split " << Split;
  }
}

TEST(VarintTest, RoundTripsBoundaries) {
  std::vector<uint64_t> Values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t V : Values) {
    std::string Buf;
    putVarint(Buf, V);
    size_t Pos = 0;
    auto Back = getVarint(Buf, Pos);
    ASSERT_TRUE(Back.has_value()) << V;
    EXPECT_EQ(*Back, V);
    EXPECT_EQ(Pos, Buf.size());
    // Every strict prefix must fail, not mis-decode.
    for (size_t Cut = 0; Cut != Buf.size(); ++Cut) {
      size_t P = 0;
      EXPECT_FALSE(getVarint(std::string_view(Buf).substr(0, Cut), P));
    }
  }
}

TEST(VarintTest, ZigzagRoundTripsSignedExtremes) {
  for (int64_t V : {int64_t(0), int64_t(-1), int64_t(1),
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()})
    EXPECT_EQ(unzigzag(zigzag(V)), V);
}

//===----------------------------------------------------------------------===//
// Binary codec
//===----------------------------------------------------------------------===//

class CodecTest : public ::testing::Test {
protected:
  SignatureTable Sig = makeExpSignature();
};

TEST_F(CodecTest, ScriptRoundTripsThroughBinary) {
  TreeContext Ctx(Sig);
  Tree *Before = sub(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b"));
  Tree *After =
      sub(Ctx, add(Ctx, leaf(Ctx, "a"), leaf(Ctx, "b")), leaf(Ctx, "b"));
  TrueDiff Differ(Ctx);
  EditScript Script = Differ.compareTo(Before, After).Script;
  ASSERT_FALSE(Script.empty());

  std::string Blob = encodeEditScript(Sig, Script);
  DecodeScriptResult Back = decodeEditScript(Sig, Blob);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(serializeEditScript(Sig, Back.Script),
            serializeEditScript(Sig, Script));
}

TEST_F(CodecTest, TreeRoundTripsWithUris) {
  TreeContext Ctx(Sig);
  Tree *T = mul(Ctx, call(Ctx, "f", num(Ctx, 42)), var(Ctx, "x"));
  std::string Blob = encodeTree(Sig, T);

  TreeContext Fresh(Sig);
  DecodeTreeResult Back = decodeTree(Sig, Fresh, Blob);
  ASSERT_TRUE(Back.ok()) << Back.Error;
  EXPECT_EQ(printSExprWithUris(Sig, Back.Root), printSExprWithUris(Sig, T));
  // Re-encoding is byte-identical: the codec is canonical.
  EXPECT_EQ(encodeTree(Sig, Back.Root), Blob);
}

TEST_F(CodecTest, EveryStrictPrefixOfAScriptBlobFails) {
  TreeContext Ctx(Sig);
  Tree *T = add(Ctx, var(Ctx, "long_variable_name"), num(Ctx, 7));
  EditScript Script = buildInitializingScript(Sig, T);
  std::string Blob = encodeEditScript(Sig, Script);
  for (size_t Cut = 0; Cut != Blob.size(); ++Cut)
    EXPECT_FALSE(decodeEditScript(Sig, std::string_view(Blob).substr(0, Cut)).Ok)
        << "prefix of " << Cut << " bytes decoded";
}

TEST_F(CodecTest, DecoderIsTotalUnderRandomCorruption) {
  TreeContext Ctx(Sig);
  Tree *T = sub(Ctx, mul(Ctx, num(Ctx, 1), var(Ctx, "y")), leaf(Ctx, "c"));
  std::string ScriptBlob =
      encodeEditScript(Sig, buildInitializingScript(Sig, T));
  std::string TreeBlob = encodeTree(Sig, T);

  Rng R(7);
  for (int I = 0; I != 2000; ++I) {
    std::string S = ScriptBlob;
    S[R.below(S.size())] ^= static_cast<char>(1 + R.below(255));
    decodeEditScript(Sig, S); // must not crash; Ok either way

    std::string U = TreeBlob;
    U[R.below(U.size())] ^= static_cast<char>(1 + R.below(255));
    TreeContext Fresh(Sig);
    decodeTree(Sig, Fresh, U); // must not crash
  }
}

TEST(CodecPropertyTest, RandomPythonScriptsRoundTrip) {
  SignatureTable Sig = python::makePythonSignature();
  Rng R(1234);
  for (int Round = 0; Round != 20; ++Round) {
    TreeContext Ctx(Sig);
    corpus::PyGenOptions GenOpts;
    GenOpts.NumFunctions = 2;
    GenOpts.NumClasses = 1;
    Tree *Before = corpus::generateModule(Ctx, R, GenOpts);
    Tree *After = corpus::mutateModule(Ctx, R, Before);
    TrueDiff Differ(Ctx);
    EditScript Script = Differ.compareTo(Before, After).Script;

    std::string Blob = encodeEditScript(Sig, Script);
    DecodeScriptResult Back = decodeEditScript(Sig, Blob);
    ASSERT_TRUE(Back.Ok) << Back.Error;
    EXPECT_EQ(serializeEditScript(Sig, Back.Script),
              serializeEditScript(Sig, Script));
    EXPECT_EQ(encodeEditScript(Sig, Back.Script), Blob);

    std::string TreeBlob = encodeTree(Sig, After);
    TreeContext Fresh(Sig);
    DecodeTreeResult TreeBack = decodeTree(Sig, Fresh, TreeBlob);
    ASSERT_TRUE(TreeBack.ok()) << TreeBack.Error;
    EXPECT_EQ(printSExprWithUris(Sig, TreeBack.Root),
              printSExprWithUris(Sig, After));
  }
}

//===----------------------------------------------------------------------===//
// Hostile literals through the binary codec
//===----------------------------------------------------------------------===//

class HostileLiteralTest : public ::testing::Test {
protected:
  HostileLiteralTest() {
    Sig.defineTag("F", "E", {}, {{"x", LitKind::Float}});
    Sig.defineTag("I", "E", {}, {{"n", LitKind::Int}});
    Sig.defineTag("S", "E", {}, {{"s", LitKind::String}});
    Sig.defineTag("B", "E", {}, {{"b", LitKind::Bool}});
  }

  /// Round-trips the initializing script of a single node holding \p L
  /// through the binary format.
  void roundTrip(const char *Tag, Literal L) {
    TreeContext Ctx(Sig);
    Tree *T = Ctx.make(Tag, {}, {L});
    EditScript Script = buildInitializingScript(Sig, T);

    std::string Blob = encodeEditScript(Sig, Script);
    DecodeScriptResult Back = decodeEditScript(Sig, Blob);
    ASSERT_TRUE(Back.Ok) << Back.Error;
    // Binary must be exact to the bit, NaN payloads included.
    EXPECT_EQ(encodeEditScript(Sig, Back.Script), Blob);
  }

  SignatureTable Sig;
};

TEST_F(HostileLiteralTest, HostileStringsRoundTrip) {
  std::vector<std::string> Corpus = {
      "",
      "plain",
      "with space",
      "quote\"inside",
      "backslash\\inside",
      "trailing\\",
      "newline\nin the middle",
      "tab\there",
      "carriage\rreturn",
      std::string("embedded\0nul", 12),
      "\x01\x02\x1f control bytes",
      "\x7f delete",
      "utf-8: h\xc3\xa9llo \xe2\x86\x92 \xe4\xb8\x96\xe7\x95\x8c",
      "\\n not an escape",
      "looks like \" -> [\"e1\"->7]",
      std::string(1000, '"'),
  };
  for (const std::string &S : Corpus)
    roundTrip("S", Literal(S));
}

TEST_F(HostileLiteralTest, HostileFloatsRoundTrip) {
  std::vector<double> Corpus = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      3.141592653589793,
      1e308,
      -1e308,
      5e-324, // smallest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (double D : Corpus)
    roundTrip("F", Literal(D));
}

TEST_F(HostileLiteralTest, IntBoolExtremesRoundTrip) {
  roundTrip("I", Literal(std::numeric_limits<int64_t>::min()));
  roundTrip("I", Literal(std::numeric_limits<int64_t>::max()));
  roundTrip("I", Literal(int64_t(0)));
  roundTrip("I", Literal(int64_t(-1)));
  roundTrip("B", Literal(true));
  roundTrip("B", Literal(false));
}

TEST_F(HostileLiteralTest, NonFiniteFloatSpellingsParse) {
  // The serializer used to render inf as "inf.0" (unparseable) and
  // "-inf" fell into the integer path, silently parsing as int 0.
  EXPECT_EQ(Literal(std::numeric_limits<double>::infinity()).toString(),
            "inf");
  EXPECT_EQ(Literal(-std::numeric_limits<double>::infinity()).toString(),
            "-inf");
  EXPECT_EQ(Literal(std::numeric_limits<double>::quiet_NaN()).toString(),
            "nan");
}

//===----------------------------------------------------------------------===//
// WAL writer and reader
//===----------------------------------------------------------------------===//

TEST(WalTest, AppendFlushReadBack) {
  TempDir Dir;
  std::vector<WalRecord> Written;
  {
    WalWriter W(Dir.path(), {4, 4u << 20});
    for (uint64_t I = 0; I != 10; ++I) {
      WalRecord Rec;
      Rec.Kind = static_cast<WalKind>(I % 4);
      Rec.Doc = I % 3;
      Rec.Seq = I + 1;
      Rec.Version = I;
      Rec.Script = std::string(I, static_cast<char>('a' + I));
      Written.push_back(Rec);
      W.append(Rec);
    }
    W.flush();
    EXPECT_EQ(W.stats().Records, 10u);
    EXPECT_GE(W.stats().Fsyncs, 2u); // 10 records / batch of 4, plus flush
  }
  auto Segs = listWalSegments(Dir.path());
  ASSERT_EQ(Segs.size(), 1u);
  WalSegment Seg = readWalSegment(Segs[0].first, Segs[0].second);
  EXPECT_TRUE(Seg.HeaderOk);
  EXPECT_EQ(Seg.TornBytes, 0u);
  ASSERT_EQ(Seg.Records.size(), Written.size());
  for (size_t I = 0; I != Written.size(); ++I) {
    EXPECT_EQ(Seg.Records[I].Kind, Written[I].Kind);
    EXPECT_EQ(Seg.Records[I].Doc, Written[I].Doc);
    EXPECT_EQ(Seg.Records[I].Seq, Written[I].Seq);
    EXPECT_EQ(Seg.Records[I].Version, Written[I].Version);
    EXPECT_EQ(Seg.Records[I].Script, Written[I].Script);
  }
}

TEST(WalTest, GroupCommitAcknowledgesDurabilityOnTheBatchBoundary) {
  TempDir Dir;
  WalWriter W(Dir.path(), {3, 4u << 20});
  WalRecord Rec;
  Rec.Script = "x";
  int Durable = 0;
  for (int I = 0; I != 9; ++I)
    Durable += W.append(Rec) ? 1 : 0;
  EXPECT_EQ(Durable, 3); // every third append fsyncs
}

TEST(WalTest, RotationNeverSplitsARecord) {
  TempDir Dir;
  std::vector<size_t> Sizes;
  {
    WalWriter W(Dir.path(), {1, 256}); // tiny segments
    WalRecord Rec;
    Rec.Script = std::string(100, 'p');
    for (int I = 0; I != 10; ++I) {
      Rec.Seq = static_cast<uint64_t>(I + 1);
      W.append(Rec);
    }
    EXPECT_GE(W.stats().Rotations, 1u);
  }
  auto Segs = listWalSegments(Dir.path());
  EXPECT_GT(Segs.size(), 1u);
  uint64_t Total = 0, LastSeq = 0;
  for (const auto &[Index, Path] : Segs) {
    WalSegment Seg = readWalSegment(Index, Path);
    EXPECT_TRUE(Seg.HeaderOk);
    EXPECT_EQ(Seg.TornBytes, 0u);
    for (const WalRecord &Rec : Seg.Records) {
      EXPECT_EQ(Rec.Seq, LastSeq + 1) << "segment order broke seq order";
      LastSeq = Rec.Seq;
      ++Total;
    }
  }
  EXPECT_EQ(Total, 10u);
}

TEST(WalTest, NewWriterNeverAppendsToAnExistingSegment) {
  TempDir Dir;
  {
    WalWriter W(Dir.path(), {1, 4u << 20});
    WalRecord Rec;
    Rec.Seq = 1;
    W.append(Rec);
  }
  {
    WalWriter W(Dir.path(), {1, 4u << 20});
    WalRecord Rec;
    Rec.Seq = 2;
    W.append(Rec);
  }
  auto Segs = listWalSegments(Dir.path());
  ASSERT_EQ(Segs.size(), 2u);
  EXPECT_LT(Segs[0].first, Segs[1].first);
}

TEST(WalTest, ListingIgnoresForeignFiles) {
  TempDir Dir;
  { WalWriter W(Dir.path(), {1, 4u << 20}); }
  writeFile(Dir.path() + "/wal-2.logg", "junk");
  writeFile(Dir.path() + "/wal-x.log", "junk");
  writeFile(Dir.path() + "/wal-.log", "junk");
  writeFile(Dir.path() + "/notes.txt", "junk");
  EXPECT_EQ(listWalSegments(Dir.path()).size(), 1u);
  ::unlink((Dir.path() + "/wal-2.logg").c_str());
  ::unlink((Dir.path() + "/wal-x.log").c_str());
  ::unlink((Dir.path() + "/wal-.log").c_str());
  ::unlink((Dir.path() + "/notes.txt").c_str());
}

TEST(WalTest, TornTailYieldsExactlyTheCompleteRecords) {
  TempDir Dir;
  {
    WalWriter W(Dir.path(), {1, 4u << 20});
    for (uint64_t I = 1; I <= 5; ++I) {
      WalRecord Rec;
      Rec.Seq = I;
      Rec.Script = std::string(20 + I, 'q');
      W.append(Rec);
    }
  }
  auto Segs = listWalSegments(Dir.path());
  ASSERT_EQ(Segs.size(), 1u);
  std::string Full = readFile(Segs[0].second);
  WalSegment Intact = readWalSegment(1, Segs[0].second);
  ASSERT_EQ(Intact.Records.size(), 5u);

  size_t PrevCount = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    std::string Truncated = Full.substr(0, Cut);
    std::string Path = Dir.path() + "/torn.bin";
    writeFile(Path, Truncated);
    WalSegment Seg = readWalSegment(1, Path);
    // Record count grows monotonically with the cut and every surfaced
    // record is complete and equal to what was written.
    EXPECT_GE(Seg.Records.size(), PrevCount);
    PrevCount = Seg.Records.size();
    for (size_t I = 0; I != Seg.Records.size(); ++I) {
      EXPECT_EQ(Seg.Records[I].Seq, Intact.Records[I].Seq);
      EXPECT_EQ(Seg.Records[I].Script, Intact.Records[I].Script);
    }
    if (Cut == Full.size()) {
      EXPECT_EQ(Seg.Records.size(), 5u);
    }
    ::unlink(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Snapshot files
//===----------------------------------------------------------------------===//

TEST(SnapshotTest, WriteReadRoundTrip) {
  TempDir Dir;
  SnapshotData Snap;
  Snap.Doc = 7;
  Snap.Seq = 42;
  Snap.Version = 3;
  Snap.TreeBlob = "tree bytes \x01\x02";
  Snap.History.emplace_back(2, "script two");
  Snap.History.emplace_back(3, std::string("script\0three", 12));
  Snap.NextUri = 300;

  std::string Path = writeSnapshotFile(Dir.path(), Snap);
  ReadSnapshotResult Back = readSnapshotFile(Path);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(Back.Snap.Doc, 7u);
  EXPECT_EQ(Back.Snap.Seq, 42u);
  EXPECT_EQ(Back.Snap.Version, 3u);
  EXPECT_EQ(Back.Snap.NextUri, 300u);
  EXPECT_FALSE(Back.Snap.Tombstone);
  EXPECT_EQ(Back.Snap.TreeBlob, Snap.TreeBlob);
  ASSERT_EQ(Back.Snap.History.size(), 2u);
  EXPECT_EQ(Back.Snap.History[1].second, Snap.History[1].second);

  auto Files = listSnapshotFiles(Dir.path());
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(Files[0].Doc, 7u);
  EXPECT_EQ(Files[0].Seq, 42u);
}

TEST(SnapshotTest, FilesWithoutANextUriReadAsNotRecorded) {
  // A snapshot written before the next URI was recorded ends after the
  // blame extension: strip the trailing one-byte varint, re-seal the
  // header, and the file must still read, with NextUri 0.
  TempDir Dir;
  SnapshotData Snap;
  Snap.Doc = 4;
  Snap.Seq = 8;
  Snap.TreeBlob = "tree";
  Snap.NextUri = 5;
  std::string Path = writeSnapshotFile(Dir.path(), Snap);
  std::string Full = readFile(Path);
  const size_t Header = 8 + 4 + 4;
  std::string Payload = Full.substr(Header, Full.size() - Header - 1);
  std::string Old = Full.substr(0, 8);
  for (uint32_t V : {static_cast<uint32_t>(Payload.size()), crc32c(Payload)})
    for (int I = 0; I != 4; ++I)
      Old.push_back(static_cast<char>(V >> (8 * I)));
  writeFile(Path, Old + Payload);
  ReadSnapshotResult Back = readSnapshotFile(Path);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(Back.Snap.TreeBlob, "tree");
  EXPECT_EQ(Back.Snap.NextUri, 0u);
}

TEST(SnapshotTest, TombstoneRoundTrip) {
  TempDir Dir;
  SnapshotData Snap;
  Snap.Doc = 9;
  Snap.Seq = 5;
  Snap.Tombstone = true;
  std::string Path = writeSnapshotFile(Dir.path(), Snap);
  ReadSnapshotResult Back = readSnapshotFile(Path);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_TRUE(Back.Snap.Tombstone);
  EXPECT_TRUE(Back.Snap.TreeBlob.empty());
}

TEST(SnapshotTest, EveryByteFlipIsDetected) {
  TempDir Dir;
  SnapshotData Snap;
  Snap.Doc = 1;
  Snap.Seq = 2;
  Snap.TreeBlob = "payload";
  Snap.History.emplace_back(1, "s");
  std::string Path = writeSnapshotFile(Dir.path(), Snap);
  std::string Full = readFile(Path);
  std::string Corrupt = Dir.path() + "/snap-corrupt.bin";
  for (size_t I = 0; I != Full.size(); ++I) {
    std::string Bytes = Full;
    Bytes[I] ^= 0x40;
    writeFile(Corrupt, Bytes);
    ReadSnapshotResult R = readSnapshotFile(Corrupt);
    EXPECT_FALSE(R.Ok) << "flip at byte " << I << " went unnoticed";
  }
  ::unlink(Corrupt.c_str());
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

class RecoveryTest : public ::testing::Test {
protected:
  SignatureTable Sig = makeExpSignature();
};

TEST_F(RecoveryTest, RecoversDocumentsVersionsAndHistory) {
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  std::string PreRollbackUriText;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(Sub (a) (b))")).Ok);
    PreRollbackUriText = Store.snapshot(1).UriText;
    ASSERT_TRUE(
        Store.submit(1, makeSExprBuilder("(Sub (Add (a) (b)) (b))")).Ok);
    ASSERT_TRUE(Store.open(2, makeSExprBuilder("(Num 5)")).Ok);
    ASSERT_TRUE(Store.submit(2, makeSExprBuilder("(Num 6)")).Ok);
    ASSERT_TRUE(Store.rollback(2).Ok); // back to (Num 5)
    Expected = captureState(Store, {1, 2});
    P.flush();
  }

  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.DocsRecovered, 2u);
  EXPECT_EQ(R.RecordsReplayed, 5u);
  EXPECT_EQ(R.InvalidRecords, 0u);
  EXPECT_EQ(R.DocsDropped, 0u);
  expectStoreMatches(Fresh, {1, 2}, Expected);

  // The history ring survived: doc 1's submit can still be undone, and
  // the rollback lands URI-exactly on the pre-submit state.
  StoreResult RB = Fresh.rollback(1);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(Fresh.snapshot(1).UriText, PreRollbackUriText);
}

/// URIs the Load edits of \p Script give nodes.
std::vector<URI> loadedUris(const EditScript &Script) {
  std::vector<URI> Out;
  for (const Edit &E : Script.edits())
    if (E.Kind == EditKind::Load)
      Out.push_back(E.Node.Uri);
  return Out;
}

TEST_F(RecoveryTest, RecoveredDocumentNeverReissuesARolledBackUri) {
  // A rolled-back submit leaves its loads' URIs above the live tree.
  // Recovery rebuilds the document in a fresh arena, from a snapshot or
  // from the log alone; either way the next submit must load URIs above
  // every URI the document ever issued.
  for (bool Snapshot : {true, false}) {
    SCOPED_TRACE(Snapshot ? "snapshot" : "log only");
    TempDir Dir;
    URI MaxIssued = 0;
    auto Note = [&](const StoreResult &R) {
      for (URI U : loadedUris(R.Script))
        MaxIssued = std::max(MaxIssued, U);
    };
    {
      DocumentStore Store(Sig);
      Persistence P(Sig, plainConfig(Dir.path()));
      P.attach(Store);
      StoreResult Open = Store.open(1, makeSExprBuilder("(Num 1)"));
      ASSERT_TRUE(Open.Ok) << Open.Error;
      Note(Open);
      StoreResult Sub = Store.submit(
          1, makeSExprBuilder("(Add (Mul (a) (b)) (Sub (c) (d)))"));
      ASSERT_TRUE(Sub.Ok) << Sub.Error;
      Note(Sub);
      ASSERT_TRUE(Store.rollback(1).Ok);
      if (Snapshot) {
        ASSERT_TRUE(P.snapshotDocument(1));
      }
      P.flush();
    }
    DocumentStore Fresh(Sig);
    RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
    ASSERT_EQ(R.DocsRecovered, 1u);
    StoreResult Next =
        Fresh.submit(1, makeSExprBuilder("(Mul (Var \"x\") (Var \"y\"))"));
    ASSERT_TRUE(Next.Ok) << Next.Error;
    std::vector<URI> Loaded = loadedUris(Next.Script);
    ASSERT_FALSE(Loaded.empty());
    for (URI U : Loaded)
      EXPECT_GT(U, MaxIssued) << "reissued URI " << U;
  }
}

TEST(DeepDocumentRecoveryTest, SnapshotCompactRecoverKeepsADeepModule) {
  // 9,000 statements nest 9,003 levels deep. The snapshot must decode
  // after compaction has dropped the log records it covers, or the
  // document is lost; the logged suffix then replays onto it in place.
  SignatureTable Sig = python::makePythonSignature();
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder(tests::deepModuleText(9000)))
                    .Ok);
    ASSERT_TRUE(
        Store.submit(1, makeSExprBuilder(tests::deepModuleText(9000, "Break")))
            .Ok);
    ASSERT_TRUE(P.snapshotDocument(1));
    P.compact();
    ASSERT_TRUE(
        Store.submit(1, makeSExprBuilder(tests::deepModuleText(9000, "Continue")))
            .Ok);
    ASSERT_TRUE(Store.rollback(1).Ok);
    Expected = captureState(Store, {1});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.SnapshotsCorrupt, 0u);
  EXPECT_EQ(R.SnapshotsLoaded, 1u);
  EXPECT_EQ(R.RecordsReplayed, 2u); // the submit and rollback after it
  EXPECT_EQ(R.DocsRecovered, 1u);
  expectStoreMatches(Fresh, {1}, Expected);
  EXPECT_EQ(Fresh.checkDigests(1), std::nullopt);
  EXPECT_TRUE(Fresh.rollback(1).Ok); // the ring came through the snapshot
}

TEST_F(RecoveryTest, SnapshotCutsReplayAndPreservesState) {
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    Rng R(3);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
    for (int I = 0; I != 6; ++I)
      ASSERT_TRUE(Store.submit(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
    ASSERT_TRUE(P.snapshotDocument(1));
    for (int I = 0; I != 3; ++I)
      ASSERT_TRUE(Store.submit(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
    Expected = captureState(Store, {1});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.SnapshotsLoaded, 1u);
  EXPECT_EQ(R.RecordsReplayed, 3u); // only the post-snapshot suffix
  EXPECT_EQ(R.RecordsSkipped, 7u);  // open + 6 submits covered
  expectStoreMatches(Fresh, {1}, Expected);
  // Rollback depth survives through the snapshot's history ring.
  EXPECT_TRUE(Fresh.rollback(1).Ok);
}

TEST_F(RecoveryTest, EraseIsDurableAndReopenSurvives) {
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);
    ASSERT_TRUE(Store.open(2, makeSExprBuilder("(b)")).Ok);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(Add (a) (b))")).Ok);
    ASSERT_TRUE(Store.erase(1));
    // Reopening the same id after erase starts a new life for it.
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(Mul (c) (d))")).Ok);
    Expected = captureState(Store, {1, 2});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.DocsRecovered, 2u);
  expectStoreMatches(Fresh, {1, 2}, Expected);
  EXPECT_EQ(Fresh.snapshot(1).Text, "(Mul (c) (d))");
}

TEST_F(RecoveryTest, ErasedDocumentStaysGone) {
  TempDir Dir;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(b)")).Ok);
    ASSERT_TRUE(Store.erase(1));
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.DocsRecovered, 0u);
  EXPECT_FALSE(Fresh.contains(1));
}

TEST_F(RecoveryTest, OrphanRecordsAreSkippedNotFatal) {
  TempDir Dir;
  {
    // Hand-craft the race: a submit record for a document that was never
    // opened (its open/erase happened under a different life that was
    // compacted away, or the erase notification overtook the submit's).
    WalWriter W(Dir.path(), {1, 4u << 20});
    WalRecord Rec;
    Rec.Kind = WalKind::Submit;
    Rec.Doc = 99;
    Rec.Seq = 1;
    Rec.Version = 4;
    Rec.Script = "not even a valid blob";
    W.append(Rec);
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.OrphanRecords, 1u);
  EXPECT_EQ(R.DocsRecovered, 0u);
  EXPECT_EQ(R.DocsDropped, 0u);
}

TEST_F(RecoveryTest, CompactionDropsCoveredSegmentsAndKeepsStateRecoverable) {
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  size_t SegmentsAfterCompaction = 0;
  {
    DocumentStore Store(Sig);
    Persistence::Config PC = plainConfig(Dir.path());
    PC.SegmentBytes = 160; // rotate roughly every record
    Persistence P(Sig, PC);
    P.attach(Store);
    Rng R(11);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 2))).Ok);
    ASSERT_TRUE(Store.open(2, makeSExprBuilder(randomExpText(R, 2))).Ok);
    for (int I = 0; I != 8; ++I)
      ASSERT_TRUE(Store
                      .submit(1 + static_cast<DocId>(I % 2),
                              makeSExprBuilder(randomExpText(R, 2)))
                      .Ok);
    size_t SegmentsBefore = listWalSegments(Dir.path()).size();
    ASSERT_GT(SegmentsBefore, 2u);

    ASSERT_TRUE(P.snapshotDocument(1));
    ASSERT_TRUE(P.snapshotDocument(2));
    P.compact();
    SegmentsAfterCompaction = listWalSegments(Dir.path()).size();
    EXPECT_LT(SegmentsAfterCompaction, SegmentsBefore);
    EXPECT_GT(P.stats().SegmentsDeleted, 0u);

    // Keep writing after compaction; recovery sees snapshot + suffix.
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder(randomExpText(R, 2))).Ok);
    Expected = captureState(Store, {1, 2});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.SnapshotsLoaded, 2u);
  expectStoreMatches(Fresh, {1, 2}, Expected);
}

TEST_F(RecoveryTest, TombstoneLetsCompactionDropEraseRecords) {
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  {
    DocumentStore Store(Sig);
    Persistence::Config PC = plainConfig(Dir.path());
    PC.SegmentBytes = 160;
    Persistence P(Sig, PC);
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);
    ASSERT_TRUE(Store.open(2, makeSExprBuilder("(b)")).Ok);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(Add (a) (b))")).Ok);
    ASSERT_TRUE(Store.erase(1)); // tombstone written here
    ASSERT_TRUE(P.snapshotDocument(2));
    P.compact();
    // Every doc-1 record is covered by the tombstone, every doc-2 record
    // by its snapshot: all closed segments must be gone.
    for (const auto &[Index, Path] : listWalSegments(Dir.path()))
      EXPECT_EQ(Index, P.stats().CurrentSegment) << "closed segment survived";
    Expected = captureState(Store, {1, 2});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  Persistence::recover(Sig, Dir.path(), Fresh);
  expectStoreMatches(Fresh, {1, 2}, Expected);
}

TEST_F(RecoveryTest, SequenceCounterResumesPastRecoveredHistory) {
  TempDir Dir;
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    ASSERT_TRUE(Store.open(1, makeSExprBuilder("(a)")).Ok);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(b)")).Ok);
    P.flush();
  }
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  {
    // Second life: recover, keep writing, snapshot, compact.
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    RecoveryResult R = P.recoverAndAttach(Store);
    ASSERT_EQ(R.DocsRecovered, 1u);
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder("(Add (a) (b))")).Ok);
    ASSERT_TRUE(P.snapshotDocument(1));
    P.compact();
    Expected = captureState(Store, {1});
    P.flush();
  }
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  // The third life must see the second life's writes win over the
  // first's: sequence numbers kept increasing across the restart.
  expectStoreMatches(Fresh, {1}, Expected);
  EXPECT_EQ(R.DocsRecovered, 1u);
}

//===----------------------------------------------------------------------===//
// The crash-point property: truncate the WAL at every byte offset;
// recovery must land exactly on a committed prefix -- never between
// records, never on a half-applied script -- and the recovered store
// must pass checkDigests.
//===----------------------------------------------------------------------===//

TEST_F(RecoveryTest, EveryTruncationOffsetRecoversACommittedPrefix) {
  TempDir Dir;
  // Expected[k] is the full store state after the first k committed
  // operations (each committed operation appends exactly one record).
  std::vector<std::map<DocId, std::pair<uint64_t, std::string>>> Expected;
  uint64_t Seed = tests::testSeed(2026);
  SEED_TRACE(Seed);
  {
    DocumentStore Store(Sig);
    Persistence P(Sig, plainConfig(Dir.path()));
    P.attach(Store);
    Rng R(Seed);
    Expected.push_back(captureState(Store, {1, 2})); // state after 0 records

    ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
    Expected.push_back(captureState(Store, {1, 2}));
    ASSERT_TRUE(Store.open(2, makeSExprBuilder(randomExpText(R, 3))).Ok);
    Expected.push_back(captureState(Store, {1, 2}));

    // Random mutation chain across both documents, rollbacks included.
    for (int I = 0; I != 10; ++I) {
      DocId Doc = 1 + static_cast<DocId>(R.below(2));
      StoreResult Res = R.below(5) == 0
                            ? Store.rollback(Doc)
                            : Store.submit(
                                  Doc, makeSExprBuilder(randomExpText(R, 3)));
      if (!Res.Ok)
        continue; // failed ops (rollback past v0) emit no record
      Expected.push_back(captureState(Store, {1, 2}));
    }
    P.flush();
  }

  auto Segs = listWalSegments(Dir.path());
  ASSERT_EQ(Segs.size(), 1u);
  std::string Full = readFile(Segs[0].second);
  ASSERT_GT(Full.size(), 8u);

  TempDir Scratch;
  std::string WalCopy = Scratch.path() + "/wal-00000001.log";
  size_t PrevReplayed = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFile(WalCopy, Full.substr(0, Cut));
    DocumentStore Fresh(Sig);
    RecoveryResult R = Persistence::recover(Sig, Scratch.path(), Fresh);

    // A torn tail is data loss, never corruption-into-state: no invalid
    // records, no dropped documents, and the replayed count identifies
    // the committed prefix we must have landed on.
    ASSERT_EQ(R.InvalidRecords, 0u) << "cut at " << Cut;
    ASSERT_EQ(R.DocsDropped, 0u) << "cut at " << Cut;
    ASSERT_LT(R.RecordsReplayed, Expected.size()) << "cut at " << Cut;
    ASSERT_GE(R.RecordsReplayed, PrevReplayed)
        << "replay went backwards at cut " << Cut;
    PrevReplayed = R.RecordsReplayed;

    const auto &Exp = Expected[R.RecordsReplayed];
    for (DocId Doc : {DocId(1), DocId(2)}) {
      auto It = Exp.find(Doc);
      if (It == Exp.end()) {
        ASSERT_FALSE(Fresh.contains(Doc)) << "cut at " << Cut;
        continue;
      }
      DocumentSnapshot S = Fresh.snapshot(Doc);
      ASSERT_TRUE(S.Ok) << "cut at " << Cut << ", doc " << Doc;
      ASSERT_EQ(S.Version, It->second.first) << "cut at " << Cut;
      ASSERT_EQ(S.UriText, It->second.second) << "cut at " << Cut;
      auto Stale = Fresh.checkDigests(Doc);
      ASSERT_FALSE(Stale.has_value())
          << "cut at " << Cut << ", doc " << Doc << ": " << *Stale;
    }
  }
  EXPECT_EQ(PrevReplayed, Expected.size() - 1)
      << "the intact log must replay every committed operation";
}

//===----------------------------------------------------------------------===//
// Concurrency (runs under TSan in CI): writers on many documents,
// background snapshots + compaction, explicit saves, erase/reopen
//===----------------------------------------------------------------------===//

TEST(PersistConcurrencyTest, WritersSnapshotsAndCompactionRace) {
  SignatureTable Sig = makeExpSignature();
  TempDir Dir;
  std::map<DocId, std::pair<uint64_t, std::string>> Expected;
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 30;
  constexpr DocId NumDocs = 6;
  {
    DocumentStore Store(Sig);
    Persistence::Config PC;
    PC.Dir = Dir.path();
    PC.FsyncEvery = 4;
    PC.SegmentBytes = 1u << 12;
    PC.SnapshotEvery = 5;
    PC.BackgroundIntervalMs = 2; // hammer the background path
    Persistence P(Sig, PC);
    P.attach(Store);
    for (DocId Doc = 0; Doc != NumDocs; ++Doc)
      ASSERT_TRUE(Store.open(Doc, makeSExprBuilder("(Num 0)")).Ok);

    uint64_t Seed = tests::testSeed(1);
    SEED_TRACE(Seed);
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        Rng R(static_cast<uint64_t>(T) * 7919 + Seed);
        for (int I = 0; I != OpsPerThread; ++I) {
          DocId Doc = static_cast<DocId>(R.below(NumDocs));
          switch (R.below(8)) {
          case 0:
            Store.rollback(Doc); // may fail at v0; that's fine
            break;
          case 1:
            P.snapshotDocument(Doc); // racing SAVE
            break;
          case 2:
            if (T == 0) { // one thread owns erase/reopen of doc 0
              Store.erase(0);
              Store.open(0, makeSExprBuilder("(Var \"reborn\")"));
              break;
            }
            [[fallthrough]];
          default:
            Store.submit(Doc, makeSExprBuilder(randomExpText(R, 2)));
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
    std::vector<DocId> All;
    for (DocId Doc = 0; Doc != NumDocs; ++Doc)
      All.push_back(Doc);
    Expected = captureState(Store, All);
    P.flush();
  } // Persistence destructor: background thread joined, WAL synced

  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.InvalidRecords, 0u);
  EXPECT_EQ(R.DocsDropped, 0u);
  std::vector<DocId> All;
  for (DocId Doc = 0; Doc != NumDocs; ++Doc)
    All.push_back(Doc);
  expectStoreMatches(Fresh, All, Expected);
}

//===----------------------------------------------------------------------===//
// Service integration: drain hook, stats augmentation, wire verbs
//===----------------------------------------------------------------------===//

TEST(PersistServiceTest, DrainHookFlushesAndStatsCarryPersistSection) {
  SignatureTable Sig = makeExpSignature();
  TempDir Dir;
  DocumentStore Store(Sig);
  Persistence::Config PC = plainConfig(Dir.path());
  PC.FsyncEvery = 1024; // nothing syncs unless the drain hook runs
  Persistence P(Sig, PC);
  P.attach(Store);

  ServiceConfig SC;
  SC.Workers = 2;
  DiffService Service(Store, SC);
  Service.setDrainHook([&P] { P.flush(); });
  Service.setStatsAugmenter([&P] { return "\"persist\":" + P.statsJson(); });

  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);
  ASSERT_TRUE(Service.submit(1, makeSExprBuilder("(Add (a) (b))")).Ok);

  std::string Json = Service.statsJson();
  EXPECT_NE(Json.find("\"persist\""), std::string::npos);
  EXPECT_NE(Json.find("\"wal\""), std::string::npos);

  uint64_t FsyncsBefore = P.stats().Wal.Fsyncs;
  Service.shutdown(); // runs the drain hook
  EXPECT_GT(P.stats().Wal.Fsyncs, FsyncsBefore);

  // Everything acknowledged before shutdown is recoverable.
  DocumentStore Fresh(Sig);
  RecoveryResult R = Persistence::recover(Sig, Dir.path(), Fresh);
  EXPECT_EQ(R.DocsRecovered, 1u);
  EXPECT_EQ(Fresh.snapshot(1).Text, "(Add (a) (b))");
}

TEST(PersistWireTest, SaveAndRecoverVerbsParse) {
  WireCommand Save = parseWireCommand("save 7");
  EXPECT_EQ(Save.K, WireCommand::Kind::Save);
  EXPECT_EQ(Save.Doc, 7u);
  EXPECT_EQ(parseWireCommand("save").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("save 7 extra").K, WireCommand::Kind::Invalid);
  EXPECT_EQ(parseWireCommand("recover").K, WireCommand::Kind::Recover);
  EXPECT_EQ(parseWireCommand("recover 1").K, WireCommand::Kind::Invalid);
}

} // namespace
