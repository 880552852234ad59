//===- tests/integrity_test.cpp - End-to-end integrity tests ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the integrity subsystem (integrity/Scrubber.h) and the
/// document quarantine:
///
///  - Quarantine blast radius: a quarantined document rejects writes
///    with ErrCode::Quarantined and reads with an explicit warning,
///    while every other document keeps serving byte-identically.
///  - No false positives: seeded clean runs -- live workload, snapshot
///    rotation, interleaved scrub cycles -- never report a mismatch and
///    never quarantine.
///  - Detection and repair within one cycle: an injected in-memory
///    digest corruption is quarantined and repaired from durable state
///    (byte-identical, URI rendering + summaryDigest); an injected WAL or
///    snapshot corruption on disk is detected and healed from the
///    healthy in-memory state; FaultyIoEnv's silent read-path bit flips
///    are caught by the CRC walk and heal once the faults cease.
///  - Anti-entropy: a follower whose applied tree silently diverged (no
///    gap, no version skew -- only the content digest disagrees) is
///    detected by the scrubber's shard summaries and resynced back to
///    byte-identical convergence.
///  - Arena hand-over: a replace-root fallback submit, whose request
///    arena becomes the document's, stays URI-exact and digest-clean
///    through later submits, a rollback across it, a compaction, WAL
///    recovery and a follower.
///
//===----------------------------------------------------------------------===//

#include "integrity/Scrubber.h"

#include "corpus/JsonGen.h"
#include "json/Json.h"
#include "net/EventLoop.h"
#include "persist/BinaryCodec.h"
#include "persist/IoEnv.h"
#include "persist/Persistence.h"
#include "persist/Snapshot.h"
#include "persist/Wal.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/DocumentStore.h"
#include "service/Wire.h"
#include "support/Rng.h"

#include "TestLang.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::integrity;
using namespace truediff::persist;
using namespace truediff::service;
using namespace truediff::testlang;

namespace {

/// A unique scratch directory, removed (files first) on destruction.
class TempDir {
public:
  TempDir() {
    std::string Tmpl = ::testing::TempDir() + "integrityXXXXXX";
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

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Flips one bit near the middle of the file -- past the header, inside
/// record/payload bytes, so the CRC walk must catch it.
void flipBitInFile(const std::string &Path) {
  std::string Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 16u) << Path;
  Bytes[Bytes.size() / 2] ^= 0x01;
  writeFileBytes(Path, Bytes);
}

/// Random s-expression over the test language.
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
  return std::string("(") + Ops[R.below(3)] + " " +
         randomExpText(R, Depth - 1) + " " + randomExpText(R, Depth - 1) + ")";
}

Persistence::Config plainConfig(const std::string &Dir) {
  Persistence::Config C;
  C.Dir = Dir;
  C.FsyncEvery = 1;
  C.SnapshotEvery = 0;        // snapshots only when a test asks
  C.BackgroundIntervalMs = 0; // no background thread
  return C;
}

/// (version, URI rendering) of every live document among \p Ids.
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

bool waitUntil(const std::function<bool()> &Pred, int TimeoutMs = 30000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

} // namespace

//===----------------------------------------------------------------------===//
// Quarantine semantics and blast radius
//===----------------------------------------------------------------------===//

TEST(QuarantineTest, BlastRadiusIsExactlyOneDocument) {
  uint64_t Seed = tests::testSeed(0x1a7e6001);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  const unsigned NumDocs = 12;
  std::vector<DocId> Ids;
  for (DocId Doc = 1; Doc <= NumDocs; ++Doc) {
    Ids.push_back(Doc);
    ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
    for (int I = 0; I != 3; ++I)
      ASSERT_TRUE(Store.submit(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
  }

  // Quarantine one random victim.
  DocId Victim = 1 + R.below(NumDocs);
  auto Before = captureState(Store, Ids);
  ASSERT_TRUE(Store.quarantine(Victim, "injected for test"));
  EXPECT_EQ(Store.stats().Quarantined, 1u);

  // The victim: every write class rejected with the typed code, before
  // any state could move.
  StoreResult SubmitR = Store.submit(Victim, makeSExprBuilder("(a)"));
  ASSERT_FALSE(SubmitR.Ok);
  EXPECT_EQ(SubmitR.Code, ErrCode::Quarantined) << SubmitR.Error;
  StoreResult RollR = Store.rollback(Victim);
  ASSERT_FALSE(RollR.Ok);
  EXPECT_EQ(RollR.Code, ErrCode::Quarantined) << RollR.Error;

  // Reads still answer -- with the warning attached, never silently.
  DocumentSnapshot Snap = Store.snapshot(Victim);
  ASSERT_TRUE(Snap.Ok);
  EXPECT_TRUE(Snap.Quarantined);
  EXPECT_EQ(Snap.QuarantineReason, "injected for test");
  EXPECT_EQ(Snap.UriText, Before[Victim].second);

  // Every other document keeps serving: reads are byte-identical, and
  // writes land exactly as on a healthy store.
  for (DocId Doc : Ids) {
    if (Doc == Victim)
      continue;
    DocumentSnapshot S = Store.snapshot(Doc);
    ASSERT_TRUE(S.Ok) << "doc " << Doc;
    EXPECT_FALSE(S.Quarantined) << "doc " << Doc;
    EXPECT_EQ(S.UriText, Before[Doc].second) << "doc " << Doc;
    EXPECT_TRUE(Store.submit(Doc, makeSExprBuilder(randomExpText(R, 2))).Ok)
        << "doc " << Doc;
  }

  // Lifting the quarantine restores write service at the frozen version.
  ASSERT_TRUE(Store.clearQuarantine(Victim));
  EXPECT_EQ(Store.stats().Quarantined, 0u);
  StoreResult After = Store.submit(Victim, makeSExprBuilder("(b)"));
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.Version, Before[Victim].first + 1);
}

TEST(QuarantineTest, WireMarksQuarantinedReadsAndParsesScrub) {
  // The scrub verb parses bare (and rejects trailing operands).
  EXPECT_EQ(parseWireCommand("scrub").K, WireCommand::Kind::Scrub);
  EXPECT_EQ(parseWireCommand("scrub 7").K, WireCommand::Kind::Invalid);

  // A read served under quarantine carries the explicit marker on its
  // ok line -- the client cannot mistake it for a clean answer.
  Response R;
  R.Ok = true;
  R.Version = 4;
  R.Payload = "(a)";
  R.IntegrityWarning = "digest scrub failed: stale structure hash at uri 9";
  std::string Wire = formatWireResponse(R, WireCommand::Kind::Get);
  EXPECT_NE(Wire.find(" quarantined=1\n"), std::string::npos) << Wire;

  Response Clean;
  Clean.Ok = true;
  Clean.Version = 4;
  Clean.Payload = "(a)";
  EXPECT_EQ(formatWireResponse(Clean, WireCommand::Kind::Get)
                .find("quarantined"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// False positives: clean runs must stay clean
//===----------------------------------------------------------------------===//

TEST(ScrubberTest, CleanSeededRunsProduceZeroFindings) {
  uint64_t Base = tests::testSeed(0xc1ea6001);
  SEED_TRACE(Base);
  uint64_t Runs = tests::testIters("TRUEDIFF_SCRUB_CLEAN_RUNS", 3);

  for (uint64_t Run = 0; Run != Runs; ++Run) {
    Rng R(Base + Run * 0x9E3779B97F4A7C15ULL);
    SignatureTable Sig = makeExpSignature();
    DocumentStore Store(Sig);
    TempDir Dir;
    Persistence::Config PC = plainConfig(Dir.path());
    PC.SegmentBytes = 2048; // rotate often: many closed segments to scrub
    Persistence P(Sig, PC);
    P.attach(Store);

    Scrubber::Config SC;
    Scrubber Scrub(Store, SC, &P);

    // Live workload interleaved with scrub cycles and snapshots: the
    // scrubber must never flag the moving system.
    for (int Step = 0; Step != 60; ++Step) {
      DocId Doc = 1 + R.below(6);
      if (!Store.contains(Doc)) {
        ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
      } else if (R.below(10) == 0) {
        Store.rollback(Doc); // may fail cleanly at version 0
      } else {
        ASSERT_TRUE(
            Store.submit(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
      }
      if (R.below(8) == 0)
        P.snapshotDocument(Doc);
      if (Step % 20 == 19)
        Scrub.scrubCycle();
    }
    Scrubber::CycleReport Last = Scrub.scrubCycle();
    EXPECT_EQ(Last.DigestMismatches, 0u) << "run " << Run;
    EXPECT_EQ(Last.NewlyQuarantined, 0u) << "run " << Run;

    Scrubber::Stats S = Scrub.stats();
    EXPECT_EQ(S.DigestMismatches, 0u) << "run " << Run;
    EXPECT_EQ(S.WalCrcErrors, 0u) << "run " << Run;
    EXPECT_EQ(S.SnapshotErrors, 0u) << "run " << Run;
    EXPECT_EQ(S.Quarantined, 0u) << "run " << Run;
    EXPECT_EQ(S.RepairsFailed, 0u) << "run " << Run;
    EXPECT_GT(S.ScrubbedDocs, 0u) << "run " << Run;
    EXPECT_EQ(Store.stats().Quarantined, 0u) << "run " << Run;
  }
}

//===----------------------------------------------------------------------===//
// In-memory corruption: detect, quarantine, repair -- one cycle
//===----------------------------------------------------------------------===//

TEST(ScrubberTest, MemoryCorruptionDetectedQuarantinedAndRepairedInOneCycle) {
  uint64_t Seed = tests::testSeed(0x1a7e6002);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  TempDir Dir;
  Persistence P(Sig, plainConfig(Dir.path()));
  P.attach(Store);

  for (DocId Doc = 1; Doc <= 3; ++Doc) {
    ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
    for (int I = 0; I != 4; ++I)
      ASSERT_TRUE(Store.submit(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
  }
  DocumentSnapshot Golden = Store.snapshot(2);
  ASSERT_TRUE(Golden.Ok);
  Digest GoldenSummary = replica::summaryDigest(Golden.UriText);

  // Silent in-memory rot: one flipped bit in the root's cached digest.
  ASSERT_TRUE(Store.corruptDigestForTest(2));
  ASSERT_TRUE(Store.checkDigests(2).has_value());

  Scrubber::Config SC;
  Scrubber Scrub(Store, SC, &P);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();

  // Detected, quarantined, and repaired within the same cycle.
  EXPECT_EQ(Rep.DigestMismatches, 1u);
  EXPECT_EQ(Rep.NewlyQuarantined, 1u);
  EXPECT_EQ(Rep.Repaired, 1u);
  EXPECT_FALSE(Store.quarantineInfo(2).has_value());
  EXPECT_EQ(Store.checkDigests(2), std::nullopt);

  // Repair is byte-identical: same version, same URI rendering, same
  // summary digest -- the exact state durable truth held.
  DocumentSnapshot After = Store.snapshot(2);
  ASSERT_TRUE(After.Ok);
  EXPECT_FALSE(After.Quarantined);
  EXPECT_EQ(After.Version, Golden.Version);
  EXPECT_EQ(After.UriText, Golden.UriText);
  EXPECT_EQ(replica::summaryDigest(After.UriText), GoldenSummary);

  // The repaired document serves writes again; the bystanders never
  // stopped.
  EXPECT_TRUE(Store.submit(2, makeSExprBuilder("(a)")).Ok);
  EXPECT_TRUE(Store.submit(1, makeSExprBuilder("(b)")).Ok);
  EXPECT_TRUE(Store.submit(3, makeSExprBuilder("(c)")).Ok);

  // A second cycle over the healed store is clean.
  Scrubber::CycleReport Again = Scrub.scrubCycle();
  EXPECT_EQ(Again.DigestMismatches, 0u);
  EXPECT_EQ(Again.NewlyQuarantined, 0u);
}

TEST(ScrubberTest, StaleLeafDigestsAreReportedWithTheLeafsUri) {
  // checkDigests compares the stored tree with a deepCopy, which derives
  // a leaf's digests from its tag and literals under the process key. A
  // copy that took a leaf's digest from the stored node would carry the
  // flipped byte along and report nothing.
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  const std::pair<const char *, const char *> Leaves[] = {
      {"a", "(a)"}, {"b", "(b)"}, {"Num", "(Num 7)"}, {"Var", "(Var \"x\")"}};
  DocId Doc = 1;
  for (const auto &[Tag, Leaf] : Leaves) {
    std::string Text = std::string("(Add (Mul (c) ") + Leaf + ") (Sub " +
                       Leaf + " (d)))";
    ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(Text)).Ok) << Text;
    ASSERT_EQ(Store.checkDigests(Doc), std::nullopt) << Text;
    URI Flipped = NullURI;
    ASSERT_TRUE(Store.mutateForTest(Doc, [&](Tree *Root, uint64_t &) {
      Root->foreachTree([&](Tree *T) {
        if (Flipped == NullURI && Sig.name(T->tag()) == Tag) {
          TreeContext::corruptDerivedForTest(T);
          Flipped = T->uri();
        }
      });
    }));
    ASSERT_NE(Flipped, NullURI) << Text;
    EXPECT_EQ(Store.checkDigests(Doc),
              "stale structure hash at uri " + std::to_string(Flipped))
        << Text;
    ++Doc;
  }
}

TEST(ScrubberTest, RepairInstallsDurableStateWhenTheBudgetIsExhausted) {
  // Repair installs state that was accepted once. The memory budget
  // counts it but may not refuse it, or the document would stay
  // quarantined for as long as the process is short of memory.
  uint64_t Seed = tests::testSeed(0x1a7e6005);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(size_t(64) << 20);
  DocumentStore::Config SC;
  SC.MemBudget = &Budget;
  DocumentStore Store(Sig, SC);
  TempDir Dir;
  Persistence P(Sig, plainConfig(Dir.path()));
  P.attach(Store);
  for (DocId Doc = 1; Doc <= 2; ++Doc) {
    ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
    for (int I = 0; I != 4; ++I)
      ASSERT_TRUE(Store.submit(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
  }
  DocumentSnapshot Golden = Store.snapshot(2);
  ASSERT_TRUE(Golden.Ok);

  ASSERT_TRUE(Store.corruptDigestForTest(2));
  Budget.charge(Budget.limit());
  ASSERT_TRUE(Budget.over());

  Scrubber::Config ScC;
  Scrubber Scrub(Store, ScC, &P);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_EQ(Rep.NewlyQuarantined, 1u);
  EXPECT_EQ(Rep.Repaired, 1u);
  EXPECT_FALSE(Store.quarantineInfo(2).has_value());
  EXPECT_EQ(Store.checkDigests(2), std::nullopt);
  DocumentSnapshot After = Store.snapshot(2);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Version, Golden.Version);
  EXPECT_EQ(After.UriText, Golden.UriText);

  // Client trees are still refused while the budget stays exhausted.
  StoreResult Sub = Store.submit(1, makeSExprBuilder("(a)"));
  EXPECT_FALSE(Sub.Ok);
  EXPECT_EQ(Sub.Code, ErrCode::MemoryBudget) << Sub.Error;
  // The repaired tree was charged: dropping the document releases it.
  size_t Used = Budget.used();
  ASSERT_TRUE(Store.erase(2));
  EXPECT_LT(Budget.used(), Used);
}

TEST(ScrubberTest, UnrepairableCorruptionStaysQuarantinedOthersKeepServing) {
  uint64_t Seed = tests::testSeed(0x1a7e6003);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore::Config StoreCfg;
  StoreCfg.NumShards = 1;
  DocumentStore Store(Sig, StoreCfg);
  for (DocId Doc = 1; Doc <= 3; ++Doc)
    ASSERT_TRUE(Store.open(Doc, makeSExprBuilder(randomExpText(R, 3))).Ok);
  ASSERT_TRUE(Store.corruptDigestForTest(1));

  // No Persistence: there is no durable truth to repair from, so the
  // quarantine must hold instead of guessing.
  Scrubber::Config SC;
  Scrubber Scrub(Store, SC, nullptr);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_EQ(Rep.DigestMismatches, 1u);
  EXPECT_EQ(Rep.NewlyQuarantined, 1u);
  EXPECT_EQ(Rep.Repaired, 0u);
  EXPECT_EQ(Scrub.stats().RepairsFailed, 1u);

  // Writes rejected with the typed code; reads carry the scrubber's
  // reason; the other documents serve untouched.
  StoreResult W = Store.submit(1, makeSExprBuilder("(a)"));
  ASSERT_FALSE(W.Ok);
  EXPECT_EQ(W.Code, ErrCode::Quarantined);
  DocumentSnapshot S = Store.snapshot(1);
  ASSERT_TRUE(S.Ok);
  EXPECT_TRUE(S.Quarantined);
  EXPECT_NE(S.QuarantineReason.find("digest scrub failed"), std::string::npos);
  EXPECT_TRUE(Store.submit(2, makeSExprBuilder("(b)")).Ok);
  EXPECT_TRUE(Store.submit(3, makeSExprBuilder("(c)")).Ok);

  // The quarantined doc is excluded from anti-entropy summaries: its
  // digest is known-rotten, broadcasting it would trigger resyncs
  // against corrupt truth.
  std::vector<replica::ShardSummaryMsg> Sent;
  Scrubber::Config BC;
  BC.Broadcast = [&](const replica::ShardSummaryMsg &M) { Sent.push_back(M); };
  BC.CurrentSeq = [] { return uint64_t(0); };
  Scrubber Scrub2(Store, BC, nullptr);
  Scrub2.scrubCycle();
  ASSERT_EQ(Sent.size(), 1u);
  for (const replica::ShardSummaryMsg::Entry &E : Sent[0].Entries)
    EXPECT_NE(E.Doc, 1u);
  EXPECT_EQ(Sent[0].Entries.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Disk corruption: detect and heal from the healthy in-memory state
//===----------------------------------------------------------------------===//

TEST(ScrubberTest, ClosedWalCorruptionDetectedAndHealedFromMemory) {
  uint64_t Seed = tests::testSeed(0x1a7e6004);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  TempDir Dir;
  Persistence::Config PC = plainConfig(Dir.path());
  PC.SegmentBytes = 1024; // rotate quickly: closed segments to corrupt
  Persistence P(Sig, PC);
  P.attach(Store);

  ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
  ASSERT_TRUE(Store.open(2, makeSExprBuilder(randomExpText(R, 3))).Ok);
  while (P.stats().CurrentSegment < 2) {
    ASSERT_TRUE(
        Store.submit(1 + R.below(2), makeSExprBuilder(randomExpText(R, 3)))
            .Ok);
  }

  // Flip one bit in the middle of the oldest closed segment.
  auto Segments = listWalSegments(Dir.path());
  ASSERT_GE(Segments.size(), 2u);
  flipBitInFile(Segments.front().second);
  if (::testing::Test::HasFatalFailure())
    return;

  Scrubber::Config SC;
  Scrubber Scrub(Store, SC, &P);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_EQ(Rep.WalCrcErrors, 1u);
  EXPECT_GE(Rep.Repaired, 1u) << "fresh snapshots + compaction must kill "
                                 "the dead segment in the same cycle";
  EXPECT_EQ(Rep.DigestMismatches, 0u); // memory was never sick
  EXPECT_EQ(Store.stats().Quarantined, 0u);

  // The corrupt segment is gone (superseded by snapshots, compacted).
  for (const auto &[Index, Path] : listWalSegments(Dir.path()))
    EXPECT_NE(Path, Segments.front().second);

  // Durable truth survived the damage: recovery of the directory equals
  // the live state byte for byte.
  auto Live = captureState(Store, {1, 2});
  DocumentStore Fresh(Sig);
  Persistence::recover(Sig, Dir.path(), Fresh);
  for (DocId Doc : {DocId(1), DocId(2)}) {
    DocumentSnapshot FS = Fresh.snapshot(Doc);
    ASSERT_TRUE(FS.Ok) << "doc " << Doc;
    EXPECT_EQ(FS.Version, Live[Doc].first) << "doc " << Doc;
    EXPECT_EQ(FS.UriText, Live[Doc].second) << "doc " << Doc;
  }

  // Steady state: the next cycle has nothing left to flag.
  Scrubber::CycleReport Again = Scrub.scrubCycle();
  EXPECT_EQ(Again.WalCrcErrors, 0u);
  EXPECT_EQ(Again.SnapshotErrors, 0u);
}

TEST(ScrubberTest, CorruptSnapshotIsRewrittenInPlace) {
  uint64_t Seed = tests::testSeed(0x1a7e6005);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  TempDir Dir;
  Persistence P(Sig, plainConfig(Dir.path()));
  P.attach(Store);

  ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
  ASSERT_TRUE(P.snapshotDocument(1));

  auto Snaps = listSnapshotFiles(Dir.path());
  ASSERT_EQ(Snaps.size(), 1u);
  flipBitInFile(Snaps[0].Path);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_FALSE(readSnapshotFile(Snaps[0].Path).Ok);

  Scrubber::Config SC;
  Scrubber Scrub(Store, SC, &P);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_EQ(Rep.SnapshotErrors, 1u);
  EXPECT_GE(Rep.Repaired, 1u);

  // The repair pass re-snapshotted the document at the same sequence
  // number, renaming a valid file over the corrupt one: same path, now
  // decodable, and recovery trusts it again.
  ReadSnapshotResult Healed = readSnapshotFile(Snaps[0].Path);
  EXPECT_TRUE(Healed.Ok) << Healed.Error;

  DocumentStore Fresh(Sig);
  Persistence::recover(Sig, Dir.path(), Fresh);
  DocumentSnapshot Live = Store.snapshot(1);
  DocumentSnapshot FS = Fresh.snapshot(1);
  ASSERT_TRUE(FS.Ok);
  EXPECT_EQ(FS.Version, Live.Version);
  EXPECT_EQ(FS.UriText, Live.UriText);

  Scrubber::CycleReport Again = Scrub.scrubCycle();
  EXPECT_EQ(Again.SnapshotErrors, 0u);
}

TEST(ScrubberTest, SilentReadFlipsAreDetectedAndHealWhenFaultsCease) {
  uint64_t Seed = tests::testSeed(0x1a7e6006);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  TempDir Dir;
  Persistence::Config PC = plainConfig(Dir.path());
  PC.SegmentBytes = 1024;
  Persistence P(Sig, PC);
  P.attach(Store);

  ASSERT_TRUE(Store.open(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
  while (P.stats().CurrentSegment < 1)
    ASSERT_TRUE(Store.submit(1, makeSExprBuilder(randomExpText(R, 3))).Ok);
  ASSERT_TRUE(P.snapshotDocument(1));

  // The scrubber reads through a decaying medium: every readFile comes
  // back with one silently flipped bit. No syscall fails -- only the
  // CRC walk can see it.
  FaultyIoEnv::FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.ReadFlipPermille = 1000;
  FaultyIoEnv Faulty(Plan);

  Scrubber::Config SC;
  SC.Env = &Faulty;
  Scrubber Scrub(Store, SC, &P);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_GE(Rep.WalCrcErrors + Rep.SnapshotErrors, 1u)
      << "a flipped read must be detected within the cycle that saw it";
  EXPECT_GT(Faulty.counters().ReadsCorrupted, 0u);
  // Disk-pass faults never quarantine documents: memory is healthy.
  EXPECT_EQ(Rep.DigestMismatches, 0u);
  EXPECT_EQ(Store.stats().Quarantined, 0u);

  // Faults cease; the damage ledger drains -- every remembered path
  // either re-reads clean or was superseded and deleted.
  Faulty.heal();
  Scrub.scrubCycle();
  Scrubber::CycleReport Clean = Scrub.scrubCycle();
  EXPECT_EQ(Clean.WalCrcErrors, 0u);
  EXPECT_EQ(Clean.SnapshotErrors, 0u);
  EXPECT_EQ(Clean.DigestMismatches, 0u);
}

//===----------------------------------------------------------------------===//
// Anti-entropy: silent follower divergence
//===----------------------------------------------------------------------===//

namespace {

/// A TreeBuilder that decodes a binary tree blob with fresh URIs.
TreeBuilder blobBuilder(const SignatureTable &Sig, std::string Blob) {
  return [&Sig, Blob = std::move(Blob)](TreeContext &Ctx) -> BuildResult {
    DecodeTreeResult D = decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
    if (!D.ok())
      return {nullptr, D.Error, ErrCode::MalformedFrame};
    return {D.Root, "", ErrCode::None};
  };
}

/// A leader node: store + replication log + leader endpoint on its own
/// event loop, listening on an ephemeral loopback port.
struct LeaderNode {
  const SignatureTable &Sig;
  DocumentStore Store;
  replica::ReplicationLog Log;
  net::EventLoop Loop;
  std::unique_ptr<replica::Leader> Lead;
  bool Started = false;

  explicit LeaderNode(const SignatureTable &Sig,
                      DocumentStore::Config StoreCfg = {})
      : Sig(Sig), Store(Sig, StoreCfg),
        Log(Store, replica::ReplicationLog::Config{}) {
    replica::Leader::Config C;
    C.Epoch = 1;
    Lead = std::make_unique<replica::Leader>(Loop, Log, C);
    Log.attach();
    std::string Err;
    Started = Lead->start(&Err);
    EXPECT_TRUE(Started) << Err;
    Loop.start();
  }

  ~LeaderNode() { Loop.stop(); }
};

struct FollowerNode {
  net::EventLoop Loop;
  std::unique_ptr<replica::Follower> F;

  explicit FollowerNode(const SignatureTable &Sig) {
    Loop.start();
    F = std::make_unique<replica::Follower>(Loop, Sig, replica::Follower::Config{});
  }
  ~FollowerNode() {
    F->disconnect();
    Loop.stop();
  }
};

/// Every live leader document reads byte-identically on the follower.
::testing::AssertionResult converged(LeaderNode &L, replica::Follower &F,
                                     uint64_t NumDocs) {
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    DocumentSnapshot S = L.Store.snapshot(Doc);
    if (!S.Ok)
      continue;
    replica::Follower::ReadResult RR = F.read(Doc);
    if (!RR.Ok)
      return ::testing::AssertionFailure() << "doc " << Doc << ": " << RR.Error;
    if (RR.Version != S.Version || RR.UriText != S.UriText ||
        RR.Summary != replica::summaryDigest(S.UriText))
      return ::testing::AssertionFailure() << "doc " << Doc << " diverged";
  }
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(AntiEntropyTest, SilentFollowerDivergenceIsDetectedAndResynced) {
  uint64_t Seed = tests::testSeed(0x1a7e6007);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  DocumentStore::Config StoreCfg;
  StoreCfg.NumShards = 2;
  LeaderNode L(Sig, StoreCfg);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  std::string Err;
  ASSERT_TRUE(F.F->connectTo("127.0.0.1", L.Lead->port(), &Err)) << Err;

  // A small JSON workload over a handful of documents.
  const uint64_t NumDocs = 4;
  TreeContext Ctx(Sig);
  std::unordered_map<uint64_t, Tree *> Model;
  corpus::JsonGenOptions Opts;
  Opts.MaxDepth = 3;
  Opts.MaxFanout = 4;
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    Tree *T = corpus::generateJson(Ctx, R, Opts);
    ASSERT_NE(T, nullptr);
    ASSERT_TRUE(
        L.Store.open(Doc, blobBuilder(Sig, encodeTree(Sig, T))).Ok);
    Model[Doc] = T;
  }
  for (int I = 0; I != 40; ++I) {
    uint64_t Doc = 1 + R.below(NumDocs);
    Tree *Next = corpus::mutateJson(Ctx, R, Model[Doc]);
    ASSERT_NE(Next, nullptr);
    ASSERT_TRUE(
        L.Store.submit(Doc, blobBuilder(Sig, encodeTree(Sig, Next))).Ok);
    Model[Doc] = Next;
  }
  ASSERT_TRUE(waitUntil(
      [&] { return F.F->caughtUp() && F.F->lastSeq() == L.Log.currentSeq(); }));
  ASSERT_TRUE(converged(L, *F.F, NumDocs));

  // Silently corrupt one applied literal on the follower: version and
  // seq untouched, so no gap or version check can ever notice.
  uint64_t Victim = 0;
  for (uint64_t Doc = 1; Doc <= NumDocs && Victim == 0; ++Doc)
    if (F.F->corruptDocForTest(Doc))
      Victim = Doc;
  ASSERT_NE(Victim, 0u) << "no document with a mutable literal";
  ASSERT_FALSE(converged(L, *F.F, NumDocs))
      << "corruption must actually diverge the follower";
  // The literal changed in the stored typed tree behind its cached
  // digests, which a local digest check would also notice.
  EXPECT_TRUE(F.F->store().checkDigests(Victim).has_value());

  // One scrub cycle on the leader broadcasts the digest summaries; the
  // follower detects the mismatch and resyncs back to byte identity.
  Scrubber::Config SC;
  SC.Broadcast = [&](const replica::ShardSummaryMsg &M) {
    L.Lead->broadcastSummary(M);
  };
  SC.CurrentSeq = [&] { return L.Log.currentSeq(); };
  SC.ResyncsServed = [&] { return L.Lead->stats().ResyncsServed; };
  Scrubber Scrub(L.Store, SC, nullptr);
  Scrubber::CycleReport Rep = Scrub.scrubCycle();
  EXPECT_GE(Rep.SummariesSent, 1u);

  ASSERT_TRUE(waitUntil([&] {
    return F.F->stats().SummaryMismatches >= 1 &&
           bool(converged(L, *F.F, NumDocs));
  }));
  replica::Follower::Stats FS = F.F->stats();
  EXPECT_GE(FS.SummariesReceived, 1u);
  EXPECT_GE(FS.SummaryMismatches, 1u);
  EXPECT_GE(FS.ResyncsRequested, 1u);
  EXPECT_GE(L.Lead->stats().ResyncsServed, 1u);
  EXPECT_GE(Scrub.stats().ResyncsTriggered, 1u);
  // The resync installed a freshly decoded tree with clean digests.
  EXPECT_FALSE(F.F->store().checkDigests(Victim).has_value());

  // Clean steady state: further cycles produce summaries but no
  // mismatches -- anti-entropy does not thrash a converged replica.
  uint64_t MismatchesBefore = F.F->stats().SummaryMismatches;
  Scrub.scrubCycle();
  ASSERT_TRUE(waitUntil([&] {
    return F.F->stats().SummariesReceived >= FS.SummariesReceived + 1;
  }));
  EXPECT_EQ(F.F->stats().SummaryMismatches, MismatchesBefore);
  EXPECT_TRUE(converged(L, *F.F, NumDocs));
}

TEST(ArenaHandOverTest,
     FallbackSubmitSurvivesRollbackCompactionRecoveryAndAFollower) {
  uint64_t Seed = tests::testSeed(0xfa11bac);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  TempDir Dir;
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  Persistence P(Sig, plainConfig(Dir.path()));
  P.attach(L.Store);
  FollowerNode F(Sig);
  std::string Err;
  ASSERT_TRUE(F.F->connectTo("127.0.0.1", L.Lead->port(), &Err)) << Err;

  // Unrelated documents: each submit loads most of its nodes, so the
  // unloaded ones pile up in the leader's arena until it compacts.
  TreeContext Ctx(Sig);
  corpus::JsonGenOptions Opts;
  Opts.MaxDepth = 3;
  Opts.MaxFanout = 4;
  auto Fresh = [&] {
    return blobBuilder(Sig,
                       encodeTree(Sig, corpus::generateJson(Ctx, R, Opts)));
  };
  SubmitOptions Fallback;
  Fallback.UseFallback = [] { return true; };
  auto Clean = [](const DocumentStore &S) {
    EXPECT_EQ(S.checkDigests(1), std::nullopt);
  };

  ASSERT_TRUE(L.Store.open(1, Fresh()).Ok);
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
  std::string BeforeFallback = L.Store.snapshot(1).UriText;
  StoreResult FB = L.Store.submit(1, Fresh(), Fallback);
  ASSERT_TRUE(FB.Ok) << FB.Error;
  ASSERT_TRUE(FB.UsedFallback);
  Clean(L.Store);
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);

  // Roll back across the fallback: the old tree returns URI-exactly
  // into what was the request arena.
  for (int I = 0; I != 4; ++I)
    ASSERT_TRUE(L.Store.rollback(1).Ok);
  EXPECT_EQ(L.Store.snapshot(1).UriText, BeforeFallback);
  Clean(L.Store);

  // A second fallback, then submits until the arena compacts, and a
  // rollback across the compaction.
  ASSERT_TRUE(L.Store.submit(1, Fresh(), Fallback).Ok);
  for (int I = 0; I != 500 && L.Store.stats().Compactions == 0; ++I)
    ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
  ASSERT_GT(L.Store.stats().Compactions, 0u);
  ASSERT_TRUE(L.Store.rollback(1).Ok);
  ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
  Clean(L.Store);

  ASSERT_TRUE(waitUntil(
      [&] { return F.F->caughtUp() && F.F->lastSeq() == L.Log.currentSeq(); }));
  EXPECT_TRUE(converged(L, *F.F, 1));
  Clean(F.F->store());

  P.flush();
  DocumentStore Recovered(Sig);
  RecoveryResult RR = Persistence::recover(Sig, Dir.path(), Recovered);
  EXPECT_EQ(RR.InvalidRecords, 0u);
  DocumentSnapshot Want = L.Store.snapshot(1), Got = Recovered.snapshot(1);
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Version, Want.Version);
  EXPECT_EQ(Got.UriText, Want.UriText);
  Clean(Recovered);

  // The recovered ring undoes the same script as the leader's.
  StoreResult LR = L.Store.rollback(1), RR2 = Recovered.rollback(1);
  ASSERT_TRUE(LR.Ok) << LR.Error;
  ASSERT_TRUE(RR2.Ok) << RR2.Error;
  EXPECT_EQ(Recovered.snapshot(1).UriText, L.Store.snapshot(1).UriText);
  ASSERT_TRUE(waitUntil(
      [&] { return F.F->caughtUp() && F.F->lastSeq() == L.Log.currentSeq(); }));
  EXPECT_TRUE(converged(L, *F.F, 1));
  Clean(F.F->store());
}
