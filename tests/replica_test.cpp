//===- tests/replica_test.cpp - Edit-script replication tests --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the replication layer: a leader shipping the committed
/// edit-script stream to follower replicas over loopback TCP. The core
/// assertion is byte-for-byte convergence -- after hundreds of seeded
/// mutations (submits, rollbacks, erases, re-opens) every follower's
/// materialised document equals the leader's URI-preserving rendering
/// exactly, digest included -- and a get over TCP answers the same bytes
/// from the follower's read endpoint as from the leader's client
/// endpoint. Also covered: catch-up via tail replay and
/// via snapshot transfer (including pruning of documents erased while
/// the follower was away), gap-triggered per-document resync,
/// stale-leader epoch fencing, and a follower killed mid-stream that
/// reconnects and converges again. The follower's documents live in a
/// DocumentStore fed by applyRecord, so the tests also check its digest
/// cache, its arena compaction, and deep documents and blame trees read
/// from it. The anti-entropy summary digest is pinned: it does not
/// depend on the process key, and its wire form carries exactly 16
/// bytes.
///
//===----------------------------------------------------------------------===//

#include "replica/Failover.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/Protocol.h"
#include "replica/ReplicationLog.h"

#include "blame/Provenance.h"
#include "blame/Render.h"

#include "corpus/JsonGen.h"
#include "json/Json.h"
#include "net/NetServer.h"
#include "net/ServiceHandler.h"
#include "persist/BinaryCodec.h"
#include "python/Python.h"
#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "service/Wire.h"
#include "support/Rng.h"
#include "support/TreeHash.h"
#include "tree/SExpr.h"

#include "DeepModule.h"
#include "TestNet.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace truediff;

namespace {

bool waitUntil(const std::function<bool()> &Pred, int TimeoutMs = 30000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

/// A TreeBuilder that decodes a binary tree blob with fresh URIs -- the
/// same builder the binary front end uses, so the replicated scripts are
/// exactly what a real client submission produces.
service::TreeBuilder blobBuilder(const SignatureTable &Sig, std::string Blob) {
  return [&Sig, Blob = std::move(Blob)](
             TreeContext &Ctx) -> service::BuildResult {
    persist::DecodeTreeResult D =
        persist::decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
    if (!D.ok())
      return {nullptr, D.Error, service::ErrCode::MalformedFrame};
    return {D.Root, "", service::ErrCode::None};
  };
}

/// A leader node: store + replication log + leader endpoint on its own
/// event loop, listening on an ephemeral loopback port.
struct LeaderNode {
  const SignatureTable &Sig;
  service::DocumentStore Store;
  replica::ReplicationLog Log;
  net::EventLoop Loop;
  std::unique_ptr<replica::Leader> Lead;
  bool Started = false;

  LeaderNode(const SignatureTable &Sig, uint64_t Epoch = 1,
             size_t TailCapacity = 1024)
      : Sig(Sig), Store(Sig),
        Log(Store, replica::ReplicationLog::Config{TailCapacity}) {
    replica::Leader::Config C;
    C.Epoch = Epoch;
    Lead = std::make_unique<replica::Leader>(Loop, Log, C);
    Log.attach();
    std::string Err;
    Started = Lead->start(&Err);
    EXPECT_TRUE(Started) << Err;
    Loop.start();
  }

  ~LeaderNode() { Loop.stop(); }

  uint16_t port() const { return Lead->port(); }
};

/// A follower node: the replica plus the loop it applies records on.
struct FollowerNode {
  net::EventLoop Loop;
  std::unique_ptr<replica::Follower> F;

  explicit FollowerNode(const SignatureTable &Sig,
                        replica::Follower::Config C = {}) {
    Loop.start();
    F = std::make_unique<replica::Follower>(Loop, Sig, C);
  }

  // Stop the loop first: the follower's teardown then has nothing left
  // to race with.
  ~FollowerNode() {
    F->disconnect();
    Loop.stop();
  }

  bool connect(LeaderNode &L, std::string *Err = nullptr) {
    return F->connectTo("127.0.0.1", L.port(), Err);
  }
};

/// Drives seeded mutations against the leader's store: opens, submits
/// (JSON edits from the corpus mutator), rollbacks, erases, re-opens.
/// Keeps a client-side model tree per document to mutate from, exactly
/// like a real editing client would.
class WorkloadDriver {
public:
  WorkloadDriver(LeaderNode &L, uint64_t Seed, uint64_t NumDocs = 8)
      : L(L), Ctx(L.Sig), R(Seed), NumDocs(NumDocs) {}

  void step() {
    uint64_t Doc = 1 + R.below(NumDocs);
    auto It = Model.find(Doc);
    if (It == Model.end()) {
      openDoc(Doc);
      return;
    }
    unsigned Dice = static_cast<unsigned>(R.below(100));
    if (Dice < 70) {
      submitDoc(Doc);
    } else if (Dice < 85) {
      // Rollback; may fail cleanly at version 0 or past the ring.
      L.Store.rollback(Doc);
    } else {
      ASSERT_TRUE(L.Store.erase(Doc));
      Model.erase(Doc);
    }
  }

  void openDoc(uint64_t Doc) {
    corpus::JsonGenOptions Opts;
    Opts.MaxDepth = 3;
    Opts.MaxFanout = 4;
    Tree *T = corpus::generateJson(Ctx, R, Opts);
    ASSERT_NE(T, nullptr);
    service::StoreResult SR =
        L.Store.open(Doc, blobBuilder(L.Sig, persist::encodeTree(L.Sig, T)));
    ASSERT_TRUE(SR.Ok) << SR.Error;
    Model[Doc] = T;
  }

  void submitDoc(uint64_t Doc) {
    Tree *Next = corpus::mutateJson(Ctx, R, Model[Doc]);
    ASSERT_NE(Next, nullptr);
    service::StoreResult SR = L.Store.submit(
        Doc, blobBuilder(L.Sig, persist::encodeTree(L.Sig, Next)));
    ASSERT_TRUE(SR.Ok) << SR.Error;
    Model[Doc] = Next;
  }

  uint64_t numDocs() const { return NumDocs; }
  bool live(uint64_t Doc) const { return Model.count(Doc) != 0; }

private:
  LeaderNode &L;
  TreeContext Ctx;
  Rng R;
  uint64_t NumDocs;
  std::unordered_map<uint64_t, Tree *> Model;
};

/// Byte-for-byte convergence: every document live on the leader reads
/// identically (URI-preserving text and summary digest) on the
/// follower, and every erased document is absent there.
::testing::AssertionResult converged(LeaderNode &L, replica::Follower &F,
                                     uint64_t NumDocs) {
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    service::DocumentSnapshot S = L.Store.snapshot(Doc);
    if (!S.Ok) {
      if (F.contains(Doc))
        return ::testing::AssertionFailure()
               << "doc " << Doc << " erased on the leader but present on "
               << "the follower";
      continue;
    }
    replica::Follower::ReadResult RR = F.read(Doc);
    if (!RR.Ok)
      return ::testing::AssertionFailure()
             << "doc " << Doc << " unreadable on the follower: " << RR.Error;
    if (RR.Version != S.Version)
      return ::testing::AssertionFailure()
             << "doc " << Doc << " version " << RR.Version << " != leader "
             << S.Version;
    if (RR.UriText != S.UriText)
      return ::testing::AssertionFailure()
             << "doc " << Doc << " diverged:\n  leader:   " << S.UriText
             << "\n  follower: " << RR.UriText;
    if (RR.Summary != replica::summaryDigest(S.UriText))
      return ::testing::AssertionFailure()
             << "doc " << Doc << " digest mismatch";
  }
  return ::testing::AssertionSuccess();
}

bool caughtUpWith(LeaderNode &L, replica::Follower &F) {
  return F.caughtUp() && F.lastSeq() == L.Log.currentSeq();
}

/// Every document the follower holds carries exactly the digests a
/// from-scratch recomputation yields: applyRecord keeps the digest cache
/// of the stored trees current.
::testing::AssertionResult digestsClean(const replica::Follower &F,
                                        uint64_t NumDocs) {
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    if (!F.contains(Doc))
      continue;
    std::optional<std::string> Stale = F.store().checkDigests(Doc);
    if (Stale)
      return ::testing::AssertionFailure()
             << "doc " << Doc << " has a stale digest: " << *Stale;
  }
  return ::testing::AssertionSuccess();
}

/// Sends one textual request and returns its response lines, through the
/// terminating "." line; empty on error or timeout.
std::string request(tests::TcpClient &C, const std::string &Line) {
  std::vector<std::string> Lines;
  if (!C.sendAll(Line + "\n") || !C.readTextResponse(Lines))
    return "";
  std::string Resp;
  for (const std::string &L : Lines)
    Resp += L + "\n";
  return Resp + ".\n";
}

//===----------------------------------------------------------------------===//
// The anti-entropy summary digest
//===----------------------------------------------------------------------===//

TEST(SummaryDigest, FixedKeyedAndIndependentOfTheProcessKey) {
  const std::string UriText = "(Add_1 (Num_2 1) (Num_3 2))";
  const DigestKey Process = processDigestKey();
  Digest Under[2];
  const DigestKey Keys[2] = {{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL},
                             {0x1111111111111111ULL, 0x2222222222222222ULL}};
  for (int I = 0; I != 2; ++I) {
    setProcessDigestKeyForTest(Keys[I]);
    Under[I] = replica::summaryDigest(UriText);
  }
  setProcessDigestKeyForTest(Process);
  EXPECT_EQ(Under[0], Under[1]);
  EXPECT_EQ(Under[0],
            sipHash128(ChecksumKey, UriText.data(), UriText.size()));
  // Pinned, so a change of key or of the hash shows up here.
  EXPECT_EQ(Under[0].toHex(), "e4b2ad8790380946b819400ae7e250ea");
}

TEST(SummaryDigest, ShardSummaryCarriesExactlySixteenDigestBytes) {
  replica::ShardSummaryMsg M;
  M.Shard = 1;
  M.ShardCount = 2;
  M.AsOfSeq = 9;
  M.Entries.push_back({3, 4, replica::summaryDigest("(a)")});
  std::string Payload =
      replica::encodeShardSummary(M).substr(net::FrameHeaderBytes);
  replica::ShardSummaryMsg Out;
  ASSERT_TRUE(replica::decodeShardSummary(Payload, Out));
  ASSERT_EQ(Out.Entries.size(), 1u);
  EXPECT_EQ(Out.Entries[0].Doc, 3u);
  EXPECT_EQ(Out.Entries[0].Version, 4u);
  EXPECT_EQ(Out.Entries[0].Summary, M.Entries[0].Summary);

  // The entry ends with a length byte (16) and the digest; any other
  // length is rejected, shorter or longer.
  ASSERT_EQ(Payload.size(), 4 + 2 + 1 + Digest::NumBytes);
  size_t LenAt = Payload.size() - Digest::NumBytes - 1;
  ASSERT_EQ(Payload[LenAt], char(Digest::NumBytes));
  std::string Short = Payload.substr(0, Payload.size() - 1);
  Short[LenAt] = char(Digest::NumBytes - 1);
  EXPECT_FALSE(replica::decodeShardSummary(Short, Out));
  std::string Long = Payload + "x";
  Long[LenAt] = char(Digest::NumBytes + 1);
  EXPECT_FALSE(replica::decodeShardSummary(Long, Out));
  std::string Hex = Payload.substr(0, LenAt) + char(32) +
                    M.Entries[0].Summary.toHex();
  EXPECT_FALSE(replica::decodeShardSummary(Hex, Out));
}

//===----------------------------------------------------------------------===//
// Convergence under a long seeded mutation stream
//===----------------------------------------------------------------------===//

TEST(Replication, FiveHundredMutationsConvergeOnTwoFollowers) {
  uint64_t Seed = tests::testSeed(0x5eed0001);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F1(Sig), F2(Sig);
  ASSERT_TRUE(F1.connect(L));
  ASSERT_TRUE(F2.connect(L));

  WorkloadDriver Driver(L, Seed);
  uint64_t Steps = tests::testIters("TRUEDIFF_REPL_STEPS", 500);
  for (uint64_t I = 0; I != Steps; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }

  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F1.F); }));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F2.F); }));
  EXPECT_TRUE(converged(L, *F1.F, Driver.numDocs()));
  EXPECT_TRUE(converged(L, *F2.F, Driver.numDocs()));

  // A live stream with no losses needs no repair machinery.
  replica::Follower::Stats S1 = F1.F->stats();
  EXPECT_GT(S1.RecordsApplied, 0u);
  EXPECT_EQ(S1.GapRehellos, 0u);
  EXPECT_EQ(S1.StaleLeaderRejects, 0u);

  replica::Leader::Stats LS = L.Lead->stats();
  EXPECT_EQ(LS.Followers, 2u);
}

TEST(Replication, FollowerGetAnswersTheLeadersBytesOverTcp) {
  uint64_t Seed = tests::testSeed(0x5eed0008);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  // The leader's client endpoint, wired as diff_server wires it.
  service::ServiceConfig SC;
  SC.Workers = 2;
  service::DiffService Svc(L.Store, SC);
  net::ServiceHandler LeaderHandler(Svc);
  net::NetServer LeaderSrv(L.Loop, Sig, LeaderHandler);
  std::string Err;
  ASSERT_TRUE(LeaderSrv.start(&Err)) << Err;
  // The follower's read endpoint.
  FollowerNode F(Sig);
  replica::ReplicaReadHandler ReadHandler(*F.F);
  net::NetServer FollowerSrv(F.Loop, Sig, ReadHandler);
  ASSERT_TRUE(FollowerSrv.start(&Err)) << Err;
  ASSERT_TRUE(F.connect(L));

  WorkloadDriver Driver(L, Seed);
  for (int I = 0; I != 200; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));

  tests::TcpClient ToLeader, ToFollower;
  ASSERT_TRUE(ToLeader.connect(LeaderSrv.port()));
  ASSERT_TRUE(ToFollower.connect(FollowerSrv.port()));
  size_t Live = 0;
  for (uint64_t Doc = 1; Doc <= Driver.numDocs(); ++Doc) {
    std::string Get = "get " + std::to_string(Doc);
    std::string FromLeader = request(ToLeader, Get);
    ASSERT_FALSE(FromLeader.empty()) << Get;
    // Byte identity covers payload, version and size= (the tree size).
    EXPECT_EQ(request(ToFollower, Get), FromLeader) << Get;
    service::DocumentSnapshot S = L.Store.snapshot(Doc);
    if (!S.Ok)
      continue;
    ++Live;
    EXPECT_EQ(FromLeader, "ok version=" + std::to_string(S.Version) +
                              " edits=0 coalesced=0 size=" +
                              std::to_string(S.TreeSize) + "\n" + S.Text +
                              "\n.\n");
  }
  EXPECT_GT(Live, 0u);

  F.F->disconnect();
  F.Loop.stop();
  L.Loop.stop();
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Catch-up: tail replay and snapshot transfer
//===----------------------------------------------------------------------===//

TEST(Replication, CatchUpByTailReplay) {
  uint64_t Seed = tests::testSeed(0x5eed0002);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig); // default ring: plenty of room for the whole stream
  ASSERT_TRUE(L.Started);

  WorkloadDriver Driver(L, Seed, 4);
  for (int I = 0; I != 30; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // Connecting after the fact: everything is still in the ring, so the
  // catch-up must be pure tail replay -- no snapshots.
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_EQ(F.F->stats().SnapshotsInstalled, 0u);
  EXPECT_GE(L.Lead->stats().TailRecords, F.F->stats().RecordsApplied);

  // Disconnect, mutate some more, reconnect: the delta is still ring-
  // covered, so again tail replay only.
  F.F->disconnect();
  ASSERT_TRUE(waitUntil([&] { return !F.F->connected(); }));
  for (int I = 0; I != 20; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_EQ(F.F->stats().SnapshotsInstalled, 0u);
}

TEST(Replication, CatchUpBySnapshotTransfer) {
  uint64_t Seed = tests::testSeed(0x5eed0003);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  // A tiny tail ring: anything but the most recent history forces the
  // snapshot path.
  LeaderNode L(Sig, /*Epoch=*/1, /*TailCapacity=*/8);
  ASSERT_TRUE(L.Started);

  WorkloadDriver Driver(L, Seed, 4);
  for (int I = 0; I != 40; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_GT(L.Log.firstTailSeq(), 1u) << "stream too short to evict the ring";

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_GT(F.F->stats().SnapshotsInstalled, 0u);
  EXPECT_GT(L.Lead->stats().SnapshotsSent, 0u);
}

TEST(Replication, SnapshotCatchUpCarriesADeepDocument) {
  // A 9,000-statement module nests 9,003 levels deep; the follower must
  // decode its snapshot rather than drop it as corrupt.
  SignatureTable Sig = python::makePythonSignature();
  LeaderNode L(Sig, /*Epoch=*/1, /*TailCapacity=*/2);
  ASSERT_TRUE(L.Started);
  ASSERT_TRUE(
      L.Store.open(1, service::makeSExprBuilder(tests::deepModuleText(9000)))
          .Ok);
  for (uint64_t Doc = 2; Doc != 6; ++Doc)
    ASSERT_TRUE(
        L.Store.open(Doc, service::makeSExprBuilder("(Module (StmtNil))")).Ok);
  ASSERT_GT(L.Log.firstTailSeq(), 1u) << "the open must fall off the ring";

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, 5));
  EXPECT_GT(F.F->stats().SnapshotsInstalled, 0u);
}

TEST(Replication, SnapshotCatchUpPrunesDocsErasedWhileAway) {
  uint64_t Seed = tests::testSeed(0x5eed0004);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig, /*Epoch=*/1, /*TailCapacity=*/8);
  ASSERT_TRUE(L.Started);

  WorkloadDriver Driver(L, Seed, 4);
  Driver.openDoc(1);
  Driver.openDoc(2);
  Driver.openDoc(3);
  if (::testing::Test::HasFatalFailure())
    return;

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  ASSERT_TRUE(F.F->contains(2));

  // While the follower is away, doc 2 dies and enough traffic flows
  // that its erase record is evicted from the ring: only the snapshot
  // dump's pruning rule can tell the follower.
  F.F->disconnect();
  ASSERT_TRUE(waitUntil([&] { return !F.F->connected(); }));
  ASSERT_TRUE(L.Store.erase(2));
  for (int I = 0; I != 12; ++I) {
    Driver.submitDoc(1);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(waitUntil(
      [&] { return L.Log.firstTailSeq() > L.Log.currentSeq() - 12; }));

  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_FALSE(F.F->contains(2));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_GT(F.F->stats().SnapshotsInstalled, 0u);
}

//===----------------------------------------------------------------------===//
// Repair: gap-triggered resync
//===----------------------------------------------------------------------===//

TEST(Replication, VersionGapTriggersResync) {
  uint64_t Seed = tests::testSeed(0x5eed0005);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);

  WorkloadDriver Driver(L, Seed, 2);
  Driver.openDoc(1);
  if (::testing::Test::HasFatalFailure())
    return;

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));

  // Corrupt the follower's applied version: the next record for doc 1
  // fails the per-document continuity check and must trigger a
  // ResyncReq, answered with a fresh snapshot.
  F.F->injectGapForTest(1);
  Driver.submitDoc(1);
  if (::testing::Test::HasFatalFailure())
    return;

  ASSERT_TRUE(waitUntil([&] {
    return F.F->stats().ResyncsRequested > 0 &&
           F.F->stats().SnapshotsInstalled > 0;
  }));
  ASSERT_TRUE(waitUntil([&] {
    return caughtUpWith(L, *F.F) && converged(L, *F.F, Driver.numDocs());
  }));
  EXPECT_GE(L.Lead->stats().ResyncsServed, 1u);

  // The repaired replica keeps tracking the live stream.
  Driver.submitDoc(1);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
}

//===----------------------------------------------------------------------===//
// Failover: stale-leader epoch fencing
//===----------------------------------------------------------------------===//

TEST(Replication, StaleLeaderIsFencedByEpoch) {
  uint64_t Seed = tests::testSeed(0x5eed0006);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode Current(Sig, /*Epoch=*/5);
  LeaderNode Stale(Sig, /*Epoch=*/3);
  ASSERT_TRUE(Current.Started && Stale.Started);

  WorkloadDriver Driver(Current, Seed, 2);
  Driver.openDoc(1);
  if (::testing::Test::HasFatalFailure())
    return;

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(Current));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(Current, *F.F); }));
  EXPECT_EQ(F.F->stats().MaxEpochSeen, 5u);

  // A leader announcing an epoch below the fencing floor is rejected;
  // the handshake fails and the applied state stays readable.
  F.F->disconnect();
  ASSERT_TRUE(waitUntil([&] { return !F.F->connected(); }));
  std::string Err;
  EXPECT_FALSE(F.connect(Stale, &Err));
  EXPECT_NE(Err.find("stale leader"), std::string::npos) << Err;
  EXPECT_GE(F.F->stats().StaleLeaderRejects, 1u);
  EXPECT_EQ(F.F->stats().MaxEpochSeen, 5u);
  EXPECT_TRUE(F.F->read(1).Ok);

  // Reconnecting to the real leader still works.
  ASSERT_TRUE(F.connect(Current));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(Current, *F.F); }));
  EXPECT_TRUE(converged(Current, *F.F, Driver.numDocs()));
}

//===----------------------------------------------------------------------===//
// A follower killed mid-stream reconnects and converges
//===----------------------------------------------------------------------===//

TEST(Replication, FollowerKilledMidStreamRecovers) {
  uint64_t Seed = tests::testSeed(0x5eed0007);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  WorkloadDriver Driver(L, Seed, 4);
  for (int I = 0; I != 60; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
    // Yank the link mid-stream, while records are still in flight.
    if (I == 30)
      F.F->disconnect();
  }
  ASSERT_TRUE(waitUntil([&] { return !F.F->connected(); }));

  // The reconnect handshake catches up from lastSeq() -- tail replay
  // here -- and the replica converges on the full stream.
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));

  // And it keeps applying live records afterwards.
  for (int I = 0; I != 10; ++I) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
}

} // namespace

//===----------------------------------------------------------------------===//
// The follower's document store
//===----------------------------------------------------------------------===//

namespace {

TEST(ReplicaStore, StaysByteIdenticalThroughResyncAndSnapshotCatchUp) {
  uint64_t Seed = tests::testSeed(0x5eed0009);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig, /*Epoch=*/1, /*TailCapacity=*/16);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  // Opens, submits, rollbacks, erases and re-opens on the live stream.
  WorkloadDriver Driver(L, Seed, 6);
  auto Steps = [&](int N) {
    for (int I = 0; I != N && !::testing::Test::HasFatalFailure(); ++I)
      Driver.step();
  };
  Steps(150);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_TRUE(digestsClean(*F.F, Driver.numDocs()));

  // A forced per-document resync: the skewed version makes the store
  // refuse the next record, and the snapshot repairs the document.
  uint64_t Victim = 0;
  for (uint64_t Doc = 1; Doc <= Driver.numDocs() && Victim == 0; ++Doc)
    if (Driver.live(Doc))
      Victim = Doc;
  ASSERT_NE(Victim, 0u);
  F.F->injectGapForTest(Victim);
  Driver.submitDoc(Victim);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(waitUntil([&] {
    return F.F->stats().SnapshotsInstalled > 0 && caughtUpWith(L, *F.F) &&
           converged(L, *F.F, Driver.numDocs());
  }));
  EXPECT_GE(F.F->stats().ResyncsRequested, 1u);

  // Away long enough for the tail ring to evict the continuation: the
  // reconnect catches up by snapshot transfer, then the live stream
  // applies on top of the installed documents.
  F.F->disconnect();
  ASSERT_TRUE(waitUntil([&] { return !F.F->connected(); }));
  uint64_t InstalledBefore = F.F->stats().SnapshotsInstalled;
  Steps(60);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(F.connect(L));
  Steps(60);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_GT(F.F->stats().SnapshotsInstalled, InstalledBefore);
  EXPECT_TRUE(converged(L, *F.F, Driver.numDocs()));
  EXPECT_TRUE(digestsClean(*F.F, Driver.numDocs()));
}

TEST(ReplicaStore, RecordsApplyAfterTheFollowerCompactsADocument) {
  uint64_t Seed = tests::testSeed(0x5eed000a);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  // Each submit of an unrelated document loads most of its nodes, and
  // the replaced ones stay behind in the follower's arena until
  // compaction copies the live tree out.
  TreeContext Ctx(Sig);
  Rng R(Seed);
  corpus::JsonGenOptions Opts;
  Opts.MaxDepth = 3;
  Opts.MaxFanout = 4;
  auto Fresh = [&] {
    return blobBuilder(Sig, persist::encodeTree(
                                Sig, corpus::generateJson(Ctx, R, Opts)));
  };
  ASSERT_TRUE(L.Store.open(1, Fresh()).Ok);
  for (int Batch = 0; Batch != 20; ++Batch) {
    for (int I = 0; I != 20; ++I)
      ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
    ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
    if (F.F->store().stats().Compactions > 0)
      break;
  }
  ASSERT_GT(F.F->store().stats().Compactions, 0u);

  // The applier is rebuilt over the compacted tree: submits and
  // rollbacks keep applying without a resync.
  for (int I = 0; I != 10; ++I)
    ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
  ASSERT_TRUE(L.Store.rollback(1).Ok);
  ASSERT_TRUE(L.Store.rollback(1).Ok);
  ASSERT_TRUE(L.Store.submit(1, Fresh()).Ok);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_TRUE(converged(L, *F.F, 1));
  EXPECT_TRUE(digestsClean(*F.F, 1));
  EXPECT_EQ(F.F->stats().ResyncsRequested, 0u);
}

TEST(ReplicaStore, GetIsByteIdenticalOnLeaderAndFollowerAtEveryVersion) {
  // Both sides serve get from text cached per version. Each version is
  // read twice on each side (a render, then a copy) through submits,
  // rollbacks, erases and re-opens; then the follower's tree is
  // corrupted in place, and its next get must show it.
  uint64_t Seed = tests::testSeed(0x5eed000b);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  WorkloadDriver Driver(L, Seed, /*NumDocs=*/1);
  for (int Step = 0; Step != 80; ++Step) {
    Driver.step();
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
    for (int Read = 0; Read != 2; ++Read) {
      service::DocumentSnapshot Want = L.Store.snapshotText(1);
      replica::Follower::ReadResult Got = F.F->readText(1);
      ASSERT_EQ(Got.Ok, Want.Ok) << "step " << Step;
      if (!Want.Ok)
        break;
      ASSERT_EQ(Got.Version, Want.Version) << "step " << Step;
      ASSERT_TRUE(Got.Text == Want.Text) << "step " << Step;
    }
  }

  if (!Driver.live(1))
    Driver.openDoc(1);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  std::string Before = F.F->readText(1).Text;
  ASSERT_TRUE(F.F->corruptDocForTest(1));
  std::string After = F.F->readText(1).Text;
  EXPECT_NE(After, Before);
  F.F->store().withDocument(
      1, [&](const Tree *Root, uint64_t,
             const std::vector<service::DocumentStore::HistoryEntry> &) {
        EXPECT_TRUE(printSExpr(Sig, Root) == After);
      });
}

TEST(ReplicaStore, FollowerStatsCarryTheStoreGauges) {
  uint64_t Seed = tests::testSeed(0x5eed000e);
  SEED_TRACE(Seed);

  SignatureTable Sig = json::makeJsonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  WorkloadDriver Driver(L, Seed, /*NumDocs=*/2);
  Driver.openDoc(1);
  Driver.openDoc(2);
  Driver.submitDoc(1);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  for (uint64_t Doc : {1, 2, 1})
    ASSERT_TRUE(F.F->readText(Doc).Ok);

  service::StoreStats S = F.F->store().stats();
  std::string J = F.F->statsJson();
  EXPECT_EQ(S.TextRenders, 2u);
  EXPECT_NE(J.find("\"text_renders\":" + std::to_string(S.TextRenders) + ","),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"live_nodes\":" + std::to_string(S.LiveNodes) + ","),
            std::string::npos)
      << J;
}

TEST(Replication, PromotedSnapshotInstallNeverReissuesARolledBackUri) {
  // The leader rolls a submit back, so its loads' URIs lie above the
  // live tree; the follower receives the document by snapshot and is
  // promoted. The promoted store's next submit must load URIs above
  // every URI the document ever issued.
  SignatureTable Sig = python::makePythonSignature();
  LeaderNode L(Sig, /*Epoch=*/1, /*TailCapacity=*/2);
  ASSERT_TRUE(L.Started);
  URI MaxIssued = 0;
  auto Note = [&](const service::StoreResult &R) {
    for (const Edit &E : R.Script.edits())
      if (E.Kind == EditKind::Load)
        MaxIssued = std::max(MaxIssued, E.Node.Uri);
  };
  service::StoreResult Open =
      L.Store.open(1, service::makeSExprBuilder("(Module (StmtNil))"));
  ASSERT_TRUE(Open.Ok) << Open.Error;
  Note(Open);
  service::StoreResult Sub =
      L.Store.submit(1, service::makeSExprBuilder(tests::deepModuleText(20)));
  ASSERT_TRUE(Sub.Ok) << Sub.Error;
  Note(Sub);
  ASSERT_TRUE(L.Store.rollback(1).Ok);
  for (uint64_t Doc = 2; Doc != 6; ++Doc)
    ASSERT_TRUE(
        L.Store.open(Doc, service::makeSExprBuilder("(Module (StmtNil))")).Ok);
  ASSERT_GT(L.Log.firstTailSeq(), 3u) << "doc 1's records must fall off";

  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  ASSERT_GT(F.F->stats().SnapshotsInstalled, 0u);

  replica::PromotionResult PR = replica::promoteFollower(*F.F, 2);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  service::StoreResult Next = F.F->store().submit(
      1, service::makeSExprBuilder(tests::deepModuleText(3, "Break")));
  ASSERT_TRUE(Next.Ok) << Next.Error;
  size_t Loads = 0;
  for (const Edit &E : Next.Script.edits())
    if (E.Kind == EditKind::Load) {
      ++Loads;
      EXPECT_GT(E.Node.Uri, MaxIssued) << "reissued URI " << E.Node.Uri;
    }
  EXPECT_GT(Loads, 0u);
}

TEST(Replication, PromotionFlipsTheFollowersOwnStoreToTheLeader) {
  // Promotion is a role flip, not a copy: what the promoted leader
  // commits is what the same node's follower reads answer next, and the
  // seeded log records it right after the applied prefix. The old
  // leader's later records never land.
  SignatureTable Sig = python::makePythonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));
  ASSERT_TRUE(
      L.Store.open(1, service::makeSExprBuilder(tests::deepModuleText(3)))
          .Ok);
  ASSERT_TRUE(
      L.Store.submit(1, service::makeSExprBuilder(tests::deepModuleText(5)))
          .Ok);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));

  replica::PromotionResult PR = replica::promoteFollower(*F.F, 2);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  ASSERT_NE(PR.Log, nullptr);
  EXPECT_EQ(PR.Docs, 1u);
  EXPECT_EQ(PR.LastSeq, L.Log.currentSeq());
  EXPECT_FALSE(replica::promoteFollower(*F.F, 3).Ok) << "promotes once";

  ASSERT_TRUE(
      L.Store.submit(1, service::makeSExprBuilder(tests::deepModuleText(7)))
          .Ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(F.F->readText(1).Version, 1u) << "the fence let a record in";

  std::string Want = tests::deepModuleText(4, "Break");
  service::StoreResult Next =
      F.F->store().submit(1, service::makeSExprBuilder(Want));
  ASSERT_TRUE(Next.Ok) << Next.Error;
  EXPECT_EQ(Next.Version, 2u);
  replica::Follower::ReadResult Got = F.F->readText(1);
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Version, 2u);
  EXPECT_EQ(Got.Text, Want);

  EXPECT_EQ(PR.Log->currentSeq(), PR.LastSeq + 1);
  std::vector<replica::RecordMsg> Tail;
  ASSERT_TRUE(PR.Log->tailSince(PR.LastSeq, Tail));
  ASSERT_EQ(Tail.size(), 1u);
  EXPECT_EQ(Tail[0].Doc, 1u);
  EXPECT_EQ(Tail[0].Op, replica::ReplOp::Submit);
  EXPECT_EQ(Tail[0].Version, 2u);
}

TEST(ReplicaStore, ThirtyThousandLevelDocumentReplicatesAndServesGet) {
  // 29,998 statements nest 30,001 levels deep. The open and a submit
  // travel as live records; the follower applies both and prints the
  // tree for get, byte-identical to the leader.
  SignatureTable Sig = python::makePythonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  ASSERT_TRUE(
      L.Store.open(1, service::makeSExprBuilder(tests::deepModuleText(29998)))
          .Ok);
  ASSERT_TRUE(L.Store
                  .submit(1, service::makeSExprBuilder(
                                 tests::deepModuleText(29998, "Break")))
                  .Ok);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));
  EXPECT_EQ(F.F->stats().ResyncsRequested, 0u);

  service::DocumentSnapshot Want = L.Store.snapshotText(1);
  replica::Follower::ReadResult Got = F.F->readText(1);
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Version, 1u);
  EXPECT_EQ(Got.TreeSize, Want.TreeSize);
  EXPECT_TRUE(Got.Text == Want.Text);
  EXPECT_TRUE(converged(L, *F.F, 1));
  EXPECT_TRUE(digestsClean(*F.F, 1));
}

TEST(ReplicaStore, DeepBlameTreeIsIdenticalAndLinearOnBothSides) {
  // A 65,536-level chain: with one indent per level the blame tree
  // would be over 4 GB of spaces. Capped, it stays linear in the node
  // count, and leader and follower render the same bytes.
  SignatureTable Sig = python::makePythonSignature();
  LeaderNode L(Sig);
  ASSERT_TRUE(L.Started);
  blame::ProvenanceIndex Prov;
  Prov.attach(L.Store);
  FollowerNode F(Sig);
  ASSERT_TRUE(F.connect(L));

  ASSERT_TRUE(
      L.Store.open(1, service::makeSExprBuilder(tests::deepModuleText(65533)))
          .Ok);
  ASSERT_TRUE(waitUntil([&] { return caughtUpWith(L, *F.F); }));

  service::Response Leader = blame::blameResponse(L.Store, Prov, 1, false, 0);
  service::Response Follower = F.F->blameRead(1, false, 0);
  ASSERT_TRUE(Leader.Ok) << Leader.Error;
  ASSERT_TRUE(Follower.Ok) << Follower.Error;
  EXPECT_TRUE(Leader.Payload == Follower.Payload);

  uint64_t Nodes = L.Store.snapshotText(1).TreeSize;
  EXPECT_EQ(Nodes, 2u * 65533u + 2u);
  EXPECT_LE(Leader.Payload.size(), 128u * Nodes);
  // The deepest line names its depth instead of indenting to it.
  EXPECT_NE(Leader.Payload.find("@65534 StmtNil#"), std::string::npos);
}

} // namespace
