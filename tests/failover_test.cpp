//===- tests/failover_test.cpp - Failover and chaos suite ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failover chaos suite: seeded network-fault schedules (FaultyNetEnv
/// short writes, latency, partitions, kills) over real loopback sockets,
/// follower promotion via the `promote <epoch>` admin verb, stale-leader
/// fencing, and the resilient client's survival guarantees:
///
///   - no durable-acked write (acked to the client AND replicated to the
///     follower) is lost across a failover,
///   - the promoted leader's state is byte-identical (URI rendering +
///     summary digest) to a committed prefix of the old leader's stream,
///   - a demoted/fenced leader answers writes with not_leader carrying a
///     leader address hint and retry_after_ms,
///   - a retried submit is never applied twice (version-CAS dedup),
///   - truncated and duplicated TLV payloads answer malformed_frame
///     without killing the connection or the process.
///
/// Every schedule is reproducible: export the TRUEDIFF_TEST_SEED a red
/// run prints. The nightly chaos job cranks TRUEDIFF_FAILOVER_ITERS and
/// randomizes the seed; per-PR runs are deterministic.
///
//===----------------------------------------------------------------------===//

#include "client/Client.h"
#include "corpus/JsonGen.h"
#include "json/Json.h"
#include "net/EventLoop.h"
#include "net/Frame.h"
#include "net/NetEnv.h"
#include "net/NetServer.h"
#include "net/Role.h"
#include "net/ServiceHandler.h"
#include "persist/BinaryCodec.h"
#include "persist/Varint.h"
#include "replica/Failover.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/Protocol.h"
#include "replica/ReplicationLog.h"
#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "support/Rng.h"

#include "TestLang.h"
#include "TestNet.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace truediff;
using namespace truediff::testlang;

namespace {

bool waitUntil(const std::function<bool()> &Pred, int TimeoutMs = 30000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Pred();
}

/// Fresh-URI tree builder from an encodeTree blob (what a real binary
/// client submission produces).
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

//===----------------------------------------------------------------------===//
// Node: a full replica node -- one event loop (optionally faulty), one
// client-facing NetServer routed by role, a follower, and -- after
// promote() -- the whole leader stack (log, Leader endpoint, DiffService,
// role-gated ServiceHandler) over the follower's own store.
//===----------------------------------------------------------------------===//

struct Node {
  const SignatureTable &Sig;
  net::FaultyNetEnv Env;
  net::EventLoop Loop;
  net::RoleState Role;

  std::unique_ptr<replica::Follower> F;
  std::unique_ptr<replica::ReplicaReadHandler> Reader;
  std::unique_ptr<replica::FailoverHandler> Router;
  std::unique_ptr<net::NetServer> ClientSrv;
  bool Started = false;

  // Leader-side stack, built by promote() over F's store.
  service::DocumentStore *Store = nullptr;
  std::unique_ptr<replica::ReplicationLog> Log;
  std::unique_ptr<replica::Leader> Lead;
  std::unique_ptr<service::DiffService> Svc;
  std::unique_ptr<net::ServiceHandler> Writer;

  explicit Node(const SignatureTable &Sig,
                net::FaultyNetEnv::Config EC = net::FaultyNetEnv::Config())
      : Sig(Sig), Env(EC), Loop(&Env) {
    F = std::make_unique<replica::Follower>(Loop, Sig);
    replica::ReplicaReadHandler::Config RC;
    RC.Role = &Role;
    RC.OnPromote = [this](uint64_t E) { return promote(E); };
    RC.OnDemote = [this](std::string Addr) { return demote(std::move(Addr)); };
    Reader = std::make_unique<replica::ReplicaReadHandler>(*F, RC);
    Router = std::make_unique<replica::FailoverHandler>(Role, *Reader);
    ClientSrv = std::make_unique<net::NetServer>(Loop, Sig, *Router);
    std::string Err;
    Started = ClientSrv->start(&Err);
    EXPECT_TRUE(Started) << Err;
    Loop.start();
  }

  ~Node() {
    F->disconnect();
    Loop.stop();
    if (Svc)
      Svc->shutdown();
  }

  std::string clientAddr() const {
    return "127.0.0.1:" + std::to_string(ClientSrv->port());
  }

  /// The failover state machine's fence and seed plus the role flip: runs
  /// from the admin verb (loop thread) or directly from a test thread.
  service::Response promote(uint64_t NewEpoch) {
    service::Response R;
    if (Role.writable()) {
      R.Error = "already the leader";
      return R;
    }
    if (Lead) {
      // A demoted ex-leader's divergent suffix is not replayable; such a
      // node rejoins as a fresh follower (DESIGN.md §15), it does not
      // re-promote in place.
      R.Error = "demoted ex-leader: rejoin as a follower first";
      return R;
    }
    replica::PromotionResult PR = replica::promoteFollower(*F, NewEpoch);
    if (!PR.Ok) {
      R.Error = PR.Error;
      return R;
    }
    Store = &F->store();
    Log = std::move(PR.Log);

    replica::Leader::Config LC;
    LC.Epoch = NewEpoch;
    LC.OnFenced = [this](uint64_t) { Role.demote(std::string()); };
    Lead = std::make_unique<replica::Leader>(Loop, *Log, LC);
    std::string Err;
    if (!Lead->start(&Err)) {
      R.Error = "promotion failed to start the leader endpoint: " + Err;
      return R;
    }

    service::ServiceConfig SC;
    SC.Workers = 2;
    Svc = std::make_unique<service::DiffService>(*Store, SC);
    Svc->setStatsAugmenter(
        [this] { return "\"replica\":" + Lead->replicaJson(); });
    net::ServiceHandler::Config WC;
    WC.Role = &Role;
    WC.OnPromote = [this](uint64_t E) { return promote(E); };
    WC.OnDemote = [this](std::string Addr) { return demote(std::move(Addr)); };
    Writer = std::make_unique<net::ServiceHandler>(*Svc, WC);
    Router->setWriter(Writer.get());
    Role.promote(NewEpoch);

    R.Ok = true;
    R.Version = PR.Docs;
    R.Payload = "promoted to epoch " + std::to_string(NewEpoch) + " (" +
                std::to_string(PR.Docs) + " docs, seq " +
                std::to_string(PR.LastSeq) + ")";
    return R;
  }

  service::Response demote(std::string LeaderAddr) {
    Role.demote(std::move(LeaderAddr));
    service::Response R;
    R.Ok = true;
    R.Payload = "demoted";
    return R;
  }
};

/// A bare follower on its own loop (probe/peer role in the tests).
struct Probe {
  net::EventLoop Loop;
  std::unique_ptr<replica::Follower> F;

  explicit Probe(const SignatureTable &Sig,
                 replica::Follower::Config C = replica::Follower::Config()) {
    Loop.start();
    F = std::make_unique<replica::Follower>(Loop, Sig, C);
  }
  ~Probe() {
    F->disconnect();
    Loop.stop();
  }
};

/// Keeps the follower of \p B connected to the leader of \p A (the link
/// may die under injected kills) until it has applied the full stream.
::testing::AssertionResult ensureCaughtUp(Node &A, Node &B,
                                          int TimeoutMs = 30000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  std::string Err;
  while (std::chrono::steady_clock::now() < Deadline) {
    if (B.F->caughtUp() && B.F->lastSeq() == A.Log->currentSeq())
      return ::testing::AssertionSuccess();
    if (!B.F->connected())
      B.F->connectTo("127.0.0.1", A.Lead->port(), &Err);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ::testing::AssertionFailure()
         << "follower never caught up: last_seq=" << B.F->lastSeq()
         << " leader_seq=" << A.Log->currentSeq()
         << " connected=" << B.F->connected() << " last_err=" << Err;
}

/// Byte-for-byte convergence of a follower against a store.
::testing::AssertionResult convergedWith(service::DocumentStore &Store,
                                         replica::Follower &F,
                                         uint64_t NumDocs) {
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    service::DocumentSnapshot S = Store.snapshot(Doc);
    if (!S.Ok) {
      if (F.contains(Doc))
        return ::testing::AssertionFailure()
               << "doc " << Doc << " absent on the leader but present on "
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
      return ::testing::AssertionFailure() << "doc " << Doc
                                           << " digest mismatch";
  }
  return ::testing::AssertionSuccess();
}

/// Seeded open/submit pressure against a store (no erases or rollbacks,
/// so committed-prefix comparisons stay version-aligned).
class StoreDriver {
public:
  StoreDriver(const SignatureTable &Sig, service::DocumentStore &Store,
              uint64_t Seed, uint64_t NumDocs)
      : Sig(Sig), Store(Store), Ctx(Sig), R(Seed), NumDocs(NumDocs) {}

  void step() {
    uint64_t Doc = 1 + R.below(NumDocs);
    corpus::JsonGenOptions Opts;
    Opts.MaxDepth = 3;
    Opts.MaxFanout = 3;
    Tree *T = corpus::generateJson(Ctx, R, Opts);
    ASSERT_NE(T, nullptr);
    std::string Blob = persist::encodeTree(Sig, T);
    service::StoreResult SR = Store.snapshot(Doc).Ok
                                  ? Store.submit(Doc, blobBuilder(Sig, Blob))
                                  : Store.open(Doc, blobBuilder(Sig, Blob));
    ASSERT_TRUE(SR.Ok) << SR.Error;
  }

  uint64_t numDocs() const { return NumDocs; }

private:
  const SignatureTable &Sig;
  service::DocumentStore &Store;
  TreeContext Ctx;
  Rng R;
  uint64_t NumDocs;
};

/// Asserts the promoted store holds a committed prefix of the old
/// leader's per-document history: for every promoted doc, rolling the
/// old leader's copy back to the promoted version reproduces the same
/// URI rendering and digest. Mutates \p OldStore (the old leader is done
/// serving).
void assertCommittedPrefix(service::DocumentStore &OldStore,
                           service::DocumentStore &Promoted,
                           uint64_t NumDocs) {
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    service::DocumentSnapshot P = Promoted.snapshot(Doc);
    service::DocumentSnapshot L = OldStore.snapshot(Doc);
    if (!P.Ok) {
      // The doc was opened after the replication cut: absent from the
      // prefix, which is fine. (Submit-only workloads never erase.)
      continue;
    }
    ASSERT_TRUE(L.Ok) << "doc " << Doc << " promoted but unknown to the old "
                      << "leader";
    ASSERT_LE(P.Version, L.Version) << "doc " << Doc;
    while (L.Version > P.Version) {
      service::StoreResult RB = OldStore.rollback(Doc);
      ASSERT_TRUE(RB.Ok) << "doc " << Doc << ": " << RB.Error;
      L = OldStore.snapshot(Doc);
      ASSERT_TRUE(L.Ok);
    }
    EXPECT_EQ(P.UriText, L.UriText) << "doc " << Doc << " at version "
                                    << P.Version;
    EXPECT_EQ(replica::summaryDigest(P.UriText),
              replica::summaryDigest(L.UriText))
        << "doc " << Doc;
  }
}

uint64_t mixSeed(uint64_t Base, uint64_t I) {
  return Base + I * 0x9e3779b97f4a7c15ULL;
}

using tests::TcpClient;

/// One textual request/response; returns the status line ("" on error).
std::string roundTrip(TcpClient &C, const std::string &Line) {
  if (!C.sendAll(Line + "\n"))
    return std::string();
  std::vector<std::string> Lines;
  if (!C.readTextResponse(Lines) || Lines.empty())
    return std::string();
  return Lines.front();
}

std::string binRequest(net::BinVerb Verb, std::string_view Payload) {
  std::string Out;
  net::appendFrame(Out, net::ClientReqMagic, static_cast<uint8_t>(Verb),
                   Payload);
  return Out;
}

//===----------------------------------------------------------------------===//
// Promotion basics: an empty follower boots into a writable leader, and
// a caught-up follower promotes into the exact replicated state.
//===----------------------------------------------------------------------===//

TEST(Failover, EmptyFollowerPromotesToWritableLeader) {
  SignatureTable Sig = json::makeJsonSignature();
  Node A(Sig);
  ASSERT_TRUE(A.Started);

  service::Response R = A.promote(1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(A.Role.writable());
  EXPECT_EQ(A.Role.view().Epoch, 1u);

  // Promoting a leader again is refused.
  EXPECT_FALSE(A.promote(2).Ok);

  // The promoted (empty) store serves writes and replicates them.
  StoreDriver D(Sig, *A.Store, 7, 2);
  for (int I = 0; I != 6; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(A.Log->currentSeq(), 0u);

  Probe P(Sig);
  ASSERT_TRUE(P.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(waitUntil(
      [&] { return P.F->caughtUp() && P.F->lastSeq() == A.Log->currentSeq(); }));
  EXPECT_TRUE(convergedWith(*A.Store, *P.F, D.numDocs()));
}

TEST(Failover, PromotedFollowerMatchesCommittedPrefixAndServesWrites) {
  uint64_t Seed = tests::testSeed(0x5eedf001);
  SEED_TRACE(Seed);
  SignatureTable Sig = json::makeJsonSignature();

  Node A(Sig);
  ASSERT_TRUE(A.Started);
  ASSERT_TRUE(A.promote(1).Ok);
  Node B(Sig);
  ASSERT_TRUE(B.Started);

  StoreDriver D(Sig, *A.Store, Seed, 3);
  for (int I = 0; I != 20; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(B.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(ensureCaughtUp(A, B));

  // Cut the link, push writes the follower never sees, then promote: the
  // promoted state must be the committed prefix at the cut, not a torn
  // mixture.
  B.F->disconnect();
  ASSERT_TRUE(waitUntil([&] { return !B.F->connected(); }));
  std::vector<service::DocumentSnapshot> AtCut(D.numDocs() + 1);
  for (uint64_t Doc = 1; Doc <= D.numDocs(); ++Doc)
    AtCut[Doc] = A.Store->snapshot(Doc);
  for (int I = 0; I != 6; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }

  service::Response R = B.promote(2);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(B.Role.writable());

  // Exactly the cut: every doc byte-identical to the pre-cut snapshot.
  for (uint64_t Doc = 1; Doc <= D.numDocs(); ++Doc) {
    if (!AtCut[Doc].Ok)
      continue;
    service::DocumentSnapshot P = B.Store->snapshot(Doc);
    ASSERT_TRUE(P.Ok) << "doc " << Doc << " lost in promotion";
    EXPECT_EQ(P.Version, AtCut[Doc].Version) << "doc " << Doc;
    EXPECT_EQ(P.UriText, AtCut[Doc].UriText) << "doc " << Doc;
  }
  assertCommittedPrefix(*A.Store, *B.Store, D.numDocs());

  // The promoted leader serves writes, continues the per-doc chains, and
  // replicates to a fresh follower.
  StoreDriver D2(Sig, *B.Store, Seed ^ 0x77, 3);
  for (int I = 0; I != 8; ++I) {
    D2.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  Probe P(Sig);
  ASSERT_TRUE(P.F->connectTo("127.0.0.1", B.Lead->port()));
  ASSERT_TRUE(waitUntil(
      [&] { return P.F->caughtUp() && P.F->lastSeq() == B.Log->currentSeq(); }));
  EXPECT_TRUE(convergedWith(*B.Store, *P.F, 3));
}

//===----------------------------------------------------------------------===//
// The admin verbs over the wire, and not_leader redirect hints
//===----------------------------------------------------------------------===//

TEST(Failover, PromoteVerbOverWireAndNotLeaderHints) {
  SignatureTable Sig = makeExpSignature();
  Node A(Sig);
  Node B(Sig);
  ASSERT_TRUE(A.Started && B.Started);
  ASSERT_TRUE(A.promote(1).Ok);
  B.Role.setLeaderAddr(A.clientAddr());

  TcpClient CA;
  ASSERT_TRUE(CA.connect(A.ClientSrv->port()));
  ASSERT_EQ(roundTrip(CA, "open 1 (Add (a) (b))").substr(0, 2), "ok");
  ASSERT_TRUE(B.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(ensureCaughtUp(A, B));

  // A write to the follower: not_leader with the leader address and a
  // retry pacing hint.
  TcpClient CB;
  ASSERT_TRUE(CB.connect(B.ClientSrv->port()));
  std::string Err = roundTrip(CB, "submit 1 (Add (b) (a))");
  EXPECT_EQ(Err.substr(0, 4), "err ") << Err;
  EXPECT_NE(Err.find(" code=not_leader"), std::string::npos) << Err;
  EXPECT_NE(Err.find(" retry_after_ms="), std::string::npos) << Err;
  EXPECT_NE(Err.find(" leader=" + A.clientAddr()), std::string::npos) << Err;

  // Reads on the follower still work (verb gating: get is not a write).
  EXPECT_EQ(roundTrip(CB, "get 1").substr(0, 2), "ok");

  // The resilient client follows the hint instead of failing.
  client::ResilientClient::Config CC;
  CC.Endpoints = {B.clientAddr()};
  CC.JitterSeed = 42;
  CC.BackoffBaseMs = 1;
  CC.BackoffCapMs = 10;
  client::ResilientClient RC(CC);
  client::ResilientClient::Result R = RC.submit(1, "(Mul (a) (b))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(RC.clientStats().Redirects, 1u);
  EXPECT_EQ(RC.currentEndpoint(), A.clientAddr());

  // Malformed admin verbs are clean parse errors, connection alive.
  EXPECT_EQ(roundTrip(CB, "promote 0").substr(0, 4), "err ");
  EXPECT_EQ(roundTrip(CB, "promote").substr(0, 4), "err ");

  // promote over the wire flips the node; the same port then serves the
  // full leader protocol.
  ASSERT_TRUE(ensureCaughtUp(A, B));
  std::string PromoteResp = roundTrip(CB, "promote 2");
  ASSERT_EQ(PromoteResp.substr(0, 2), "ok") << PromoteResp;
  ASSERT_TRUE(waitUntil([&] { return B.Role.writable(); }));
  EXPECT_EQ(roundTrip(CB, "submit 1 (Add (c) (c))").substr(0, 2), "ok");
  EXPECT_EQ(roundTrip(CB, "promote 3").substr(0, 4), "err ");

  // demote with an address updates the redirect hint on the old leader;
  // a client pointed only at it chases the hint to the new leader.
  EXPECT_EQ(roundTrip(CA, "demote " + B.clientAddr()).substr(0, 2), "ok");
  ASSERT_TRUE(waitUntil([&] { return !A.Role.writable(); }));
  std::string Fenced = roundTrip(CA, "submit 1 (Add (d) (d))");
  EXPECT_NE(Fenced.find(" code=not_leader"), std::string::npos) << Fenced;
  EXPECT_NE(Fenced.find(" leader=" + B.clientAddr()), std::string::npos)
      << Fenced;

  client::ResilientClient::Config DC;
  DC.Endpoints = {A.clientAddr()};
  DC.JitterSeed = 43;
  DC.BackoffBaseMs = 1;
  DC.BackoffCapMs = 10;
  client::ResilientClient RD(DC);
  client::ResilientClient::Result OR = RD.open(9, "(d)");
  ASSERT_TRUE(OR.Ok) << OR.Error;
  EXPECT_GE(RD.clientStats().Redirects, 1u);
  EXPECT_EQ(RD.currentEndpoint(), B.clientAddr());
}

//===----------------------------------------------------------------------===//
// Stale-leader fencing end to end
//===----------------------------------------------------------------------===//

TEST(Failover, StaleLeaderIsFencedAndRejoinsAsFollower) {
  uint64_t Seed = tests::testSeed(0x5eedf002);
  SEED_TRACE(Seed);
  SignatureTable Sig = json::makeJsonSignature();

  Node A(Sig);
  Node B(Sig);
  ASSERT_TRUE(A.Started && B.Started);
  ASSERT_TRUE(A.promote(1).Ok);

  StoreDriver D(Sig, *A.Store, Seed, 2);
  for (int I = 0; I != 10; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(B.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(ensureCaughtUp(A, B));
  ASSERT_TRUE(B.promote(2).Ok);

  // A follower that has seen epoch 2 knocks on the old leader: the
  // leader self-fences (demotes its role) and drops the connection.
  Probe P(Sig, [] {
    replica::Follower::Config C;
    C.MaxEpochSeen = 2;
    return C;
  }());
  std::string Err;
  EXPECT_FALSE(P.F->connectTo("127.0.0.1", A.Lead->port(), &Err));
  ASSERT_TRUE(waitUntil([&] { return !A.Role.writable(); }));
  EXPECT_GE(A.Lead->stats().FencedHellos, 1u);

  // Fenced: the old leader's client port rejects writes.
  TcpClient CA;
  ASSERT_TRUE(CA.connect(A.ClientSrv->port()));
  std::string Resp = roundTrip(CA, "rollback 1");
  EXPECT_NE(Resp.find(" code=not_leader"), std::string::npos) << Resp;

  // The divergent ex-leader rejoins through fresh follower state and
  // converges on the promoted leader's stream.
  StoreDriver D2(Sig, *B.Store, Seed ^ 0x3131, 2);
  for (int I = 0; I != 5; ++I) {
    D2.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(A.F->connectTo("127.0.0.1", B.Lead->port()));
  ASSERT_TRUE(waitUntil(
      [&] { return A.F->caughtUp() && A.F->lastSeq() == B.Log->currentSeq(); }));
  EXPECT_TRUE(convergedWith(*B.Store, *A.F, 2));
  EXPECT_EQ(A.F->stats().MaxEpochSeen, 2u);
}

//===----------------------------------------------------------------------===//
// Stats: the "replica" section
//===----------------------------------------------------------------------===//

TEST(Failover, StatsReportReplicaRoleEpochAndFollowerLag) {
  SignatureTable Sig = json::makeJsonSignature();
  Node A(Sig);
  Node B(Sig);
  ASSERT_TRUE(A.Started && B.Started);
  ASSERT_TRUE(A.promote(3).Ok);

  StoreDriver D(Sig, *A.Store, 11, 2);
  for (int I = 0; I != 6; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(B.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(ensureCaughtUp(A, B));

  // The ack stream drains the lag to zero once the follower applied
  // everything.
  ASSERT_TRUE(waitUntil([&] {
    std::vector<replica::Leader::FollowerLag> L = A.Lead->followerLags();
    return L.size() == 1 && L[0].AckedSeq == A.Log->currentSeq() &&
           L[0].Lag == 0;
  }));

  client::ResilientClient::Config CC;
  CC.Endpoints = {A.clientAddr()};
  CC.JitterSeed = 5;
  client::ResilientClient RC(CC);
  client::ResilientClient::Result S = RC.stats();
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_NE(S.Payload.find("\"replica\":{\"role\":\"leader\",\"epoch\":3"),
            std::string::npos)
      << S.Payload;
  EXPECT_NE(S.Payload.find("\"followers\":[{\"conn\":"), std::string::npos)
      << S.Payload;
  EXPECT_NE(S.Payload.find("\"lag\":0"), std::string::npos) << S.Payload;

  // The follower's stats carry its role, epoch, and applied seq.
  TcpClient CB;
  ASSERT_TRUE(CB.connect(B.ClientSrv->port()));
  ASSERT_TRUE(CB.sendAll("stats\n"));
  std::vector<std::string> Lines;
  ASSERT_TRUE(CB.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_NE(Lines[1].find("\"role\":\"follower\""), std::string::npos)
      << Lines[1];
  EXPECT_NE(Lines[1].find("\"last_seq\":"), std::string::npos) << Lines[1];
}

//===----------------------------------------------------------------------===//
// Exactly-once submits through the version-CAS guard
//===----------------------------------------------------------------------===//

TEST(ResilientClient, RetriedSubmitDedupsThroughVersionCas) {
  SignatureTable Sig = makeExpSignature();
  Node A(Sig);
  ASSERT_TRUE(A.Started);
  ASSERT_TRUE(A.promote(1).Ok);

  client::ResilientClient::Config CC;
  CC.Endpoints = {A.clientAddr()};
  CC.JitterSeed = 6;
  client::ResilientClient RC(CC);
  ASSERT_TRUE(RC.open(1, "(Add (a) (b))").Ok);
  client::ResilientClient::Result R1 = RC.submit(1, "(Add (b) (a))");
  ASSERT_TRUE(R1.Ok);
  EXPECT_EQ(R1.Version, 1u);

  // Replay the lost-ack scenario by hand: the client's "first copy"
  // applies out of band, then the client retries with its stale cached
  // version. The CAS guard bounces the retry; the client recognises
  // version == expect+1 as its own write and reports success -- and the
  // store's version proves nothing applied twice.
  TcpClient Ghost;
  ASSERT_TRUE(Ghost.connect(A.ClientSrv->port()));
  ASSERT_EQ(roundTrip(Ghost, "submit 1 expect=1 (Mul (a) (b))").substr(0, 2),
            "ok");

  client::ResilientClient::Result R2 = RC.submit(1, "(Mul (a) (b))");
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_TRUE(R2.Deduped);
  EXPECT_EQ(R2.Version, 2u);
  EXPECT_EQ(RC.clientStats().CasDedups, 1u);
  EXPECT_EQ(A.Store->snapshot(1).Version, 2u);

  // A genuinely concurrent writer (version jumped past expect+1) is NOT
  // claimed as a dedup: the conflict surfaces as a clean cas_mismatch.
  ASSERT_EQ(roundTrip(Ghost, "submit 1 expect=2 (Add (c) (c))").substr(0, 2),
            "ok");
  ASSERT_EQ(roundTrip(Ghost, "submit 1 expect=3 (Add (d) (d))").substr(0, 2),
            "ok");
  client::ResilientClient::Result R3 = RC.submit(1, "(d)");
  EXPECT_FALSE(R3.Ok);
  EXPECT_EQ(R3.Code, "cas_mismatch");
  EXPECT_FALSE(R3.Deduped);
  EXPECT_EQ(A.Store->snapshot(1).Version, 4u);
}

TEST(ResilientClient, TimeoutRetryThroughPartitionAppliesExactlyOnce) {
  SignatureTable Sig = makeExpSignature();
  Node A(Sig);
  ASSERT_TRUE(A.Started);
  ASSERT_TRUE(A.promote(1).Ok);

  client::ResilientClient::Config CC;
  CC.Endpoints = {A.clientAddr()};
  CC.RequestTimeoutMs = 150;
  CC.MaxAttempts = 60;
  CC.BackoffBaseMs = 2;
  CC.BackoffCapMs = 30;
  CC.JitterSeed = 8;
  client::ResilientClient RC(CC);
  ASSERT_TRUE(RC.open(1, "(Add (a) (b))").Ok);

  // Partition the server's outbound side: requests still arrive and
  // apply, the acks vanish -- the classic lost-response window.
  A.Env.setPartitioned(true);
  std::thread Healer([&] {
    // Heal only after the first copy provably applied AND the client's
    // first attempt has certainly timed out -- healing sooner would let
    // the held response flush within the attempt's deadline, turning
    // this into a plain slow success.
    bool Applied = waitUntil(
        [&] { return A.Store->snapshot(1).Version == 1; }, 10000);
    EXPECT_TRUE(Applied);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    A.Env.setPartitioned(false);
  });
  client::ResilientClient::Result R = RC.submit(1, "(Add (b) (a))");
  Healer.join();

  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Deduped);
  EXPECT_GE(R.Attempts, 2u);
  EXPECT_GE(RC.clientStats().Timeouts, 1u);
  EXPECT_EQ(R.Version, 1u);
  // Exactly once: the store holds version 1, not one per attempt.
  EXPECT_EQ(A.Store->snapshot(1).Version, 1u);
  EXPECT_GT(A.Env.stats().HeldSends, 0u);
}

//===----------------------------------------------------------------------===//
// Decoder fuzz: truncated and duplicated TLVs must never crash
//===----------------------------------------------------------------------===//

TEST(FrameFuzz, ReplicaDecodersSurviveTruncationDuplicationAndFlips) {
  uint64_t Seed = tests::testSeed(0x5eedf003);
  SEED_TRACE(Seed);
  Rng R(Seed);

  // One valid specimen of every replication frame.
  replica::FollowerHello FH;
  FH.LastSeq = 123456;
  FH.MaxEpochSeen = 7;
  replica::LeaderHello LH;
  LH.Epoch = 9;
  LH.CurrentSeq = 55;
  replica::RecordMsg Rec;
  Rec.Seq = 42;
  Rec.Doc = 3;
  Rec.Incarnation = 2;
  Rec.Op = replica::ReplOp::Submit;
  Rec.Version = 17;
  Rec.Blob = std::string("\x01\x02\x03\x04script-bytes", 16);
  Rec.Author = "alice";
  replica::DocSnapshotMsg Snap;
  Snap.Doc = 3;
  Snap.Incarnation = 2;
  Snap.Version = 17;
  Snap.Seq = 42;
  Snap.Blob = "tree-blob";
  Snap.ProvBlob = "prov-blob";
  replica::CatchupDoneMsg CD;
  CD.Seq = 42;
  CD.SnapshotMode = true;
  replica::ResyncReqMsg RR;
  RR.Doc = 3;
  replica::AckMsg Ack;
  Ack.Seq = 42;
  replica::ShardSummaryMsg Sum;
  Sum.Shard = 1;
  Sum.ShardCount = 2;
  Sum.AsOfSeq = 42;
  Sum.Entries.push_back({3, 17, replica::summaryDigest("(a)")});
  Sum.Entries.push_back({5, 2, replica::summaryDigest("(b)")});

  struct Specimen {
    const char *Name;
    std::string Frame; ///< full frame; payload starts at FrameHeaderBytes
    std::function<bool(std::string_view)> Decode;
  };
  std::vector<Specimen> Specimens = {
      {"follower_hello", replica::encodeFollowerHello(FH),
       [](std::string_view P) {
         replica::FollowerHello M;
         return replica::decodeFollowerHello(P, M);
       }},
      {"leader_hello", replica::encodeLeaderHello(LH),
       [](std::string_view P) {
         replica::LeaderHello M;
         return replica::decodeLeaderHello(P, M);
       }},
      {"record", replica::encodeRecord(Rec),
       [](std::string_view P) {
         replica::RecordMsg M;
         return replica::decodeRecord(P, M);
       }},
      {"doc_snapshot", replica::encodeDocSnapshot(Snap),
       [](std::string_view P) {
         replica::DocSnapshotMsg M;
         return replica::decodeDocSnapshot(P, M);
       }},
      {"catchup_done", replica::encodeCatchupDone(CD),
       [](std::string_view P) {
         replica::CatchupDoneMsg M;
         return replica::decodeCatchupDone(P, M);
       }},
      {"resync_req", replica::encodeResyncReq(RR),
       [](std::string_view P) {
         replica::ResyncReqMsg M;
         return replica::decodeResyncReq(P, M);
       }},
      {"ack", replica::encodeAck(Ack),
       [](std::string_view P) {
         replica::AckMsg M;
         return replica::decodeAck(P, M);
       }},
      {"shard_summary", replica::encodeShardSummary(Sum),
       [](std::string_view P) {
         replica::ShardSummaryMsg M;
         return replica::decodeShardSummary(P, M);
       }},
  };

  for (const Specimen &S : Specimens) {
    SCOPED_TRACE(S.Name);
    ASSERT_GT(S.Frame.size(), net::FrameHeaderBytes);
    std::string Payload = S.Frame.substr(net::FrameHeaderBytes);

    // The pristine payload decodes; strictness rejects a duplicated one
    // (trailing bytes) and the empty one.
    EXPECT_TRUE(S.Decode(Payload));
    EXPECT_FALSE(S.Decode(Payload + Payload));
    EXPECT_FALSE(S.Decode(std::string_view()));

    // Every truncation: must return (false or true), never crash or read
    // out of bounds (ASan is watching).
    for (size_t Len = 0; Len < Payload.size(); ++Len)
      S.Decode(std::string_view(Payload.data(), Len));

    // Seeded byte flips and splices.
    for (int I = 0; I != 200; ++I) {
      std::string Mut = Payload;
      size_t Flips = 1 + R.below(4);
      for (size_t K = 0; K != Flips; ++K)
        Mut[R.below(Mut.size())] ^= static_cast<char>(1 + R.below(255));
      if (R.chance(30))
        Mut += Payload.substr(R.below(Payload.size()));
      if (R.chance(30) && Mut.size() > 1)
        Mut.resize(1 + R.below(Mut.size() - 1));
      S.Decode(Mut);
    }
  }

  // The binary client-response decoder: ok and every err shape,
  // including the optional trailing leader-address TLV.
  service::Response Ok;
  Ok.Ok = true;
  Ok.Version = 5;
  service::Response NotLeader;
  NotLeader.Error = "not the leader";
  NotLeader.Code = service::ErrCode::NotLeader;
  NotLeader.RetryAfterMs = 50;
  NotLeader.LeaderAddr = "127.0.0.1:4242";
  service::Response Cas;
  Cas.Error = "expected version 3, document is at 4";
  Cas.Code = service::ErrCode::CasMismatch;
  Cas.Version = 4;
  for (const service::Response *Resp : {&Ok, &NotLeader, &Cas}) {
    std::string Frame = net::encodeBinResponse(*Resp, std::string_view());
    ASSERT_GE(Frame.size(), net::FrameHeaderBytes);
    uint8_t Status = static_cast<uint8_t>(Frame[1]);
    std::string Payload = Frame.substr(net::FrameHeaderBytes);
    net::BinResponse BR;
    EXPECT_TRUE(net::decodeBinResponse(Status, Payload, BR));
    for (size_t Len = 0; Len < Payload.size(); ++Len) {
      net::BinResponse T;
      net::decodeBinResponse(Status, std::string_view(Payload.data(), Len), T);
    }
    for (int I = 0; I != 200; ++I) {
      std::string Mut = Payload;
      if (!Mut.empty())
        Mut[R.below(Mut.size())] ^= static_cast<char>(1 + R.below(255));
      if (R.chance(40))
        Mut += Mut;
      net::BinResponse T;
      net::decodeBinResponse(Status, Mut, T);
    }
  }
  // The round-trip preserves the failover hints.
  std::string Frame = net::encodeBinResponse(NotLeader, std::string_view());
  net::BinResponse BR;
  ASSERT_TRUE(net::decodeBinResponse(static_cast<uint8_t>(Frame[1]),
                                     Frame.substr(net::FrameHeaderBytes), BR));
  EXPECT_EQ(BR.Code, service::ErrCode::NotLeader);
  EXPECT_EQ(BR.RetryAfterMs, 50u);
  EXPECT_EQ(BR.LeaderAddr, "127.0.0.1:4242");
}

TEST(FrameFuzz, MalformedPayloadsOverSocketsAnswerMalformedFrame) {
  uint64_t Seed = tests::testSeed(0x5eedf004);
  SEED_TRACE(Seed);
  Rng R(Seed);

  SignatureTable Sig = makeExpSignature();
  Node A(Sig);
  ASSERT_TRUE(A.Started);
  ASSERT_TRUE(A.promote(1).Ok);

  TcpClient C;
  ASSERT_TRUE(C.connect(A.ClientSrv->port()));
  ASSERT_EQ(roundTrip(C, "open 1 (Add (a) (b))").substr(0, 2), "ok");

  auto ExpectMalformed = [&](std::string_view Payload, net::BinVerb Verb) {
    ASSERT_TRUE(C.sendAll(binRequest(Verb, Payload)));
    net::BinResponse BR;
    ASSERT_TRUE(C.readBinResponse(BR));
    EXPECT_FALSE(BR.Ok);
    EXPECT_EQ(BR.Code, service::ErrCode::MalformedFrame) << BR.Error;
  };

  // Truncated varint: the doc id never completes.
  ExpectMalformed(std::string_view("\x80", 1), net::BinVerb::Get);
  ExpectMalformed(std::string_view("\xff\xff\x80", 3), net::BinVerb::Get);
  // Duplicated TLV: a second doc-id payload rides behind the first.
  {
    std::string P;
    persist::putVarint(P, 1);
    std::string Dup = P + P;
    ExpectMalformed(Dup, net::BinVerb::Get);
  }
  // An author TLV whose length points past the end of the frame.
  {
    std::string P;
    persist::putVarint(P, 1);
    persist::putVarint(P, 1000); // author length >> remaining bytes
    P += "ab";
    ExpectMalformed(P, net::BinVerb::Open);
  }

  // The connection answered every malformed payload and is still alive.
  EXPECT_EQ(roundTrip(C, "get 1").substr(0, 2), "ok");

  // Seeded hammer: random payloads on every verb answer *something*
  // (typed error or success) without killing the connection or process.
  // Every verb except Quit, whose contract is to close the connection.
  static const uint8_t HammerVerbs[] = {1, 2, 3, 4, 5, 6, 8, 9};
  for (int I = 0; I != 200; ++I) {
    uint8_t Verb = HammerVerbs[R.below(8)];
    std::string P;
    size_t Len = R.below(48);
    for (size_t K = 0; K != Len; ++K)
      P += static_cast<char>(R.below(256));
    ASSERT_TRUE(C.sendAll(binRequest(static_cast<net::BinVerb>(Verb), P)));
    net::BinResponse BR;
    ASSERT_TRUE(C.readBinResponse(BR)) << "iteration " << I;
  }
  EXPECT_EQ(roundTrip(C, "get 1").substr(0, 2), "ok");

  // The replication port survives garbage too: a framed-but-bogus hello
  // and raw noise just cost the sender its connection.
  {
    TcpClient G;
    ASSERT_TRUE(G.connect(A.Lead->port()));
    std::string Noise;
    net::appendFrame(Noise, net::ReplMagic,
                     static_cast<uint8_t>(net::ReplFrame::FollowerHello),
                     std::string_view("\x80\x80", 2));
    for (int I = 0; I != 64; ++I)
      Noise += static_cast<char>(R.below(256));
    ASSERT_TRUE(G.sendAll(Noise));
    EXPECT_TRUE(G.waitEof());
  }
  // ...and a real follower still syncs afterwards.
  Probe P(Sig);
  ASSERT_TRUE(P.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(waitUntil(
      [&] { return P.F->caughtUp() && P.F->lastSeq() == A.Log->currentSeq(); }));
}

//===----------------------------------------------------------------------===//
// Chaos: seeded fault schedules, in-process promotion edition
//===----------------------------------------------------------------------===//

/// One seeded schedule: leader under a seeded fault env, follower
/// catching up through it, a durability point, an at-risk suffix with a
/// mid-stream cut, promotion, and the prefix/durability/continuation
/// assertions.
void runPromotionSchedule(const SignatureTable &Sig, uint64_t SchedSeed) {
  SEED_TRACE(SchedSeed);
  Rng R(SchedSeed);

  net::FaultyNetEnv::Config EC;
  EC.Seed = SchedSeed;
  EC.ShortWriteProb = 0.2 * static_cast<double>(R.below(3)); // 0 / .2 / .4
  EC.DelayProb = 0.25 * static_cast<double>(R.below(2));     // 0 / .25
  EC.MaxDelayMs = 2;
  if (R.chance(30)) {
    EC.KillProb = 0.25;
    EC.KillAfterMax = 1 + R.below(4096);
  }

  Node A(Sig, EC);
  ASSERT_TRUE(A.Started);
  ASSERT_TRUE(A.promote(1).Ok);
  Node B(Sig);
  ASSERT_TRUE(B.Started);

  const uint64_t NumDocs = 2;
  StoreDriver D(Sig, *A.Store, SchedSeed ^ 0xd00d, NumDocs);

  // Pre-connect history (tail replay or snapshot transfer, seed's pick).
  uint64_t Pre = 1 + R.below(6);
  for (uint64_t I = 0; I != Pre; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_TRUE(ensureCaughtUp(A, B));

  // Live stream under faults, with an optional transient partition.
  uint64_t Live = 2 + R.below(8);
  for (uint64_t I = 0; I != Live; ++I) {
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  if (R.chance(40)) {
    A.Env.setPartitioned(true);
    uint64_t Held = R.below(3);
    for (uint64_t I = 0; I != Held; ++I) {
      D.step();
      if (::testing::Test::HasFatalFailure())
        return;
    }
    A.Env.setPartitioned(false);
  }

  // Durability point: everything committed so far is replicated.
  ASSERT_TRUE(ensureCaughtUp(A, B));
  std::vector<service::DocumentSnapshot> Durable(NumDocs + 1);
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc)
    Durable[Doc] = A.Store->snapshot(Doc);

  // At-risk suffix: writes the follower may or may not see, with the
  // link cut somewhere in the middle.
  uint64_t AtRisk = R.below(4);
  uint64_t CutAfter = R.below(AtRisk + 1);
  for (uint64_t I = 0; I != AtRisk; ++I) {
    if (I == CutAfter)
      B.F->disconnect();
    D.step();
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // Promote. The fence half runs first, so the old leader's stream can
  // never reach this node again.
  service::Response PR = B.promote(2);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  ASSERT_TRUE(B.Role.writable());

  // No durable-acked write lost; promoted state is a committed prefix.
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    if (!Durable[Doc].Ok)
      continue;
    service::DocumentSnapshot P = B.Store->snapshot(Doc);
    ASSERT_TRUE(P.Ok) << "doc " << Doc << " lost across the failover";
    ASSERT_GE(P.Version, Durable[Doc].Version) << "doc " << Doc;
    if (P.Version == Durable[Doc].Version) {
      EXPECT_EQ(P.UriText, Durable[Doc].UriText) << "doc " << Doc;
    }
  }
  assertCommittedPrefix(*A.Store, *B.Store, NumDocs);
  if (::testing::Test::HasFatalFailure())
    return;

  // Continuation: the promoted leader serves writes and replicates.
  if (R.chance(50)) {
    StoreDriver D2(Sig, *B.Store, SchedSeed ^ 0xbeef, NumDocs);
    uint64_t More = 1 + R.below(3);
    for (uint64_t I = 0; I != More; ++I) {
      D2.step();
      if (::testing::Test::HasFatalFailure())
        return;
    }
    Probe P(Sig);
    ASSERT_TRUE(P.F->connectTo("127.0.0.1", B.Lead->port()));
    ASSERT_TRUE(waitUntil([&] {
      return P.F->caughtUp() && P.F->lastSeq() == B.Log->currentSeq();
    }));
    EXPECT_TRUE(convergedWith(*B.Store, *P.F, NumDocs));
  }

  // Fencing: the old leader self-demotes on the first hello that has
  // seen the new epoch.
  if (R.chance(35)) {
    Probe P2(Sig, [] {
      replica::Follower::Config C;
      C.MaxEpochSeen = 2;
      return C;
    }());
    EXPECT_FALSE(P2.F->connectTo("127.0.0.1", A.Lead->port()));
    ASSERT_TRUE(waitUntil([&] { return !A.Role.writable(); }));
    EXPECT_GE(A.Lead->stats().FencedHellos, 1u);
  }
}

TEST(FailoverChaos, SeededPromotionSchedules) {
  uint64_t Seed = tests::testSeed(0x5eedfa11);
  SEED_TRACE(Seed);
  SignatureTable Sig = json::makeJsonSignature();

  uint64_t Total = tests::testIters("TRUEDIFF_FAILOVER_ITERS", 200);
  uint64_t Heavy = std::min<uint64_t>(12, std::max<uint64_t>(1, Total / 16));
  uint64_t Light = Total > Heavy ? Total - Heavy : 1;
  for (uint64_t I = 0; I != Light; ++I) {
    runPromotionSchedule(Sig, mixSeed(Seed, I));
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasFailure()) {
      ADD_FAILURE() << "schedule " << I << " failed (TRUEDIFF_TEST_SEED="
                    << mixSeed(Seed, I) << ")";
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Chaos: full-stack failover over real sockets with the resilient client
//===----------------------------------------------------------------------===//

void runClientFailoverSchedule(const SignatureTable &Sig, uint64_t SchedSeed) {
  SEED_TRACE(SchedSeed);
  Rng R(SchedSeed);

  static const char *Exprs[] = {
      "(Add (a) (b))",  "(Add (b) (a))",       "(Mul (a) (Num 1))",
      "(Mul (Num 2) (b))", "(Add (Mul (a) (b)) (c))", "(d)",
  };
  auto AnyExpr = [&] { return std::string(Exprs[R.below(6)]); };

  net::FaultyNetEnv::Config EC;
  EC.Seed = SchedSeed;
  EC.ShortWriteProb = 0.25;
  EC.DelayProb = 0.2;
  EC.MaxDelayMs = 2;
  Node A(Sig, EC);
  Node B(Sig);
  ASSERT_TRUE(A.Started && B.Started);
  ASSERT_TRUE(A.promote(1).Ok);
  B.Role.setLeaderAddr(A.clientAddr());
  ASSERT_TRUE(B.F->connectTo("127.0.0.1", A.Lead->port()));

  client::ResilientClient::Config CC;
  CC.Endpoints = {A.clientAddr(), B.clientAddr()};
  CC.RequestTimeoutMs = 400;
  CC.MaxAttempts = 25;
  CC.BackoffBaseMs = 2;
  CC.BackoffCapMs = 30;
  CC.JitterSeed = SchedSeed ^ 0x915f77f5a5a5a5a5ULL;
  client::ResilientClient C(CC);

  const uint64_t NumDocs = 2;
  std::vector<uint64_t> Acked(NumDocs + 1, 0);
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    client::ResilientClient::Result O = C.open(Doc, AnyExpr());
    ASSERT_TRUE(O.Ok) << O.Error;
  }
  uint64_t Pre = 3 + R.below(5);
  for (uint64_t I = 0; I != Pre; ++I) {
    uint64_t Doc = 1 + R.below(NumDocs);
    client::ResilientClient::Result S = C.submit(Doc, AnyExpr());
    ASSERT_TRUE(S.Ok) << S.Error;
    Acked[Doc] = S.Version;
  }

  // Durability point, then the leader "dies": a full outbound partition
  // (connections accepted, nothing ever answered -- the cruellest kill).
  ASSERT_TRUE(ensureCaughtUp(A, B));
  std::vector<service::DocumentSnapshot> Durable(NumDocs + 1);
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc)
    Durable[Doc] = A.Store->snapshot(Doc);
  A.Env.setPartitioned(true);

  // An operator (separate admin client) promotes the follower.
  client::ResilientClient::Config AC;
  AC.Endpoints = {B.clientAddr()};
  AC.RequestTimeoutMs = 2000;
  AC.JitterSeed = SchedSeed ^ 0x1111;
  client::ResilientClient Admin(AC);
  client::ResilientClient::Result PR = Admin.request("promote 2", false);
  ASSERT_TRUE(PR.Ok) << PR.Error;
  ASSERT_TRUE(waitUntil([&] { return B.Role.writable(); }));

  // The same client keeps writing: its next submit burns a timeout on
  // the dead leader, rotates, and lands on the promoted one.
  uint64_t Post = 2 + R.below(4);
  for (uint64_t I = 0; I != Post; ++I) {
    uint64_t Doc = 1 + R.below(NumDocs);
    client::ResilientClient::Result S = C.submit(Doc, AnyExpr());
    ASSERT_TRUE(S.Ok) << S.Error << " (code " << S.Code << ")";
    ASSERT_GE(S.Version, Acked[Doc]) << "doc " << Doc << " went backwards";
    Acked[Doc] = S.Version;
  }
  EXPECT_GE(C.clientStats().Timeouts + C.clientStats().ConnectFailures +
                C.clientStats().Redirects,
            1u);

  // Survival invariants: nothing durable-acked lost, nothing applied
  // twice -- the promoted store's version is exactly the last acked one.
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    service::DocumentSnapshot S = B.Store->snapshot(Doc);
    ASSERT_TRUE(S.Ok) << "doc " << Doc << " lost across the failover";
    EXPECT_GE(S.Version, Durable[Doc].Version) << "doc " << Doc;
    EXPECT_EQ(S.Version, Acked[Doc]) << "doc " << Doc;
  }

  // Heal the old leader and fence it; demote points its clients at B.
  A.Env.setPartitioned(false);
  Probe P2(Sig, [] {
    replica::Follower::Config C2;
    C2.MaxEpochSeen = 2;
    return C2;
  }());
  EXPECT_FALSE(P2.F->connectTo("127.0.0.1", A.Lead->port()));
  ASSERT_TRUE(waitUntil([&] { return !A.Role.writable(); }));
  client::ResilientClient::Config DC;
  DC.Endpoints = {A.clientAddr()};
  DC.RequestTimeoutMs = 2000;
  DC.JitterSeed = SchedSeed ^ 0x2222;
  client::ResilientClient AdminA(DC);
  ASSERT_TRUE(AdminA.request("demote " + B.clientAddr(), false).Ok);

  // A client that only knows the old leader follows the hint.
  client::ResilientClient::Config LC;
  LC.Endpoints = {A.clientAddr()};
  LC.RequestTimeoutMs = 1000;
  LC.BackoffBaseMs = 1;
  LC.BackoffCapMs = 10;
  LC.JitterSeed = SchedSeed ^ 0x3333;
  client::ResilientClient Late(LC);
  client::ResilientClient::Result O = Late.open(9, AnyExpr());
  ASSERT_TRUE(O.Ok) << O.Error;
  EXPECT_GE(Late.clientStats().Redirects, 1u);
  EXPECT_EQ(Late.currentEndpoint(), B.clientAddr());

  // Full circle: the fenced ex-leader rejoins as a fresh follower and
  // converges on the promoted stream (doc 9 included).
  ASSERT_TRUE(A.F->connectTo("127.0.0.1", B.Lead->port()));
  ASSERT_TRUE(waitUntil(
      [&] { return A.F->caughtUp() && A.F->lastSeq() == B.Log->currentSeq(); }));
  EXPECT_TRUE(convergedWith(*B.Store, *A.F, 9));
}

TEST(FailoverChaos, ClientSurvivesLeaderPartitionAndPromotion) {
  uint64_t Seed = tests::testSeed(0x5eedfa12);
  SEED_TRACE(Seed);
  SignatureTable Sig = makeExpSignature();

  uint64_t Total = tests::testIters("TRUEDIFF_FAILOVER_ITERS", 200);
  uint64_t Heavy = std::min<uint64_t>(12, std::max<uint64_t>(1, Total / 16));
  for (uint64_t I = 0; I != Heavy; ++I) {
    runClientFailoverSchedule(Sig, mixSeed(Seed ^ 0xc11e, I));
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasFailure()) {
      ADD_FAILURE() << "schedule " << I << " failed (TRUEDIFF_TEST_SEED="
                    << mixSeed(Seed ^ 0xc11e, I) << ")";
      return;
    }
  }
}

} // namespace
