//===- examples/replication_smoke.cpp - Leader/follower smoke test ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CI replication smoke: brings up a leader and two follower
/// replicas over loopback TCP in one process, drives a seeded workload
/// of authored opens, submits, rollbacks, and erases through the
/// leader, reads every document back over the followers' TCP read
/// endpoints, and asserts byte-for-byte convergence (URI-preserving
/// rendering and summary digest). The same check covers attribution:
/// each live document's `blame` and `history` responses must be
/// byte-identical between the leader's provenance index and each
/// follower's, which is maintained independently from the record
/// stream. Exits 0 on convergence, 1 on any divergence.
///
///   replication_smoke [steps] [seed]
///
//===----------------------------------------------------------------------===//

#include "blame/Provenance.h"
#include "blame/Render.h"
#include "client/Client.h"
#include "corpus/JsonGen.h"
#include "json/Json.h"
#include "net/NetServer.h"
#include "persist/BinaryCodec.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/DocumentStore.h"
#include "support/Rng.h"

#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace truediff;

namespace {

constexpr uint64_t NumDocs = 8;

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

bool checkFollower(const char *Name, service::DocumentStore &Store,
                   const blame::ProvenanceIndex &Prov, replica::Follower &F) {
  bool Ok = true;
  uint64_t Live = 0;
  for (uint64_t Doc = 1; Doc <= NumDocs; ++Doc) {
    service::DocumentSnapshot S = Store.snapshot(Doc);
    if (!S.Ok) {
      if (F.contains(Doc)) {
        std::fprintf(stderr, "FAIL %s: doc %llu erased on leader, present\n",
                     Name, static_cast<unsigned long long>(Doc));
        Ok = false;
      }
      continue;
    }
    ++Live;
    replica::Follower::ReadResult R = F.read(Doc);
    if (!R.Ok) {
      std::fprintf(stderr,
                   "FAIL %s: doc %llu unreadable: %s (caught_up=%d "
                   "last_applied_seq=%llu)\n",
                   Name, static_cast<unsigned long long>(Doc), R.Error.c_str(),
                   F.caughtUp() ? 1 : 0,
                   static_cast<unsigned long long>(F.lastSeq()));
      Ok = false;
      continue;
    }
    Digest Want = replica::summaryDigest(S.UriText);
    if (R.Version != S.Version || R.UriText != S.UriText ||
        R.Summary != Want) {
      // Dump everything a divergence post-mortem needs: both digests,
      // both versions, and how far into the record stream the follower
      // got, so "stale" and "corrupt" are distinguishable from the log.
      std::fprintf(stderr,
                   "FAIL %s: doc %llu diverged\n"
                   "  leader:   v%llu digest %s\n"
                   "  follower: v%llu digest %s (caught_up=%d "
                   "last_applied_seq=%llu)\n",
                   Name, static_cast<unsigned long long>(Doc),
                   static_cast<unsigned long long>(S.Version),
                   Want.toHex().c_str(),
                   static_cast<unsigned long long>(R.Version),
                   R.Summary.toHex().c_str(), F.caughtUp() ? 1 : 0,
                   static_cast<unsigned long long>(F.lastSeq()));
      Ok = false;
    }

    // Attribution convergence: the follower's provenance index is built
    // independently from the record stream, yet its blame and history
    // responses must match the leader's byte for byte.
    service::Response LB = blame::blameResponse(Store, Prov, Doc, false, NullURI);
    service::Response FB = F.blameRead(Doc, false, NullURI);
    if (LB.Code != FB.Code || LB.Payload != FB.Payload ||
        LB.Error != FB.Error) {
      std::fprintf(stderr,
                   "FAIL %s: doc %llu blame diverged\n  leader: %s%s\n  "
                   "follower: %s%s\n",
                   Name, static_cast<unsigned long long>(Doc),
                   LB.Payload.c_str(), LB.Error.c_str(), FB.Payload.c_str(),
                   FB.Error.c_str());
      Ok = false;
    }
    // The root's URI leads the leader's blame tree as `<tag>#<uri> ...`.
    URI HistUri = NullURI;
    size_t Hash = LB.Payload.find('#');
    if (LB.Code == service::ErrCode::None && Hash != std::string::npos)
      HistUri = std::strtoull(LB.Payload.c_str() + Hash + 1, nullptr, 10);
    if (HistUri != NullURI) {
      service::Response LH = blame::historyResponse(Store, Prov, Doc, HistUri);
      service::Response FH = F.historyRead(Doc, HistUri);
      if (LH.Code != FH.Code || LH.Payload != FH.Payload ||
          LH.Error != FH.Error) {
        std::fprintf(stderr,
                     "FAIL %s: doc %llu history(#%llu) diverged\n  leader: "
                     "%s%s\n  follower: %s%s\n",
                     Name, static_cast<unsigned long long>(Doc),
                     static_cast<unsigned long long>(HistUri),
                     LH.Payload.c_str(), LH.Error.c_str(), FH.Payload.c_str(),
                     FH.Error.c_str());
        Ok = false;
      }
    }
  }
  if (Ok)
    std::fprintf(stderr,
                 "%s: %llu live documents byte-identical (trees, blame, "
                 "history)\n",
                 Name, static_cast<unsigned long long>(Live));
  return Ok;
}

/// Reads over the follower's TCP endpoint through the resilient client,
/// proving the read path (connect, framed get, stats with the replica
/// section) works end to end with the library real deployments use.
bool tcpReadWorks(uint16_t Port, uint64_t Doc) {
  client::ResilientClient::Config CC;
  CC.Endpoints = {"127.0.0.1:" + std::to_string(Port)};
  CC.RequestTimeoutMs = 5000;
  client::ResilientClient C(CC);
  client::ResilientClient::Result G = C.get(Doc);
  if (!G.Ok) {
    std::fprintf(stderr, "follower get over TCP failed: %s\n",
                 G.Error.c_str());
    return false;
  }
  client::ResilientClient::Result S = C.stats();
  if (!S.Ok || S.Payload.find("\"role\":\"follower\"") == std::string::npos) {
    std::fprintf(stderr, "follower stats over TCP missing replica role: %s\n",
                 S.Ok ? S.Payload.c_str() : S.Error.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Steps = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 300;
  uint64_t Seed = Argc > 2 ? std::strtoull(Argv[2], nullptr, 10) : 0xc0ffee;

  SignatureTable Sig = json::makeJsonSignature();

  // Leader: store + provenance index + replication log + TCP endpoint.
  service::DocumentStore Store(Sig);
  blame::ProvenanceIndex Prov;
  Prov.attach(Store);
  replica::ReplicationLog Log(Store);
  Log.setProvenanceSource(
      [&Prov](service::DocId Doc) { return Prov.snapshotDoc(Doc); });
  net::EventLoop LeaderLoop;
  replica::Leader::Config LC;
  LC.Epoch = 1;
  replica::Leader Lead(LeaderLoop, Log, LC);
  Log.attach();
  std::string Err;
  if (!Lead.start(&Err)) {
    std::fprintf(stderr, "leader start failed: %s\n", Err.c_str());
    return 1;
  }
  LeaderLoop.start();

  // Two followers, each with its own loop and a TCP read endpoint.
  net::EventLoop Loop1, Loop2;
  Loop1.start();
  Loop2.start();
  replica::Follower F1(Loop1, Sig), F2(Loop2, Sig);
  replica::ReplicaReadHandler H1(F1), H2(F2);
  net::NetServer::Config RC; // ephemeral port, default limits
  net::NetServer Read1(Loop1, Sig, H1, RC), Read2(Loop2, Sig, H2, RC);
  if (!Read1.start(&Err) || !Read2.start(&Err)) {
    std::fprintf(stderr, "read endpoint start failed: %s\n", Err.c_str());
    return 1;
  }
  if (!F1.connectTo("127.0.0.1", Lead.port(), &Err) ||
      !F2.connectTo("127.0.0.1", Lead.port(), &Err)) {
    std::fprintf(stderr, "follower connect failed: %s\n", Err.c_str());
    return 1;
  }

  // Seeded workload through the leader: authored open/submit plus
  // rollback/erase, so blame responses carry real attribution.
  static const char *const Authors[] = {"ada", "grace", "barbara", "edsger"};
  Rng R(Seed);
  TreeContext Ctx(Sig);
  std::unordered_map<uint64_t, Tree *> Model;
  corpus::JsonGenOptions Opts;
  Opts.MaxDepth = 3;
  Opts.MaxFanout = 4;
  for (uint64_t I = 0; I != Steps; ++I) {
    uint64_t Doc = 1 + R.below(NumDocs);
    const char *Author = Authors[R.below(4)];
    auto It = Model.find(Doc);
    if (It == Model.end()) {
      Tree *T = corpus::generateJson(Ctx, R, Opts);
      service::StoreResult SR = Store.open(
          Doc, blobBuilder(Sig, persist::encodeTree(Sig, T)), Author);
      if (!SR.Ok) {
        std::fprintf(stderr, "open failed: %s\n", SR.Error.c_str());
        return 1;
      }
      Model[Doc] = T;
      continue;
    }
    unsigned Dice = static_cast<unsigned>(R.below(100));
    if (Dice < 70) {
      Tree *Next = corpus::mutateJson(Ctx, R, It->second);
      service::SubmitOptions SubOpts;
      SubOpts.Author = Author;
      service::StoreResult SR = Store.submit(
          Doc, blobBuilder(Sig, persist::encodeTree(Sig, Next)), SubOpts);
      if (!SR.Ok) {
        std::fprintf(stderr, "submit failed: %s\n", SR.Error.c_str());
        return 1;
      }
      It->second = Next;
    } else if (Dice < 85) {
      Store.rollback(Doc); // may fail cleanly at version 0
    } else {
      Store.erase(Doc);
      Model.erase(Doc);
    }
  }

  uint64_t Target = Log.currentSeq();
  bool Caught =
      waitUntil([&] { return F1.caughtUp() && F1.lastSeq() == Target; }) &&
      waitUntil([&] { return F2.caughtUp() && F2.lastSeq() == Target; });
  if (!Caught) {
    std::fprintf(stderr, "FAIL: followers did not catch up to seq %llu "
                         "(f1=%llu f2=%llu)\n",
                 static_cast<unsigned long long>(Target),
                 static_cast<unsigned long long>(F1.lastSeq()),
                 static_cast<unsigned long long>(F2.lastSeq()));
    return 1;
  }

  bool Ok = checkFollower("follower-1", Store, Prov, F1) &&
            checkFollower("follower-2", Store, Prov, F2);

  // Prove the TCP read endpoints answer (any live doc; doc ids start
  // at 1 and something is live after a seeded run of this length).
  uint64_t AnyLive = 0;
  for (uint64_t Doc = 1; Doc <= NumDocs && AnyLive == 0; ++Doc)
    if (Store.contains(Doc))
      AnyLive = Doc;
  if (AnyLive != 0) {
    if (!tcpReadWorks(Read1.port(), AnyLive) ||
        !tcpReadWorks(Read2.port(), AnyLive)) {
      std::fprintf(stderr, "FAIL: follower TCP read endpoint unresponsive\n");
      Ok = false;
    } else {
      std::fprintf(stderr, "follower TCP read endpoints answered\n");
    }
  }

  std::fprintf(stderr, "replication smoke: %llu steps, seq %llu, %s\n",
               static_cast<unsigned long long>(Steps),
               static_cast<unsigned long long>(Target),
               Ok ? "CONVERGED" : "DIVERGED");

  F1.disconnect();
  F2.disconnect();
  Loop1.stop();
  Loop2.stop();
  LeaderLoop.stop();
  return Ok ? 0 : 1;
}
