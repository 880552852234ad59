//===- bench/service_throughput.cpp - Concurrent diff-service scaling ------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the DiffService with N concurrent client threads over the
/// commit corpus and reports aggregate diffing throughput (nodes/ms) as
/// the worker pool grows from 1 to hardware_concurrency. Each corpus
/// commit chain becomes one live document; clients replay the chain's
/// commits as Submit requests (parse + diff + script serialization all
/// happen inside the service workers), so the bench measures the full
/// serving path including queueing. Independent documents are the unit
/// of parallelism -- exactly the store's locking model -- so throughput
/// should rise monotonically with the worker count until it saturates
/// the hardware.
///
/// A second phase measures the warm-path digest cache: the same chains
/// are replayed twice at the store level, once with persisted Step-1
/// digests (warm, the default) and once rehashing every stored tree from
/// scratch per request (cold, a stateless service). The emitted scripts
/// must be byte-identical -- the cache is an optimisation, never a
/// semantic change -- and the warm path must be at least 2x the cold
/// path in nodes/ms.
///
/// An overload phase measures the protection added by fair scheduling
/// and sojourn shedding: a hot tenant offers 4x the measured
/// single-tenant capacity open-loop while a cold tenant trickles, and
/// the run fails unless goodput stays within 20% of capacity, the cold
/// tenant is fully served with bounded p99 latency, and every shed or
/// backpressure response carries a per-document retry_after_ms hint.
///
/// A failover phase kills the leader mid-load over real sockets,
/// promotes its follower, and reports time-to-first-successful-write
/// and the read-goodput dip while a resilient client rides through the
/// takeover; the gate is convergence (durable prefix preserved,
/// byte-identical replication from the new leader), not wall-clock.
///
/// A final integrity phase measures the background scrubber's serving
/// cost: the same closed-loop workload with the scrubber off and on,
/// gated at a 5% goodput penalty and zero findings on the clean run,
/// plus time-to-detect and time-to-repair for an injected in-memory
/// corruption (restored to byte identity from snapshot+WAL).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "client/Client.h"
#include "integrity/Scrubber.h"
#include "json/Json.h"
#include "net/NetServer.h"
#include "net/Role.h"
#include "net/ServiceHandler.h"
#include "persist/Persistence.h"
#include "persist/Snapshot.h"
#include "persist/Wal.h"
#include "python/Python.h"
#include "replica/Failover.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/DiffService.h"
#include "truechange/Serialize.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <future>
#include <mutex>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace truediff;
using namespace truediff::bench;
using namespace truediff::service;

namespace {

/// One document's commit chain: the opening source plus each successor.
struct Chain {
  std::string Base;
  std::vector<std::string> Commits;
};

TreeBuilder pythonBuilder(const std::string *Source) {
  return [Source](TreeContext &Ctx) -> BuildResult {
    python::PyParseResult P = python::parsePython(Ctx, *Source);
    if (!P.ok())
      return BuildResult{nullptr, "python parse error"};
    return BuildResult{P.Module, ""};
  };
}

/// A scratch data directory for the integrity phase, removed with its
/// wal/snap contents on destruction (same idiom as bench/persistence).
class ScratchDir {
public:
  ScratchDir() {
    char Tmpl[] = "./integrity-bench-XXXXXX";
    const char *P = ::mkdtemp(Tmpl);
    Dir = P ? P : "";
  }
  ~ScratchDir() {
    if (Dir.empty())
      return;
    for (const auto &[Index, Path] : persist::listWalSegments(Dir))
      ::unlink(Path.c_str());
    for (const persist::SnapshotFileName &F : persist::listSnapshotFiles(Dir))
      ::unlink(F.Path.c_str());
    ::rmdir(Dir.c_str());
  }
  bool ok() const { return !Dir.empty(); }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

/// Runs the whole workload against a fresh store+service with \p Workers
/// workers; returns {nodesDiffed, wallMs}.
std::pair<double, double> runWorkload(const SignatureTable &Sig,
                                      const std::vector<Chain> &Chains,
                                      unsigned Workers, unsigned Clients) {
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.QueueCapacity = 1024;
  DiffService Service(Store, Cfg);

  auto Start = Clock::now();
  std::vector<std::thread> Pool;
  Pool.reserve(Clients);
  for (unsigned C = 0; C != Clients; ++C) {
    Pool.emplace_back([&, C] {
      // Client C owns chains C, C+Clients, ... and replays each one
      // sequentially; awaiting every future keeps per-document requests
      // ordered while Clients requests stay in flight service-wide.
      for (size_t I = C; I < Chains.size(); I += Clients) {
        const Chain &Ch = Chains[I];
        DocId Doc = static_cast<DocId>(I + 1);
        Response R = Service.open(Doc, pythonBuilder(&Ch.Base));
        if (!R.Ok)
          continue;
        for (const std::string &Commit : Ch.Commits)
          Service.submit(Doc, pythonBuilder(&Commit));
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();
  double WallMs = msSince(Start);
  double Nodes = static_cast<double>(Service.metrics().NodesDiffed.load());
  Service.shutdown();
  return {Nodes, WallMs};
}

/// One cold-or-warm replay of the whole corpus through a fresh store.
struct ReplayResult {
  double Nodes = 0;
  /// Wall time of the open/submit path minus ParseMs: the diff-service
  /// processing the digest cache actually accelerates.
  double DiffMs = 0;
  /// Time spent inside the tree builders (parsing request payloads).
  /// Identical work on both sides and excluded from the throughput
  /// comparison, matching the paper's evaluation methodology of timing
  /// diffing separately from parsing.
  double ParseMs = 0;
  uint64_t Rehashed = 0;
  /// Total edits across all emitted scripts -- the conciseness axis.
  uint64_t Edits = 0;
  std::vector<std::string> Scripts;
};

/// Replays every chain sequentially into a fresh DocumentStore with the
/// digest cache on (\p Persist) or off. Script
/// serialization for the byte-identity check happens outside the timed
/// region. With \p Fallback every submit takes the deadline-fallback
/// path (the type-checked replace-root script) instead of diffing.
ReplayResult replayStore(const SignatureTable &Sig,
                         const std::vector<Chain> &Chains, bool Persist,
                         bool Fallback = false) {
  DocumentStore::Config Cfg;
  Cfg.PersistDigests = Persist;
  DocumentStore Store(Sig, Cfg);
  SubmitOptions Opts;
  if (Fallback)
    Opts.UseFallback = [] { return true; };
  ReplayResult Out;
  auto TimedBuilder = [&Out](const std::string *Src) {
    return [&Out, Src](TreeContext &Ctx) -> BuildResult {
      auto T0 = Clock::now();
      BuildResult B = pythonBuilder(Src)(Ctx);
      Out.ParseMs += msSince(T0);
      return B;
    };
  };
  std::vector<EditScript> Scripts;
  uint64_t Nodes = 0;
  auto Start = Clock::now();
  for (size_t I = 0; I != Chains.size(); ++I) {
    DocId Doc = static_cast<DocId>(I + 1);
    if (!Store.open(Doc, TimedBuilder(&Chains[I].Base)).Ok)
      continue;
    for (const std::string &Commit : Chains[I].Commits) {
      StoreResult R = Store.submit(Doc, TimedBuilder(&Commit), Opts);
      if (!R.Ok)
        continue;
      Nodes += R.NodesDiffed;
      Out.Edits += R.Script.size();
      Scripts.push_back(std::move(R.Script));
    }
  }
  Out.DiffMs = msSince(Start) - Out.ParseMs;
  Out.Nodes = static_cast<double>(Nodes);
  Out.Rehashed = Store.stats().NodesRehashed;
  Out.Scripts.reserve(Scripts.size());
  for (const EditScript &S : Scripts)
    Out.Scripts.push_back(serializeEditScript(Sig, S));
  return Out;
}

/// Closed-loop textual "get" requests over one real TCP connection;
/// returns completed reads until \p StopFlag is set. Each response is a
/// framed block terminated by a "." line.
uint64_t readLoop(uint16_t Port, const std::atomic<bool> &StopFlag) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return 0;
  }
  const std::string Cmd = "get 1\n";
  std::string Buf;
  char Tmp[4096];
  uint64_t Done = 0;
  while (!StopFlag.load(std::memory_order_relaxed)) {
    if (::send(Fd, Cmd.data(), Cmd.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(Cmd.size()))
      break;
    for (;;) {
      // A response block ends with a lone "." line; the status line
      // always precedes it, so "\n.\n" is the frame boundary.
      size_t End = Buf.find("\n.\n");
      if (End != std::string::npos) {
        Buf.erase(0, End + 3);
        break;
      }
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0) {
        ::close(Fd);
        return Done;
      }
      Buf.append(Tmp, static_cast<size_t>(N));
    }
    ++Done;
  }
  ::close(Fd);
  return Done;
}

/// One follower replica: its loop, the replica, and a TCP read endpoint.
struct BenchFollower {
  net::EventLoop Loop;
  std::unique_ptr<replica::Follower> F;
  std::unique_ptr<replica::ReplicaReadHandler> H;
  std::unique_ptr<net::NetServer> Read;

  explicit BenchFollower(const SignatureTable &Sig) {
    Loop.start();
    F = std::make_unique<replica::Follower>(Loop, Sig);
    H = std::make_unique<replica::ReplicaReadHandler>(*F);
    Read = std::make_unique<net::NetServer>(Loop, Sig, *H,
                                            net::NetServer::Config());
    Read->start();
  }
  ~BenchFollower() {
    F->disconnect();
    Loop.stop();
  }
};

/// A follower that can be promoted to leader mid-run: one loop, one
/// role-routed client port (follower reads before promotion, the full
/// leader protocol after), and the leader stack built by promote().
struct PromotableReplica {
  net::EventLoop Loop;
  net::RoleState Role;

  std::unique_ptr<replica::Follower> F;
  std::unique_ptr<replica::ReplicaReadHandler> Reader;
  std::unique_ptr<replica::FailoverHandler> Router;
  std::unique_ptr<net::NetServer> ClientSrv;
  bool Started = false;

  DocumentStore *Store = nullptr; ///< the follower's store, once promoted
  std::unique_ptr<replica::ReplicationLog> Log;
  std::unique_ptr<replica::Leader> Lead;
  std::unique_ptr<DiffService> Svc;
  std::unique_ptr<net::ServiceHandler> Writer;

  explicit PromotableReplica(const SignatureTable &Sig) {
    F = std::make_unique<replica::Follower>(Loop, Sig);
    replica::ReplicaReadHandler::Config RC;
    RC.Role = &Role;
    Reader = std::make_unique<replica::ReplicaReadHandler>(*F, RC);
    Router = std::make_unique<replica::FailoverHandler>(Role, *Reader);
    ClientSrv = std::make_unique<net::NetServer>(Loop, Sig, *Router);
    Started = ClientSrv->start();
    Loop.start();
  }

  ~PromotableReplica() {
    F->disconnect();
    Loop.stop();
    if (Svc)
      Svc->shutdown();
  }

  bool promote(uint64_t NewEpoch) {
    replica::PromotionResult PR = replica::promoteFollower(*F, NewEpoch);
    if (!PR.Ok) {
      std::printf("# promotion failed: %s\n", PR.Error.c_str());
      return false;
    }
    Store = &F->store();
    Log = std::move(PR.Log);
    replica::Leader::Config LC;
    LC.Epoch = NewEpoch;
    LC.OnFenced = [this](uint64_t) { Role.demote(std::string()); };
    Lead = std::make_unique<replica::Leader>(Loop, *Log, LC);
    if (!Lead->start())
      return false;
    ServiceConfig SC;
    SC.Workers = 2;
    Svc = std::make_unique<DiffService>(*Store, SC);
    net::ServiceHandler::Config WC;
    WC.Role = &Role;
    Writer = std::make_unique<net::ServiceHandler>(*Svc, WC);
    Router->setWriter(Writer.get());
    Role.promote(NewEpoch);
    return true;
  }
};

/// A JSON array s-expression of \p Len numbers whose head is \p Tweak:
/// successive versions differ in one leaf, the steady-write shape.
std::string jsonArrayExpr(unsigned Tweak, unsigned Len = 12) {
  std::string S = "(JArray ";
  for (unsigned I = 0; I != Len; ++I)
    S += "(ElemCons (JNumber " + std::to_string(I == 0 ? Tweak : I) + ".0) ";
  S += "(ElemNil)";
  S.append(Len, ')');
  S += ")";
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  std::printf("service_throughput: concurrent diff service scaling, "
              "1..hardware_concurrency workers\n");
  SignatureTable Sig = python::makePythonSignature();
  std::vector<corpus::CommitPair> Pairs = defaultCorpus(Argc, Argv, 160);

  // Rebuild the commit chains: within a chain, pair i's After is pair
  // i+1's Before (corpus contract), so a new chain starts whenever that
  // linkage breaks.
  std::vector<Chain> Chains;
  for (const corpus::CommitPair &Pair : Pairs) {
    if (Chains.empty() || Chains.back().Commits.empty() ||
        Chains.back().Commits.back() != Pair.Before) {
      Chains.push_back(Chain{Pair.Before, {}});
    }
    Chains.back().Commits.push_back(Pair.After);
  }

  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  // Scan at least 1..4 workers even on small machines (argv[2] overrides
  // the top of the range); oversubscription is harmless, it just stops
  // gaining.
  unsigned MaxWorkers = std::max(4u, Hw);
  if (Argc > 2)
    MaxWorkers = parseCountArg(Argv[2], "worker count");
  unsigned Clients = std::min<unsigned>(
      std::max(8u, MaxWorkers), static_cast<unsigned>(Chains.size()));
  std::printf("# %zu documents, %zu commits, %u client threads\n",
              Chains.size(), Pairs.size(), Clients);
  std::printf("%-10s %14s %12s %10s\n", "workers", "nodes/ms", "wall ms",
              "speedup");

  JsonReport Report("service_throughput");
  Report.meta("documents", static_cast<double>(Chains.size()));
  Report.meta("commits", static_cast<double>(Pairs.size()));
  Report.meta("clients", static_cast<double>(Clients));
  Report.meta("hardware_concurrency", static_cast<double>(Hw));
  if (Hw == 1) {
    std::printf("# WARNING: hardware_concurrency == 1; worker scaling and "
                "Step-1 parallelism cannot show real speedups here\n");
    Report.meta("single_core_warning",
                "hardware_concurrency == 1: parallel speedups not "
                "measurable on this machine");
  }

  std::vector<unsigned> WorkerCounts;
  for (unsigned W = 1; W < MaxWorkers; W *= 2)
    WorkerCounts.push_back(W);
  WorkerCounts.push_back(MaxWorkers);

  // Monotone-within-noise: each step must reach at least 90% of the best
  // seen so far. On a single hardware thread the curve is flat (extra
  // workers cannot add cycles); on real multicore it must rise.
  double Base = 0, Best = 0;
  bool Monotone = true;
  for (unsigned W : WorkerCounts) {
    auto [Nodes, WallMs] = runWorkload(Sig, Chains, W, Clients);
    double Throughput = Nodes / WallMs;
    if (Base == 0)
      Base = Throughput;
    if (Throughput < 0.90 * Best)
      Monotone = false;
    Best = std::max(Best, Throughput);
    std::printf("%-10u %14.1f %12.1f %9.2fx\n", W, Throughput, WallMs,
                Throughput / Base);
    Report.scalar("workers_" + std::to_string(W), "nodes_per_ms", Throughput);
  }
  Report.meta("monotone", Monotone ? "yes" : "no");

  // Phase 2: cold vs warm digest cache. Parse time (identical on both
  // sides) is measured separately and excluded, matching the paper's
  // methodology of timing diffing apart from parsing. Two reps each,
  // best diff time kept, cold first so allocator warm-up cannot flatter
  // the warm path.
  std::printf("\n%-10s %14s %12s %12s %16s\n", "cache", "nodes/ms",
              "diff ms", "parse ms", "nodes rehashed");
  auto BestOf = [&](bool Persist) {
    ReplayResult Best = replayStore(Sig, Chains, Persist);
    ReplayResult Again = replayStore(Sig, Chains, Persist);
    if (Again.DiffMs < Best.DiffMs)
      Best = std::move(Again);
    return Best;
  };
  ReplayResult Cold = BestOf(/*Persist=*/false);
  ReplayResult Warm = BestOf(/*Persist=*/true);
  double ColdTp = Cold.Nodes / Cold.DiffMs;
  double WarmTp = Warm.Nodes / Warm.DiffMs;
  double Ratio = WarmTp / ColdTp;
  bool Identical = Warm.Scripts == Cold.Scripts;
  std::printf("%-10s %14.1f %12.1f %12.1f %16llu\n", "cold", ColdTp,
              Cold.DiffMs, Cold.ParseMs,
              static_cast<unsigned long long>(Cold.Rehashed));
  std::printf("%-10s %14.1f %12.1f %12.1f %16llu\n", "warm", WarmTp,
              Warm.DiffMs, Warm.ParseMs,
              static_cast<unsigned long long>(Warm.Rehashed));
  std::printf("# warm/cold %.2fx, scripts byte-identical: %s\n", Ratio,
              Identical ? "yes" : "NO");

  Report.scalar("digest_cache_cold", "nodes_per_ms", ColdTp);
  Report.scalar("digest_cache_warm", "nodes_per_ms", WarmTp);
  Report.scalar("digest_cache_speedup", "ratio", Ratio);
  Report.meta("cold_nodes_rehashed", static_cast<double>(Cold.Rehashed));
  Report.meta("warm_nodes_rehashed", static_cast<double>(Warm.Rehashed));
  Report.meta("scripts_identical", Identical ? "yes" : "no");

  // Phase 2b: the node digest. Digests decide subtree equivalence, so
  // the cold replay (every stored tree rehashed per request) under a
  // second key must emit byte-identical scripts, and so touched-URI
  // sets: identical replay order against fresh stores means identical
  // URI streams. The eight-lane kernel must also hash the corpus's node
  // preimages at least MinBatchedDigestSpeedup times as fast per message
  // as the scalar digest.
  ReplayResult Rekeyed;
  withDigestKey(SecondDigestKey,
                [&] { Rekeyed = replayStore(Sig, Chains, /*Persist=*/false); });
  bool KeyIdentical = Rekeyed.Scripts == Cold.Scripts;
  std::vector<std::string> Preimages;
  {
    TreeContext Scratch(Sig);
    for (const Chain &Ch : Chains) {
      python::PyParseResult P = python::parsePython(Scratch, Ch.Base);
      if (P.ok())
        appendNodePreimages(P.Module, Preimages);
    }
  }
  BatchedDigestSpeedup Batched = batchedDigestSpeedup(Preimages);
  std::printf("# second key: scripts byte-identical: %s; batched node "
              "digest over scalar (%s kernel), %zu preimages: %.2fx (gate: "
              ">= %.1f)\n",
              KeyIdentical ? "yes" : "NO", sipHash128x8Clone(),
              Batched.Messages, Batched.Ratio, MinBatchedDigestSpeedup);
  Report.scalar("batched_digest_over_scalar", "ratio", Batched.Ratio);
  Report.meta("key_scripts_identical", KeyIdentical ? "yes" : "no");

  // Phase 3: the deadline-fallback path (replace-root script) vs the
  // full diff. The fallback skips Steps 1-3 entirely; its cost is plain
  // tree (un)loading -- strictly input-size-linear, independent of edit
  // distance -- which bounds the worst case even though the warm diff
  // usually beats it on average. Its scripts rewrite the whole document.
  // Both axes are reported so the deadline knob's cost is visible: what
  // the degraded answer costs to produce, and how much larger it is on
  // the wire.
  ReplayResult Fb = replayStore(Sig, Chains, /*Persist=*/true,
                                /*Fallback=*/true);
  double FbTp = Fb.Nodes / Fb.DiffMs;
  size_t Commits = Warm.Scripts.size();
  double DiffEdits =
      Commits == 0 ? 0 : static_cast<double>(Warm.Edits) / Commits;
  double FbEdits =
      Fb.Scripts.empty() ? 0
                         : static_cast<double>(Fb.Edits) / Fb.Scripts.size();
  bool FallbackOk = Fb.Scripts.size() == Commits && Fb.Edits >= Warm.Edits;
  std::printf("\n%-10s %14s %12s %16s\n", "path", "nodes/ms", "diff ms",
              "mean edits");
  std::printf("%-10s %14.1f %12.1f %16.1f\n", "diff", WarmTp, Warm.DiffMs,
              DiffEdits);
  std::printf("%-10s %14.1f %12.1f %16.1f\n", "fallback", FbTp, Fb.DiffMs,
              FbEdits);
  std::printf("# fallback throughput %.2fx of diff, scripts %.1fx larger\n",
              FbTp / WarmTp, DiffEdits == 0 ? 0 : FbEdits / DiffEdits);

  Report.scalar("fallback", "nodes_per_ms", FbTp);
  Report.scalar("fallback_mean_edits", "edits", FbEdits);
  Report.scalar("diff_mean_edits", "edits", DiffEdits);
  Report.meta("fallback_all_ok", FallbackOk ? "yes" : "no");

  // Phase 4: overload. A hot tenant floods the service open-loop at 4x
  // the measured single-tenant capacity while a cold tenant trickles one
  // request every 20ms. Fair scheduling plus sojourn shedding must hold
  // goodput within 20% of capacity (the workers keep doing useful work,
  // the excess is rejected cheaply at the queue), keep every cold
  // request served with bounded latency, and stamp every shed or
  // backpressure response with a per-document retry_after_ms hint.
  auto MakePy = [](int Tweak) {
    std::string S;
    for (int I = 0; I < 60; ++I)
      S += "v" + std::to_string(I) + " = " +
           std::to_string(I == 0 ? Tweak : I) + "\n";
    return S;
  };
  const std::string HotA = MakePy(1000), HotB = MakePy(2000);
  const std::string ColdA = MakePy(3000), ColdB = MakePy(4000);

  ServiceConfig OvCfg;
  OvCfg.Workers = 2;
  OvCfg.QueueCapacity = 256;
  // The shed target is set below PerDocQueueCapacity x the expected
  // per-request service time so sojourn shedding engages before the
  // per-document wall does -- both rejection paths run under load.
  OvCfg.PerDocQueueCapacity = 128;
  OvCfg.ShedTargetMs = 10;
  OvCfg.ShedIntervalMs = 5;

  // Single-tenant capacity: closed loop over one document, so the queue
  // stays empty and the number is pure service rate. Requests on one
  // document serialize on its lock, which is exactly what the hot tenant
  // is limited to under fairness.
  double CapacityPerMs = 0;
  {
    DocumentStore Store(Sig);
    DiffService Service(Store, OvCfg);
    if (Service.open(1, pythonBuilder(&HotA)).Ok) {
      for (int I = 0; I < 40; ++I) // warm the parser and the EWMA
        Service.submit(1, pythonBuilder(I % 2 != 0 ? &HotB : &HotA));
      const int Ops = 400;
      auto T0 = Clock::now();
      for (int I = 0; I < Ops; ++I)
        Service.submit(1, pythonBuilder(I % 2 != 0 ? &HotB : &HotA));
      CapacityPerMs = Ops / msSince(T0);
    }
    Service.shutdown();
  }

  uint64_t HotOk = 0, HotShed = 0, HotBack = 0, HotOther = 0;
  uint64_t HintMissing = 0, ColdOk = 0;
  bool ColdClean = true;
  std::vector<double> ColdLatMs;
  double GoodputPerMs = 0;
  {
    DocumentStore Store(Sig);
    DiffService Service(Store, OvCfg);
    const DocId HotDoc = 1, ColdDoc = 2;
    bool Opened = Service.open(HotDoc, pythonBuilder(&HotA)).Ok &&
                  Service.open(ColdDoc, pythonBuilder(&ColdA)).Ok;
    const double WindowMs = 300;
    const double OfferPerMs = CapacityPerMs * 4.0;
    auto T0 = Clock::now();
    std::thread ColdClient([&] {
      for (unsigned I = 0; Opened && msSince(T0) < WindowMs; ++I) {
        auto C0 = Clock::now();
        Response R = Service.submit(
            ColdDoc, pythonBuilder(I % 2 != 0 ? &ColdB : &ColdA));
        ColdLatMs.push_back(msSince(C0));
        if (R.Ok)
          ++ColdOk;
        else
          ColdClean = false;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    // Open-loop offering: track the ideal cumulative count so oversleeps
    // are caught up and the offered rate really is 4x capacity.
    std::vector<std::future<Response>> Hot;
    size_t Sent = 0;
    while (Opened) {
      double Elapsed = msSince(T0);
      if (Elapsed >= WindowMs)
        break;
      size_t Want = static_cast<size_t>(Elapsed * OfferPerMs) + 1;
      for (; Sent < Want; ++Sent)
        Hot.push_back(Service.submitAsync(
            HotDoc, pythonBuilder(Sent % 2 != 0 ? &HotB : &HotA)));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ColdClient.join();
    for (std::future<Response> &F : Hot) {
      Response R = F.get();
      if (R.Ok) {
        ++HotOk;
        continue;
      }
      if (R.Code == ErrCode::Shed)
        ++HotShed;
      else if (R.Code == ErrCode::Backpressure)
        ++HotBack;
      else
        ++HotOther;
      if ((R.Code == ErrCode::Shed || R.Code == ErrCode::Backpressure) &&
          R.RetryAfterMs < 1)
        ++HintMissing;
    }
    // Goodput over the whole span including the drain of the accepted
    // tail -- the residual queue is bounded by the shed target, so this
    // under-counts by at most a few percent.
    GoodputPerMs = static_cast<double>(HotOk + ColdOk) / msSince(T0);
    Service.shutdown();
  }

  std::sort(ColdLatMs.begin(), ColdLatMs.end());
  double ColdP99 =
      ColdLatMs.empty()
          ? 0
          : ColdLatMs[std::min(ColdLatMs.size() - 1,
                               ColdLatMs.size() * 99 / 100)];
  double GoodputRatio = CapacityPerMs == 0 ? 0 : GoodputPerMs / CapacityPerMs;
  uint64_t Rejected = HotShed + HotBack;
  bool OverloadOk = GoodputRatio >= 0.80 && Rejected > 0 &&
                    HintMissing == 0 && ColdClean && ColdP99 <= 200.0;

  std::printf("\n%-10s %12s %12s %10s %10s %12s\n", "overload", "ops/ms",
              "ratio", "shed", "keyfull", "cold p99 ms");
  std::printf("%-10s %12.2f %12s %10s %10s %12s\n", "capacity", CapacityPerMs,
              "-", "-", "-", "-");
  std::printf("%-10s %12.2f %12.2f %10llu %10llu %12.1f\n", "4x-load",
              GoodputPerMs, GoodputRatio,
              static_cast<unsigned long long>(HotShed),
              static_cast<unsigned long long>(HotBack), ColdP99);
  std::printf("# cold tenant: %llu/%zu ok, hints missing: %llu, other "
              "errors: %llu\n",
              static_cast<unsigned long long>(ColdOk), ColdLatMs.size(),
              static_cast<unsigned long long>(HintMissing),
              static_cast<unsigned long long>(HotOther));

  Report.scalar("overload_capacity", "ops_per_ms", CapacityPerMs);
  Report.scalar("overload_goodput", "ops_per_ms", GoodputPerMs);
  Report.scalar("overload_goodput_ratio", "ratio", GoodputRatio);
  Report.scalar("overload_shed", "responses", static_cast<double>(HotShed));
  Report.scalar("overload_backpressure", "responses",
                static_cast<double>(HotBack));
  Report.scalar("overload_cold_p99", "ms", ColdP99);
  Report.meta("overload_ok", OverloadOk ? "yes" : "no");

  // Phase 5: replication over real sockets. For 0/1/2 follower replicas,
  // closed-loop textual reads run against every read endpoint (the
  // leader's own TCP front end, plus one per follower) and aggregate
  // read goodput is reported -- the scaling axis replicas exist for.
  // Then a submit flood drives the leader while follower lag
  // (leader seq minus applied seq) is sampled, and the drain time from
  // end-of-flood to full catch-up is measured. Throughput numbers are
  // reported, not gated (CI runners may be single-core); the gate is
  // byte-for-byte convergence after the flood.
  std::printf("\n%-10s %14s %12s\n", "replicas", "reads/ms", "readers");
  bool ReplConverged = true;
  double MaxLagRecords = 0, DrainMs = 0, CatchupMs = 0;
  for (unsigned NumReplicas = 0; NumReplicas <= 2; ++NumReplicas) {
    DocumentStore Store(Sig);
    replica::ReplicationLog Log(Store);
    net::EventLoop LeaderLoop;
    replica::Leader Lead(LeaderLoop, Log, replica::Leader::Config());
    Log.attach();
    bool Up = Lead.start();
    ServiceConfig RSC;
    RSC.Workers = 2;
    DiffService Service(Store, RSC);
    net::ServiceHandler Handler(Service);
    net::NetServer Front(LeaderLoop, Sig, Handler, net::NetServer::Config());
    Up = Up && Front.start();
    LeaderLoop.start();
    if (!Up) {
      std::printf("# replication endpoints failed to start\n");
      ReplConverged = false;
      break;
    }
    Service.open(1, pythonBuilder(&HotA));

    std::vector<std::unique_ptr<BenchFollower>> Replicas;
    std::vector<uint16_t> ReadPorts{Front.port()};
    for (unsigned R = 0; R != NumReplicas; ++R) {
      auto F = std::make_unique<BenchFollower>(Sig);
      if (!F->F->connectTo("127.0.0.1", Lead.port())) {
        ReplConverged = false;
        continue;
      }
      ReadPorts.push_back(F->Read->port());
      Replicas.push_back(std::move(F));
    }

    // Read goodput: two closed-loop readers per endpoint.
    std::atomic<bool> StopReads{false};
    std::vector<std::future<uint64_t>> Readers;
    for (uint16_t Port : ReadPorts)
      for (int R = 0; R != 2; ++R)
        Readers.push_back(std::async(std::launch::async,
                                     [Port, &StopReads] {
                                       return readLoop(Port, StopReads);
                                     }));
    auto R0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    StopReads.store(true);
    uint64_t Reads = 0;
    for (std::future<uint64_t> &F : Readers)
      Reads += F.get();
    double ReadsPerMs = static_cast<double>(Reads) / msSince(R0);
    std::printf("%-10u %14.1f %12zu\n", NumReplicas, ReadsPerMs,
                ReadPorts.size() * 2);
    Report.scalar("read_goodput_replicas_" + std::to_string(NumReplicas),
                  "reads_per_ms", ReadsPerMs);

    if (NumReplicas == 2) {
      // Replication lag under a submit flood on the leader.
      std::atomic<bool> FloodDone{false};
      std::thread Sampler([&] {
        while (!FloodDone.load()) {
          uint64_t Seq = Log.currentSeq();
          for (auto &F : Replicas) {
            double Lag = static_cast<double>(Seq) -
                         static_cast<double>(F->F->lastSeq());
            MaxLagRecords = std::max(MaxLagRecords, Lag);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
      const int FloodOps = 150;
      for (int I = 0; I != FloodOps; ++I)
        Service.submit(1, pythonBuilder(I % 2 != 0 ? &HotB : &HotA));
      auto F0 = Clock::now();
      FloodDone.store(true);
      Sampler.join();
      uint64_t Target = Log.currentSeq();
      auto CaughtUp = [&] {
        for (auto &F : Replicas)
          if (!F->F->caughtUp() || F->F->lastSeq() != Target)
            return false;
        return true;
      };
      while (!CaughtUp() && msSince(F0) < 30000)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      DrainMs = msSince(F0);

      // Catch-up time: a fresh follower joining after the flood.
      auto Late = std::make_unique<BenchFollower>(Sig);
      auto C0 = Clock::now();
      bool LateUp = Late->F->connectTo("127.0.0.1", Lead.port());
      while (LateUp &&
             !(Late->F->caughtUp() && Late->F->lastSeq() == Target) &&
             msSince(C0) < 30000)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      CatchupMs = msSince(C0);
      if (LateUp)
        Replicas.push_back(std::move(Late));
      else
        ReplConverged = false;

      // The gate: every replica byte-identical to the leader.
      DocumentSnapshot Snap = Store.snapshot(1);
      for (auto &F : Replicas) {
        replica::Follower::ReadResult RR = F->F->read(1);
        if (!Snap.Ok || !RR.Ok || RR.UriText != Snap.UriText)
          ReplConverged = false;
      }
      std::printf("# lag: max %.0f records behind, drain %.1f ms, "
                  "fresh catch-up %.1f ms, converged: %s\n",
                  MaxLagRecords, DrainMs, CatchupMs,
                  ReplConverged ? "yes" : "NO");
    }
    Service.shutdown();
    Replicas.clear(); // followers first, then the leader's loop
    LeaderLoop.stop(); // before NetServer/Leader are destroyed
  }

  Report.scalar("replication_max_lag", "records", MaxLagRecords);
  Report.scalar("replication_drain", "ms", DrainMs);
  Report.scalar("replication_catchup", "ms", CatchupMs);
  Report.meta("replication_converged", ReplConverged ? "yes" : "no");

  // Phase 6: failover. A resilient client writes through a leader while
  // closed-loop reads run against its follower's port; mid-load the
  // leader is killed outright (loop stopped, service down) and the
  // follower is promoted. Reported: time from the kill to the client's
  // first acknowledged write on the new leader, and read goodput before,
  // during, and after the takeover (the dip). The gate is convergence,
  // not wall-clock: every write replicated before the kill survives
  // promotion, the client's final acked version equals the promoted
  // store's, and a fresh follower syncing from the new leader is
  // byte-identical.
  SignatureTable JSig = json::makeJsonSignature();
  double FirstWriteMs = -1, SteadyReadsPerMs = 0, DipReadsPerMs = 0,
         PostReadsPerMs = 0;
  uint64_t UnreplicatedAtKill = 0, FailoverResyncs = 0;
  bool FailoverOk = false;
  {
    auto AStore = std::make_unique<DocumentStore>(JSig);
    auto ALog = std::make_unique<replica::ReplicationLog>(*AStore);
    auto ALoop = std::make_unique<net::EventLoop>();
    replica::Leader::Config ALC;
    ALC.Epoch = 1;
    auto ALead = std::make_unique<replica::Leader>(*ALoop, *ALog, ALC);
    ALog->attach();
    bool Up = ALead->start();
    ServiceConfig FSC;
    FSC.Workers = 2;
    auto ASvc = std::make_unique<DiffService>(*AStore, FSC);
    auto AHandler = std::make_unique<net::ServiceHandler>(*ASvc);
    auto AFront = std::make_unique<net::NetServer>(*ALoop, JSig,
                                                  *AHandler,
                                                  net::NetServer::Config());
    Up = Up && AFront->start();
    ALoop->start();

    PromotableReplica B(JSig);
    Up = Up && B.Started && B.F->connectTo("127.0.0.1", ALead->port());

    const std::string AAddr = "127.0.0.1:" + std::to_string(AFront->port());
    const std::string BAddr =
        "127.0.0.1:" + std::to_string(B.ClientSrv->port());

    std::atomic<bool> StopWrites{false}, StopReads{false};
    std::atomic<bool> LeaderKilled{false};
    std::atomic<uint64_t> LastAcked{0}, FinalVersion{0}, WriteErrors{0},
        Resyncs{0};
    std::atomic<double> FirstOkAfterKill{-1};
    auto T0 = Clock::now();
    Clock::time_point KillAt; // written before LeaderKilled flips

    std::thread WriterThread([&] {
      client::ResilientClient::Config CC;
      CC.Endpoints = {AAddr, BAddr};
      CC.RequestTimeoutMs = 150;
      CC.MaxAttempts = 30;
      CC.BackoffBaseMs = 2;
      CC.BackoffCapMs = 40;
      CC.JitterSeed = 0x5eed;
      client::ResilientClient RC(CC);
      if (!RC.open(1, jsonArrayExpr(0)).Ok) {
        WriteErrors.fetch_add(1);
        return;
      }
      for (unsigned I = 1; !StopWrites.load(); ++I) {
        client::ResilientClient::Result R = RC.submit(1, jsonArrayExpr(I));
        if (R.Ok) {
          LastAcked.store(R.Version);
          if (LeaderKilled.load() && FirstOkAfterKill.load() < 0)
            FirstOkAfterKill.store(msSince(KillAt));
        } else if (R.Code == "cas_mismatch") {
          // The acked-but-unreplicated suffix died with the old leader;
          // resync the version cache and keep writing.
          RC.forgetVersion(1);
          Resyncs.fetch_add(1);
        } else {
          WriteErrors.fetch_add(1);
        }
      }
      client::ResilientClient::Result Fin = RC.get(1);
      if (Fin.Ok)
        FinalVersion.store(Fin.Version);
    });

    // Closed-loop ok-reads against the follower's port, bucketed so the
    // takeover dip is visible at 25ms resolution.
    const double BucketMs = 25;
    std::vector<uint64_t> Buckets(64, 0);
    std::thread ReaderThread([&] {
      uint16_t Port = B.ClientSrv->port();
      while (!StopReads.load()) {
        int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (Fd < 0)
          return;
        sockaddr_in SA{};
        SA.sin_family = AF_INET;
        SA.sin_port = htons(Port);
        SA.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) !=
            0) {
          ::close(Fd);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        const std::string Cmd = "get 1\n";
        std::string Buf;
        char Tmp[4096];
        bool Alive = true;
        while (Alive && !StopReads.load()) {
          if (::send(Fd, Cmd.data(), Cmd.size(), MSG_NOSIGNAL) !=
              static_cast<ssize_t>(Cmd.size()))
            break;
          for (;;) {
            size_t End = Buf.find("\n.\n");
            if (End != std::string::npos) {
              if (Buf.compare(0, 3, "ok ") == 0) {
                size_t Idx = static_cast<size_t>(msSince(T0) / BucketMs);
                ++Buckets[std::min(Idx, Buckets.size() - 1)];
              }
              Buf.erase(0, End + 3);
              break;
            }
            ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
            if (N <= 0) {
              Alive = false;
              break;
            }
            Buf.append(Tmp, static_cast<size_t>(N));
          }
        }
        ::close(Fd);
      }
    });

    // Steady state, then the kill: stop the leader's loop (every socket
    // dies) and its service. The follower's applied version at this
    // instant is the durable floor promotion must preserve.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    uint64_t DurableVersion = B.F->read(1).Version;
    uint64_t AckedAtKill = LastAcked.load();
    KillAt = Clock::now();
    double KillMs = msSince(T0);
    ALoop->stop();
    ASvc->shutdown();
    LeaderKilled.store(true);

    // Operator reaction delay, then promote the follower in place.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    bool Promoted = B.promote(2);

    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    StopWrites.store(true);
    WriterThread.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    StopReads.store(true);
    ReaderThread.join();
    double EndMs = msSince(T0);

    FirstWriteMs = FirstOkAfterKill.load();
    FailoverResyncs = Resyncs.load();
    UnreplicatedAtKill =
        AckedAtKill > DurableVersion ? AckedAtKill - DurableVersion : 0;

    // Bucket arithmetic: steady excludes the warmup bucket, the dip
    // window covers 200ms from the kill, post is everything after it up
    // to the last complete bucket.
    size_t KillBucket = static_cast<size_t>(KillMs / BucketMs);
    size_t LastBucket = std::min(
        static_cast<size_t>(EndMs / BucketMs), Buckets.size() - 1);
    size_t DipEnd = std::min(KillBucket + 8, LastBucket);
    auto MeanPerMs = [&](size_t Lo, size_t Hi) { // [Lo, Hi)
      if (Hi <= Lo)
        return 0.0;
      uint64_t Sum = 0;
      for (size_t I = Lo; I != Hi; ++I)
        Sum += Buckets[I];
      return static_cast<double>(Sum) /
             (static_cast<double>(Hi - Lo) * BucketMs);
    };
    SteadyReadsPerMs = MeanPerMs(1, KillBucket);
    DipReadsPerMs = SteadyReadsPerMs;
    for (size_t I = KillBucket; I < DipEnd; ++I)
      DipReadsPerMs = std::min(
          DipReadsPerMs, static_cast<double>(Buckets[I]) / BucketMs);
    PostReadsPerMs = MeanPerMs(DipEnd, LastBucket);

    // Convergence: the promoted store kept every durable write, agrees
    // with the client's final acked version, and replicates
    // byte-identically to a fresh follower.
    bool Converged = false;
    if (Promoted) {
      DocumentSnapshot Snap = B.Store->snapshot(1);
      BenchFollower Late(JSig);
      bool LateUp = Late.F->connectTo("127.0.0.1", B.Lead->port());
      auto L0 = Clock::now();
      while (LateUp &&
             !(Late.F->caughtUp() &&
               Late.F->lastSeq() == B.Log->currentSeq()) &&
             msSince(L0) < 15000)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      replica::Follower::ReadResult RR = Late.F->read(1);
      Converged = Snap.Ok && RR.Ok && RR.UriText == Snap.UriText &&
                  Snap.Version >= DurableVersion &&
                  Snap.Version == FinalVersion.load();
    }
    FailoverOk = Up && Promoted && Converged && FirstWriteMs >= 0 &&
                 WriteErrors.load() == 0;

    std::printf("\n%-10s %14s %12s %12s %12s\n", "failover", "1st write ms",
                "steady r/ms", "dip r/ms", "post r/ms");
    std::printf("%-10s %14.1f %12.1f %12.1f %12.1f\n", "kill+promote",
                FirstWriteMs, SteadyReadsPerMs, DipReadsPerMs,
                PostReadsPerMs);
    std::printf("# acked-unreplicated at kill: %llu, cas resyncs: %llu, "
                "converged: %s\n",
                static_cast<unsigned long long>(UnreplicatedAtKill),
                static_cast<unsigned long long>(FailoverResyncs),
                FailoverOk ? "yes" : "NO");
  }

  Report.scalar("failover_first_write", "ms", FirstWriteMs);
  Report.scalar("failover_reads_steady", "reads_per_ms", SteadyReadsPerMs);
  Report.scalar("failover_reads_dip", "reads_per_ms", DipReadsPerMs);
  Report.scalar("failover_reads_post", "reads_per_ms", PostReadsPerMs);
  Report.scalar("failover_unreplicated_at_kill", "writes",
                static_cast<double>(UnreplicatedAtKill));
  Report.scalar("failover_cas_resyncs", "writes",
                static_cast<double>(FailoverResyncs));
  Report.meta("failover_ok", FailoverOk ? "yes" : "no");

  // Phase 7: integrity. The scrubber's value proposition is
  // "continuous verification at a bounded serving cost", so the same
  // closed-loop multi-client workload is measured with the background
  // scrubber off and then on (digest recomputation plus disk CRC walks
  // against a live persistence instance), interleaved best-of-2 rounds
  // to cancel machine drift, and the run fails if verification costs
  // more than 5% goodput. The scrub-on rounds double as the
  // false-positive gate: a clean workload must scrub to zero findings.
  // Then one document's digest cache is corrupted in place and the
  // phase reports how long the running scrubber takes to detect
  // (quarantine) and repair it back to byte identity from snapshot+WAL.
  double ScrubOffPerMs = 0, ScrubOnPerMs = 0;
  double ScrubOffP99 = 0, ScrubOnP99 = 0;
  double DetectMs = -1, RepairMs = -1;
  bool ScrubClean = false, ScrubRepaired = false;
  uint64_t ScrubCycles = 0;
  {
    const std::string IntA = MakePy(5000), IntB = MakePy(6000);
    const unsigned IntClients = 4;
    const size_t IntDocs = 8; // per-client document striping below
    ServiceConfig IntCfg;
    IntCfg.Workers = 4;
    IntCfg.QueueCapacity = 256;

    ScratchDir Dir;
    DocumentStore Store(Sig);
    persist::Persistence::Config PC;
    PC.Dir = Dir.path();
    PC.FsyncEvery = 32;
    PC.SegmentBytes = 256 * 1024; // rotate: closed segments to CRC-walk
    PC.SnapshotEvery = 0;         // no background pass: the scrubber is
    PC.BackgroundIntervalMs = 0;  // the only thread touching old files
    persist::Persistence Persist(Sig, PC);
    if (Dir.ok())
      Persist.attach(Store);
    DiffService Service(Store, IntCfg);

    bool Opened = Dir.ok();
    for (size_t D = 1; Opened && D <= IntDocs; ++D)
      Opened = Service.open(static_cast<DocId>(D), pythonBuilder(&IntA)).Ok;
    for (int I = 0; Opened && I < 40; ++I) // warm parser, EWMA, WAL
      Service.submit(static_cast<DocId>(1 + (I % IntDocs)),
                     pythonBuilder(I % 2 != 0 ? &IntB : &IntA));

    // Closed-loop measurement: each client thread round-robins its own
    // stripe of documents; returns {goodput ops/ms, p99 ms}.
    auto MeasureLoop = [&](double WindowMs) {
      std::vector<std::thread> Threads;
      std::mutex LatMu;
      std::vector<double> LatMs;
      std::atomic<uint64_t> OkOps{0};
      auto T0 = Clock::now();
      for (unsigned C = 0; C != IntClients; ++C)
        Threads.emplace_back([&, C] {
          std::vector<double> Local;
          for (unsigned I = 0; msSince(T0) < WindowMs; ++I) {
            DocId Doc = static_cast<DocId>(
                1 + C + (I % (IntDocs / IntClients)) * IntClients);
            auto S0 = Clock::now();
            Response R = Service.submit(
                Doc, pythonBuilder((I + C) % 2 != 0 ? &IntB : &IntA));
            Local.push_back(msSince(S0));
            if (R.Ok)
              OkOps.fetch_add(1);
          }
          std::lock_guard<std::mutex> Lock(LatMu);
          LatMs.insert(LatMs.end(), Local.begin(), Local.end());
        });
      for (std::thread &T : Threads)
        T.join();
      double Wall = msSince(T0);
      std::sort(LatMs.begin(), LatMs.end());
      double P99 = LatMs.empty()
                       ? 0
                       : LatMs[std::min(LatMs.size() - 1,
                                        LatMs.size() * 99 / 100)];
      return std::make_pair(static_cast<double>(OkOps.load()) / Wall, P99);
    };

    // Scrubber stop() is terminal (one start per instance, like the
    // service lifecycle), so the off rounds run first and one scrubber
    // then stays up through the on rounds and the repair experiment.
    integrity::Scrubber::Config SC;
    SC.IntervalMs = 10;  // continuously active across the window
    SC.RatePerSec = 500; // the deployment story: paced, not greedy
    integrity::Scrubber Scrub(Store, SC, &Persist);

    const double WindowMs = 250;
    for (int Round = 0; Opened && Round < 2; ++Round) {
      auto Off = MeasureLoop(WindowMs);
      if (Off.first > ScrubOffPerMs) {
        ScrubOffPerMs = Off.first;
        ScrubOffP99 = Off.second;
      }
    }
    Scrub.start();
    for (int Round = 0; Opened && Round < 2; ++Round) {
      auto On = MeasureLoop(WindowMs);
      if (On.first > ScrubOnPerMs) {
        ScrubOnPerMs = On.first;
        ScrubOnP99 = On.second;
      }
    }

    // False-positive gate: every cycle above scrubbed healthy state.
    integrity::Scrubber::Stats Clean = Scrub.stats();
    ScrubCycles = Clean.Cycles;
    ScrubClean = Clean.Cycles > 0 && Clean.DigestMismatches == 0 &&
                 Clean.WalCrcErrors == 0 && Clean.SnapshotErrors == 0 &&
                 Clean.Quarantined == 0 && Clean.RepairsFailed == 0;

    // Detection and repair: corrupt one live document's digest cache,
    // then clock the running scrubber. Flush first so durable state
    // can prove the live version (repair refuses to roll a document
    // back).
    DocumentSnapshot Before = Store.snapshot(2);
    if (Opened && Before.Ok) {
      Persist.flush();
      Store.corruptDigestForTest(2);
      uint64_t BaseMismatches = Clean.DigestMismatches;
      auto C0 = Clock::now();
      while (msSince(C0) < 5000) {
        integrity::Scrubber::Stats Now = Scrub.stats();
        if (DetectMs < 0 && Now.DigestMismatches > BaseMismatches)
          DetectMs = msSince(C0);
        if (DetectMs >= 0 && !Store.quarantineInfo(2)) {
          RepairMs = msSince(C0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Scrub.stop();
      DocumentSnapshot After = Store.snapshot(2);
      ScrubRepaired = DetectMs >= 0 && RepairMs >= 0 && After.Ok &&
                      !After.Quarantined && After.UriText == Before.UriText &&
                      After.Version == Before.Version &&
                      !Store.checkDigests(2).has_value();
    }
    Service.shutdown();
  }

  double ScrubPenalty =
      ScrubOffPerMs == 0 ? 1.0 : 1.0 - ScrubOnPerMs / ScrubOffPerMs;
  bool ScrubOk = ScrubOffPerMs > 0 && ScrubPenalty <= 0.05 && ScrubClean &&
                 ScrubRepaired;

  std::printf("\n%-12s %12s %12s %12s %12s\n", "integrity", "ops/ms",
              "p99 ms", "detect ms", "repair ms");
  std::printf("%-12s %12.2f %12.2f %12s %12s\n", "scrub-off", ScrubOffPerMs,
              ScrubOffP99, "-", "-");
  std::printf("%-12s %12.2f %12.2f %12.1f %12.1f\n", "scrub-on", ScrubOnPerMs,
              ScrubOnP99, DetectMs, RepairMs);
  std::printf("# goodput penalty: %.1f%%, cycles: %llu, clean findings: %s, "
              "repaired byte-identical: %s\n",
              ScrubPenalty * 100.0,
              static_cast<unsigned long long>(ScrubCycles),
              ScrubClean ? "zero" : "NONZERO", ScrubRepaired ? "yes" : "NO");

  Report.scalar("scrub_off_goodput", "ops_per_ms", ScrubOffPerMs);
  Report.scalar("scrub_on_goodput", "ops_per_ms", ScrubOnPerMs);
  Report.scalar("scrub_off_p99", "ms", ScrubOffP99);
  Report.scalar("scrub_on_p99", "ms", ScrubOnP99);
  Report.scalar("scrub_goodput_penalty", "ratio", ScrubPenalty);
  Report.scalar("scrub_time_to_detect", "ms", DetectMs);
  Report.scalar("scrub_time_to_repair", "ms", RepairMs);
  Report.meta("scrub_ok", ScrubOk ? "yes" : "no");
  Report.write();

  std::printf("\n# aggregate nodes/ms %s monotonically (within 10%% noise) "
              "with workers, 1..%u\n",
              Monotone ? "increased" : "did NOT increase", MaxWorkers);
  bool CacheOk = Identical && Ratio >= 2.0;
  if (!CacheOk)
    std::printf("# FAIL: digest cache must keep scripts byte-identical and "
                "reach 2x cold throughput\n");
  bool DigestOk =
      KeyIdentical && Batched.Ratio >= MinBatchedDigestSpeedup;
  if (!DigestOk)
    std::printf("# FAIL: scripts must not depend on the digest key, and the "
                "batched node digest must hash %.1fx as fast as the scalar "
                "one\n",
                MinBatchedDigestSpeedup);
  if (!FallbackOk)
    std::printf("# FAIL: fallback path must answer every commit with a "
                "(larger) replace-root script\n");
  if (!OverloadOk)
    std::printf("# FAIL: under 4x overload, goodput must stay within 20%% "
                "of capacity, the cold tenant must be fully served with "
                "bounded p99, and every shed carries a retry hint\n");
  if (!FailoverOk)
    std::printf("# FAIL: after killing the leader mid-load, the promoted "
                "follower must serve the client's writes and converge "
                "byte-identically with no durable write lost\n");
  if (!ScrubOk)
    std::printf("# FAIL: the background scrubber must cost at most 5%% "
                "goodput, find nothing on a clean run, and detect+repair "
                "an injected corruption to byte identity\n");
  return Monotone && CacheOk && DigestOk && FallbackOk && OverloadOk &&
                 FailoverOk && ScrubOk
             ? 0
             : 1;
}
