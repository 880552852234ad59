//===- examples/diff_server.cpp - REPL diff server over the wire protocol --===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A REPL-style front end to the concurrent diff service, speaking the
/// textual wire protocol (service/Wire.h) on stdin/stdout:
///
///   $ diff_server json
///   > open 1 (JArray (ElemCons (JNumber 1.0) (ElemNil)))
///   ok version=0 edits=5 coalesced=4 size=4
///   .
///   > submit 1 (JArray (ElemCons (JNumber 1.0) (ElemCons (JNumber 2.0) (ElemNil))))
///   ok version=1 edits=5 coalesced=4 size=6
///   load(ElemCons_9, [...], [])
///   ...
///   .
///
/// Trees travel as s-expressions against the chosen signature (json or
/// py); responses carry serialized truechange edit scripts, so a client
/// holding the previous version can replay the patch locally -- the
/// version-control/database deployment the paper motivates in Section 1.
///
/// open/submit accept an optional `author=<name>` token after the doc
/// id; the blame subsystem attributes every touched node to it. `blame
/// <doc>` renders the live tree with per-node intro/last attribution,
/// `blame <doc> <uri>` answers for one node from the provenance index
/// (one hash probe, no history replay), and `history <doc> <uri>` lists
/// the retained revisions that touched the node, newest first.
///
/// With --data-dir=<dir> the server is durable: committed operations are
/// written to a write-ahead log in <dir>, documents are snapshotted in
/// the background, and on startup the store is recovered from the
/// directory's snapshots + WAL. The `save <doc>` verb forces a snapshot,
/// `recover` reports what startup recovery found, `stats` gains a
/// "persist" section, and `health` reports the persistence circuit
/// breaker's state (degraded = WAL unavailable, serving in-memory only).
///
/// --deadline-ms=<n> bounds every submit: requests still queued at their
/// deadline are shed with a retry-after hint, and a diff that would
/// overrun the deadline is answered with the type-checked replace-root
/// fallback script (marked `fallback=1` on the ok line).
///
/// Overload protection flags:
///   --max-nodes=<n>      reject trees over n nodes while parsing
///   --max-depth=<n>      reject trees nested deeper than n
///   --mem-budget-mb=<n>  process-wide tree-memory budget; open/submit
///                        is rejected once the budget is exhausted
///   --shed-target-ms=<n> shed a document's newest queued requests once
///                        its queue sojourn stays above n milliseconds
/// All default to 0 (unlimited/disabled). Rejections carry typed errors
/// and, where a retry can help, a per-document retry_after_ms hint.
///
/// Network modes (the stdin REPL is the default front end):
///   --listen=<port>       serve the protocol over TCP instead of stdin:
///                         a non-blocking epoll loop multiplexes textual
///                         lines and binary frames (net/Frame.h) on one
///                         port, with per-connection idle timeouts
///                         (--idle-timeout-ms, default 60000)
///   --repl-listen=<port>  additionally act as replication leader:
///                         committed edit scripts stream to follower
///                         replicas connecting here (--epoch fences a
///                         replaced leader)
///   --follow=<host:port>  run as a follower replica of that leader and
///                         serve read-only traffic on --listen (writes
///                         answer code=not_leader with a leader address
///                         hint and retry_after_ms)
///
/// Failover: `promote <epoch>` on a follower runs the fence/export/
/// install state machine -- the follower stops accepting the old
/// leader's stream, installs its applied committed prefix into a fresh
/// writable store, and starts serving the full leader protocol on the
/// same port (replication endpoint per --repl-listen). A leader that
/// sees a follower hello carrying a higher epoch self-fences: it demotes
/// to read-only and answers writes with code=not_leader. `demote
/// [<host:port>]` does the same by hand and records where clients should
/// be redirected. Demoted ex-leaders rejoin by restarting as followers.
///
/// Integrity flags (src/integrity): a background scrubber continuously
/// re-verifies the digest cache of every live document, re-reads closed
/// WAL segments and snapshot files (CRC), and -- when this node leads
/// replicas -- fans anti-entropy digest summaries out so diverged
/// followers resync. Corrupt documents are quarantined (writes answer
/// code=quarantined, gets carry quarantined=1) and repaired from
/// durable state; corrupt disk files are repaired from the healthy
/// in-memory state. The `scrub` verb runs one cycle synchronously and
/// answers with its findings; `stats` gains an "integrity" section.
///   --scrub-interval-ms=<n>  background scrub cycle period
///                            (0 = manual only via the scrub verb)
///   --scrub-rate=<n>         scrub at most n documents/files per
///                            second (token bucket; 0 = unlimited)
///
/// SIGTERM/SIGINT trigger a graceful shutdown: the server stops reading,
/// drains accepted requests, flushes the WAL, and exits. Exit codes:
///   0  clean shutdown, everything acknowledged as durable is on disk
///   1  startup failure (unusable data dir, bind or connect failure)
///   2  usage error
///   3  shutdown while persistence was degraded (WAL down; in-memory
///      state may exceed what disk holds) -- suppressed by --degraded-ok
///
//===----------------------------------------------------------------------===//

#include "blame/Provenance.h"
#include "blame/Render.h"
#include "integrity/Scrubber.h"
#include "json/Json.h"
#include "net/Role.h"
#include "net/ServiceHandler.h"
#include "persist/Persistence.h"
#include "python/Python.h"
#include "replica/Failover.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/Wire.h"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

using namespace truediff;
using namespace truediff::service;

namespace {

std::string recoveryJson(const persist::RecoveryResult &R) {
  auto N = [](uint64_t V) { return std::to_string(V); };
  return "{\"docs_recovered\":" + N(R.DocsRecovered) +
         ",\"docs_dropped\":" + N(R.DocsDropped) +
         ",\"snapshots_loaded\":" + N(R.SnapshotsLoaded) +
         ",\"snapshots_corrupt\":" + N(R.SnapshotsCorrupt) +
         ",\"records_replayed\":" + N(R.RecordsReplayed) +
         ",\"records_skipped\":" + N(R.RecordsSkipped) +
         ",\"orphan_records\":" + N(R.OrphanRecords) +
         ",\"invalid_records\":" + N(R.InvalidRecords) +
         ",\"torn_bytes\":" + N(R.TornBytes) +
         ",\"nodes_restored\":" + N(R.NodesRestored) +
         ",\"edits_replayed\":" + N(R.EditsReplayed) +
         ",\"max_seq\":" + N(R.MaxSeq) + "}";
}

std::string scrubCycleJson(const integrity::Scrubber::CycleReport &C) {
  auto N = [](uint64_t V) { return std::to_string(V); };
  return "{\"docs_scrubbed\":" + N(C.DocsScrubbed) +
         ",\"digest_mismatches\":" + N(C.DigestMismatches) +
         ",\"wal_crc_errors\":" + N(C.WalCrcErrors) +
         ",\"snapshot_errors\":" + N(C.SnapshotErrors) +
         ",\"newly_quarantined\":" + N(C.NewlyQuarantined) +
         ",\"repaired\":" + N(C.Repaired) +
         ",\"summaries_sent\":" + N(C.SummariesSent) + "}";
}

volatile std::sig_atomic_t GotSignal = 0;

extern "C" void onShutdownSignal(int Sig) { GotSignal = Sig; }

/// Installs \p Handler for SIGTERM and SIGINT *without* SA_RESTART, so a
/// blocking read on stdin returns with EINTR and the REPL loop observes
/// the flag instead of sitting in read() until the next line arrives.
void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: interrupt the blocking getline
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Lang;
  unsigned Workers = 0;
  std::string DataDir;
  size_t FsyncEvery = 8;
  uint64_t DeadlineMs = 0;
  uint64_t MaxNodes = 0;
  uint64_t MaxDepth = 0;
  uint64_t MemBudgetMb = 0;
  uint64_t ShedTargetMs = 0;
  bool DegradedOk = false;
  bool BadArgs = false;
  bool Listen = false;
  uint64_t ListenPort = 0;
  bool ReplListen = false;
  uint64_t ReplPort = 0;
  std::string FollowHost;
  uint64_t FollowPort = 0;
  uint64_t Epoch = 1;
  uint64_t IdleTimeoutMs = 60000;
  uint64_t ScrubIntervalMs = 0;
  uint64_t ScrubRate = 0;
  // Parses the numeric tail of --flag=<n>. Garbage, trailing junk, and
  // out-of-range values set BadArgs (-> usage + exit 2) instead of
  // silently becoming 0 the way atoll would.
  auto NumArg = [&BadArgs](std::string_view Arg, const char *Flag) {
    std::string Tail(Arg.substr(strlen(Flag)));
    errno = 0;
    char *End = nullptr;
    unsigned long long V = std::strtoull(Tail.c_str(), &End, 10);
    if (Tail.empty() || *End != '\0' || errno == ERANGE)
      BadArgs = true;
    return static_cast<uint64_t>(V);
  };
  for (int I = 1; I != Argc; ++I) {
    std::string_view Arg(Argv[I]);
    if (Arg.rfind("--data-dir=", 0) == 0)
      DataDir = std::string(Arg.substr(strlen("--data-dir=")));
    else if (Arg.rfind("--fsync-every=", 0) == 0)
      FsyncEvery = static_cast<size_t>(NumArg(Arg, "--fsync-every="));
    else if (Arg.rfind("--deadline-ms=", 0) == 0)
      DeadlineMs = NumArg(Arg, "--deadline-ms=");
    else if (Arg.rfind("--max-nodes=", 0) == 0)
      MaxNodes = NumArg(Arg, "--max-nodes=");
    else if (Arg.rfind("--max-depth=", 0) == 0)
      MaxDepth = NumArg(Arg, "--max-depth=");
    else if (Arg.rfind("--mem-budget-mb=", 0) == 0)
      MemBudgetMb = NumArg(Arg, "--mem-budget-mb=");
    else if (Arg.rfind("--shed-target-ms=", 0) == 0)
      ShedTargetMs = NumArg(Arg, "--shed-target-ms=");
    else if (Arg == "--degraded-ok")
      DegradedOk = true;
    else if (Arg.rfind("--listen=", 0) == 0) {
      Listen = true;
      ListenPort = NumArg(Arg, "--listen=");
    } else if (Arg.rfind("--repl-listen=", 0) == 0) {
      ReplListen = true;
      ReplPort = NumArg(Arg, "--repl-listen=");
    } else if (Arg.rfind("--follow=", 0) == 0) {
      std::string HostPort(Arg.substr(strlen("--follow=")));
      size_t Colon = HostPort.rfind(':');
      if (Colon == std::string::npos) {
        BadArgs = true;
      } else {
        FollowHost = HostPort.substr(0, Colon);
        FollowPort = static_cast<uint64_t>(
            std::atoll(HostPort.substr(Colon + 1).c_str()));
      }
    } else if (Arg.rfind("--epoch=", 0) == 0)
      Epoch = NumArg(Arg, "--epoch=");
    else if (Arg.rfind("--idle-timeout-ms=", 0) == 0)
      IdleTimeoutMs = NumArg(Arg, "--idle-timeout-ms=");
    else if (Arg.rfind("--scrub-interval-ms=", 0) == 0)
      ScrubIntervalMs = NumArg(Arg, "--scrub-interval-ms=");
    else if (Arg.rfind("--scrub-rate=", 0) == 0)
      ScrubRate = NumArg(Arg, "--scrub-rate=");
    else if (Lang.empty() && !Arg.empty() && Arg[0] != '-')
      Lang = std::string(Arg);
    else if (!Arg.empty() && Arg[0] != '-')
      Workers = static_cast<unsigned>(NumArg(Arg, ""));
    else
      BadArgs = true;
  }
  if (Lang.empty())
    Lang = "json";

  SignatureTable Sig;
  if (!BadArgs && Lang == "json") {
    Sig = json::makeJsonSignature();
  } else if (!BadArgs && Lang == "py") {
    Sig = python::makePythonSignature();
  } else {
    std::fprintf(stderr,
                 "usage: %s [json|py] [workers] [--data-dir=<dir>] "
                 "[--fsync-every=<n>] [--deadline-ms=<n>] [--max-nodes=<n>] "
                 "[--max-depth=<n>] [--mem-budget-mb=<n>] "
                 "[--shed-target-ms=<n>] [--degraded-ok] [--listen=<port>] "
                 "[--repl-listen=<port>] [--follow=<host:port>] "
                 "[--epoch=<n>] [--idle-timeout-ms=<n>] "
                 "[--scrub-interval-ms=<n>] [--scrub-rate=<n>]\n",
                 Argv[0]);
    return 2;
  }

  installSignalHandlers();

  // Follower mode: replicate from the leader, serve read-only traffic,
  // and stand by for promotion. The `promote <epoch>` admin verb runs
  // the failover state machine (replica/Failover.h): fence the old
  // leader's stream, seed a replication log over the follower's own
  // store, start serving the leader wire protocol from that store on the
  // same client port, and open a replication endpoint for the other
  // replicas (--repl-listen picks its port; default ephemeral).
  if (!FollowHost.empty()) {
    net::EventLoop Loop;
    Loop.start();
    replica::Follower F(Loop, Sig);
    std::string Err;
    if (!F.connectTo(FollowHost, static_cast<uint16_t>(FollowPort), &Err)) {
      std::fprintf(stderr, "diff_server: cannot follow %s:%llu: %s\n",
                   FollowHost.c_str(),
                   static_cast<unsigned long long>(FollowPort), Err.c_str());
      Loop.stop();
      return 1;
    }

    net::RoleState Role; // follower: writes answer code=not_leader
    std::unique_ptr<replica::ReplicationLog> PLog;
    std::unique_ptr<replica::Leader> PLead;
    std::unique_ptr<DiffService> PSvc;
    std::unique_ptr<net::ServiceHandler> PWriter;
    std::unique_ptr<replica::FailoverHandler> Router;

    // Runs on the loop thread from the admin verb. Order matters: the
    // role flips to Leader only after the whole write stack is built, so
    // a request routed to the writer always finds one.
    auto Promote = [&](uint64_t NewEpoch) -> Response {
      Response R;
      if (Role.writable()) {
        R.Error = "already the leader";
        return R;
      }
      if (PLead) {
        R.Error = "demoted ex-leader: restart as a fresh follower to rejoin";
        return R;
      }
      replica::PromotionResult PR = replica::promoteFollower(F, NewEpoch);
      if (!PR.Ok) {
        R.Error = PR.Error;
        return R;
      }
      PLog = std::move(PR.Log);
      replica::Leader::Config LC;
      LC.Port = static_cast<uint16_t>(ReplPort);
      LC.Epoch = NewEpoch;
      LC.OnFenced = [&Role](uint64_t) { Role.demote(std::string()); };
      PLead = std::make_unique<replica::Leader>(Loop, *PLog, LC);
      std::string LeadErr;
      if (!PLead->start(&LeadErr)) {
        R.Error = "promotion failed to open the replication endpoint: " +
                  LeadErr;
        return R;
      }
      ServiceConfig SvcCfg;
      SvcCfg.Workers = Workers;
      SvcCfg.DefaultDeadlineMs = static_cast<unsigned>(DeadlineMs);
      PSvc = std::make_unique<DiffService>(F.store(), SvcCfg);
      blame::wireBlameHandlers(*PSvc, F.store(), F.provenance());
      replica::Leader *LeadPtr = PLead.get();
      PSvc->setStatsAugmenter(
          [LeadPtr] { return "\"replica\":" + LeadPtr->replicaJson(); });
      net::ServiceHandler::Config WC;
      WC.Limits.MaxNodes = static_cast<uint32_t>(MaxNodes);
      WC.Limits.MaxDepth = static_cast<uint32_t>(MaxDepth);
      WC.SubmitDeadlineMs = DeadlineMs;
      WC.Role = &Role;
      WC.OnDemote = [&Role](std::string Addr) {
        Role.demote(std::move(Addr));
        Response D;
        D.Ok = true;
        D.Payload = "demoted";
        return D;
      };
      PWriter = std::make_unique<net::ServiceHandler>(*PSvc, WC);
      Router->setWriter(PWriter.get());
      Role.promote(NewEpoch);
      std::fprintf(stderr,
                   "diff_server: promoted to leader (epoch %llu): %llu "
                   "document(s) at seq %llu, replication on port %u\n",
                   static_cast<unsigned long long>(NewEpoch),
                   static_cast<unsigned long long>(PR.Docs),
                   static_cast<unsigned long long>(PR.LastSeq), PLead->port());
      R.Ok = true;
      R.Version = PR.Docs;
      R.Payload = "promoted to epoch " + std::to_string(NewEpoch) + " (" +
                  std::to_string(PR.Docs) + " docs, seq " +
                  std::to_string(PR.LastSeq) + ")";
      return R;
    };

    replica::ReplicaReadHandler::Config RC;
    RC.Role = &Role;
    RC.OnPromote = Promote;
    RC.OnDemote = [&Role](std::string Addr) {
      Role.demote(std::move(Addr));
      Response R;
      R.Ok = true;
      R.Payload = "demoted";
      return R;
    };
    replica::ReplicaReadHandler Reader(F, RC);
    Router = std::make_unique<replica::FailoverHandler>(Role, Reader);
    net::NetServer::Config SC;
    SC.Port = static_cast<uint16_t>(ListenPort);
    SC.IdleTimeoutMs = static_cast<unsigned>(IdleTimeoutMs);
    net::NetServer Srv(Loop, Sig, *Router, SC);
    if (!Srv.start(&Err)) {
      std::fprintf(stderr, "diff_server: cannot listen: %s\n", Err.c_str());
      Loop.stop();
      return 1;
    }
    std::fprintf(stderr,
                 "diff_server: follower of %s:%llu, read-only %s protocol "
                 "on port %u (promote <epoch> to take over)\n",
                 FollowHost.c_str(),
                 static_cast<unsigned long long>(FollowPort), Lang.c_str(),
                 Srv.port());
    while (GotSignal == 0)
      pause();
    std::fprintf(stderr, "diff_server: caught signal %d, shutting down\n",
                 static_cast<int>(GotSignal));
    F.disconnect();
    Loop.stop();
    if (PSvc)
      PSvc->shutdown();
    return 0;
  }

  // Admission caps: hostile or runaway inputs are rejected while
  // parsing (depth/node caps) or up front (memory budget), with typed
  // errors, instead of taking the process down.
  ParseLimits Limits;
  Limits.MaxNodes = static_cast<uint32_t>(MaxNodes);
  Limits.MaxDepth = static_cast<uint32_t>(MaxDepth);
  MemoryBudget Budget(static_cast<size_t>(MemBudgetMb) << 20);

  DocumentStore::Config StoreCfg;
  if (MemBudgetMb != 0)
    StoreCfg.MemBudget = &Budget;
  DocumentStore Store(Sig, StoreCfg);

  // Per-node attribution, folded incrementally from the script stream.
  // Recovery rebuilds it from snapshots + WAL before traffic starts.
  blame::ProvenanceIndex::Config ProvCfg;
  if (MemBudgetMb != 0)
    ProvCfg.MemBudget = &Budget;
  blame::ProvenanceIndex Prov(ProvCfg);

  std::unique_ptr<persist::Persistence> Persist;
  if (!DataDir.empty()) {
    persist::Persistence::Config PC;
    PC.Dir = DataDir;
    PC.FsyncEvery = FsyncEvery == 0 ? 1 : FsyncEvery;
    try {
      Persist = std::make_unique<persist::Persistence>(Sig, PC);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "diff_server: cannot open data dir: %s\n", E.what());
      return 1;
    }
    Persist->setProvenanceSource(
        [&Prov](DocId Doc) { return Prov.snapshotDoc(Doc); });
    persist::RecoveryResult R = Persist->recoverAndAttach(Store, &Prov);
    std::fprintf(stderr,
                 "diff_server: recovered %llu document(s) from %s "
                 "(%llu snapshot(s), %llu record(s) replayed, %llu torn "
                 "byte(s) discarded)\n",
                 static_cast<unsigned long long>(R.DocsRecovered),
                 DataDir.c_str(),
                 static_cast<unsigned long long>(R.SnapshotsLoaded),
                 static_cast<unsigned long long>(R.RecordsReplayed),
                 static_cast<unsigned long long>(R.TornBytes));
  }

  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.DefaultDeadlineMs = static_cast<unsigned>(DeadlineMs);
  Cfg.ShedTargetMs = static_cast<unsigned>(ShedTargetMs);
  if (MemBudgetMb != 0)
    Cfg.MemBudget = &Budget;
  DiffService Service(Store, Cfg);

  // Network front end and/or replication leader share one event loop.
  // The role state gates writes once this leader is fenced or demoted;
  // the stats augmenter reads Lead through the pointer, so it must be
  // declared before the augmenters are installed.
  net::RoleState Role(net::RoleState::Role::Leader, Epoch);
  std::unique_ptr<net::EventLoop> Loop;
  std::unique_ptr<replica::ReplicationLog> Log;
  std::unique_ptr<replica::Leader> Lead;
  std::unique_ptr<net::ServiceHandler> Handler;
  std::unique_ptr<net::NetServer> Srv;
  // Declared after everything it scrubs (store, persistence, leader), so
  // it is destroyed -- and its background thread joined -- first.
  std::unique_ptr<integrity::Scrubber> Scrub;

  // Subscribe the index to the live script stream (recovery above used
  // the WAL instead; restore() emits nothing, so nothing double-folds),
  // and serve blame/history through the service queue.
  Prov.attach(Store);
  blame::wireBlameHandlers(Service, Store, Prov);
  auto ReplicaFragment = [&Lead]() -> std::string {
    // Lead is fixed before the loop starts serving; no race with stats.
    return Lead ? ",\"replica\":" + Lead->replicaJson() : std::string();
  };
  auto IntegrityFragment = [&Scrub]() -> std::string {
    // Scrub, like Lead, is fixed before traffic starts.
    return Scrub ? "," + Scrub->statsJsonFragment() : std::string();
  };
  if (Persist) {
    persist::Persistence *P = Persist.get();
    Service.setDrainHook([P] { P->flush(); });
    Service.setStatsAugmenter([P, &Prov, ReplicaFragment, IntegrityFragment] {
      return "\"persist\":" + P->statsJson() + "," +
             Prov.statsJsonFragment() + ReplicaFragment() +
             IntegrityFragment();
    });
    Service.setHealthSource([P] {
      persist::Persistence::HealthInfo H = P->healthInfo();
      HealthStatus S;
      S.Degraded = H.Degraded;
      S.BreakerTrips = H.BreakerTrips;
      S.DegradedUs = H.DegradedUs;
      return S;
    });
  } else {
    Service.setStatsAugmenter([&Prov, ReplicaFragment, IntegrityFragment] {
      return Prov.statsJsonFragment() + ReplicaFragment() +
             IntegrityFragment();
    });
  }

  if (Listen || ReplListen)
    Loop = std::make_unique<net::EventLoop>();
  if (ReplListen) {
    Log = std::make_unique<replica::ReplicationLog>(Store);
    Log->setProvenanceSource(
        [&Prov](uint64_t Doc) { return Prov.snapshotDoc(Doc); });
    Log->attach();
    replica::Leader::Config LC;
    LC.Port = static_cast<uint16_t>(ReplPort);
    LC.Epoch = Epoch;
    // Self-fence: a follower hello reporting a higher epoch means a
    // promotion happened elsewhere -- stop accepting writes immediately.
    LC.OnFenced = [&Role](uint64_t Reported) {
      Role.demote(std::string());
      std::fprintf(stderr,
                   "diff_server: fenced by epoch %llu, demoted to read-only\n",
                   static_cast<unsigned long long>(Reported));
    };
    Lead = std::make_unique<replica::Leader>(*Loop, *Log, LC);
    std::string Err;
    if (!Lead->start(&Err)) {
      std::fprintf(stderr, "diff_server: cannot listen for replicas: %s\n",
                   Err.c_str());
      return 1;
    }
  }

  // The integrity scrubber: always constructed (the scrub verb works
  // even without a background interval), wired to whatever subsystems
  // exist -- persistence for disk verification and repair, the
  // replication leader for anti-entropy fan-out.
  {
    integrity::Scrubber::Config IC;
    IC.IntervalMs = static_cast<unsigned>(ScrubIntervalMs);
    IC.RatePerSec = static_cast<double>(ScrubRate);
    IC.NumShards = Store.config().NumShards;
    if (Lead) {
      replica::Leader *LeadPtr = Lead.get();
      replica::ReplicationLog *LogPtr = Log.get();
      IC.Broadcast = [LeadPtr](const replica::ShardSummaryMsg &M) {
        LeadPtr->broadcastSummary(M);
      };
      IC.CurrentSeq = [LogPtr] { return LogPtr->currentSeq(); };
      IC.ResyncsServed = [LeadPtr] { return LeadPtr->stats().ResyncsServed; };
    }
    Scrub = std::make_unique<integrity::Scrubber>(Store, std::move(IC),
                                                  Persist.get());
    Scrub->start();
  }

  if (Listen) {
    net::ServiceHandler::Config HC;
    HC.Limits = Limits;
    HC.SubmitDeadlineMs = DeadlineMs;
    HC.Role = &Role;
    HC.OnPromote = [&Role](uint64_t) {
      Response R;
      R.Error = Role.writable()
                    ? "already the leader"
                    : "demoted ex-leader: restart as a follower to rejoin";
      return R;
    };
    HC.OnDemote = [&Role](std::string Addr) {
      Role.demote(std::move(Addr));
      Response R;
      R.Ok = true;
      R.Payload = "demoted";
      return R;
    };
    if (Persist) {
      persist::Persistence *P = Persist.get();
      HC.OnSave = [P](DocId Doc) {
        Response R;
        if (!P->snapshotDocument(Doc))
          R.Error = "no such document";
        else if (!P->flush())
          R.Error = "snapshot written but WAL flush failed; "
                    "persistence is degraded";
        else {
          R.Ok = true;
          R.Payload = "snapshot written";
        }
        return R;
      };
      HC.OnRecover = [P] {
        Response R;
        R.Ok = true;
        R.Payload = recoveryJson(P->lastRecovery());
        return R;
      };
    }
    integrity::Scrubber *SPtr = Scrub.get();
    HC.OnScrub = [SPtr] {
      Response R;
      R.Ok = true;
      R.Payload = scrubCycleJson(SPtr->scrubCycle());
      return R;
    };
    Handler = std::make_unique<net::ServiceHandler>(Service, HC);
    net::NetServer::Config SC;
    SC.Port = static_cast<uint16_t>(ListenPort);
    SC.IdleTimeoutMs = static_cast<unsigned>(IdleTimeoutMs);
    Srv = std::make_unique<net::NetServer>(*Loop, Sig, *Handler, SC);
    std::string Err;
    if (!Srv->start(&Err)) {
      std::fprintf(stderr, "diff_server: cannot listen: %s\n", Err.c_str());
      return 1;
    }
  }
  if (Loop)
    Loop->start();

  std::string DeadlineNote =
      DeadlineMs != 0 ? ", deadline " + std::to_string(DeadlineMs) + "ms" : "";
  std::fprintf(stderr,
               "diff_server: %s signature, %u workers%s%s; commands: open, "
               "submit, rollback, get, blame, history, save, scrub, recover, "
               "stats, health, promote, demote, quit\n",
               Lang.c_str(), Service.workers(), Persist ? ", durable" : "",
               DeadlineNote.c_str());
  if (Srv)
    std::fprintf(stderr, "diff_server: serving TCP on port %u\n", Srv->port());
  if (Lead)
    std::fprintf(stderr,
                 "diff_server: replication leader (epoch %llu) on port %u\n",
                 static_cast<unsigned long long>(Epoch), Lead->port());

  if (Listen) {
    // TCP mode: the event loop serves; this thread just waits for a
    // shutdown signal.
    while (GotSignal == 0)
      pause();
    std::fprintf(stderr,
                 "diff_server: caught signal %d, draining and flushing\n",
                 static_cast<int>(GotSignal));
    Scrub->stop(); // before the loop: broadcastSummary posts to it
    Loop->stop();
    Service.shutdown();
    if (Persist && Persist->degraded()) {
      std::fprintf(stderr,
                   "diff_server: exiting while persistence is degraded; "
                   "operations acknowledged as non-durable are NOT on "
                   "disk%s\n",
                   DegradedOk ? " (--degraded-ok)" : "");
      if (!DegradedOk)
        return 3;
    }
    return 0;
  }

  bool Quit = false;
  std::string Line;
  while (!Quit && GotSignal == 0 && std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    WireCommand Cmd = parseWireCommand(Line);
    Response R;
    switch (Cmd.K) {
    case WireCommand::Kind::Open:
      R = Service.open(Cmd.Doc, makeSExprBuilder(std::move(Cmd.Arg), Limits),
                       std::move(Cmd.Author));
      break;
    case WireCommand::Kind::Submit:
      R = Service.submit(Cmd.Doc, makeSExprBuilder(std::move(Cmd.Arg), Limits),
                         DeadlineMs, std::move(Cmd.Author));
      break;
    case WireCommand::Kind::Rollback:
      R = Service.rollback(Cmd.Doc);
      break;
    case WireCommand::Kind::Get:
      R = Service.getVersion(Cmd.Doc);
      break;
    case WireCommand::Kind::Blame:
      R = Service.blame(Cmd.Doc, Cmd.HasUri, Cmd.Uri);
      break;
    case WireCommand::Kind::History:
      R = Service.history(Cmd.Doc, Cmd.Uri);
      break;
    case WireCommand::Kind::Save:
      if (!Persist) {
        R.Error = "persistence is disabled (run with --data-dir=<dir>)";
      } else if (Persist->snapshotDocument(Cmd.Doc)) {
        // Snapshots capture acknowledged state; flush so everything the
        // client saw committed is also durable in the log. A failed
        // flush means the breaker is (now) open -- say so rather than
        // acknowledging durability we do not have.
        if (Persist->flush()) {
          R.Ok = true;
          R.Payload = "snapshot written";
        } else {
          R.Error = "snapshot written but WAL flush failed; "
                    "persistence is degraded";
        }
      } else {
        R.Error = "no such document";
      }
      break;
    case WireCommand::Kind::Scrub:
      R.Ok = true;
      R.Payload = scrubCycleJson(Scrub->scrubCycle());
      break;
    case WireCommand::Kind::Recover:
      if (!Persist) {
        R.Error = "persistence is disabled (run with --data-dir=<dir>)";
      } else {
        R.Ok = true;
        R.Payload = recoveryJson(Persist->lastRecovery());
      }
      break;
    case WireCommand::Kind::Stats:
      R = Service.stats();
      break;
    case WireCommand::Kind::Health:
      // Served synchronously, bypassing the request queue: a saturated
      // or wedged queue is exactly when a health probe must still
      // answer.
      R.Ok = true;
      R.Payload = Service.healthJson();
      break;
    case WireCommand::Kind::Promote:
      R.Error = Role.writable()
                    ? "already the leader"
                    : "demoted ex-leader: restart as a follower to rejoin";
      break;
    case WireCommand::Kind::Demote:
      // Flips the role (fencing the TCP write path if one is listening)
      // and records where clients should be pointed.
      Role.demote(std::move(Cmd.Arg));
      R.Ok = true;
      R.Payload = "demoted";
      break;
    case WireCommand::Kind::Quit:
      Quit = true;
      continue;
    case WireCommand::Kind::Invalid:
      R.Ok = false;
      R.Error = Cmd.Error;
      R.Code = Cmd.Code;
      break;
    }
    std::fputs(formatWireResponse(R, Cmd.K).c_str(), stdout);
    std::fflush(stdout);
  }

  if (GotSignal != 0)
    std::fprintf(stderr,
                 "diff_server: caught signal %d, draining and flushing\n",
                 static_cast<int>(GotSignal));

  // Graceful shutdown on every exit path (quit verb, EOF, SIGTERM/
  // SIGINT): stop accepting, drain accepted requests, then the drain
  // hook flushes the WAL so acknowledged-durable operations are on disk.
  Scrub->stop(); // before the loop: broadcastSummary posts to it
  if (Loop)
    Loop->stop(); // REPL mode can still carry a replication leader
  Service.shutdown();

  if (Persist && Persist->degraded()) {
    std::fprintf(stderr,
                 "diff_server: exiting while persistence is degraded; "
                 "operations acknowledged as non-durable are NOT on disk%s\n",
                 DegradedOk ? " (--degraded-ok)" : "");
    if (!DegradedOk)
      return 3;
  }
  return 0;
}
