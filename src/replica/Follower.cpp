//===- replica/Follower.cpp - Follower replica -----------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Follower.h"

#include "blame/Render.h"
#include "persist/BinaryCodec.h"

#include <cstdio>
#include <cstring>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::net;
using namespace truediff::replica;
using service::DocumentStore;

service::TreeBuilder replica::restoreBuilder(const std::string &Blob,
                                             URI NextUri) {
  return [&Blob, NextUri](TreeContext &Ctx) -> service::BuildResult {
    service::BuildResult Out;
    persist::DecodeTreeResult R =
        persist::decodeTree(Ctx.signatures(), Ctx, Blob);
    if (!R.ok()) {
      Out.Error = R.Error.empty() ? "malformed tree blob" : R.Error;
      return Out;
    }
    Out.Root = R.Root;
    Ctx.continueUrisFrom(NextUri);
    return Out;
  };
}

Follower::Follower(EventLoop &Loop, const SignatureTable &Sig, Config C)
    : Loop(Loop), Sig(Sig), Cfg(C), MaxEpochSeen(C.MaxEpochSeen),
      Store(Sig) {
  Prov.attach(Store);
}

Follower::Follower(EventLoop &Loop, const SignatureTable &Sig)
    : Follower(Loop, Sig, Config()) {}

Follower::~Follower() { disconnect(); }

bool Follower::connectTo(const std::string &Host, uint16_t Port,
                         std::string *Err) {
  auto Fail = [&](const std::string &What) {
    if (Err != nullptr)
      *Err = What;
    return false;
  };
  disconnect();

  addrinfo Hints{};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(Port);
  if (getaddrinfo(Host.c_str(), PortStr.c_str(), &Hints, &Res) != 0 ||
      Res == nullptr)
    return Fail("resolve " + Host + " failed");
  int Fd = ::socket(Res->ai_family, Res->ai_socktype, Res->ai_protocol);
  if (Fd < 0) {
    freeaddrinfo(Res);
    return Fail(std::string("socket: ") + std::strerror(errno));
  }
  int Rc = ::connect(Fd, Res->ai_addr, Res->ai_addrlen);
  freeaddrinfo(Res);
  if (Rc != 0) {
    ::close(Fd);
    return Fail(std::string("connect: ") + std::strerror(errno));
  }

  std::string Hello;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    if (Fenced) {
      // A demoted leader: its store may hold writes the new leader never
      // saw, which no record stream can reconcile. It rejoins from empty
      // state, by state transfer.
      for (uint64_t Doc : Store.listDocuments())
        dropDoc(Doc);
      LastSeq = 0;
      Fenced = false;
    }
    HsState = Handshake::Pending;
    CatchupSeen = false;
    LastAckSent = 0;
    ++HelloGen;
    FollowerHello FH;
    FH.LastSeq = LastSeq;
    FH.MaxEpochSeen = MaxEpochSeen;
    Hello = encodeFollowerHello(FH);
  }

  Loop.post([this, Fd, Hello = std::move(Hello)] {
    Conn::Handlers H;
    H.OnData = [this](Conn &C) { onData(C); };
    H.OnClose = [this](Conn &C) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Link == &C) {
        Link = nullptr;
        IsConnected = false;
        if (HsState == Handshake::Pending) {
          HsState = Handshake::Failed;
          HandshakeCv.notify_all();
        }
      }
    };
    Conn *C = Loop.adopt(Fd, std::move(H));
    std::lock_guard<std::mutex> Lock(Mu);
    if (C == nullptr) {
      HsState = Handshake::Failed;
      HandshakeCv.notify_all();
      return;
    }
    Link = C;
    C->send(Hello);
  });

  std::unique_lock<std::mutex> Lock(Mu);
  bool Done = HandshakeCv.wait_for(
      Lock, std::chrono::milliseconds(Cfg.HandshakeTimeoutMs),
      [this] { return HsState != Handshake::Pending; });
  if (!Done) {
    Lock.unlock();
    disconnect();
    return Fail("handshake timed out");
  }
  switch (HsState) {
  case Handshake::Accepted:
    return true;
  case Handshake::Stale:
    Lock.unlock();
    disconnect();
    return Fail("stale leader: epoch below the fencing floor");
  default:
    return Fail("connection lost during handshake");
  }
}

void Follower::disconnect() {
  Loop.post([this] {
    std::unique_lock<std::mutex> Lock(Mu);
    Conn *C = Link;
    Link = nullptr;
    IsConnected = false;
    Lock.unlock();
    if (C != nullptr)
      C->closeNow();
  });
}

bool Follower::connected() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return IsConnected;
}

bool Follower::caughtUp() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return IsConnected && CatchupSeen;
}

uint64_t Follower::lastSeq() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LastSeq;
}

void Follower::onData(Conn &C) {
  while (parseOne(C)) {
  }
  // Ack once per drained batch, not per record: the leader only needs
  // the high-water mark, and batching keeps the ack stream O(wakeups).
  std::lock_guard<std::mutex> Lock(Mu);
  if (!C.closing() && CatchupSeen && LastSeq > LastAckSent) {
    AckMsg M;
    M.Seq = LastSeq;
    C.send(encodeAck(M));
    LastAckSent = LastSeq;
  }
}

bool Follower::parseOne(Conn &C) {
  if (C.closing())
    return false;
  std::string &In = C.in();
  if (In.empty())
    return false;
  if (static_cast<uint8_t>(In[0]) != ReplMagic) {
    C.closeNow();
    return false;
  }
  FrameHeader H;
  switch (peekFrame(In, Cfg.MaxFrameBytes, H)) {
  case FramePeek::NeedMore:
    return false;
  case FramePeek::TooLarge:
    C.closeNow();
    return false;
  case FramePeek::Ok:
    break;
  }
  std::string Payload(In.substr(FrameHeaderBytes, H.Len));
  In.erase(0, FrameHeaderBytes + H.Len);

  bool Ok = false;
  switch (static_cast<ReplFrame>(H.Type)) {
  case ReplFrame::LeaderHello: {
    LeaderHello LH;
    if ((Ok = decodeLeaderHello(Payload, LH)))
      onLeaderHello(C, LH);
    break;
  }
  case ReplFrame::Record: {
    RecordMsg R;
    if ((Ok = decodeRecord(Payload, R)))
      onRecord(C, R);
    break;
  }
  case ReplFrame::DocSnapshot: {
    DocSnapshotMsg S;
    if ((Ok = decodeDocSnapshot(Payload, S)))
      onSnapshot(S);
    break;
  }
  case ReplFrame::CatchupDone: {
    CatchupDoneMsg D;
    if ((Ok = decodeCatchupDone(Payload, D)))
      onCatchupDone(D);
    break;
  }
  case ReplFrame::ShardSummary: {
    ShardSummaryMsg M;
    if ((Ok = decodeShardSummary(Payload, M)))
      onShardSummary(C, M);
    break;
  }
  default:
    break;
  }
  if (!Ok) {
    // An undecodable frame from the leader means the stream is broken;
    // drop the link. A reconnect will catch up cleanly.
    C.closeNow();
    return false;
  }
  return true;
}

void Follower::onLeaderHello(Conn &C, const LeaderHello &LH) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (LH.Epoch < MaxEpochSeen) {
    ++Counters.StaleLeaderRejects;
    HsState = Handshake::Stale;
    HandshakeCv.notify_all();
    Lock.unlock();
    C.closeNow();
    return;
  }
  Epoch = LH.Epoch;
  MaxEpochSeen = LH.Epoch;
  IsConnected = true;
  HsState = Handshake::Accepted;
  HandshakeCv.notify_all();
}

void Follower::onRecord(Conn &C, const RecordMsg &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fenced)
    return;
  if (R.Seq <= LastSeq) {
    ++Counters.DupRecords;
    return;
  }
  if (R.Seq != LastSeq + 1) {
    if (!CatchupSeen)
      return; // straggler from before the hello; the dump covers it
    // A gap after catch-up means records were lost: full re-handshake on
    // the same link.
    ++Counters.GapRehellos;
    CatchupSeen = false;
    ++HelloGen;
    FollowerHello FH;
    FH.LastSeq = LastSeq;
    FH.MaxEpochSeen = MaxEpochSeen;
    C.send(encodeFollowerHello(FH));
    return;
  }
  LastSeq = R.Seq;
  applyDocRecord(C, R);
}

void Follower::applyDocRecord(Conn &C, const RecordMsg &R) {
  auto It = Docs.find(R.Doc);

  if (R.Op == ReplOp::Erase) {
    if (It == Docs.end()) {
      ++Counters.OrphanRecords;
      return;
    }
    dropDoc(R.Doc);
    ++Counters.RecordsApplied;
    return;
  }

  if (R.Op == ReplOp::Open) {
    if (It != Docs.end() && It->second.Incarnation >= R.Incarnation) {
      ++Counters.DupRecords; // a newer snapshot already covers this life
      return;
    }
  } else {
    if (It == Docs.end()) {
      // Erase notifications can overtake in-flight script notifications
      // on the leader; a record for a document we no longer hold is
      // expected noise, not an error.
      ++Counters.OrphanRecords;
      return;
    }
    if (It->second.Resyncing)
      return; // the pending snapshot supersedes everything before it
    if (R.Seq <= It->second.DocSeq) {
      ++Counters.DupRecords;
      return;
    }
    if (R.Incarnation != It->second.Incarnation) {
      requestResync(C, R.Doc);
      return;
    }
  }

  // The store checks that the version follows, type-checks the script
  // and applies it in place; a rejected record leaves the document as it
  // was, and the snapshot we request replaces it. The provenance index
  // folds the script from the store's listener, so attribution never
  // gets ahead of the tree.
  persist::DecodeScriptResult Dec = persist::decodeEditScript(Sig, R.Blob);
  DocumentStore::StoreOp Op = R.Op == ReplOp::Open
                                  ? DocumentStore::StoreOp::Open
                              : R.Op == ReplOp::Submit
                                  ? DocumentStore::StoreOp::Submit
                                  : DocumentStore::StoreOp::Rollback;
  if (!Dec.Ok ||
      !Store.applyRecord(R.Doc, Op, R.Version, std::move(Dec.Script), R.Author)
           .Ok) {
    requestResync(C, R.Doc);
    return;
  }
  ReplicaDoc &D = Docs[R.Doc];
  if (R.Op == ReplOp::Open) {
    D.Incarnation = R.Incarnation;
    D.Resyncing = false;
  }
  D.DocSeq = R.Seq;
  D.RefreshGen = HelloGen;
  ++Counters.RecordsApplied;
}

void Follower::dropDoc(uint64_t Doc) {
  Docs.erase(Doc);
  Store.erase(Doc);
}

void Follower::onSnapshot(const DocSnapshotMsg &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fenced)
    return;
  auto It = Docs.find(S.Doc);

  if (S.Tombstone) {
    if (It != Docs.end() && S.Seq >= It->second.DocSeq)
      dropDoc(S.Doc);
    ++Counters.SnapshotsInstalled;
    return;
  }

  if (It != Docs.end() && !It->second.Resyncing &&
      It->second.DocSeq >= S.Seq && It->second.Incarnation >= S.Incarnation) {
    // Already at or past this state (live records beat the snapshot).
    It->second.RefreshGen = HelloGen;
    return;
  }

  // State transfer replaces the record chain: the tree decodes straight
  // into the store (replacing the document in place if it exists), the
  // history before it is gone (and degrades explicitly on queries), and
  // the provenance index comes from the snapshot's canonical blob. A
  // corrupt snapshot keeps the old state; a gap will re-sync.
  service::TreeBuilder Build = restoreBuilder(S.Blob, S.NextUri);
  service::StoreResult Installed =
      It != Docs.end() ? Store.repair(S.Doc, S.Version, Build, {})
                       : Store.restore(S.Doc, S.Version, Build, {});
  if (!Installed.Ok)
    return;
  ReplicaDoc &RD = Docs[S.Doc];
  RD.Incarnation = S.Incarnation;
  RD.DocSeq = S.Seq;
  RD.Resyncing = false;
  RD.RefreshGen = HelloGen;
  if (S.ProvBlob.empty() || !Prov.installSnapshot(S.Doc, S.ProvBlob))
    Prov.eraseDoc(S.Doc);
  ++Counters.SnapshotsInstalled;
}

void Follower::onCatchupDone(const CatchupDoneMsg &D) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fenced)
    return;
  if (D.Seq > LastSeq)
    LastSeq = D.Seq;
  if (D.SnapshotMode) {
    // Full state transfer: anything the dump did not refresh was erased
    // while we were away (its erase record may be long evicted).
    std::vector<uint64_t> Stale;
    for (const auto &[Doc, RD] : Docs)
      if (RD.RefreshGen != HelloGen)
        Stale.push_back(Doc);
    for (uint64_t Doc : Stale)
      dropDoc(Doc);
  }
  CatchupSeen = true;
}

void Follower::onShardSummary(Conn &C, const ShardSummaryMsg &M) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counters.SummariesReceived;
  if (Fenced)
    return;
  // Comparing states at different points in time would manufacture false
  // mismatches, so the summary only applies once this follower has
  // applied everything the summary reflects.
  if (!CatchupSeen || LastSeq < M.AsOfSeq)
    return;
  for (const ShardSummaryMsg::Entry &E : M.Entries) {
    auto It = Docs.find(E.Doc);
    if (It == Docs.end()) {
      // The leader holds a document this caught-up follower lacks: a
      // lost open no gap check noticed. The resync installs it.
      ++Counters.SummaryMismatches;
      requestResync(C, E.Doc);
      continue;
    }
    // A doc that advanced past the summary's cut (or is mid-resync) is
    // being compared against stale information; skip, the next summary
    // covers it.
    if (It->second.Resyncing || It->second.DocSeq > M.AsOfSeq)
      continue;
    service::DocumentSnapshot Snap = Store.snapshot(E.Doc);
    if (!Snap.Ok || Snap.Version != E.Version ||
        summaryDigest(Snap.UriText) != E.Summary) {
      ++Counters.SummaryMismatches;
      requestResync(C, E.Doc);
    }
  }
}

void Follower::requestResync(Conn &C, uint64_t Doc) {
  auto It = Docs.find(Doc);
  if (It != Docs.end()) {
    if (It->second.Resyncing)
      return;
    It->second.Resyncing = true;
  }
  ++Counters.ResyncsRequested;
  ResyncReqMsg R;
  R.Doc = Doc;
  C.send(encodeResyncReq(R));
}

namespace {

Follower::ReadResult readResult(service::DocumentSnapshot S) {
  Follower::ReadResult Out;
  Out.Ok = S.Ok;
  Out.Error = std::move(S.Error);
  Out.Version = S.Version;
  Out.TreeSize = S.TreeSize;
  Out.Text = std::move(S.Text);
  Out.UriText = std::move(S.UriText);
  return Out;
}

} // namespace

Follower::ReadResult Follower::read(uint64_t Doc) const {
  ReadResult Out = readResult(Store.snapshot(Doc));
  // Hashed after the document lock is released: record application need
  // not wait for the digest.
  if (Out.Ok)
    Out.Summary = summaryDigest(Out.UriText);
  return Out;
}

Follower::ReadResult Follower::readText(uint64_t Doc) const {
  return readResult(Store.snapshotText(Doc));
}

bool Follower::contains(uint64_t Doc) const { return Store.contains(Doc); }

service::Response Follower::blameRead(uint64_t Doc, bool HasUri,
                                      URI Uri) const {
  return blame::blameResponse(Store, Prov, Doc, HasUri, Uri);
}

service::Response Follower::historyRead(uint64_t Doc, URI Uri) const {
  return blame::historyResponse(Store, Prov, Doc, Uri);
}

Follower::Stats Follower::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S = Counters;
  S.LastSeq = LastSeq;
  S.Epoch = Epoch;
  S.MaxEpochSeen = MaxEpochSeen;
  S.Docs = Docs.size();
  return S;
}

std::string Follower::statsJson() const {
  Stats S = stats();
  char Buf[640];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"role\":\"follower\",\"last_seq\":%llu,\"epoch\":%llu,"
      "\"max_epoch_seen\":%llu,\"documents\":%llu,"
      "\"records_applied\":%llu,\"snapshots_installed\":%llu,"
      "\"resyncs_requested\":%llu,\"gap_rehellos\":%llu,"
      "\"stale_leader_rejects\":%llu,\"orphan_records\":%llu,"
      "\"dup_records\":%llu,\"summaries_received\":%llu,"
      "\"summary_mismatches\":%llu,",
      static_cast<unsigned long long>(S.LastSeq),
      static_cast<unsigned long long>(S.Epoch),
      static_cast<unsigned long long>(S.MaxEpochSeen),
      static_cast<unsigned long long>(S.Docs),
      static_cast<unsigned long long>(S.RecordsApplied),
      static_cast<unsigned long long>(S.SnapshotsInstalled),
      static_cast<unsigned long long>(S.ResyncsRequested),
      static_cast<unsigned long long>(S.GapRehellos),
      static_cast<unsigned long long>(S.StaleLeaderRejects),
      static_cast<unsigned long long>(S.OrphanRecords),
      static_cast<unsigned long long>(S.DupRecords),
      static_cast<unsigned long long>(S.SummariesReceived),
      static_cast<unsigned long long>(S.SummaryMismatches));
  return Buf + service::storeStatsJson(Store.stats()) + "}";
}

void Follower::injectGapForTest(uint64_t Doc) {
  Store.mutateForTest(Doc, [](Tree *, uint64_t &Version) { Version += 1000; });
}

bool Follower::corruptDocForTest(uint64_t Doc) {
  // Kind-preserving mutation of the first literal in pre-order: the tree
  // stays well-formed (reads, export, and patching all keep working),
  // only its *content* is silently wrong. Version, seq and the cached
  // digests are untouched.
  bool Mutated = false;
  Store.mutateForTest(Doc, [&](Tree *Root, uint64_t &) {
    std::vector<Tree *> Stack{Root};
    while (!Stack.empty() && !Mutated) {
      Tree *T = Stack.back();
      Stack.pop_back();
      if (T->lits().empty()) {
        for (size_t I = T->arity(); I != 0; --I)
          Stack.push_back(T->kid(I - 1));
        continue;
      }
      std::vector<Literal> Lits(T->lits().begin(), T->lits().end());
      Literal &Lit = Lits.front();
      switch (Lit.kind()) {
      case LitKind::Int:
        Lit = Literal(Lit.asInt() + 1);
        break;
      case LitKind::Float:
        Lit = Literal(Lit.asFloat() + 1.0);
        break;
      case LitKind::Bool:
        Lit = Literal(!Lit.asBool());
        break;
      case LitKind::String:
        Lit = Literal(Lit.asString() + "?");
        break;
      }
      T->setLits(Lits);
      Mutated = true;
    }
  });
  return Mutated;
}

std::optional<Follower::Position>
Follower::prepareForPromotion(uint64_t NewEpoch) {
  std::optional<Position> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Promoted)
      return Out;
    Promoted = true;
    Fenced = true;
    if (NewEpoch > MaxEpochSeen)
      MaxEpochSeen = NewEpoch;
    Out.emplace();
    Out->LastSeq = LastSeq;
    Out->Docs.reserve(Docs.size());
    for (const auto &[Doc, RD] : Docs) {
      ReplicationLog::SeedDoc S;
      S.Doc = Doc;
      S.Incarnation = RD.Incarnation;
      S.LastSeq = RD.DocSeq;
      Store.withDocument(
          Doc, [&](const Tree *, uint64_t Version,
                   const std::vector<DocumentStore::HistoryEntry> &) {
            S.Version = Version;
          });
      Out->Docs.push_back(S);
    }
  }
  disconnect();
  return Out;
}

//===----------------------------------------------------------------------===//
// ReplicaReadHandler
//===----------------------------------------------------------------------===//

void ReplicaReadHandler::handle(net::NetRequest Req,
                                std::function<void(service::Response)> Done) {
  using service::ErrCode;
  using service::WireCommand;
  service::Response R;
  switch (Req.Cmd.K) {
  case WireCommand::Kind::Get: {
    Follower::ReadResult RR = F.readText(Req.Cmd.Doc);
    if (!RR.Ok) {
      R.Error = RR.Error;
      R.Code = ErrCode::NoSuchDocument;
      break;
    }
    R.Ok = true;
    R.Version = RR.Version;
    R.TreeSize = RR.TreeSize;
    R.Payload = std::move(RR.Text);
    break;
  }
  case WireCommand::Kind::Blame:
    R = F.blameRead(Req.Cmd.Doc, Req.Cmd.HasUri, Req.Cmd.Uri);
    break;
  case WireCommand::Kind::History:
    R = F.historyRead(Req.Cmd.Doc, Req.Cmd.Uri);
    break;
  case WireCommand::Kind::Stats:
    R.Ok = true;
    R.Payload = F.statsJson();
    break;
  case WireCommand::Kind::Health: {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"role\":\"follower\",\"connected\":%s,"
                  "\"caught_up\":%s,\"last_seq\":%llu}",
                  F.connected() ? "true" : "false",
                  F.caughtUp() ? "true" : "false",
                  static_cast<unsigned long long>(F.lastSeq()));
    R.Ok = true;
    R.Payload = Buf;
    break;
  }
  case WireCommand::Kind::Promote:
    if (Cfg.OnPromote) {
      Done(Cfg.OnPromote(Req.Cmd.Expect.value_or(0)));
      return;
    }
    R.Error = "role management is disabled";
    break;
  case WireCommand::Kind::Demote:
    if (Cfg.OnDemote) {
      Done(Cfg.OnDemote(Req.Cmd.Arg));
      return;
    }
    R.Error = "role management is disabled";
    break;
  case WireCommand::Kind::Open:
  case WireCommand::Kind::Submit:
  case WireCommand::Kind::Rollback:
  case WireCommand::Kind::Save:
  case WireCommand::Kind::Scrub:
  case WireCommand::Kind::Recover:
    R.Error = "read-only follower replica; send writes to the leader";
    R.Code = ErrCode::NotLeader;
    if (Cfg.Role != nullptr) {
      net::RoleState::View V = Cfg.Role->view();
      R.LeaderAddr = V.LeaderAddr;
      R.RetryAfterMs = V.RetryAfterMs;
    }
    break;
  default:
    R.Error = "unroutable request";
    break;
  }
  Done(std::move(R));
}
