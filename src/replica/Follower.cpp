//===- replica/Follower.cpp - Follower replica -----------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Follower.h"

#include "blame/Render.h"
#include "persist/BinaryCodec.h"
#include "support/Sha256.h"
#include "truechange/TypeChecker.h"

#include <cstdio>
#include <cstring>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::net;
using namespace truediff::replica;

Follower::Follower(EventLoop &Loop, const SignatureTable &Sig, Config C)
    : Loop(Loop), Sig(Sig), Cfg(C), MaxEpochSeen(C.MaxEpochSeen) {}

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
    Docs.erase(It);
    Prov.eraseDoc(R.Doc);
    ++Counters.RecordsApplied;
    return;
  }

  if (R.Op == ReplOp::Open) {
    if (It != Docs.end() && It->second.Incarnation >= R.Incarnation) {
      ++Counters.DupRecords; // a newer snapshot already covers this life
      return;
    }
    persist::DecodeScriptResult D = persist::decodeEditScript(Sig, R.Blob);
    LinearTypeChecker TC(Sig);
    if (!D.Ok || !TC.checkInitializing(D.Script).Ok) {
      requestResync(C, R.Doc);
      return;
    }
    MTree M(Sig);
    if (!M.patchChecked(D.Script).Ok) {
      requestResync(C, R.Doc);
      return;
    }
    ReplicaDoc &RD = Docs[R.Doc];
    RD.T = std::make_unique<MTree>(std::move(M));
    RD.Version = R.Version;
    RD.Incarnation = R.Incarnation;
    RD.DocSeq = R.Seq;
    RD.Resyncing = false;
    RD.RefreshGen = HelloGen;
    RD.Ring.clear();
    RD.OpenAuthor = R.Author;
    Prov.apply(R.Doc, R.Version, service::DocumentStore::StoreOp::Open,
               R.Author, D.Script);
    ++Counters.RecordsApplied;
    return;
  }

  // Submit / Rollback.
  if (It == Docs.end()) {
    // Erase notifications can overtake in-flight script notifications on
    // the leader; a record for a document we no longer hold is expected
    // noise, not an error.
    ++Counters.OrphanRecords;
    return;
  }
  ReplicaDoc &D = It->second;
  if (D.Resyncing)
    return; // the pending snapshot supersedes everything before it
  if (R.Seq <= D.DocSeq) {
    ++Counters.DupRecords;
    return;
  }
  uint64_t Expect =
      R.Op == ReplOp::Submit ? D.Version + 1
                             : (D.Version == 0 ? uint64_t(0) : D.Version - 1);
  if (R.Incarnation != D.Incarnation || R.Version != Expect ||
      (R.Op == ReplOp::Rollback && D.Version == 0)) {
    requestResync(C, R.Doc);
    return;
  }
  persist::DecodeScriptResult Dec = persist::decodeEditScript(Sig, R.Blob);
  LinearTypeChecker TC(Sig);
  if (!Dec.Ok || !TC.checkWellTyped(Dec.Script).Ok ||
      !D.T->patchChecked(Dec.Script).Ok) {
    // patchChecked may have applied a prefix before failing; the
    // snapshot we request replaces the whole document, so a torn state
    // is never served (Resyncing gates reads' records until then).
    requestResync(C, R.Doc);
    return;
  }
  D.Version = R.Version;
  D.DocSeq = R.Seq;
  D.RefreshGen = HelloGen;
  // Fold the applied record into the provenance index and the retained
  // ring -- only after the patch succeeded, so attribution never gets
  // ahead of the tree.
  if (R.Op == ReplOp::Submit) {
    Prov.apply(R.Doc, R.Version, service::DocumentStore::StoreOp::Submit,
               R.Author, Dec.Script);
    HistoryRec H;
    H.Version = R.Version;
    H.Author = R.Author;
    H.Script = std::move(Dec.Script);
    D.Ring.push_back(std::move(H));
    if (D.Ring.size() > HistoryCap)
      D.Ring.pop_front();
  } else {
    Prov.apply(R.Doc, R.Version, service::DocumentStore::StoreOp::Rollback,
               R.Author, Dec.Script);
    // Rollback undoes the newest retained submit, exactly as the
    // leader's store pops its ring.
    if (!D.Ring.empty() && D.Ring.back().Version == R.Version + 1)
      D.Ring.pop_back();
    else
      D.Ring.clear();
  }
  ++Counters.RecordsApplied;
}

void Follower::onSnapshot(const DocSnapshotMsg &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(S.Doc);

  if (S.Tombstone) {
    if (It != Docs.end() && S.Seq >= It->second.DocSeq) {
      Docs.erase(It);
      Prov.eraseDoc(S.Doc);
    }
    ++Counters.SnapshotsInstalled;
    return;
  }

  if (It != Docs.end() && !It->second.Resyncing &&
      It->second.DocSeq >= S.Seq && It->second.Incarnation >= S.Incarnation) {
    // Already at or past this state (live records beat the snapshot).
    It->second.RefreshGen = HelloGen;
    return;
  }

  TreeContext Tmp(Sig);
  persist::DecodeTreeResult D = persist::decodeTree(Sig, Tmp, S.Blob);
  if (!D.ok())
    return; // corrupt snapshot: keep the old state; a gap will re-sync
  MTree M = MTree::fromTree(Sig, D.Root);
  ReplicaDoc &RD = Docs[S.Doc];
  RD.T = std::make_unique<MTree>(std::move(M));
  RD.Version = S.Version;
  RD.Incarnation = S.Incarnation;
  RD.DocSeq = S.Seq;
  RD.Resyncing = false;
  RD.RefreshGen = HelloGen;
  // State transfer replaces the record chain: history before it is gone
  // (and degrades explicitly on queries), the provenance index comes
  // from the snapshot's canonical blob.
  RD.Ring.clear();
  RD.OpenAuthor.clear();
  if (S.ProvBlob.empty() || !Prov.installSnapshot(S.Doc, S.ProvBlob))
    Prov.eraseDoc(S.Doc);
  ++Counters.SnapshotsInstalled;
}

void Follower::onCatchupDone(const CatchupDoneMsg &D) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (D.Seq > LastSeq)
    LastSeq = D.Seq;
  if (D.SnapshotMode) {
    // Full state transfer: anything the dump did not refresh was erased
    // while we were away (its erase record may be long evicted).
    for (auto It = Docs.begin(); It != Docs.end();) {
      if (It->second.RefreshGen == HelloGen) {
        ++It;
      } else {
        Prov.eraseDoc(It->first);
        It = Docs.erase(It);
      }
    }
  }
  CatchupSeen = true;
}

void Follower::onShardSummary(Conn &C, const ShardSummaryMsg &M) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counters.SummariesReceived;
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
    ReplicaDoc &D = It->second;
    // A doc that advanced past the summary's cut (or is mid-resync) is
    // being compared against stale information; skip, the next summary
    // covers it.
    if (D.Resyncing || D.DocSeq > M.AsOfSeq)
      continue;
    bool Mismatch = D.Version != E.Version;
    if (!Mismatch) {
      MTree::Rendering R = D.T->render(MTree::Forms::WithUris);
      Mismatch = !R.Ok || Sha256::hash(R.UriText).toHex() != E.DigestHex;
    }
    if (Mismatch) {
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

Follower::ReadResult Follower::render(uint64_t Doc, MTree::Forms F) const {
  std::lock_guard<std::mutex> Lock(Mu);
  ReadResult Out;
  auto It = Docs.find(Doc);
  if (It == Docs.end()) {
    Out.Error = "no such document";
    return Out;
  }
  MTree::Rendering R = It->second.T->render(F);
  if (!R.Ok) {
    Out.Error = "document is not well-formed";
    return Out;
  }
  Out.Ok = true;
  Out.Version = It->second.Version;
  Out.TreeSize = R.Size;
  Out.Text = std::move(R.Text);
  Out.UriText = std::move(R.UriText);
  return Out;
}

Follower::ReadResult Follower::read(uint64_t Doc) const {
  ReadResult Out = render(Doc, MTree::Forms::Both);
  // Hashed after the state mutex is released: record application need
  // not wait for the digest.
  if (Out.Ok)
    Out.DigestHex = Sha256::hash(Out.UriText).toHex();
  return Out;
}

Follower::ReadResult Follower::readText(uint64_t Doc) const {
  return render(Doc, MTree::Forms::Plain);
}

bool Follower::contains(uint64_t Doc) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Docs.count(Doc) != 0;
}

service::Response Follower::blameRead(uint64_t Doc, bool HasUri,
                                      URI Uri) const {
  // Single-node blame never needs the tree.
  if (HasUri)
    return blame::blameTreeResponse(Sig, nullptr, Prov, Doc, true, Uri);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  if (It == Docs.end()) {
    service::Response R;
    R.Code = service::ErrCode::NoSuchDocument;
    R.Error = "no document " + std::to_string(Doc);
    return R;
  }
  TreeContext Tmp(Sig);
  Tree *T = It->second.T->toTreePreservingUris(Tmp);
  if (T == nullptr) {
    service::Response R;
    R.Error = "document is not well-formed";
    return R;
  }
  return blame::blameTreeResponse(Sig, T, Prov, Doc, false, Uri);
}

service::Response Follower::historyRead(uint64_t Doc, URI Uri) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  if (It == Docs.end()) {
    service::Response R;
    R.Code = service::ErrCode::NoSuchDocument;
    R.Error = "no document " + std::to_string(Doc);
    return R;
  }
  std::vector<blame::HistoryRef> Ring;
  Ring.reserve(It->second.Ring.size());
  for (const HistoryRec &H : It->second.Ring) {
    blame::HistoryRef Ref;
    Ref.Version = H.Version;
    Ref.Author = H.Author;
    Ref.Script = &H.Script;
    Ring.push_back(Ref);
  }
  return blame::historyResponse(Prov, Doc, Uri, Ring);
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
      "\"summary_mismatches\":%llu}",
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
  return Buf;
}

void Follower::injectGapForTest(uint64_t Doc) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  if (It != Docs.end())
    It->second.Version += 1000;
}

bool Follower::corruptDocForTest(uint64_t Doc) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Docs.find(Doc);
  if (It == Docs.end() || It->second.T == nullptr)
    return false;
  // Kind-preserving mutation of the first literal found: the tree stays
  // well-formed (rendering, export, and patching all keep working), only
  // its *content* is silently wrong. Version and seq are untouched.
  std::deque<MNode *> Work{It->second.T->root()};
  while (!Work.empty()) {
    MNode *N = Work.front();
    Work.pop_front();
    for (auto &[Link, Lit] : N->Lits) {
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
      return true;
    }
    for (auto &[Link, Kid] : N->Kids)
      Work.push_back(Kid);
  }
  return false;
}

void Follower::prepareForPromotion(uint64_t NewEpoch) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (NewEpoch > MaxEpochSeen)
      MaxEpochSeen = NewEpoch;
  }
  disconnect();
}

Follower::Export Follower::exportForPromotion() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Export Out;
  Out.LastSeq = LastSeq;
  Out.MaxEpochSeen = MaxEpochSeen;
  Out.Docs.reserve(Docs.size());
  for (const auto &[Doc, RD] : Docs) {
    ExportedDoc E;
    E.Doc = Doc;
    E.Incarnation = RD.Incarnation;
    E.Version = RD.Version;
    E.DocSeq = RD.DocSeq;
    E.OpenAuthor = RD.OpenAuthor;
    TreeContext Tmp(Sig);
    Tree *T = RD.T->toTreePreservingUris(Tmp);
    if (T == nullptr)
      continue; // cannot happen for applied state; skip defensively
    E.TreeBlob = persist::encodeTree(Sig, T);
    E.ProvBlob = Prov.snapshotDoc(Doc);
    E.History.reserve(RD.Ring.size());
    for (const HistoryRec &H : RD.Ring) {
      service::DocumentStore::RestoreEntry R;
      R.Version = H.Version;
      R.Script = H.Script;
      R.Author = H.Author;
      E.History.push_back(std::move(R));
    }
    Out.Docs.push_back(std::move(E));
  }
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
