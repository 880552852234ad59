//===- replica/Leader.cpp - Replication leader endpoint --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Leader.h"

#include <cstdio>

using namespace truediff;
using namespace truediff::net;
using namespace truediff::replica;

Leader::Leader(EventLoop &Loop, ReplicationLog &Log, Config C)
    : Loop(Loop), Log(Log), Cfg(C) {
  Log.setOnRecord([this](const RecordMsg &R) {
    // Invoked under the log lock in seq order; posting preserves that
    // order on the loop thread.
    this->Loop.post([this, R] { broadcast(R); });
  });
}

bool Leader::start(std::string *Err) {
  uint16_t Port = Loop.listen(
      Cfg.Port,
      [this](Conn &C) {
        // Replication links are idle between commits by design; no idle
        // timeout.
        States.emplace(C.id(), FollowerConn{});
        Followers.emplace(C.id(), &C);
        Conn::Handlers H;
        H.OnData = [this](Conn &C) { onData(C); };
        H.OnClose = [this](Conn &C) {
          auto It = States.find(C.id());
          if (It != States.end() && It->second.Live)
            NumLive.fetch_sub(1);
          States.erase(C.id());
          Followers.erase(C.id());
          std::lock_guard<std::mutex> Lock(AckMu);
          AckedSeqs.erase(C.id());
        };
        C.setHandlers(std::move(H));
      },
      Err);
  if (Port == 0)
    return false;
  BoundPort = Port;
  return true;
}

void Leader::onData(Conn &C) {
  while (parseOne(C)) {
  }
}

bool Leader::parseOne(Conn &C) {
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

  switch (static_cast<ReplFrame>(H.Type)) {
  case ReplFrame::FollowerHello: {
    FollowerHello Hello;
    if (!decodeFollowerHello(Payload, Hello)) {
      C.closeNow();
      return false;
    }
    handshake(C, Hello);
    return true;
  }
  case ReplFrame::ResyncReq: {
    ResyncReqMsg Req;
    if (!decodeResyncReq(Payload, Req)) {
      C.closeNow();
      return false;
    }
    // Counted before the send: a reader that sees the resync's effect
    // on the follower must also see it counted here.
    SnapshotsSent.fetch_add(1);
    ResyncsServed.fetch_add(1);
    C.send(encodeDocSnapshot(Log.snapshotDoc(Req.Doc)));
    return true;
  }
  case ReplFrame::Ack: {
    AckMsg M;
    if (!decodeAck(Payload, M)) {
      C.closeNow();
      return false;
    }
    std::lock_guard<std::mutex> Lock(AckMu);
    uint64_t &Acked = AckedSeqs[C.id()];
    if (M.Seq > Acked)
      Acked = M.Seq;
    return true;
  }
  default:
    // A follower has no business sending anything else.
    C.closeNow();
    return false;
  }
}

void Leader::handshake(Conn &C, const FollowerHello &Hello) {
  // Self-fencing: a follower that has seen a higher epoch proves some
  // other node was promoted past us. Serving it would fork the history;
  // instead report staleness (so the wiring can demote this node's role)
  // and drop the link -- but announce our stale epoch first, so the
  // follower observes a typed stale-leader rejection rather than a
  // bare connection loss.
  if (Hello.MaxEpochSeen > Cfg.Epoch) {
    FencedHellos.fetch_add(1);
    if (Cfg.OnFenced)
      Cfg.OnFenced(Hello.MaxEpochSeen);
    LeaderHello LH;
    LH.Epoch = Cfg.Epoch;
    LH.CurrentSeq = Log.currentSeq();
    C.send(encodeLeaderHello(LH));
    C.closeAfterFlush();
    return;
  }

  // Cutoff read before any catch-up work: every record committed after
  // it reaches this connection through the live fanout (see header).
  uint64_t Cutoff = Log.currentSeq();

  LeaderHello LH;
  LH.Epoch = Cfg.Epoch;
  LH.CurrentSeq = Cutoff;
  C.send(encodeLeaderHello(LH));

  std::vector<RecordMsg> Records;
  bool SnapshotMode = !Log.tailSince(Hello.LastSeq, Records);
  if (!SnapshotMode) {
    // The ring still covers the follower's position: WAL-tail replay.
    for (const RecordMsg &R : Records)
      C.send(encodeRecord(R));
    TailRecords.fetch_add(Records.size());
  } else {
    // Snapshot transfer: full state. Each snapshot folds in every record
    // of its document up to now (per-doc seq metadata dedups any live
    // fanout overlap); a doc erased before the loop reaches it yields a
    // tombstone, which is also correct to install.
    for (uint64_t Doc : Log.liveDocs()) {
      C.send(encodeDocSnapshot(Log.snapshotDoc(Doc)));
      SnapshotsSent.fetch_add(1);
    }
  }

  CatchupDoneMsg Done;
  Done.Seq = Cutoff;
  Done.SnapshotMode = SnapshotMode;
  C.send(encodeCatchupDone(Done));

  FollowerConn &S = States[C.id()];
  if (!S.Live) {
    S.Live = true;
    NumLive.fetch_add(1);
  }
  // Until the first Ack arrives, the hello's last seq is the best known
  // applied watermark.
  std::lock_guard<std::mutex> Lock(AckMu);
  uint64_t &Acked = AckedSeqs[C.id()];
  if (Hello.LastSeq > Acked)
    Acked = Hello.LastSeq;
}

void Leader::broadcast(const RecordMsg &R) {
  std::string Bytes = encodeRecord(R);
  for (auto &[Id, C] : Followers) {
    auto It = States.find(Id);
    if (It != States.end() && It->second.Live && !C->closing())
      C->send(Bytes);
  }
}

void Leader::broadcastSummary(const ShardSummaryMsg &M) {
  // Encoded once here (any thread), fanned out on the loop thread like
  // the record broadcast so it interleaves cleanly with live records.
  std::string Bytes = encodeShardSummary(M);
  Loop.post([this, Bytes = std::move(Bytes)] {
    bool Sent = false;
    for (auto &[Id, C] : Followers) {
      auto It = States.find(Id);
      if (It != States.end() && It->second.Live && !C->closing()) {
        C->send(Bytes);
        Sent = true;
      }
    }
    if (Sent)
      SummariesSent.fetch_add(1);
  });
}

Leader::Stats Leader::stats() const {
  Stats S;
  S.Followers = NumLive.load();
  S.SnapshotsSent = SnapshotsSent.load();
  S.TailRecords = TailRecords.load();
  S.ResyncsServed = ResyncsServed.load();
  S.FencedHellos = FencedHellos.load();
  S.SummariesSent = SummariesSent.load();
  return S;
}

std::vector<Leader::FollowerLag> Leader::followerLags() const {
  uint64_t Seq = Log.currentSeq();
  std::vector<FollowerLag> Out;
  std::lock_guard<std::mutex> Lock(AckMu);
  Out.reserve(AckedSeqs.size());
  for (const auto &[Id, Acked] : AckedSeqs) {
    FollowerLag L;
    L.ConnId = Id;
    L.AckedSeq = Acked;
    L.Lag = Seq > Acked ? Seq - Acked : 0;
    Out.push_back(L);
  }
  return Out;
}

std::string Leader::replicaJson() const {
  std::vector<FollowerLag> Lags = followerLags();
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"role\":\"leader\",\"epoch\":%llu,\"last_seq\":%llu,"
                "\"followers\":[",
                static_cast<unsigned long long>(Cfg.Epoch),
                static_cast<unsigned long long>(Log.currentSeq()));
  std::string Out = Buf;
  for (size_t I = 0; I != Lags.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"conn\":%llu,\"acked_seq\":%llu,\"lag\":%llu}",
                  I == 0 ? "" : ",",
                  static_cast<unsigned long long>(Lags[I].ConnId),
                  static_cast<unsigned long long>(Lags[I].AckedSeq),
                  static_cast<unsigned long long>(Lags[I].Lag));
    Out += Buf;
  }
  Out += "]}";
  return Out;
}
