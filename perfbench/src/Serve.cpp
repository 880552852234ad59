//===- perfbench/src/Serve.cpp - The serving workloads --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_write and serve_read_mixed host the leader stack in-process,
/// wired as examples/diff_server wires it with its defaults -- SHA-256
/// digests, one service worker per hardware thread, a durable WAL with
/// FsyncEvery = 8, the blame index attached, no scrubber -- plus one
/// in-process follower replicating over loopback TCP. A single generator
/// thread drives them over at most four client connections.
///
/// The traced run adds spans from the existing seams only: a wrapping
/// RequestHandler on leader and follower, benchmark script listeners
/// interleaved with the real ones in diff_server's attach order
/// (Persistence, blame, replication), and timing IoEnv / counting NetEnv
/// wrappers. The parse/diff split inside the worker and the wait for the
/// store's listener mutex stay inside the worker span.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "blame/Provenance.h"
#include "blame/Render.h"
#include "corpus/Mutator.h"
#include "corpus/PyGen.h"
#include "net/EventLoop.h"
#include "net/Frame.h"
#include "net/NetEnv.h"
#include "net/NetServer.h"
#include "net/Role.h"
#include "net/ServiceHandler.h"
#include "persist/BinaryCodec.h"
#include "persist/IoEnv.h"
#include "persist/Persistence.h"
#include "persist/Varint.h"
#include "python/Python.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "tree/SExpr.h"
#include "truechange/MTree.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <functional>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace truediff;
using namespace pb;
using service::DocumentStore;

namespace {

//===----------------------------------------------------------------------===//
// Seams: what the stack's hooks record for the generator to pick up
//===----------------------------------------------------------------------===//

struct Interval {
  int64_t S = 0, E = 0;
};

/// The last traced request on one document. The generator keeps at most
/// one write and one read per document in flight, so when a reply
/// arrives the slot holds that request's server-side intervals.
struct DocSlot {
  Interval Handler;     ///< leader RequestHandler entry to Done
  int64_t L[4] = {};    ///< benchmark listeners around the real three
  std::vector<Interval> Io; ///< IoEnv calls inside the Persistence listener
  Interval Read;        ///< follower RequestHandler entry to Done
  uint64_t Seq = 0;     ///< replication seq of the document's last commit
};

struct Probe {
  explicit Probe(size_t Docs) : Slots(Docs + 1), InitScripts(Docs + 1) {}
  std::mutex Mu;
  std::vector<DocSlot> Slots;
  /// Set during set-up: the initializing script of every open, which is
  /// how a client learns the URIs of the document it opened.
  std::atomic<bool> CaptureOpens{false};
  std::vector<EditScript> InitScripts;
  std::vector<double> WriteMs, FsyncMs;
  std::atomic<uint64_t> BytesOut{0}, Sends{0};
};

thread_local int64_t TlStamp[3] = {};
thread_local std::vector<Interval> TlIoBuf;
thread_local bool TlInPersist = false;

class TimingIoEnv : public persist::IoEnv {
public:
  explicit TimingIoEnv(Probe &P) : P(P) {}
  ssize_t writeSome(int Fd, const void *Buf, size_t Count) override {
    if (!Tracer::get().on())
      return IoEnv::writeSome(Fd, Buf, Count);
    int64_t S = nowNs();
    ssize_t R = IoEnv::writeSome(Fd, Buf, Count);
    note(S, nowNs(), false);
    return R;
  }
  int syncFd(int Fd) override {
    if (!Tracer::get().on())
      return IoEnv::syncFd(Fd);
    int64_t S = nowNs();
    int R = IoEnv::syncFd(Fd);
    note(S, nowNs(), true);
    return R;
  }

private:
  void note(int64_t S, int64_t E, bool Sync) {
    if (TlInPersist)
      TlIoBuf.push_back({S, E});
    else // background snapshot/flush I/O belongs to no request
      Tracer::get().record("persist.io", 0, 0, S, E);
    std::lock_guard<std::mutex> Lock(P.Mu);
    (Sync ? P.FsyncMs : P.WriteMs).push_back(msBetween(S, E));
  }
  Probe &P;
};

class CountingNetEnv : public net::NetEnv {
public:
  explicit CountingNetEnv(Probe &P) : P(P) {}
  ssize_t sendBytes(int Fd, const char *Data, size_t Len) override {
    ssize_t R = NetEnv::sendBytes(Fd, Data, Len);
    if (Tracer::get().on()) {
      P.Sends.fetch_add(1, std::memory_order_relaxed);
      if (R > 0)
        P.BytesOut.fetch_add(static_cast<uint64_t>(R),
                             std::memory_order_relaxed);
    }
    return R;
  }

private:
  Probe &P;
};

class TracingHandler : public net::RequestHandler {
public:
  TracingHandler(net::RequestHandler &Inner, Probe &P, bool OnFollower)
      : Inner(Inner), P(P), OnFollower(OnFollower) {}
  void handle(net::NetRequest Req,
              std::function<void(service::Response)> Done) override {
    if (!Tracer::get().on()) {
      Inner.handle(std::move(Req), std::move(Done));
      return;
    }
    uint64_t Doc = Req.Cmd.Doc;
    int64_t S = nowNs();
    Inner.handle(std::move(Req),
                 [this, Doc, S, Done = std::move(Done)](service::Response R) {
                   int64_t E = nowNs();
                   if (Doc < P.Slots.size()) {
                     std::lock_guard<std::mutex> Lock(P.Mu);
                     (OnFollower ? P.Slots[Doc].Read
                                 : P.Slots[Doc].Handler) = {S, E};
                   }
                   Done(std::move(R));
                 });
  }

private:
  net::RequestHandler &Inner;
  Probe &P;
  const bool OnFollower;
};

//===----------------------------------------------------------------------===//
// The stack: leader (store, blame, WAL, service, replication, TCP front
// end) and one follower, in one process
//===----------------------------------------------------------------------===//

class Stack {
public:
  Stack(const SignatureTable &Sig, const std::string &Dir, bool Traced,
        Probe &P)
      : Dir(Dir), P(P), Io(P), LNet(P), FNet(P),
        Store(Sig), Loop(Traced ? &LNet : nullptr), Log(Store),
        Role(net::RoleState::Role::Leader, 1),
        FLoop(Traced ? &FNet : nullptr) {
    using StoreOp = DocumentStore::StoreOp;
    using Info = DocumentStore::ScriptInfo;
    // Benchmark listeners around the real ones, in diff_server's attach
    // order: Persistence, blame, replication. All of one commit's
    // listeners run on the committing worker thread.
    auto Stamp = [](int I) {
      return [I](service::DocId, uint64_t, StoreOp, const EditScript &,
                 const Info &) {
        if (!Tracer::get().on())
          return;
        TlStamp[I] = nowNs();
        if (I == 0) {
          TlIoBuf.clear();
          TlInPersist = true;
        } else if (I == 1) {
          TlInPersist = false;
        }
      };
    };
    if (Traced)
      Store.addScriptListener(Stamp(0));
    persist::Persistence::Config PC;
    PC.Dir = Dir;
    PC.FsyncEvery = 8;
    PC.Env = Traced ? &Io : nullptr;
    Persist = std::make_unique<persist::Persistence>(Sig, PC);
    Persist->setProvenanceSource(
        [this](service::DocId Doc) { return Prov.snapshotDoc(Doc); });
    Persist->recoverAndAttach(Store, &Prov);
    if (Traced)
      Store.addScriptListener(Stamp(1));
    Prov.attach(Store);
    if (Traced)
      Store.addScriptListener(Stamp(2));
    Log.setProvenanceSource(
        [this](uint64_t Doc) { return Prov.snapshotDoc(Doc); });
    Log.attach();
    // After the replication log: its seq for the commit is current, which
    // is what replication lag is measured against.
    Store.addScriptListener([this](service::DocId Doc, uint64_t, StoreOp Op,
                                   const EditScript &Script, const Info &) {
      uint64_t Seq = Log.currentSeq();
      bool On = Tracer::get().on();
      int64_t End = On ? nowNs() : 0;
      if (Doc >= this->P.Slots.size())
        return;
      std::lock_guard<std::mutex> Lock(this->P.Mu);
      DocSlot &Sl = this->P.Slots[Doc];
      Sl.Seq = Seq;
      if (On) {
        for (int I = 0; I != 3; ++I)
          Sl.L[I] = TlStamp[I];
        Sl.L[3] = End;
        Sl.Io = TlIoBuf;
      }
      if (Op == StoreOp::Open && this->P.CaptureOpens.load())
        this->P.InitScripts[Doc] = Script;
    });

    service::ServiceConfig SC;
    SC.Workers = std::max(1u, std::thread::hardware_concurrency());
    Service = std::make_unique<service::DiffService>(Store, SC);
    blame::wireBlameHandlers(*Service, Store, Prov);
    persist::Persistence *PP = Persist.get();
    Service->setDrainHook([PP] { PP->flush(); });

    replica::Leader::Config LC;
    LC.Epoch = 1;
    Lead = std::make_unique<replica::Leader>(Loop, Log, LC);
    std::string Err;
    if (!Lead->start(&Err))
      fail("cannot listen for replicas: " + Err);
    net::ServiceHandler::Config HC;
    HC.Role = &Role;
    Handler = std::make_unique<net::ServiceHandler>(*Service, HC);
    net::RequestHandler *Front = Handler.get();
    if (Traced) {
      LWrap = std::make_unique<TracingHandler>(*Handler, P, false);
      Front = LWrap.get();
    }
    Srv = std::make_unique<net::NetServer>(Loop, Sig, *Front);
    if (!Srv->start(&Err))
      fail("cannot listen: " + Err);
    Loop.start();

    FLoop.start();
    F = std::make_unique<replica::Follower>(FLoop, Sig);
    if (!F->connectTo("127.0.0.1", Lead->port(), &Err))
      fail("follower cannot connect: " + Err);
    Reader = std::make_unique<replica::ReplicaReadHandler>(*F);
    net::RequestHandler *FFront = Reader.get();
    if (Traced) {
      FWrap = std::make_unique<TracingHandler>(*Reader, P, true);
      FFront = FWrap.get();
    }
    FSrv = std::make_unique<net::NetServer>(FLoop, Sig, *FFront);
    if (!FSrv->start(&Err))
      fail("follower cannot listen: " + Err);
  }

  ~Stack() {
    F->disconnect();
    FLoop.stop();
    Loop.stop();
    Service->shutdown();
  }

  Stack(const Stack &) = delete;
  Stack &operator=(const Stack &) = delete;

  uint16_t leaderPort() const { return Srv->port(); }
  uint16_t followerPort() const { return FSrv->port(); }

  /// Waits until the follower has applied everything the leader logged.
  bool waitCaughtUp(int TimeoutMs) const {
    int64_t End = nowNs() + int64_t(TimeoutMs) * 1000000;
    while (nowNs() < End) {
      if (F->lastSeq() == Log.currentSeq())
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return F->lastSeq() == Log.currentSeq();
  }

  [[noreturn]] static void fail(const std::string &What) {
    std::fprintf(stderr, "perfbench: %s\n", What.c_str());
    std::exit(1);
  }

  const std::string Dir;
  Probe &P;
  TimingIoEnv Io;
  CountingNetEnv LNet, FNet;
  DocumentStore Store;
  blame::ProvenanceIndex Prov;
  std::unique_ptr<persist::Persistence> Persist;
  std::unique_ptr<service::DiffService> Service;
  net::EventLoop Loop;
  replica::ReplicationLog Log;
  std::unique_ptr<replica::Leader> Lead;
  net::RoleState Role;
  std::unique_ptr<net::ServiceHandler> Handler;
  std::unique_ptr<TracingHandler> LWrap;
  std::unique_ptr<net::NetServer> Srv;
  net::EventLoop FLoop;
  std::unique_ptr<replica::Follower> F;
  std::unique_ptr<replica::ReplicaReadHandler> Reader;
  std::unique_ptr<TracingHandler> FWrap;
  std::unique_ptr<net::NetServer> FSrv;
};

//===----------------------------------------------------------------------===//
// The load generator: one thread, non-blocking sockets, pipelined requests
//===----------------------------------------------------------------------===//

enum class Verb : uint8_t { Open, Submit, Rollback, Get, Blame };

const char *verbName(Verb V) {
  switch (V) {
  case Verb::Open:
    return "open";
  case Verb::Submit:
    return "submit";
  case Verb::Rollback:
    return "rollback";
  case Verb::Get:
    return "get";
  case Verb::Blame:
    return "blame";
  }
  return "?";
}

bool isWrite(Verb V) { return V <= Verb::Rollback; }

struct Pending {
  uint32_t Doc = 0;
  Verb V = Verb::Get;
  uint8_t Stream = 0;
  int64_t DueNs = 0;
  int64_t SendNs = 0;
  size_t Bytes = 0;
};

struct Reply {
  bool Ok = false;
  uint64_t Version = 0;
  uint64_t Edits = 0;
  std::string Error;
  std::string Blob; ///< binary submit: the encoded edit script
};

class LoadGen {
public:
  using ReplyFn = std::function<void(const Pending &, const Reply &,
                                     int64_t RecvNs)>;

  LoadGen(const std::vector<std::pair<uint16_t, bool>> &Endpoints,
          ReplyFn OnReply)
      : OnReply(std::move(OnReply)) {
    for (auto [Port, Binary] : Endpoints) {
      Conn C;
      C.Binary = Binary;
      C.Fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in A{};
      A.sin_family = AF_INET;
      A.sin_port = htons(Port);
      A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (C.Fd < 0 ||
          ::connect(C.Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0)
        Stack::fail(std::string("cannot connect: ") + std::strerror(errno));
      int One = 1;
      ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      ::fcntl(C.Fd, F_SETFL, ::fcntl(C.Fd, F_GETFL) | O_NONBLOCK);
      Conns.push_back(std::move(C));
    }
  }
  ~LoadGen() {
    for (Conn &C : Conns)
      ::close(C.Fd);
  }
  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  size_t conns() const { return Conns.size(); }
  size_t inFlight() const { return Total; }
  size_t inFlight(uint8_t Stream) const { return PerStream[Stream]; }

  void send(size_t ConnIdx, Pending P, std::string_view Bytes) {
    Conn &C = Conns[ConnIdx];
    P.SendNs = nowNs();
    P.Bytes = Bytes.size();
    C.Q.push_back(P);
    ++Total;
    ++PerStream[P.Stream];
    C.Out.append(Bytes.data(), Bytes.size());
    flush(C);
  }

  /// Waits for socket events until \p DeadlineNs, handling what arrives.
  void poll(int64_t DeadlineNs) {
    std::vector<pollfd> Fds;
    for (Conn &C : Conns)
      Fds.push_back({C.Fd,
                     static_cast<short>(POLLIN | (C.OutOff < C.Out.size()
                                                      ? POLLOUT
                                                      : 0)),
                     0});
    int64_t Wait = std::max<int64_t>(0, DeadlineNs - nowNs());
    timespec Ts{static_cast<time_t>(Wait / 1000000000),
                static_cast<long>(Wait % 1000000000)};
    if (::ppoll(Fds.data(), Fds.size(), &Ts, nullptr) <= 0)
      return;
    for (size_t I = 0; I != Fds.size(); ++I) {
      if (Fds[I].revents & POLLOUT)
        flush(Conns[I]);
      if (Fds[I].revents & (POLLIN | POLLERR | POLLHUP))
        receive(Conns[I]);
    }
  }

private:
  struct Conn {
    int Fd = -1;
    bool Binary = false;
    std::string Out;
    size_t OutOff = 0;
    std::string In;
    size_t Scan = 0;
    std::deque<Pending> Q;
  };

  void flush(Conn &C) {
    while (C.OutOff < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                         C.Out.size() - C.OutOff, MSG_NOSIGNAL);
      if (N <= 0) {
        if (N < 0 && (errno == EAGAIN || errno == EINTR))
          return;
        Stack::fail("connection lost while sending");
      }
      C.OutOff += static_cast<size_t>(N);
    }
    C.Out.clear();
    C.OutOff = 0;
  }

  void receive(Conn &C) {
    char Buf[1 << 16];
    for (;;) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N > 0) {
        C.In.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EINTR))
        break;
      Stack::fail("server closed a client connection");
    }
    int64_t Now = nowNs();
    while (!C.Q.empty()) {
      Reply R;
      if (!(C.Binary ? takeBinary(C, R) : takeText(C, R)))
        break;
      Pending P = C.Q.front();
      C.Q.pop_front();
      --Total;
      --PerStream[P.Stream];
      OnReply(P, R, Now);
    }
  }

  /// Textual replies end with a lone "." line after the status line.
  static bool takeText(Conn &C, Reply &R) {
    size_t End = C.In.find("\n.\n", C.Scan);
    if (End == std::string::npos) {
      C.Scan = C.In.size() >= 2 ? C.In.size() - 2 : 0;
      return false;
    }
    std::string_view Status(C.In.data(), C.In.find('\n'));
    R.Ok = Status.rfind("ok ", 0) == 0;
    auto Field = [&](std::string_view Key) -> uint64_t {
      size_t At = Status.find(Key);
      return At == std::string_view::npos
                 ? 0
                 : std::strtoull(Status.data() + At + Key.size(), nullptr, 10);
    };
    if (R.Ok) {
      R.Version = Field(" version=");
      R.Edits = Field(" edits=");
    } else {
      R.Error = std::string(Status);
    }
    C.In.erase(0, End + 3);
    C.Scan = 0;
    return true;
  }

  static bool takeBinary(Conn &C, Reply &R) {
    net::FrameHeader H;
    if (net::peekFrame(C.In, net::MaxBinaryFrameBytes, H) !=
        net::FramePeek::Ok)
      return false;
    net::BinResponse B;
    if (!net::decodeBinResponse(
            H.Type, std::string_view(C.In).substr(net::FrameHeaderBytes, H.Len),
            B))
      Stack::fail("malformed binary response");
    R.Ok = B.Ok;
    R.Version = B.Version;
    R.Edits = B.EditCount;
    R.Error = B.Error;
    R.Blob = std::move(B.Blob);
    C.In.erase(0, net::FrameHeaderBytes + H.Len);
    return true;
  }

  std::vector<Conn> Conns;
  ReplyFn OnReply;
  size_t Total = 0;
  size_t PerStream[4] = {};
};

/// One traffic stream: closed loop (Rate 0, Window requests outstanding)
/// or open loop (Rate requests per second, each timed from its due time).
struct Stream {
  uint8_t Id = 0;
  double Rate = 0;
  size_t Window = 0;
  /// Sends one request due at the given time; false if no document is
  /// eligible right now (every candidate has a request in flight).
  std::function<bool(int64_t DueNs)> Issue;
  uint64_t K = 0;
  std::vector<double> LateMs;
  /// Set by Issue when the stream has nothing more to send.
  bool Exhausted = false;
};

/// Drives \p Streams from \p StartNs until \p EndNs, then drains every
/// outstanding request. False if the drain does not finish in 30 s.
bool drive(LoadGen &G, int64_t StartNs, int64_t EndNs,
           std::vector<Stream *> Streams) {
  for (;;) {
    int64_t Now = nowNs();
    int64_t Wake = Now + 50000000;
    for (Stream *S : Streams) {
      if (Now >= EndNs)
        break;
      if (S->Rate == 0) {
        while (G.inFlight(S->Id) < S->Window && S->Issue(Now)) {
        }
        continue;
      }
      double Interval = 1e9 / S->Rate;
      for (;;) {
        int64_t Due = StartNs + static_cast<int64_t>(S->K * Interval);
        if (Due >= EndNs)
          break;
        if (Due > Now) {
          Wake = std::min(Wake, Due);
          break;
        }
        if (!S->Issue(Due)) {
          Wake = std::min(Wake, Now + 200000);
          break;
        }
        S->LateMs.push_back(msBetween(Due, nowNs()));
        ++S->K;
      }
    }
    bool AllDone = true;
    for (Stream *S : Streams)
      AllDone = AllDone && S->Exhausted;
    if ((Now >= EndNs || AllDone) && G.inFlight() == 0)
      return true;
    if (Now > EndNs + 30000000000LL)
      return false;
    G.poll(Now >= EndNs ? Wake : std::min(Wake, EndNs));
  }
}

/// Closed-loop capacity: the median completion rate of five equal
/// sub-windows, so a stall of the shared machine (a slow fsync, a busy
/// neighbour) in one or two of them does not set the figure.
double medianRate(const std::vector<int64_t> &DoneNs, int64_t Start,
                  int64_t End) {
  constexpr int Parts = 5;
  double Len = static_cast<double>(End - Start) / Parts;
  std::vector<double> Rates(Parts, 0);
  for (int64_t T : DoneNs) {
    int B = static_cast<int>(static_cast<double>(T - Start) / Len);
    if (B >= 0 && B < Parts)
      Rates[B] += 1;
  }
  for (double &R : Rates)
    R /= Len / 1e9;
  return quantile(Rates, 0.5);
}

/// Open-loop latency quantile \p Q as the median over three equal
/// sub-windows (by due time) of each one's quantile, for the same reason.
/// Each sub-window must hold enough samples for \p Q on its own.
double medianQuantile(const std::vector<std::pair<int64_t, double>> &DueLat,
                      int64_t Start, int64_t End, double Q) {
  constexpr int Parts = 3;
  double Len = static_cast<double>(End - Start) / Parts;
  std::vector<std::vector<double>> Lat(Parts);
  for (auto [Due, Ms] : DueLat) {
    int B = static_cast<int>(static_cast<double>(Due - Start) / Len);
    Lat[std::clamp(B, 0, Parts - 1)].push_back(Ms);
  }
  std::vector<double> Qs;
  for (const std::vector<double> &L : Lat)
    Qs.push_back(quantile(L, Q));
  return quantile(Qs, 0.5);
}

std::string dataDir(const RunArgs &A, int Round) {
  return A.WorkDir + "/" + A.Workload + "-" + std::to_string(Round);
}

/// The per-request spans of one traced reply, built from the server-side
/// intervals its document's slot holds, plus the per-layer samples.
struct LayerSamples {
  std::map<std::string, std::vector<double>> Handler, Read;
  std::vector<double> Fanout, Persist, Blame, Replica, NetSelf;
  uint64_t Requests = 0;
};

void traceReply(Probe &P, const Pending &Q, int64_t RecvNs, bool ToFollower,
                LayerSamples &L) {
  Tracer &T = Tracer::get();
  DocSlot Sl;
  {
    std::lock_guard<std::mutex> Lock(P.Mu);
    Sl = P.Slots[Q.Doc];
  }
  ++L.Requests;
  uint64_t Root = T.record("client.request", 0, 0, Q.SendNs, RecvNs);
  Interval H = ToFollower ? Sl.Read : Sl.Handler;
  if (H.S < Q.SendNs || H.E > RecvNs)
    return; // no server span for this request (traced before it ran)
  uint64_t HId = T.record(ToFollower ? "replica.read_handler"
                                     : "service.handler",
                          Root, Root, H.S, H.E);
  (ToFollower ? L.Read : L.Handler)[verbName(Q.V)].push_back(
      msBetween(H.S, H.E));
  L.NetSelf.push_back(msBetween(Q.SendNs, RecvNs) - msBetween(H.S, H.E));
  if (ToFollower || Sl.L[0] < H.S || Sl.L[3] > H.E)
    return;
  uint64_t FId = T.record("service.commit_fanout", HId, Root, Sl.L[0], Sl.L[3]);
  uint64_t PId = T.record("persist.listener", FId, Root, Sl.L[0], Sl.L[1]);
  for (const Interval &Io : Sl.Io)
    T.record("persist.io", PId, Root, Io.S, Io.E);
  T.record("blame.fold", FId, Root, Sl.L[1], Sl.L[2]);
  T.record("replica.listener", FId, Root, Sl.L[2], Sl.L[3]);
  L.Fanout.push_back(msBetween(Sl.L[0], Sl.L[3]));
  L.Persist.push_back(msBetween(Sl.L[0], Sl.L[1]));
  L.Blame.push_back(msBetween(Sl.L[1], Sl.L[2]));
  L.Replica.push_back(msBetween(Sl.L[2], Sl.L[3]));
}

/// Records, for every acked write, how long after the ack the follower's
/// lastSeq() covered the write's replication seq.
class LagTracker {
public:
  explicit LagTracker(const replica::Follower &F) : F(F) {
    Thread = std::thread([this] { loop(); });
  }
  ~LagTracker() {
    Stop = true;
    Thread.join();
  }
  LagTracker(const LagTracker &) = delete;
  LagTracker &operator=(const LagTracker &) = delete;

  void acked(uint64_t Seq, int64_t AckNs) {
    std::lock_guard<std::mutex> Lock(Mu);
    Waiting.emplace(Seq, AckNs);
  }
  std::vector<double> lagsMs() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Lags;
  }

private:
  void loop() {
    while (!Stop) {
      // A 1 ms tick: fine enough for lags of several ms, and few enough
      // wake-ups that the poller does not compete with the stack.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (Waiting.empty())
          continue;
      }
      uint64_t Seq = F.lastSeq();
      int64_t Now = nowNs();
      std::lock_guard<std::mutex> Lock(Mu);
      while (!Waiting.empty() && Waiting.begin()->first <= Seq) {
        Lags.push_back(std::max(0.0, msBetween(Waiting.begin()->second, Now)));
        Waiting.erase(Waiting.begin());
      }
    }
  }
  const replica::Follower &F;
  std::mutex Mu;
  std::multimap<uint64_t, int64_t> Waiting;
  std::vector<double> Lags;
  std::atomic<bool> Stop{false};
  std::thread Thread;
};

/// Per-layer metrics that come from the program's own counters and the
/// timing wrappers, shared by both serving workloads.
void reportServingLayers(Stack &S, Probe &P, const LayerSamples &L,
                         double WritePayloadBytes, Report &R) {
  auto Q = [](const std::vector<double> &V, double Q) {
    return quantile(V, Q);
  };
  for (const char *V : {"submit", "rollback"}) {
    auto It = L.Handler.find(V);
    std::vector<double> Empty;
    const std::vector<double> &Xs = It == L.Handler.end() ? Empty : It->second;
    R.set(std::string("service.handler_ms_p50.") + V, Q(Xs, 0.5), "ms");
    R.set(std::string("service.handler_ms_p99.") + V, Q(Xs, 0.99), "ms");
  }
  for (const char *V : {"get", "blame"}) {
    auto It = L.Read.find(V);
    std::vector<double> Empty;
    const std::vector<double> &Xs = It == L.Read.end() ? Empty : It->second;
    R.set(std::string("replica.read_handler_ms_p50.") + V, Q(Xs, 0.5), "ms");
    R.set(std::string("replica.read_handler_ms_p99.") + V, Q(Xs, 0.99), "ms");
  }
  service::LatencyHistogram::Summary QW =
      S.Service->metrics().QueueWait.summarize();
  R.set("service.queue_wait_ms_p50", QW.P50Ms, "ms");
  R.set("service.queue_wait_ms_p99", QW.P99Ms, "ms");
  auto Sub = L.Handler.find("submit");
  if (Sub != L.Handler.end())
    R.set("service.worker_ms_p50", Q(Sub->second, 0.5) - QW.P50Ms, "ms");
  R.set("service.commit_fanout_ms_p50", Q(L.Fanout, 0.5), "ms");
  R.set("service.commit_fanout_ms_p99", Q(L.Fanout, 0.99), "ms");
  R.set("persist.listener_ms_p50", Q(L.Persist, 0.5), "ms");
  R.set("persist.listener_ms_p99", Q(L.Persist, 0.99), "ms");
  R.set("blame.fold_ms_p50", Q(L.Blame, 0.5), "ms");
  R.set("replica.listener_ms_p50", Q(L.Replica, 0.5), "ms");
  R.set("net.self_ms_p50", Q(L.NetSelf, 0.5), "ms");
  R.set("net.self_ms_p99", Q(L.NetSelf, 0.99), "ms");
  {
    std::lock_guard<std::mutex> Lock(P.Mu);
    R.set("persist.write_ms_p50", Q(P.WriteMs, 0.5), "ms");
    R.set("persist.fsync_ms_p50", Q(P.FsyncMs, 0.5), "ms");
    R.set("persist.fsync_ms_p99", Q(P.FsyncMs, 0.99), "ms");
  }
  persist::Persistence::Stats PS = S.Persist->stats();
  R.set("persist.fsyncs_per_record",
        PS.Wal.Records ? double(PS.Wal.Fsyncs) / double(PS.Wal.Records) : 0,
        "ratio");
  R.set("persist.bytes_per_payload_byte",
        WritePayloadBytes > 0 ? double(PS.Wal.Bytes) / WritePayloadBytes : 0,
        "ratio");
  replica::Follower::Stats FS = S.F->stats();
  double Applied = static_cast<double>(FS.RecordsApplied);
  R.set("replica.records_applied", Applied, "count");
  R.set("replica.resync_frac",
        Applied > 0 ? double(FS.ResyncsRequested) / Applied : 0, "ratio");
  R.set("replica.dup_frac", Applied > 0 ? double(FS.DupRecords) / Applied : 0,
        "ratio");
  double Reqs = static_cast<double>(L.Requests);
  R.set("net.bytes_out_per_req",
        Reqs > 0 ? double(P.BytesOut.load()) / Reqs : 0, "bytes");
  R.set("net.sends_per_req", Reqs > 0 ? double(P.Sends.load()) / Reqs : 0,
        "ratio");
}

/// Per phase kind (0 = closed loop, 1 = open loop) and tracing state:
/// process CPU time, operations completed and closed-loop capacity.
struct PhaseTally {
  double CpuS[2][2] = {};
  uint64_t Ops[2][2] = {};
  double CapSum[2] = {};
  int CapN[2] = {};

  void add(uint8_t Which, bool On, double Cpu, uint64_t Done, double Cap) {
    CpuS[Which][On] += Cpu;
    Ops[Which][On] += Done;
    if (Which == 0) {
      CapSum[On] += Cap;
      ++CapN[On];
    }
  }
  double capacity(bool On) const {
    return CapN[On] ? CapSum[On] / CapN[On] : 0;
  }
  /// cpu_ms_per_op over the untraced phases, or over the untraced open
  /// loop only when \p OpenLoopOnly; in a traced run also the tracing
  /// overhead on closed-loop capacity and on CPU per operation. The
  /// overheads compare closed-loop phases only, as CPU per operation
  /// differs between closed and open loop.
  void report(bool Traced, bool OpenLoopOnly, Report &R) const {
    auto PerOp = [](double S, uint64_t N) { return N ? S * 1e3 / N : 0.0; };
    R.set("cpu_ms_per_op",
          OpenLoopOnly
              ? PerOp(CpuS[1][0], Ops[1][0])
              : PerOp(CpuS[0][0] + CpuS[1][0], Ops[0][0] + Ops[1][0]),
          "ms");
    if (!Traced)
      return;
    double Off = capacity(false), OffCpu = PerOp(CpuS[0][0], Ops[0][0]);
    R.set("trace.overhead_frac", Off > 0 ? 1 - capacity(true) / Off : 0,
          "ratio");
    R.set("trace.overhead_frac.cpu_ms_per_op",
          OffCpu > 0 ? PerOp(CpuS[0][1], Ops[0][1]) / OffCpu - 1 : 0, "ratio");
  }
};

/// The phases of a run. Untraced: closed loop, then open loop. Traced:
/// the closed loop in quarters, untraced-traced-traced-untraced, so a
/// drift over the run weighs on both alike, then the open loop in an
/// untraced and a traced half. The traced phases give the per-layer
/// numbers; the closed-loop quarters give the tracing overhead.
struct Phase {
  uint8_t Which;
  double Share;
  bool On;
};
std::vector<Phase> phasesOf(bool Traced, double ClosedShare) {
  double Open = 1 - ClosedShare;
  if (!Traced)
    return {{0, ClosedShare, false}, {1, Open, false}};
  double Q = ClosedShare / 4;
  return {{0, Q, false}, {0, Q, true},     {0, Q, true},
          {0, Q, false}, {1, Open / 2, false}, {1, Open / 2, true}};
}

/// Leader and follower must end byte-identical, URIs included.
void checkFollower(Stack &S, const std::vector<uint32_t> &Docs, Report &R) {
  if (!S.waitCaughtUp(30000)) {
    R.violation("follower did not catch up with the leader");
    return;
  }
  for (uint32_t Doc : Docs) {
    service::DocumentSnapshot L = S.Store.snapshot(Doc);
    replica::Follower::ReadResult F = S.F->read(Doc);
    if (!L.Ok || !F.Ok || L.Version != F.Version || L.UriText != F.UriText)
      R.violation("doc " + std::to_string(Doc) +
                  ": follower differs from leader");
  }
}

std::string putDocPayload(uint64_t Doc, std::string_view Blob) {
  std::string Payload;
  persist::putVarint(Payload, Doc);
  persist::putVarint(Payload, 0); // no author
  Payload.append(Blob.data(), Blob.size());
  return Payload;
}

//===----------------------------------------------------------------------===//
// serve_write
//===----------------------------------------------------------------------===//

/// Documents and corpus size: hundreds of documents, far more than the
/// four connections, each cycling through its own corpus file's commits
/// (one generated file per document keeps a seed's inputs a stable
/// sample of the generator).
constexpr uint32_t WriteDocs = 192;
constexpr unsigned WriteCommitsPerFile = 2;
constexpr unsigned WriteCorpusPairs = WriteDocs * WriteCommitsPerFile;
/// Closed-loop window (requests outstanding over the four connections).
constexpr size_t WriteWindow = 16;
/// The fixed open-loop rate, about a tenth of the closed-loop capacity on
/// a 4-core box: latency is measured without a backlog, and a busy
/// neighbour on a shared machine is not amplified by queueing.
constexpr double WriteOpenRate = 150;
/// Share of writes that are rollbacks (of the document's last submit).
constexpr unsigned RollbackPercent = 5;
constexpr double ClosedShare = 0.4;

struct WDoc {
  uint32_t Chain = 0;
  uint32_t Pos = 0;
  uint64_t Version = 0;
  std::vector<uint32_t> Undo; ///< chain positions of earlier versions
  bool InFlight = false;
  bool LastWasSubmit = false;
};

struct WriteSetup {
  std::unique_ptr<PyCorpus> C;
  std::vector<std::vector<std::string>> Wire; ///< per chain, per version
  std::unique_ptr<Probe> P;
  std::unique_ptr<Stack> S;
  std::vector<WDoc> Docs; ///< index = doc id; 0 unused
  double OpenBytes = 0;
};

void setupWrite(const RunArgs &A, int Round, WriteSetup &W, Report &R) {
  W.C = loadPyCorpus(A.Seed, WriteCorpusPairs, WriteCommitsPerFile);
  W.Wire.clear();
  for (const std::vector<Tree *> &Chain : W.C->Chains) {
    W.Wire.emplace_back();
    for (const Tree *T : Chain)
      W.Wire.back().push_back(printSExpr(W.C->Sig, T));
  }
  W.P = std::make_unique<Probe>(WriteDocs);
  W.S = std::make_unique<Stack>(W.C->Sig, dataDir(A, Round), A.Trace, *W.P);
  W.Docs.assign(WriteDocs + 1, WDoc());
  size_t NChains = W.Wire.size();
  for (uint32_t D = 1; D <= WriteDocs; ++D) {
    W.Docs[D].Chain = (D - 1) % NChains;
    W.Docs[D].Pos = ((D - 1) / NChains) % W.Wire[W.Docs[D].Chain].size();
  }
  // Open every document, pipelined over the four connections.
  LoadGen G(std::vector<std::pair<uint16_t, bool>>(
                4, {W.S->leaderPort(), false}),
            [&](const Pending &Q, const Reply &Rp, int64_t) {
              if (!Rp.Ok || Rp.Version != 0)
                R.violation("open of doc " + std::to_string(Q.Doc) +
                            " failed: " + Rp.Error);
            });
  uint32_t Next = 1;
  Stream Open;
  Open.Window = 32;
  Open.Issue = [&](int64_t Due) {
    if (Next > WriteDocs) {
      Open.Exhausted = true;
      return false;
    }
    uint32_t D = Next++;
    const WDoc &Doc = W.Docs[D];
    std::string Line = "open " + std::to_string(D) + " " +
                       W.Wire[Doc.Chain][Doc.Pos] + "\n";
    W.OpenBytes += static_cast<double>(Line.size());
    G.send(D % G.conns(), Pending{D, Verb::Open, 0, Due, 0, 0}, Line);
    return true;
  };
  int64_t T0 = nowNs();
  if (!drive(G, T0, T0 + 60000000000LL, {&Open}) || Next <= WriteDocs)
    Stack::fail("set-up could not open every document");
  if (!W.S->waitCaughtUp(60000))
    Stack::fail("follower did not replicate the opened documents");
}

} // namespace

void pb::runServeWrite(const RunArgs &A, Report &R) {
  WriteSetup W;
  double SetupS =
      timeSetups(A, [&](int Round) { setupWrite(A, Round, W, R); });
  Stack &S = *W.S;
  Probe &P = *W.P;
  Rng Dice(A.Seed * 7919 + 17);
  auto Lag = std::make_unique<LagTracker>(*S.F);
  LayerSamples Layers;
  double WriteBytes = W.OpenBytes;

  // Phase bookkeeping: replies are attributed to the phase they were
  // sent in.
  int64_t PhaseStart = 0, PhaseEnd = 0;
  std::vector<int64_t> ClosedDoneNs;
  std::vector<std::pair<int64_t, double>> OpenLat; ///< (due, latency ms)
  double SubmitEdits = 0, Submits = 0;
  uint64_t Acks = 0;
  bool Traced = false;

  auto Gen = std::make_unique<LoadGen>(
      std::vector<std::pair<uint16_t, bool>>(4, {S.leaderPort(), false}),
            [&](const Pending &Q, const Reply &Rp, int64_t Now) {
              WDoc &D = W.Docs[Q.Doc];
              D.InFlight = false;
              if (!Rp.Ok) {
                ++R.Failed;
                return;
              }
              uint64_t Want = Q.V == Verb::Submit ? D.Version + 1
                                                  : D.Version - 1;
              if (Rp.Version != Want)
                R.violation("doc " + std::to_string(Q.Doc) + ": acked v" +
                            std::to_string(Rp.Version) + " after v" +
                            std::to_string(D.Version));
              if (Q.V == Verb::Submit) {
                D.Undo.push_back(D.Pos);
                D.Pos = (D.Pos + 1) % W.Wire[D.Chain].size();
                SubmitEdits += static_cast<double>(Rp.Edits);
                Submits += 1;
              } else {
                D.Pos = D.Undo.back();
                D.Undo.pop_back();
              }
              D.Version = Rp.Version;
              D.LastWasSubmit = Q.V == Verb::Submit;
              ++Acks;
              WriteBytes += static_cast<double>(Q.Bytes);
              uint64_t Seq;
              {
                std::lock_guard<std::mutex> Lock(P.Mu);
                Seq = P.Slots[Q.Doc].Seq;
              }
              Lag->acked(Seq, Now);
              if (Q.Stream == 0 && Now <= PhaseEnd)
                ClosedDoneNs.push_back(Now);
              if (Q.Stream == 1)
                OpenLat.push_back({Q.DueNs, msBetween(Q.DueNs, Now)});
              if (Traced)
                traceReply(P, Q, Now, false, Layers);
            });
  LoadGen &G = *Gen;

  uint32_t Cursor = 0;
  auto IssueWrite = [&](uint8_t StreamId, int64_t Due) {
    for (uint32_t Tries = 0; Tries != WriteDocs; ++Tries) {
      uint32_t Doc = 1 + (Cursor++ % WriteDocs);
      WDoc &D = W.Docs[Doc];
      if (D.InFlight)
        continue;
      D.InFlight = true;
      std::string Line;
      Verb V;
      if (D.LastWasSubmit && Dice.chance(RollbackPercent)) {
        V = Verb::Rollback;
        Line = "rollback " + std::to_string(Doc) + "\n";
      } else {
        V = Verb::Submit;
        const std::vector<std::string> &Chain = W.Wire[D.Chain];
        Line = "submit " + std::to_string(Doc) + " expect=" +
               std::to_string(D.Version) + " " +
               Chain[(D.Pos + 1) % Chain.size()] + "\n";
      }
      ++R.Attempted;
      G.send(Doc % G.conns(), Pending{Doc, V, StreamId, Due, 0, 0}, Line);
      return true;
    }
    return false;
  };

  PhaseTally Tally;
  Tracer &T = Tracer::get();
  auto RunPhase = [&](uint8_t Which, double Seconds, bool On) {
    Traced = On;
    T.setOn(On);
    double Cpu0 = cpuSeconds();
    uint64_t Acks0 = Acks;
    Stream St;
    St.Id = Which;
    if (Which == 0)
      St.Window = WriteWindow;
    else
      St.Rate = WriteOpenRate;
    St.Issue = [&, Which](int64_t Due) { return IssueWrite(Which, Due); };
    PhaseStart = nowNs();
    PhaseEnd = PhaseStart + static_cast<int64_t>(Seconds * 1e9);
    ClosedDoneNs.clear();
    if (!drive(G, PhaseStart, PhaseEnd, {&St}))
      R.violation("requests still outstanding 30 s after the window");
    T.setOn(false);
    Tally.add(Which, On, cpuSeconds() - Cpu0, Acks - Acks0,
              Which == 0 ? medianRate(ClosedDoneNs, PhaseStart, PhaseEnd)
                         : 0);
    return St.LateMs;
  };
  std::vector<double> Late;
  for (const Phase &Ph : phasesOf(A.Trace, ClosedShare)) {
    if (Ph.Which == 1 && Ph.On == A.Trace)
      OpenLat.clear(); // a traced run's latencies come from its traced half
    Late = RunPhase(Ph.Which, A.Seconds * Ph.Share, Ph.On);
  }

  // Checks: every acked version chain is gap-free (checked per reply),
  // the leader holds exactly the client's acked state, the follower is
  // byte-identical, and recovery reproduces the leader.
  std::vector<uint32_t> Ids;
  std::map<uint32_t, service::DocumentSnapshot> LeaderState;
  for (uint32_t Doc = 1; Doc <= WriteDocs; ++Doc) {
    Ids.push_back(Doc);
    const WDoc &D = W.Docs[Doc];
    service::DocumentSnapshot L = S.Store.snapshot(Doc);
    if (!L.Ok || L.Version != D.Version || L.Text != W.Wire[D.Chain][D.Pos])
      R.violation("doc " + std::to_string(Doc) +
                  ": leader state differs from the acked state");
    LeaderState[Doc] = std::move(L);
  }
  checkFollower(S, Ids, R);
  std::vector<double> Lags = Lag->lagsMs();
  if (A.Trace)
    reportServingLayers(S, P, Layers, WriteBytes, R);

  // The lag poller and the client connections go before the stack they
  // use; destroying the stack stops serving and closes the WAL.
  Lag.reset();
  Gen.reset();
  std::string Dir = S.Dir;
  W.S.reset();
  DocumentStore Recovered(W.C->Sig);
  blame::ProvenanceIndex RProv;
  int64_t R0 = nowNs();
  persist::RecoveryResult RR =
      persist::Persistence::recover(W.C->Sig, Dir, Recovered, &RProv);
  double RecoveryS = msBetween(R0, nowNs()) / 1e3;
  double RecoveredNodes = 0;
  for (auto &[Doc, L] : LeaderState) {
    service::DocumentSnapshot Got = Recovered.snapshot(Doc);
    RecoveredNodes += static_cast<double>(Got.TreeSize);
    if (!Got.Ok || Got.Version != L.Version || Got.UriText != L.UriText)
      R.violation("doc " + std::to_string(Doc) +
                  ": recovered state differs from the leader's");
  }
  if (RR.DocsRecovered != WriteDocs)
    R.violation("recovery found " + std::to_string(RR.DocsRecovered) +
                " documents");

  double P50 = medianQuantile(OpenLat, PhaseStart, PhaseEnd, 0.5);
  double P99 = medianQuantile(OpenLat, PhaseStart, PhaseEnd, 0.99);
  R.set("setup_s", SetupS, "s");
  // Writes only: the closed and open loop do the same kind of operation.
  Tally.report(A.Trace, /*OpenLoopOnly=*/false, R);
  R.set("edits_per_submit", Submits > 0 ? SubmitEdits / Submits : 0, "edits");
  R.set("write_capacity_per_s", Tally.capacity(A.Trace), "ops/s");
  R.set("write_p50_ms", P50, "ms");
  R.set("write_p99_ms", P99, "ms");
  R.set("repl_lag_ms_p99", quantile(Lags, 0.99), "ms");
  R.set("recovery_s", RecoveryS, "s");
  R.meta("docs", static_cast<double>(WriteDocs));
  R.meta("connections", 4);
  R.meta("closed_window", static_cast<double>(WriteWindow));
  R.meta("open_rate_per_s", WriteOpenRate);
  R.meta("rollback_percent", static_cast<double>(RollbackPercent));
  R.meta("open_samples", static_cast<double>(OpenLat.size()));
  if (A.Trace) {
    R.set("loadgen.late_ms_p99", quantile(Late, 0.99), "ms");
    R.set("persist.recover_nodes_per_ms",
          RecoveryS > 0 ? RecoveredNodes / (RecoveryS * 1e3) : 0, "nodes/ms");
    R.set("python.parse_ms_p50", quantile(W.C->ParseMs, 0.5), "ms");
    // The library layers the commit path calls, timed on this
    // workload's own inputs (the corpus commits it submits).
    libraryPass(W.C->Sig, pairsOf(*W.C), true, true, R);
  }
}

//===----------------------------------------------------------------------===//
// serve_read_mixed
//===----------------------------------------------------------------------===//

namespace {

/// A few dozen large modules of tens of thousands of nodes: each, as a
/// typed tree (~6 MB), exceeds a core's L2, and together they are tens of
/// times larger than the last-level cache.
constexpr uint32_t ReadDocs = 24;
constexpr uint64_t ReadDocNodes = 20000;
/// Versions per document; writes cycle through them.
constexpr unsigned ReadVersions = 5;
constexpr size_t ReadWindow = 6;
/// The fixed open-loop read rate, about half the follower's closed-loop
/// read capacity on a 4-core box (~55 reads/s).
constexpr double ReadOpenRate = 25;
constexpr double MixedWriteRate = 8;
/// Mostly gets: read latency is then one population (a get plus any
/// wait behind others) rather than a mix of microsecond blames and
/// multi-millisecond gets whose median flips between the two.
constexpr unsigned BlamePercent = 10;
constexpr double ReadClosedShare = 0.25;
/// Connections: reads to the follower, writes to the leader; four total.
constexpr size_t ReadConns = 3;

struct RDoc {
  std::vector<std::string> Blobs; ///< encodeTree of each version
  uint32_t Pos = 0;
  uint64_t Version = 0;
  std::unique_ptr<MTree> Copy;    ///< the client's copy, patched per ack
  std::vector<URI> V0Uris;        ///< URIs loaded at open
  std::vector<std::pair<uint32_t, std::string>> Acked; ///< (pos, script)
  bool WriteInFlight = false;
  bool ReadInFlight = false;
};

struct ReadSetup {
  SignatureTable Sig = python::makePythonSignature();
  std::unique_ptr<Probe> P;
  std::unique_ptr<Stack> S;
  std::vector<RDoc> Docs; ///< index = doc id; 0 unused
  double Nodes = 0;
};

void setupRead(const RunArgs &A, int Round, ReadSetup &W, Report &R) {
  W.Docs.clear();
  W.Docs.resize(ReadDocs + 1);
  W.Nodes = 0;
  for (uint32_t D = 1; D <= ReadDocs; ++D) {
    Rng Gen(A.Seed * 1000003 + D);
    // Generation only needs the trees' shape; the cheap digest policy
    // keeps set-up short. The service hashes with SHA-256 as configured.
    TreeContext Ctx(W.Sig, DigestPolicy::Fast128);
    Tree *T = corpus::generateModuleOfSize(Ctx, Gen, ReadDocNodes);
    W.Nodes += static_cast<double>(T->size());
    for (unsigned V = 0; V != ReadVersions; ++V) {
      if (V != 0)
        T = corpus::mutateModule(Ctx, Gen, T);
      W.Docs[D].Blobs.push_back(persist::encodeTree(W.Sig, T));
    }
  }
  W.P = std::make_unique<Probe>(ReadDocs);
  W.S = std::make_unique<Stack>(W.Sig, dataDir(A, Round), A.Trace, *W.P);
  W.P->CaptureOpens = true;
  LoadGen G({{W.S->leaderPort(), true}},
            [&](const Pending &Q, const Reply &Rp, int64_t) {
              if (!Rp.Ok || Rp.Version != 0)
                R.violation("open of doc " + std::to_string(Q.Doc) +
                            " failed: " + Rp.Error);
            });
  uint32_t Next = 1;
  Stream Open;
  Open.Window = 4;
  Open.Issue = [&](int64_t Due) {
    if (Next > ReadDocs) {
      Open.Exhausted = true;
      return false;
    }
    uint32_t D = Next++;
    std::string Frame;
    net::appendFrame(Frame, net::ClientReqMagic,
                     static_cast<uint8_t>(net::BinVerb::Open),
                     putDocPayload(D, W.Docs[D].Blobs[0]));
    G.send(0, Pending{D, Verb::Open, 0, Due, 0, 0}, Frame);
    return true;
  };
  int64_t T0 = nowNs();
  if (!drive(G, T0, T0 + 60000000000LL, {&Open}) || Next <= ReadDocs)
    Stack::fail("set-up could not open every document");
  W.P->CaptureOpens = false;
  // The client's copy of each document, from its initializing script.
  for (uint32_t D = 1; D <= ReadDocs; ++D) {
    RDoc &Doc = W.Docs[D];
    Doc.Copy = std::make_unique<MTree>(W.Sig);
    const EditScript &Init = W.P->InitScripts[D];
    if (!Doc.Copy->patchChecked(Init).Ok)
      R.violation("doc " + std::to_string(D) + ": init script does not apply");
    for (const Edit &E : Init.edits())
      if (E.Kind == EditKind::Load)
        Doc.V0Uris.push_back(E.Node.Uri);
  }
  if (!W.S->waitCaughtUp(60000))
    Stack::fail("follower did not replicate the opened documents");
}

} // namespace

void pb::runServeReadMixed(const RunArgs &A, Report &R) {
  ReadSetup W;
  double SetupS = timeSetups(A, [&](int Round) { setupRead(A, Round, W, R); });
  Stack &S = *W.S;
  Probe &P = *W.P;
  Rng Dice(A.Seed * 7919 + 29);
  auto Lag = std::make_unique<LagTracker>(*S.F);
  LayerSamples Layers;
  double WriteBytes = 0;

  int64_t PhaseEnd = 0;
  std::vector<int64_t> ClosedDoneNs;
  std::vector<double> ReadLatMs, WriteLatMs;
  double WriteEdits = 0, Writes = 0;
  uint64_t Done = 0; ///< requests answered ok
  bool Traced = false;

  // Connections 0..2 read from the follower; connection 3 writes to the
  // leader in binary frames (textual lines cap at 1 MiB).
  std::vector<std::pair<uint16_t, bool>> Eps;
  for (size_t I = 0; I != ReadConns; ++I)
    Eps.push_back({S.followerPort(), false});
  Eps.push_back({S.leaderPort(), true});
  auto Gen = std::make_unique<LoadGen>(Eps, [&](const Pending &Q,
                                                const Reply &Rp, int64_t Now) {
    RDoc &D = W.Docs[Q.Doc];
    bool Write = isWrite(Q.V);
    (Write ? D.WriteInFlight : D.ReadInFlight) = false;
    if (!Rp.Ok) {
      ++R.Failed;
      return;
    }
    ++Done;
    if (Write) {
      if (Rp.Version != D.Version + 1)
        R.violation("doc " + std::to_string(Q.Doc) + ": acked v" +
                    std::to_string(Rp.Version) + " after v" +
                    std::to_string(D.Version));
      persist::DecodeScriptResult DS =
          persist::decodeEditScript(W.Sig, Rp.Blob);
      if (!DS.Ok || !D.Copy->patchChecked(DS.Script).Ok)
        R.violation("doc " + std::to_string(Q.Doc) +
                    ": returned script does not patch the client's copy");
      D.Pos = (D.Pos + 1) % ReadVersions;
      D.Version = Rp.Version;
      D.Acked.push_back({D.Pos, std::move(Rp.Blob)});
      WriteEdits += static_cast<double>(Rp.Edits);
      Writes += 1;
      WriteBytes += static_cast<double>(Q.Bytes);
      WriteLatMs.push_back(msBetween(Q.DueNs, Now));
      uint64_t Seq;
      {
        std::lock_guard<std::mutex> Lock(P.Mu);
        Seq = P.Slots[Q.Doc].Seq;
      }
      Lag->acked(Seq, Now);
    } else if (Q.Stream == 0) {
      if (Now <= PhaseEnd)
        ClosedDoneNs.push_back(Now);
    } else {
      ReadLatMs.push_back(msBetween(Q.DueNs, Now));
    }
    if (Traced)
      traceReply(P, Q, Now, !Write, Layers);
  });
  LoadGen &G = *Gen;

  uint32_t ReadCursor = 0, WriteCursor = 0;
  auto IssueRead = [&](uint8_t StreamId, int64_t Due) {
    for (uint32_t Tries = 0; Tries != ReadDocs; ++Tries) {
      uint32_t Doc = 1 + (ReadCursor++ % ReadDocs);
      RDoc &D = W.Docs[Doc];
      if (D.ReadInFlight)
        continue;
      std::string Line;
      Verb V = Verb::Get;
      if (Dice.chance(BlamePercent)) {
        // A node alive since the open: never unloaded, so it exists on
        // the follower at every version up to the client's. A document
        // with a write in flight is skipped, as that write may unload it.
        if (D.WriteInFlight || D.V0Uris.empty())
          continue;
        URI U = NullURI;
        for (int Pick = 0; Pick != 8 && U == NullURI; ++Pick) {
          URI C = D.V0Uris[Dice.below(D.V0Uris.size())];
          if (D.Copy->lookup(C) != nullptr)
            U = C;
        }
        if (U == NullURI)
          continue;
        V = Verb::Blame;
        Line = "blame " + std::to_string(Doc) + " " + std::to_string(U) + "\n";
      } else {
        Line = "get " + std::to_string(Doc) + "\n";
      }
      D.ReadInFlight = true;
      ++R.Attempted;
      G.send(Doc % ReadConns, Pending{Doc, V, StreamId, Due, 0, 0}, Line);
      return true;
    }
    return false;
  };
  auto IssueWrite = [&](int64_t Due) {
    for (uint32_t Tries = 0; Tries != ReadDocs; ++Tries) {
      uint32_t Doc = 1 + (WriteCursor++ % ReadDocs);
      RDoc &D = W.Docs[Doc];
      if (D.WriteInFlight)
        continue;
      D.WriteInFlight = true;
      std::string Frame;
      net::appendFrame(Frame, net::ClientReqMagic,
                       static_cast<uint8_t>(net::BinVerb::Submit),
                       putDocPayload(Doc, D.Blobs[(D.Pos + 1) % ReadVersions]));
      ++R.Attempted;
      G.send(ReadConns, Pending{Doc, Verb::Submit, 2, Due, 0, 0}, Frame);
      return true;
    }
    return false;
  };

  PhaseTally Tally;
  Tracer &T = Tracer::get();
  std::vector<double> Late;
  auto RunPhase = [&](uint8_t Which, double Seconds, bool On) {
    Traced = On;
    T.setOn(On);
    double Cpu0 = cpuSeconds();
    uint64_t Done0 = Done;
    Stream Reads, Wr;
    Reads.Id = Which;
    if (Which == 0)
      Reads.Window = ReadWindow;
    else
      Reads.Rate = ReadOpenRate;
    Reads.Issue = [&, Which](int64_t Due) { return IssueRead(Which, Due); };
    Wr.Id = 2;
    Wr.Rate = MixedWriteRate;
    Wr.Issue = IssueWrite;
    int64_t Start = nowNs();
    PhaseEnd = Start + static_cast<int64_t>(Seconds * 1e9);
    ClosedDoneNs.clear();
    if (!drive(G, Start, PhaseEnd, {&Reads, &Wr}))
      R.violation("requests still outstanding 30 s after the window");
    T.setOn(false);
    Tally.add(Which, On, cpuSeconds() - Cpu0, Done - Done0,
              Which == 0 ? medianRate(ClosedDoneNs, Start, PhaseEnd) : 0);
    Late = Reads.LateMs;
    Late.insert(Late.end(), Wr.LateMs.begin(), Wr.LateMs.end());
  };
  for (const Phase &Ph : phasesOf(A.Trace, ReadClosedShare)) {
    // Latencies come from the open loop (a traced run's traced half);
    // writes beside the closed loop are not timed.
    if (Ph.Which == 1 && Ph.On == A.Trace) {
      ReadLatMs.clear();
      WriteLatMs.clear();
    }
    RunPhase(Ph.Which, A.Seconds * Ph.Share, Ph.On);
  }

  // Checks: the follower ends byte-identical to the leader, and replaying
  // every returned script on a fresh copy of the opened document gives
  // exactly each submitted version, in order.
  std::vector<uint32_t> Ids;
  for (uint32_t Doc = 1; Doc <= ReadDocs; ++Doc) {
    Ids.push_back(Doc);
    RDoc &D = W.Docs[Doc];
    service::DocumentSnapshot L = S.Store.snapshot(Doc);
    if (!L.Ok || L.Version != D.Version)
      R.violation("doc " + std::to_string(Doc) +
                  ": leader version differs from the acked one");
    MTree Replay(W.Sig);
    bool Ok = Replay.patchChecked(P.InitScripts[Doc]).Ok;
    for (const auto &[Pos, Blob] : D.Acked) {
      persist::DecodeScriptResult DS = persist::decodeEditScript(W.Sig, Blob);
      TreeContext Ctx(W.Sig);
      persist::DecodeTreeResult Want =
          persist::decodeTree(W.Sig, Ctx, D.Blobs[Pos], false);
      Ok = Ok && DS.Ok && Want.ok() && Replay.patchChecked(DS.Script).Ok &&
           Replay.equalsTree(Want.Root);
    }
    if (!Ok)
      R.violation("doc " + std::to_string(Doc) +
                  ": patching with the returned scripts does not give the "
                  "submitted versions");
  }
  checkFollower(S, Ids, R);
  std::vector<double> Lags = Lag->lagsMs();
  if (A.Trace)
    reportServingLayers(S, P, Layers, WriteBytes, R);
  Lag.reset();
  Gen.reset();
  W.S.reset();

  R.set("setup_s", SetupS, "s");
  // The open loop only: there reads and writes come at fixed rates, so
  // the mix of a get (~25 ms of CPU) and a write (~60 ms over leader,
  // follower and client) does not shift with the closed loop's capacity.
  Tally.report(A.Trace, /*OpenLoopOnly=*/true, R);
  R.set("edits_per_submit", Writes > 0 ? WriteEdits / Writes : 0, "edits");
  R.set("read_capacity_per_s", Tally.capacity(A.Trace), "ops/s");
  R.set("read_p50_ms", quantile(ReadLatMs, 0.5), "ms");
  R.set("read_p99_ms", quantile(ReadLatMs, 0.99), "ms");
  R.set("write_p50_ms", quantile(WriteLatMs, 0.5), "ms");
  R.set("write_p99_ms", quantile(WriteLatMs, 0.99), "ms");
  R.set("repl_lag_ms_p99", quantile(Lags, 0.99), "ms");
  R.meta("docs", static_cast<double>(ReadDocs));
  R.meta("doc_nodes_mean", W.Nodes / ReadDocs);
  R.meta("connections", 4);
  R.meta("closed_read_window", static_cast<double>(ReadWindow));
  R.meta("open_read_rate_per_s", ReadOpenRate);
  R.meta("write_rate_per_s", MixedWriteRate);
  R.meta("blame_percent", static_cast<double>(BlamePercent));
  R.meta("open_read_samples", static_cast<double>(ReadLatMs.size()));
  if (A.Trace) {
    R.set("loadgen.late_ms_p99", quantile(Late, 0.99), "ms");
    // The library layers on this workload's inputs: the first two
    // versions of a few documents (all of them would not fit in memory
    // as typed trees).
    TreeContext Ctx(W.Sig);
    std::vector<PairRef> Pairs;
    for (uint32_t Doc = 1; Doc <= std::min<uint32_t>(ReadDocs, 8); ++Doc) {
      persist::DecodeTreeResult A0 =
          persist::decodeTree(W.Sig, Ctx, W.Docs[Doc].Blobs[0], false);
      persist::DecodeTreeResult A1 =
          persist::decodeTree(W.Sig, Ctx, W.Docs[Doc].Blobs[1], false);
      if (A0.ok() && A1.ok())
        Pairs.push_back({A0.Root, A1.Root});
    }
    libraryPass(W.Sig, Pairs, true, true, R);
  }
}
