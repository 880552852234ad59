//===- tests/net_test.cpp - TCP front end tests ----------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the net layer: the epoll event loop serving the textual
/// wire protocol and the length-prefixed binary protocol on one port.
/// Covers round trips on both protocols, 64+ concurrent connections,
/// pipelined requests answered in arrival order, split writes, the
/// robustness contract (oversized frames kill the connection with a
/// typed FrameTooLarge, malformed payloads answer MalformedFrame and the
/// connection lives on), a seeded fuzz hammer that must never crash the
/// loop, and per-connection idle timeouts. The CI runs this binary under
/// ThreadSanitizer, so the loop-thread/worker-thread handoff is also
/// race-checked here.
///
//===----------------------------------------------------------------------===//

#include "client/Client.h"
#include "net/EventLoop.h"
#include "net/Frame.h"
#include "net/NetServer.h"
#include "net/ServiceHandler.h"
#include "persist/BinaryCodec.h"
#include "persist/Varint.h"
#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "service/Wire.h"
#include "support/Rng.h"
#include "tree/SExpr.h"

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

//===----------------------------------------------------------------------===//
// Harness: a full service stack behind a NetServer on an ephemeral port.
//===----------------------------------------------------------------------===//

struct ServerHarness {
  SignatureTable Sig;
  service::DocumentStore Store;
  std::unique_ptr<service::DiffService> Svc;
  std::unique_ptr<net::ServiceHandler> Handler;
  net::EventLoop Loop;
  std::unique_ptr<net::NetServer> Srv;
  bool Started = false;

  /// \p HC carries the handler's admission caps; a non-null \p Budget
  /// is attached to every document arena.
  explicit ServerHarness(
      net::NetServer::Config C = net::NetServer::Config(),
      net::ServiceHandler::Config HC = net::ServiceHandler::Config(),
      MemoryBudget *Budget = nullptr)
      : Sig(makeExpSignature()), Store(Sig, storeConfig(Budget)) {
    service::ServiceConfig SC;
    SC.Workers = 2;
    Svc = std::make_unique<service::DiffService>(Store, SC);
    Handler = std::make_unique<net::ServiceHandler>(*Svc, HC);
    Srv = std::make_unique<net::NetServer>(Loop, Sig, *Handler, C);
    std::string Err;
    Started = Srv->start(&Err);
    EXPECT_TRUE(Started) << Err;
    Loop.start();
  }

  ~ServerHarness() {
    Loop.stop();
    Svc->shutdown();
  }

  uint16_t port() const { return Srv->port(); }

  static service::DocumentStore::Config storeConfig(MemoryBudget *Budget) {
    service::DocumentStore::Config Cfg;
    Cfg.MemBudget = Budget;
    return Cfg;
  }
};

using tests::TcpClient;

/// Builds one binary client request frame.
std::string binRequest(net::BinVerb Verb, std::string_view Payload) {
  std::string Out;
  net::appendFrame(Out, net::ClientReqMagic, static_cast<uint8_t>(Verb),
                   Payload);
  return Out;
}

std::string docPayload(uint64_t Doc, std::string_view Blob = {}) {
  std::string P;
  persist::putVarint(P, Doc);
  P.append(Blob);
  return P;
}

/// Open/Submit payload: doc id, author TLV, then the tree blob.
std::string openPayload(uint64_t Doc, std::string_view Blob,
                        std::string_view Author = {}) {
  std::string P;
  persist::putVarint(P, Doc);
  persist::putVarint(P, Author.size());
  P.append(Author);
  P.append(Blob);
  return P;
}

//===----------------------------------------------------------------------===//
// Textual protocol
//===----------------------------------------------------------------------===//

TEST(NetServerTextual, RoundTrip) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  std::vector<std::string> Lines;
  ASSERT_TRUE(C.sendAll("open 1 (Add (a) (b))\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0];

  ASSERT_TRUE(C.sendAll("submit 1 (Add (b) (a))\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok version=1", 0), 0u) << Lines[0];

  ASSERT_TRUE(C.sendAll("get 1\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].rfind("ok version=1", 0), 0u) << Lines[0];
  EXPECT_EQ(Lines[1], "(Add (b) (a))");

  ASSERT_TRUE(C.sendAll("rollback 1\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0];

  ASSERT_TRUE(C.sendAll("stats\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].rfind("ok", 0), 0u);
  EXPECT_NE(Lines[1].find("\"documents\""), std::string::npos);

  ASSERT_TRUE(C.sendAll("health\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].rfind("ok", 0), 0u);

  // Errors are typed and the connection survives them.
  ASSERT_TRUE(C.sendAll("get 999\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("err ", 0), 0u);
  EXPECT_NE(Lines[0].find("code=no_such_document"), std::string::npos)
      << Lines[0];

  ASSERT_TRUE(C.sendAll("bogus-verb 1\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("err ", 0), 0u);

  // quit closes the connection without a response.
  ASSERT_TRUE(C.sendAll("quit\n"));
  EXPECT_TRUE(C.waitEof());
}

TEST(NetServerTextual, DeepOpenGetsAReply) {
  // 30,000 nested Calls are 330 KB of text, well under the line cap. The
  // parser, printer and initializing script keep their nesting on the
  // heap, so the worker answers instead of overflowing its stack.
  constexpr int Depth = 30000;
  std::string Tree;
  for (int I = 0; I != Depth; ++I)
    Tree += "(Call ";
  Tree += "(Num 0)";
  for (int I = 0; I != Depth; ++I)
    Tree += " \"f\")";

  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));
  std::vector<std::string> Lines;
  ASSERT_TRUE(C.sendAll("open 1 " + Tree + "\n"));
  ASSERT_TRUE(C.readTextResponse(Lines, 60000));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0].substr(0, 80);

  ASSERT_TRUE(C.sendAll("get 1\n"));
  ASSERT_TRUE(C.readTextResponse(Lines, 60000));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0].substr(0, 80);
  EXPECT_TRUE(Lines[1] == Tree);
}

TEST(NetServerTextual, PipelinedRequestsAnswerInOrder) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // One write carrying the whole session: responses must come back in
  // arrival order even though workers may finish out of order.
  ASSERT_TRUE(C.sendAll("open 7 (a)\n"
                        "submit 7 (b)\n"
                        "submit 7 (c)\n"
                        "get 7\n"));
  std::vector<std::string> Lines;
  ASSERT_TRUE(C.readTextResponse(Lines));
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0];
  ASSERT_TRUE(C.readTextResponse(Lines));
  EXPECT_EQ(Lines[0].rfind("ok version=1", 0), 0u) << Lines[0];
  ASSERT_TRUE(C.readTextResponse(Lines));
  EXPECT_EQ(Lines[0].rfind("ok version=2", 0), 0u) << Lines[0];
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].rfind("ok version=2", 0), 0u) << Lines[0];
  EXPECT_EQ(Lines[1], "(c)");
}

TEST(NetServerTextual, SplitWritesReassemble) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Dribble one command a few bytes at a time across separate packets.
  const std::string Cmd = "open 3 (Add (Num 1) (Num 2))\n";
  for (size_t I = 0; I < Cmd.size(); I += 5) {
    ASSERT_TRUE(C.sendAll(std::string_view(Cmd).substr(I, 5)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<std::string> Lines;
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0];
}

TEST(NetServerTextual, OversizedLineKillsConnection) {
  net::NetServer::Config C;
  C.MaxLineBytes = 256;
  ServerHarness H(C);
  ASSERT_TRUE(H.Started);
  TcpClient Cl;
  ASSERT_TRUE(Cl.connect(H.port()));

  // No newline within the cap: the stream cannot be resynchronised.
  std::string Long(1024, 'x');
  ASSERT_TRUE(Cl.sendAll(Long));
  std::vector<std::string> Lines;
  ASSERT_TRUE(Cl.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("err ", 0), 0u);
  EXPECT_NE(Lines[0].find("code=frame_too_large"), std::string::npos)
      << Lines[0];
  EXPECT_TRUE(Cl.waitEof());
}

TEST(NetServerTextual, SixtyFourConcurrentConnections) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);

  constexpr size_t N = 64;
  std::vector<std::unique_ptr<TcpClient>> Clients;
  for (size_t I = 0; I != N; ++I) {
    auto C = std::make_unique<TcpClient>();
    ASSERT_TRUE(C->connect(H.port())) << "conn " << I;
    Clients.push_back(std::move(C));
  }

  // All 64 sockets are open at once; the server must hold them all.
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (H.Srv->numConns() < N &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(H.Srv->numConns(), N);

  // Fire a write on every connection before reading any response, so
  // the requests genuinely overlap.
  for (size_t I = 0; I != N; ++I) {
    std::string Cmd = "open " + std::to_string(I + 1) + " (Add (a) (b))\n";
    ASSERT_TRUE(Clients[I]->sendAll(Cmd));
  }
  for (size_t I = 0; I != N; ++I) {
    std::vector<std::string> Lines;
    ASSERT_TRUE(Clients[I]->readTextResponse(Lines)) << "conn " << I;
    ASSERT_FALSE(Lines.empty());
    EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u)
        << "conn " << I << ": " << Lines[0];
  }
  for (size_t I = 0; I != N; ++I) {
    std::string Cmd = "submit " + std::to_string(I + 1) + " (Add (b) (a))\n";
    ASSERT_TRUE(Clients[I]->sendAll(Cmd));
  }
  for (size_t I = 0; I != N; ++I) {
    std::vector<std::string> Lines;
    ASSERT_TRUE(Clients[I]->readTextResponse(Lines)) << "conn " << I;
    ASSERT_FALSE(Lines.empty());
    EXPECT_EQ(Lines[0].rfind("ok version=1", 0), 0u)
        << "conn " << I << ": " << Lines[0];
  }

  // Every document really landed in the store.
  for (size_t I = 0; I != N; ++I) {
    service::DocumentSnapshot S = H.Store.snapshot(I + 1);
    ASSERT_TRUE(S.Ok) << "doc " << I + 1;
    EXPECT_EQ(S.Version, 1u);
    EXPECT_EQ(S.Text, "(Add (b) (a))");
  }
}

TEST(NetServerTextual, ResilientClientRoundTripAndCas) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);

  client::ResilientClient::Config CC;
  CC.Endpoints = {"127.0.0.1:" + std::to_string(H.port())};
  client::ResilientClient RC(CC);

  // Against a healthy server every request lands on the first attempt.
  client::ResilientClient::Result R = RC.open(1, "(Add (a) (b))", "ada");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Attempts, 1u);
  for (unsigned I = 0; I != 3; ++I) {
    R = RC.submit(1, I % 2 == 0 ? "(Add (b) (a))" : "(Add (a) (b))");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Version, I + 1);
    EXPECT_EQ(R.Attempts, 1u);
    EXPECT_FALSE(R.Deduped);
  }
  R = RC.get(1);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Version, 3u);
  EXPECT_NE(R.Payload.find("(Add (b) (a))"), std::string::npos);
  EXPECT_TRUE(RC.stats().Ok);
  EXPECT_TRUE(RC.request("health", /*IsWrite=*/false).Ok);

  // The CAS guard that makes retries exactly-once also fences a second
  // writer. Two out-of-band bumps, so the mismatch cannot be mistaken
  // for the client's own retried write (that ambiguity only exists at
  // version == expect+1, the dedup case).
  ASSERT_TRUE(H.Svc->submit(1, service::makeSExprBuilder("(Mul (a) (Num 7))"))
                  .Ok);
  ASSERT_TRUE(H.Svc->submit(1, service::makeSExprBuilder("(Mul (a) (Num 8))"))
                  .Ok);
  R = RC.submit(1, "(Add (b) (a))");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, "cas_mismatch");
  EXPECT_FALSE(R.Deduped);

  // forgetVersion resyncs through a get and writing resumes.
  RC.forgetVersion(1);
  R = RC.submit(1, "(Add (b) (a))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 6u);
  EXPECT_EQ(RC.clientStats().CasDedups, 0u);
}

//===----------------------------------------------------------------------===//
// Binary protocol
//===----------------------------------------------------------------------===//

TEST(NetServerBinary, RoundTrip) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Client-side trees, encoded with the persist codec.
  TreeContext Ctx(H.Sig);
  ParseResult V1 = parseSExpr(Ctx, "(Add (Num 1) (Num 2))");
  ParseResult V2 = parseSExpr(Ctx, "(Add (Num 1) (Mul (Num 2) (Num 3)))");
  ASSERT_TRUE(V1.ok() && V2.ok());
  std::string Blob1 = persist::encodeTree(H.Sig, V1.Root);
  std::string Blob2 = persist::encodeTree(H.Sig, V2.Root);

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(5, Blob1, "ada"))));
  net::BinResponse R;
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 0u);

  ASSERT_TRUE(
      C.sendAll(binRequest(net::BinVerb::Submit, openPayload(5, Blob2, "grace"))));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 1u);
  EXPECT_GT(R.EditCount, 0u);

  // The submit response blob is the binary edit script.
  persist::DecodeScriptResult DS = persist::decodeEditScript(H.Sig, R.Blob);
  ASSERT_TRUE(DS.Ok) << DS.Error;
  EXPECT_EQ(DS.Script.size(), R.EditCount);

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Get, docPayload(5))));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 1u);
  EXPECT_EQ(R.Blob, printSExpr(H.Sig, V2.Root));

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Rollback, docPayload(5))));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Version, 0u);

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Stats, {})));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Blob.find("\"documents\""), std::string::npos);

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Health, {})));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;

  // Binary quit answers ok, then the server closes.
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Quit, {})));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(C.waitEof());
}

TEST(NetServerBinary, MixedProtocolsOnOneConnection) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Textual open, binary get, textual get: the first byte of each
  // message selects the parser.
  ASSERT_TRUE(C.sendAll("open 9 (Add (a) (b))\n"));
  std::vector<std::string> Lines;
  ASSERT_TRUE(C.readTextResponse(Lines));
  EXPECT_EQ(Lines[0].rfind("ok version=0", 0), 0u) << Lines[0];

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Get, docPayload(9))));
  net::BinResponse R;
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Blob, "(Add (a) (b))");

  ASSERT_TRUE(C.sendAll("get 9\n"));
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[1], "(Add (a) (b))");
}

TEST(NetServerBinary, OversizedFrameKillsConnection) {
  net::NetServer::Config Cfg;
  Cfg.MaxFrameBytes = 1024;
  ServerHarness H(Cfg);
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // A header claiming a payload over the cap: typed error, then close,
  // because the stream position after it is untrustworthy.
  std::string Hdr;
  Hdr.push_back(static_cast<char>(net::ClientReqMagic));
  Hdr.push_back(static_cast<char>(net::BinVerb::Open));
  uint32_t Len = 1u << 20;
  Hdr.append(reinterpret_cast<const char *>(&Len), 4);
  ASSERT_TRUE(C.sendAll(Hdr));

  net::BinResponse R;
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::FrameTooLarge) << R.Error;
  EXPECT_TRUE(C.waitEof());
}

TEST(NetServerBinary, MalformedPayloadKeepsConnectionAlive) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Well-formed frame, garbage tree blob: typed MalformedFrame, and the
  // connection must survive.
  std::string Garbage = openPayload(11, "\xff\xfe\xfd not a tree blob");
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, Garbage)));
  net::BinResponse R;
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::MalformedFrame) << R.Error;

  // Trailing junk after a Get's doc id is also malformed, not fatal.
  ASSERT_TRUE(
      C.sendAll(binRequest(net::BinVerb::Get, docPayload(11, "junk"))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::MalformedFrame) << R.Error;

  // Unknown verb: same contract.
  ASSERT_TRUE(C.sendAll(binRequest(static_cast<net::BinVerb>(99), {})));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::MalformedFrame) << R.Error;

  // The connection still serves real requests.
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Health, {})));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_TRUE(R.Ok) << R.Error;
}

/// \p Depth nested Calls around a Num: a chain Depth + 1 nodes tall.
std::string callChain(unsigned Depth) {
  std::string Text;
  for (unsigned I = 0; I != Depth; ++I)
    Text += "(Call ";
  Text += "(Num 0)";
  for (unsigned I = 0; I != Depth; ++I)
    Text += " \"f\")";
  return Text;
}

/// A balanced Add tree over \p Leaves leaves: 2 * Leaves - 1 nodes.
std::string balancedAdds(unsigned Leaves) {
  if (Leaves == 1)
    return "(a)";
  unsigned L = Leaves / 2;
  return "(Add " + balancedAdds(L) + " " + balancedAdds(Leaves - L) + ")";
}

/// The binary tree blob of \p Text.
std::string treeBlob(const SignatureTable &Sig, const std::string &Text) {
  TreeContext Ctx(Sig);
  ParseResult P = parseSExpr(Ctx, Text);
  EXPECT_TRUE(P.ok()) << P.Error;
  return P.ok() ? persist::encodeTree(Sig, P.Root) : std::string();
}

TEST(NetServerBinary, TreeFramesHonourTheNodeAndDepthCaps) {
  // The handler's caps apply to binary open and submit frames exactly as
  // to textual ones, with the same typed errors, and a refused frame
  // leaves the document and the connection as they were.
  net::ServiceHandler::Config HC;
  HC.Limits.MaxNodes = 63;
  HC.Limits.MaxDepth = 16;
  ServerHarness H(net::NetServer::Config(), HC);
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));
  net::BinResponse R;

  std::string Wide = treeBlob(H.Sig, balancedAdds(64)); // 127 nodes
  std::string Deep = treeBlob(H.Sig, callChain(30));    // 31 levels
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(1, Wide))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::TreeTooLarge) << R.Error;
  EXPECT_EQ(R.Error, "input exceeds the node cap of 63 nodes");

  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(1, Deep))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::TreeTooDeep) << R.Error;
  EXPECT_EQ(R.Error, "input nesting exceeds the depth cap of 16");
  EXPECT_FALSE(H.Store.contains(1));

  // Trees inside both caps pass; over-cap submits are refused the same
  // way and leave the document at its version.
  std::string Small = treeBlob(H.Sig, balancedAdds(32)); // 63 nodes
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(1, Small))));
  ASSERT_TRUE(C.readBinResponse(R));
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Before = H.Store.snapshot(1).UriText;
  ASSERT_TRUE(
      C.sendAll(binRequest(net::BinVerb::Submit, openPayload(1, Wide))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::TreeTooLarge) << R.Error;
  ASSERT_TRUE(
      C.sendAll(binRequest(net::BinVerb::Submit, openPayload(1, Deep))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::TreeTooDeep) << R.Error;
  service::DocumentSnapshot After = H.Store.snapshot(1);
  EXPECT_EQ(After.Version, 0u);
  EXPECT_EQ(After.UriText, Before);
}

TEST(NetServerBinary, TreeFramesHonourTheMemoryBudget) {
  // The decoder polls the document arena's budget before every node, so
  // a blob that would outgrow the budget is refused mid-decode with the
  // textual path's typed error, and its arena's charge is returned.
  MemoryBudget Budget(16 * 1024);
  ServerHarness H(net::NetServer::Config(), net::ServiceHandler::Config(),
                  &Budget);
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));
  net::BinResponse R;

  std::string Big = treeBlob(H.Sig, balancedAdds(2048)); // 4,095 nodes
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(1, Big))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::MemoryBudget) << R.Error;
  EXPECT_EQ(R.Error, "memory budget exhausted while parsing input");
  EXPECT_FALSE(H.Store.contains(1));
  EXPECT_EQ(Budget.used(), 0u);

  // A tree that fits still opens.
  std::string Small = treeBlob(H.Sig, balancedAdds(4));
  ASSERT_TRUE(C.sendAll(binRequest(net::BinVerb::Open, openPayload(1, Small))));
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(NetServerBinary, ReplicationMagicRejectedOnClientPort) {
  ServerHarness H;
  ASSERT_TRUE(H.Started);
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));

  std::string F;
  net::appendFrame(F, net::ReplMagic, 1, "hello");
  ASSERT_TRUE(C.sendAll(F));
  net::BinResponse R;
  ASSERT_TRUE(C.readBinResponse(R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, service::ErrCode::MalformedFrame) << R.Error;
  EXPECT_TRUE(C.waitEof());
}

//===----------------------------------------------------------------------===//
// Fuzz: nothing a client sends crashes the loop.
//===----------------------------------------------------------------------===//

TEST(NetServerFuzz, RandomBytesNeverCrashTheLoop) {
  uint64_t Seed = tests::testSeed(0xfeedbeef);
  SEED_TRACE(Seed);
  Rng R(Seed);

  net::NetServer::Config Cfg;
  Cfg.MaxLineBytes = 4096;
  Cfg.MaxFrameBytes = 4096;
  ServerHarness H(Cfg);
  ASSERT_TRUE(H.Started);

  uint64_t Iters = tests::testIters("TRUEDIFF_CHAOS_ITERS", 60);
  for (uint64_t I = 0; I != Iters; ++I) {
    TcpClient C;
    ASSERT_TRUE(C.connect(H.port()));
    std::string Bytes;
    size_t Len = 1 + R.below(512);
    // Bias toward the binary magics so frame parsing gets exercised,
    // including truncated headers and wild lengths.
    switch (R.below(4)) {
    case 0:
      Bytes.push_back(static_cast<char>(net::ClientReqMagic));
      break;
    case 1:
      Bytes.push_back(static_cast<char>(net::ReplMagic));
      break;
    default:
      break;
    }
    while (Bytes.size() < Len)
      Bytes.push_back(static_cast<char>(R.below(256)));
    if (R.chance(50))
      Bytes.push_back('\n');
    ASSERT_TRUE(C.sendAll(Bytes));
    // Half the time, read whatever comes back; the other half, just
    // slam the connection shut mid-response.
    if (R.chance(50))
      C.fill(20);
  }

  // The loop survived: a fresh connection still gets answers.
  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendAll("health\n"));
  std::vector<std::string> Lines;
  ASSERT_TRUE(C.readTextResponse(Lines));
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind("ok", 0), 0u) << Lines[0];
}

//===----------------------------------------------------------------------===//
// Idle timeout
//===----------------------------------------------------------------------===//

TEST(NetServerTimeout, IdleConnectionsAreReaped) {
  net::NetServer::Config Cfg;
  Cfg.IdleTimeoutMs = 100;
  ServerHarness H(Cfg);
  ASSERT_TRUE(H.Started);

  TcpClient C;
  ASSERT_TRUE(C.connect(H.port()));
  // Never send a byte: the coarse idle scan must close us.
  EXPECT_TRUE(C.waitEof(10000));

  // An active connection with traffic inside the window survives and
  // still answers.
  TcpClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  std::vector<std::string> Lines;
  ASSERT_TRUE(C2.sendAll("health\n"));
  ASSERT_TRUE(C2.readTextResponse(Lines));
  EXPECT_EQ(Lines[0].rfind("ok", 0), 0u) << Lines[0];
}

} // namespace
