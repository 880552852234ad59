//===- tests/overload_test.cpp - Overload protection tests -----------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the service's overload-protection stack:
///
///  - FairQueue: deficit-round-robin scheduling, per-key capacity, and
///    newest-first shedding at the queue level.
///  - DiffService: a hot tenant cannot starve a cold one; sustained
///    above-target queue sojourn sheds the hot document's newest
///    requests with per-document retry_after_ms hints.
///  - Resource admission: parse-time depth/node caps and the
///    process-wide memory budget reject hostile input with typed
///    errors, fuzzed with seeded random payloads (TRUEDIFF_TEST_SEED
///    replays a nightly failure).
///  - The rejection invariant: every rejected request -- whatever the
///    rejection class -- leaves the DocumentStore byte-identical, and
///    every accepted submit's script passes the LinearTypeChecker.
///  - Wire hardening: configurable frame caps reject oversized lines
///    with a typed error, and retry hints are suppressed on verbs a
///    client should not retry.
///
//===----------------------------------------------------------------------===//

#include "service/DiffService.h"
#include "service/DocumentStore.h"
#include "service/FairQueue.h"
#include "service/Wire.h"

#include "json/Json.h"
#include "python/Python.h"
#include "support/Rng.h"
#include "tree/Limits.h"
#include "tree/SExpr.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"

#include "TestLang.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace truediff;
using namespace truediff::service;
using namespace truediff::testlang;

namespace {

/// A left-spine Add nest of depth \p D around a leaf: depth D+1,
/// 2*D + 1 nodes.
std::string deepExpr(unsigned D) {
  std::string S = "(a)";
  for (unsigned I = 0; I != D; ++I)
    S = "(Add " + S + " (b))";
  return S;
}

/// A balanced Add tree over \p Leaves leaves: 2*Leaves - 1 nodes,
/// logarithmic depth (wide-but-shallow, the node-cap probe).
std::string balancedExpr(unsigned Leaves) {
  if (Leaves <= 1)
    return "(a)";
  unsigned L = Leaves / 2;
  return "(Add " + balancedExpr(L) + " " + balancedExpr(Leaves - L) + ")";
}

/// A builder that parks the worker until \p Gate is released, then
/// produces a single leaf.
TreeBuilder gatedBuilder(std::shared_future<void> Gate, const char *Tag) {
  return [Gate, Tag](TreeContext &Ctx) -> BuildResult {
    Gate.wait();
    return BuildResult{Ctx.make(Tag, {}, {}), ""};
  };
}

/// Pops the next item and releases its key at once, as a consumer that
/// finished the item would.
template <typename T> std::optional<T> popReleased(FairQueue<T> &Q) {
  uint64_t Key = 0;
  std::optional<T> Item = Q.pop(Key);
  if (Item)
    Q.release(Key);
  return Item;
}

} // namespace

//===----------------------------------------------------------------------===//
// FairQueue
//===----------------------------------------------------------------------===//

TEST(FairQueueTest, DrrInterleavesHotAndColdKeys) {
  FairQueue<int> Q(/*Capacity=*/64, /*PerKeyCapacity=*/0, /*Quantum=*/100);
  // A hot key floods first; a cold key arrives last. DRR must serve the
  // cold key's item on its first scheduling turn, not after the flood.
  for (int I = 0; I != 20; ++I)
    ASSERT_EQ(Q.tryPush(1, 100 + I, 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(2, 900, 100), PushResult::Ok);
  EXPECT_EQ(Q.activeKeys(), 2u);

  std::vector<int> Order;
  for (int I = 0; I != 4; ++I)
    Order.push_back(*popReleased(Q));
  // The cold item appears within the first two dequeues (one turn of the
  // two-key ring), and the hot key stays FIFO.
  EXPECT_TRUE(Order[0] == 900 || Order[1] == 900) << Order[0] << "," << Order[1];
  std::vector<int> Hot;
  for (int V : Order)
    if (V != 900)
      Hot.push_back(V);
  for (size_t I = 1; I < Hot.size(); ++I)
    EXPECT_LT(Hot[I - 1], Hot[I]);
}

TEST(FairQueueTest, ExpensiveKeysGetProportionallyFewerSlots) {
  FairQueue<char> Q(64, 0, /*Quantum=*/100);
  // Key 'a' costs two quanta per item, key 'b' one: in any window 'b'
  // should be served about twice as often.
  for (int I = 0; I != 4; ++I)
    ASSERT_EQ(Q.tryPush(1, 'a', 200), PushResult::Ok);
  for (int I = 0; I != 8; ++I)
    ASSERT_EQ(Q.tryPush(2, 'b', 100), PushResult::Ok);
  std::string First6;
  for (int I = 0; I != 6; ++I)
    First6 += *popReleased(Q);
  EXPECT_EQ(std::count(First6.begin(), First6.end(), 'a'), 2)
      << First6;
  EXPECT_EQ(std::count(First6.begin(), First6.end(), 'b'), 4)
      << First6;
  // The remainder drains completely.
  for (int I = 0; I != 6; ++I)
    EXPECT_TRUE(popReleased(Q).has_value());
  EXPECT_EQ(Q.depth(), 0u);
}

TEST(FairQueueTest, PerKeyCapacityBoundsOneTenantBelowTheSharedWall) {
  FairQueue<int> Q(/*Capacity=*/8, /*PerKeyCapacity=*/2, 100);
  ASSERT_EQ(Q.tryPush(1, 0, 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(1, 1, 100), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(1, 2, 100), PushResult::KeyFull);
  // Another key still enqueues: the wall was per-tenant, not shared.
  EXPECT_EQ(Q.tryPush(2, 3, 100), PushResult::Ok);
  EXPECT_EQ(Q.depth(), 3u);
  EXPECT_EQ(Q.depthOf(1), 2u);
  // The shared capacity still applies above the per-key walls.
  for (uint64_t K = 3; K != 8; ++K)
    ASSERT_EQ(Q.tryPush(K, 9, 100), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(9, 9, 100), PushResult::Full);
}

TEST(FairQueueTest, ShedNewestRemovesTheYoungestOfOneKeyOnly) {
  FairQueue<int> Q(16, 0, 100);
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(Q.tryPush(1, int(I), 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(2, 42, 100), PushResult::Ok);

  EXPECT_EQ(*Q.shedNewest(1), 2); // youngest of key 1, not of the queue
  EXPECT_EQ(*Q.shedNewest(1), 1);
  EXPECT_EQ(*Q.shedNewest(1), 0);
  EXPECT_EQ(Q.shedNewest(1), std::nullopt); // key drained
  EXPECT_EQ(Q.shedNewest(7), std::nullopt); // never-seen key
  EXPECT_EQ(Q.depthOf(1), 0u);
  EXPECT_EQ(Q.activeKeys(), 1u);

  // The ring survived the surgical removals: key 2 still pops.
  EXPECT_EQ(*popReleased(Q), 42);
  EXPECT_EQ(Q.depth(), 0u);
}

TEST(FairQueueTest, CloseDrainsRemainderThenSignalsEndOfQueue) {
  FairQueue<int> Q(8, 0, 100);
  ASSERT_EQ(Q.tryPush(1, 7, 100), PushResult::Ok);
  Q.close();
  EXPECT_EQ(Q.tryPush(1, 8, 100), PushResult::Closed);
  EXPECT_EQ(*popReleased(Q), 7);
  EXPECT_EQ(popReleased(Q), std::nullopt);
}

TEST(FairQueueTest, ClaimedKeyIsHeldBackUntilRelease) {
  FairQueue<int> Q(16, 0, 100);
  ASSERT_EQ(Q.tryPush(1, 10, 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(1, 11, 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(2, 20, 100), PushResult::Ok);

  uint64_t Key = 0;
  EXPECT_EQ(*Q.pop(Key), 10);
  EXPECT_EQ(Key, 1u);
  // Key 1 still has an item queued, but it is claimed: only key 2 is
  // eligible, and a push meanwhile does not re-activate key 1.
  EXPECT_EQ(Q.activeKeys(), 1u);
  ASSERT_EQ(Q.tryPush(1, 12, 100), PushResult::Ok);
  EXPECT_EQ(Q.activeKeys(), 1u);
  uint64_t Other = 0;
  EXPECT_EQ(*Q.pop(Other), 20);
  EXPECT_EQ(Other, 2u);
  EXPECT_EQ(Q.activeKeys(), 0u);
  EXPECT_EQ(Q.depth(), 2u);

  // A consumer blocked behind the claim wakes on release and sees the
  // key's items in push order.
  std::promise<int> Next;
  std::thread Consumer([&] {
    uint64_t K = 0;
    Next.set_value(*Q.pop(K));
    Q.release(K);
  });
  Q.release(2);
  Q.release(1);
  EXPECT_EQ(Next.get_future().get(), 11);
  Consumer.join();
  EXPECT_EQ(*Q.pop(Key), 12);
  Q.release(Key);
  EXPECT_EQ(Q.depth(), 0u);
}

TEST(FairQueueTest, CloseWakesConsumersParkedBehindAClaim) {
  FairQueue<int> Q(8, 0, 100);
  ASSERT_EQ(Q.tryPush(1, 1, 100), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(1, 2, 100), PushResult::Ok);
  uint64_t Key = 0;
  ASSERT_EQ(*Q.pop(Key), 1);
  Q.close();

  // Both consumers park: the one item left belongs to the claimed key.
  std::atomic<int> Served{0}, Ended{0};
  auto Drain = [&] {
    uint64_t K = 0;
    while (std::optional<int> I = Q.pop(K)) {
      Served.fetch_add(*I);
      Q.release(K);
    }
    Ended.fetch_add(1);
  };
  std::thread A(Drain), B(Drain);
  Q.release(Key);
  A.join();
  B.join();
  EXPECT_EQ(Served.load(), 2);
  EXPECT_EQ(Ended.load(), 2);
}

TEST(FairQueueTest, SheddingTheLastItemAfterCloseWakesParkedConsumers) {
  // Shared so that, should the consumers never wake, the detached
  // threads do not outlive the queue they are parked on.
  auto Q = std::make_shared<FairQueue<int>>(8, 0, 100);
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(Q->tryPush(1, int(I), 100), PushResult::Ok);
  uint64_t Key = 0;
  ASSERT_EQ(*Q->pop(Key), 0);
  Q->close();

  // Both consumers park: the items left belong to the claimed key.
  std::vector<std::future<void>> Ended;
  for (int I = 0; I != 2; ++I) {
    std::promise<void> Done;
    Ended.push_back(Done.get_future());
    std::thread([Q, Done = std::move(Done)]() mutable {
      uint64_t K = 0;
      while (Q->pop(K))
        Q->release(K);
      Done.set_value();
    }).detach();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The claim holder sheds its key's backlog: the closed queue is now
  // drained, so the parked consumers must see end-of-queue even though
  // release() finds nothing left to requeue.
  EXPECT_EQ(*Q->shedNewest(Key), 2);
  EXPECT_EQ(*Q->shedNewest(Key), 1);
  Q->release(Key);
  for (std::future<void> &E : Ended)
    EXPECT_EQ(E.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}

//===----------------------------------------------------------------------===//
// Fair scheduling at the service level
//===----------------------------------------------------------------------===//

TEST(OverloadTest, ColdTenantIsNotStarvedByAHotFlood) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 64;
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);
  ASSERT_TRUE(Service.open(2, makeSExprBuilder("(a)")).Ok);

  // Park the single worker, flood document 1 with 20 submits, then let
  // document 2's single request arrive LAST.
  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  std::future<Response> Parked =
      Service.submitAsync(1, gatedBuilder(Gate, "b"));
  while (Service.queueDepth() != 0)
    std::this_thread::yield();

  std::mutex OrderMu;
  std::vector<int> Order; // which tenant each executed builder belonged to
  auto Tracked = [&](int Tenant, const char *Tag) {
    return [&, Tenant, Tag](TreeContext &Ctx) -> BuildResult {
      {
        std::lock_guard<std::mutex> Lock(OrderMu);
        Order.push_back(Tenant);
      }
      return BuildResult{Ctx.make(Tag, {}, {}), ""};
    };
  };
  std::vector<std::future<Response>> Hot;
  for (int I = 0; I != 20; ++I)
    Hot.push_back(Service.submitAsync(1, Tracked(1, "c")));
  std::future<Response> Cold = Service.submitAsync(2, Tracked(2, "d"));

  GateP.set_value();
  EXPECT_TRUE(Parked.get().Ok);
  EXPECT_TRUE(Cold.get().Ok);
  for (std::future<Response> &F : Hot)
    EXPECT_TRUE(F.get().Ok);

  // Under FIFO the cold tenant would run 21st; under DRR it runs on the
  // first scheduling turn after the worker unparks.
  std::lock_guard<std::mutex> Lock(OrderMu);
  ASSERT_EQ(Order.size(), 21u);
  size_t ColdPos = 0;
  while (Order[ColdPos] != 2)
    ++ColdPos;
  EXPECT_LE(ColdPos, 2u) << "cold tenant served " << ColdPos
                         << " requests late";
}

TEST(OverloadTest, SustainedSojournShedsNewestWithPerDocHints) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 64;
  Cfg.ShedTargetMs = 5;
  Cfg.ShedIntervalMs = 0; // shed on the second above-target dequeue
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);

  // Park the worker long enough that (a) every queued request's sojourn
  // exceeds the target and (b) the parked request's service time seeds a
  // large EWMA, so the shed loop drains the whole backlog.
  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  std::future<Response> Parked =
      Service.submitAsync(1, gatedBuilder(Gate, "b"));
  while (Service.queueDepth() != 0)
    std::this_thread::yield();

  std::vector<std::future<Response>> Queued;
  for (int I = 0; I != 10; ++I)
    Queued.push_back(Service.submitAsync(1, makeSExprBuilder("(c)")));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  GateP.set_value();

  EXPECT_TRUE(Parked.get().Ok);
  size_t ServedCount = 0, ShedCount = 0;
  bool SeenShedAfterServed = false;
  bool SeenServedAfterShed = false;
  for (std::future<Response> &F : Queued) {
    Response R = F.get();
    if (R.Ok) {
      ++ServedCount;
      if (ShedCount != 0)
        SeenServedAfterShed = true;
    } else {
      ASSERT_EQ(R.Code, ErrCode::Shed) << R.Error;
      EXPECT_NE(R.Error.find("shed"), std::string::npos) << R.Error;
      EXPECT_GE(R.RetryAfterMs, 1u);
      ++ShedCount;
      SeenShedAfterServed = true;
    }
  }
  // Shedding is newest-first, so the served requests are exactly a
  // prefix of the queued FIFO order.
  EXPECT_FALSE(SeenServedAfterShed);
  EXPECT_TRUE(SeenShedAfterServed);
  EXPECT_GE(ShedCount, 1u);
  EXPECT_EQ(Service.metrics().Shed.load(), ShedCount);
  // Only the parked submit and the served prefix advanced the document.
  EXPECT_EQ(Store.snapshot(1).Version, 1u + ServedCount);
  // The shed responses render with the hint on the wire.
  Response Sample;
  Sample.Code = ErrCode::Shed;
  Sample.Error = "shed";
  Sample.RetryAfterMs = 7;
  EXPECT_NE(formatWireResponse(Sample, WireCommand::Kind::Submit)
                .find(" retry_after_ms=7"),
            std::string::npos);
}

TEST(OverloadTest, ArrivalSheddingRejectsBeforeQueueingAndSparesOtherDocs) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueCapacity = 64;
  Cfg.ShedTargetMs = 5;
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);
  ASSERT_TRUE(Service.open(2, makeSExprBuilder("(a)")).Ok);

  // Seed document 1's service-time EWMA well above the target: a gated
  // submit whose service time is ~40ms.
  {
    std::promise<void> GateP;
    std::shared_future<void> Gate(GateP.get_future());
    std::future<Response> Slow = Service.submitAsync(1, gatedBuilder(Gate, "b"));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    GateP.set_value();
    ASSERT_TRUE(Slow.get().Ok);
  }

  // Park the worker on document 2, queue ONE request for document 1
  // (depth 1 x ~40ms EWMA >> 5ms target), then offer a second: the
  // second must be rejected at arrival, without ever taking a queue
  // slot, while document 2 -- no EWMA yet -- is still admitted.
  std::promise<void> GateP;
  std::shared_future<void> Gate(GateP.get_future());
  std::future<Response> Parked = Service.submitAsync(2, gatedBuilder(Gate, "b"));
  while (Service.queueDepth() != 0)
    std::this_thread::yield();

  std::future<Response> Backlog = Service.submitAsync(1, makeSExprBuilder("(c)"));
  std::future<Response> ShedNow = Service.submitAsync(1, makeSExprBuilder("(d)"));
  Response R = ShedNow.get(); // resolves while the worker is still parked
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, ErrCode::Shed) << R.Error;
  EXPECT_NE(R.Error.find("shed at arrival"), std::string::npos) << R.Error;
  EXPECT_GE(R.RetryAfterMs, 1u);
  EXPECT_EQ(Service.metrics().ArrivalShed.load(), 1u);
  EXPECT_EQ(Service.metrics().Shed.load(), 1u);

  // The cold document is not collateral damage.
  std::future<Response> Cold = Service.submitAsync(2, makeSExprBuilder("(d)"));
  GateP.set_value();
  Response ParkedR = Parked.get();
  EXPECT_TRUE(ParkedR.Ok) << ParkedR.Error;
  Response BacklogR = Backlog.get();
  EXPECT_TRUE(BacklogR.Ok) << BacklogR.Error;
  Response ColdR = Cold.get();
  EXPECT_TRUE(ColdR.Ok) << ColdR.Error;
  // Exactly one document-1 request was refused; the admitted ones landed
  // (open is version 0, so each doc took two successful submits).
  EXPECT_EQ(Store.snapshot(1).Version, 2u);
  EXPECT_EQ(Store.snapshot(2).Version, 2u);
}

//===----------------------------------------------------------------------===//
// Parse-time admission caps (hostile-input fuzz)
//===----------------------------------------------------------------------===//

TEST(AdmissionTest, SeededFuzzOverDepthAndNodeCaps) {
  SignatureTable Sig = makeExpSignature();
  const uint64_t BaseSeed = tests::testSeed(20260807);
  const uint64_t Iters = tests::testIters("TRUEDIFF_CHAOS_ITERS", 60);
  SEED_TRACE(BaseSeed);
  Rng R(BaseSeed * 0x9e3779b97f4a7c15ull + 1);

  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    SCOPED_TRACE("iteration " + std::to_string(Iter));

    // Depth probe: nesting D+1 against MaxDepth=16.
    unsigned D = 1 + static_cast<unsigned>(R.below(40));
    {
      TreeContext Ctx(Sig);
      ParseLimits Limits;
      Limits.MaxDepth = 16;
      ParseResult P = parseSExpr(Ctx, deepExpr(D), Limits);
      if (D + 1 <= 16) {
        EXPECT_TRUE(P.ok()) << P.Error;
        EXPECT_EQ(P.Fail, ParseFail::None);
      } else {
        EXPECT_FALSE(P.ok());
        EXPECT_EQ(P.Fail, ParseFail::TooDeep) << P.Error;
        // The guard fires on the way down: the arena never grew past
        // what fits inside the cap.
        EXPECT_LE(Ctx.numNodes(), 2u * 16u + 1u);
      }
    }

    // Width probe: 2L-1 nodes against MaxNodes=63 (depth stays small).
    unsigned L = 1 + static_cast<unsigned>(R.below(64));
    {
      TreeContext Ctx(Sig);
      ParseLimits Limits;
      Limits.MaxNodes = 63;
      ParseResult P = parseSExpr(Ctx, balancedExpr(L), Limits);
      if (2 * L - 1 <= 63) {
        EXPECT_TRUE(P.ok()) << P.Error;
      } else {
        EXPECT_FALSE(P.ok());
        EXPECT_EQ(P.Fail, ParseFail::TooLarge) << P.Error;
        EXPECT_LE(Ctx.numNodes(), 64u);
      }
    }
  }
}

TEST(AdmissionTest, PythonAndJsonParsersHonorTheSameCaps) {
  // JSON: a 40-deep array nest against MaxDepth=8.
  {
    SignatureTable Sig = json::makeJsonSignature();
    TreeContext Ctx(Sig);
    std::string Deep(40, '[');
    Deep += "1";
    Deep += std::string(40, ']');
    ParseLimits Limits;
    Limits.MaxDepth = 8;
    json::JsonParseResult P = json::parseJson(Ctx, Deep, Limits);
    EXPECT_FALSE(P.ok());
    EXPECT_EQ(P.Fail, ParseFail::TooDeep) << P.Error;
  }
  // Python: a long module against a small node cap.
  {
    SignatureTable Sig = python::makePythonSignature();
    TreeContext Ctx(Sig);
    std::string Src;
    for (int I = 0; I != 50; ++I)
      Src += "x" + std::to_string(I) + " = " + std::to_string(I) + "\n";
    ParseLimits Limits;
    Limits.MaxNodes = 10;
    python::PyParseResult P = python::parsePython(Ctx, Src, Limits);
    EXPECT_FALSE(P.ok());
    EXPECT_EQ(P.Fail, ParseFail::TooLarge) << P.Error;
  }
  // Both parse fine without caps.
  {
    SignatureTable Sig = json::makeJsonSignature();
    TreeContext Ctx(Sig);
    EXPECT_TRUE(json::parseJson(Ctx, "[[[1]]]").ok());
  }
}

//===----------------------------------------------------------------------===//
// Memory budget
//===----------------------------------------------------------------------===//

TEST(AdmissionTest, BudgetStopsAParseMidFlightAndContextDeathReleasesIt) {
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(1); // any allocation exhausts it
  {
    TreeContext Ctx(Sig);
    Ctx.attachBudget(&Budget);
    ParseResult P = parseSExpr(Ctx, "(Add (a) (b))");
    EXPECT_FALSE(P.ok());
    EXPECT_EQ(P.Fail, ParseFail::OverBudget) << P.Error;
    // The overshoot is bounded by one node: the check runs before every
    // allocation.
    EXPECT_LE(Ctx.numNodes(), 1u);
    EXPECT_GT(Budget.used(), 0u);
  }
  // Tearing the context down returns every charged byte.
  EXPECT_EQ(Budget.used(), 0u);
}

TEST(OverloadTest, ExhaustedBudgetRejectsUpFrontAndRecoversOnErase) {
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(1);
  DocumentStore::Config StoreCfg;
  StoreCfg.MemBudget = &Budget;
  DocumentStore Store(Sig, StoreCfg);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.MemBudget = &Budget;
  DiffService Service(Store, Cfg);

  // The first single-node open fits (the budget check precedes each
  // allocation, and nothing is charged yet) and exhausts the budget.
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(a)")).Ok);
  EXPECT_TRUE(Budget.over());

  // Now every open/submit is refused at enqueue, with the typed error
  // and a retry hint, without reaching a parser.
  Response R = Service.open(2, makeSExprBuilder("(a)"));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Code, ErrCode::MemoryBudget) << R.Error;
  EXPECT_NE(R.Error.find("memory budget"), std::string::npos) << R.Error;
  EXPECT_GE(R.RetryAfterMs, 1u);
  EXPECT_GE(Service.metrics().BudgetRejected.load(), 1u);
  EXPECT_FALSE(Store.contains(2));

  // Reads still pass while the budget is exhausted.
  EXPECT_TRUE(Service.getVersion(1).Ok);

  // Erasing the document releases its arena's bytes; admission reopens.
  ASSERT_TRUE(Store.erase(1));
  EXPECT_EQ(Budget.used(), 0u);
  EXPECT_TRUE(Service.open(2, makeSExprBuilder("(b)")).Ok);
}

//===----------------------------------------------------------------------===//
// The rejection invariant: rejected requests leave the store untouched
//===----------------------------------------------------------------------===//

TEST(OverloadTest, EveryRejectionClassLeavesTheStoreByteIdentical) {
  SignatureTable Sig = makeExpSignature();
  DocumentStore Store(Sig);
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  DiffService Service(Store, Cfg);

  // Every accepted script must pass the LinearTypeChecker -- collected
  // from the listener so nothing accepted escapes the check.
  LinearTypeChecker Checker(Sig);
  std::mutex ScriptMu;
  Store.addScriptListener([&](DocId, uint64_t, DocumentStore::StoreOp Op,
                              const EditScript &S,
                              const DocumentStore::ScriptInfo &) {
    std::lock_guard<std::mutex> Lock(ScriptMu);
    TypeCheckResult TC = Op == DocumentStore::StoreOp::Open
                             ? Checker.checkInitializing(S)
                             : Checker.checkWellTyped(S);
    EXPECT_TRUE(TC.Ok) << TC.Error;
  });

  ParseLimits Limits;
  Limits.MaxDepth = 16;
  Limits.MaxNodes = 63;
  ASSERT_TRUE(
      Service.open(1, makeSExprBuilder("(Sub (Add (a) (b)) (b))", Limits)).Ok);

  const uint64_t BaseSeed = tests::testSeed(20260808);
  const uint64_t Iters = tests::testIters("TRUEDIFF_CHAOS_ITERS", 40);
  SEED_TRACE(BaseSeed);
  Rng R(BaseSeed * 0x9e3779b97f4a7c15ull + 7);

  DocumentSnapshot Base = Store.snapshot(1);
  ASSERT_TRUE(Base.Ok);
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    SCOPED_TRACE("iteration " + std::to_string(Iter));
    Response Rej;
    ErrCode Want = ErrCode::None;
    switch (R.below(6)) {
    case 0: // hostile depth
      Rej = Service.submit(1, makeSExprBuilder(deepExpr(30), Limits));
      Want = ErrCode::TreeTooDeep;
      break;
    case 1: // hostile width
      Rej = Service.submit(1, makeSExprBuilder(balancedExpr(64), Limits));
      Want = ErrCode::TreeTooLarge;
      break;
    case 2: // syntax garbage
      Rej = Service.submit(1, makeSExprBuilder("(Add (a", Limits));
      Want = ErrCode::BuildFailed;
      break;
    case 3: // unknown document
      Rej = Service.submit(99, makeSExprBuilder("(a)", Limits));
      Want = ErrCode::NoSuchDocument;
      break;
    case 4: // double open
      Rej = Service.open(1, makeSExprBuilder("(a)", Limits));
      Want = ErrCode::DocumentExists;
      break;
    default: // rollback of a missing document
      Rej = Service.rollback(99);
      Want = ErrCode::NoSuchDocument;
      break;
    }
    ASSERT_FALSE(Rej.Ok);
    EXPECT_EQ(Rej.Code, Want) << Rej.Error;

    DocumentSnapshot Now = Store.snapshot(1);
    ASSERT_TRUE(Now.Ok);
    EXPECT_EQ(Now.Version, Base.Version);
    EXPECT_EQ(Now.Text, Base.Text);
    EXPECT_EQ(Now.UriText, Base.UriText);
    EXPECT_EQ(Store.checkDigests(1), std::nullopt);
    EXPECT_EQ(Store.stats().NumDocuments, 1u);

    // Interleave an accepted submit now and then: the store moves only
    // through type-checked scripts, and the new state becomes the base
    // the next rejections must preserve.
    if (Iter % 7 == 6) {
      unsigned L = 1 + static_cast<unsigned>(R.below(16));
      Response Ok = Service.submit(1, makeSExprBuilder(balancedExpr(L), Limits));
      ASSERT_TRUE(Ok.Ok) << Ok.Error;
      Base = Store.snapshot(1);
      ASSERT_TRUE(Base.Ok);
    }
  }
  EXPECT_GE(Service.metrics().AdmissionRejected.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Wire hardening
//===----------------------------------------------------------------------===//

TEST(WireHardeningTest, FrameCapRejectsOversizedLinesWithTypedError) {
  std::string Big = "submit 1 " + std::string(300, 'x');
  WireCommand Cmd = parseWireCommand(Big, /*MaxFrameBytes=*/256);
  EXPECT_EQ(Cmd.K, WireCommand::Kind::Invalid);
  EXPECT_EQ(Cmd.Code, ErrCode::FrameTooLarge);
  EXPECT_NE(Cmd.Error.find("oversized frame"), std::string::npos);
  // Under the default cap the same line is fine (well, a syntax error in
  // the payload, but it reaches the verb parser).
  WireCommand Ok = parseWireCommand("get 1", 256);
  EXPECT_EQ(Ok.K, WireCommand::Kind::Get);
  EXPECT_EQ(Ok.Code, ErrCode::None);
}

TEST(WireHardeningTest, RetryHintsAreDroppedOnNonRetryableVerbs) {
  Response R;
  R.Ok = false;
  R.Error = "request queue full (backpressure)";
  R.Code = ErrCode::Backpressure;
  R.RetryAfterMs = 12;

  // Data verbs keep the hint, and the typed error class is named on
  // the err line so clients can branch without parsing prose.
  for (WireCommand::Kind K :
       {WireCommand::Kind::Open, WireCommand::Kind::Submit,
        WireCommand::Kind::Rollback, WireCommand::Kind::Get,
        WireCommand::Kind::Save}) {
    std::string Out = formatWireResponse(R, K);
    EXPECT_NE(Out.find(" code=backpressure"), std::string::npos) << Out;
    EXPECT_NE(Out.find(" retry_after_ms=12"), std::string::npos) << Out;
  }
  // ...verbs where a retry hint is meaningless drop it.
  for (WireCommand::Kind K :
       {WireCommand::Kind::Health, WireCommand::Kind::Stats,
        WireCommand::Kind::Recover, WireCommand::Kind::Quit,
        WireCommand::Kind::Invalid}) {
    std::string Out = formatWireResponse(R, K);
    EXPECT_EQ(Out.find("retry_after_ms"), std::string::npos) << Out;
  }
  // The verb-free overload still carries it (library callers see the
  // hint; gating is the wire front end's job).
  EXPECT_NE(formatWireResponse(R).find(" retry_after_ms=12"),
            std::string::npos);
}

TEST(WireHardeningTest, StatsExposeOverloadCounters) {
  SignatureTable Sig = makeExpSignature();
  MemoryBudget Budget(32u << 20);
  DocumentStore::Config StoreCfg;
  StoreCfg.MemBudget = &Budget;
  DocumentStore Store(Sig, StoreCfg);
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.MemBudget = &Budget;
  DiffService Service(Store, Cfg);
  ASSERT_TRUE(Service.open(1, makeSExprBuilder("(Add (a) (b))")).Ok);

  std::string J = Service.statsJson();
  for (const char *Key :
       {"\"shed\":", "\"shed_at_arrival\":", "\"admission_rejected\":",
        "\"budget_rejected\":", "\"doc_queues\":", "\"mem_used_bytes\":",
        "\"mem_budget_bytes\":", "\"quarantined\":"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " missing in " << J;
  // The budget gauges mirror live values.
  EXPECT_NE(J.find("\"mem_budget_bytes\":" + std::to_string(32u << 20)),
            std::string::npos)
      << J;
  EXPECT_EQ(J.find("\"mem_used_bytes\":0,"), std::string::npos) << J;
}
