//===- replica/Failover.h - Leader failover machinery -----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Promotes a follower replica to leader. Promotion is a role flip, not
/// a copy: the follower's own DocumentStore -- the typed trees its
/// record stream built, history rings and provenance index included --
/// becomes the leader's store. The paper's typed edit scripts stay the
/// correctness backbone: the follower only ever applied type-checked,
/// gap-free script sequences, so every document it holds is the product
/// of a committed record prefix. Three steps:
///
///   1. fence -- Follower::prepareForPromotion(NewEpoch): the follower
///               drops its leader link, raises its epoch fencing floor
///               (so the old leader can never be accepted again) and
///               applies nothing more, so its state is final;
///   2. seed  -- a ReplicationLog over the follower's store continues
///               from the follower's position: its last global seq and
///               each document's incarnation, version and seq, so
///               re-pointed followers accept the new records as a
///               seamless continuation of each per-document chain;
///   3. flip  -- the log attaches to the store, and the caller builds
///               the leader stack (Leader endpoint at the new epoch,
///               DiffService, blame handlers over Follower::provenance())
///               on that same store, then flips the node's RoleState to
///               Leader.
///
/// Follower reads keep working through the flip and see every write the
/// promoted leader commits. Peers re-point at the new leader: followers
/// at or behind the promoted seq catch up normally; the demoted leader's
/// divergent, never-acked suffix is not replayable, and such a node
/// rejoins by state transfer into fresh follower state (see DESIGN.md
/// §15).
///
/// FailoverHandler is the request-path half: one RequestHandler that
/// routes by the node's current role, so a single listening port serves
/// the follower's read protocol before promotion and the full leader
/// protocol after.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_REPLICA_FAILOVER_H
#define TRUEDIFF_REPLICA_FAILOVER_H

#include "net/Role.h"
#include "replica/Follower.h"
#include "replica/ReplicationLog.h"

#include <atomic>
#include <memory>

namespace truediff {
namespace replica {

struct PromotionResult {
  bool Ok = false;
  std::string Error;
  /// Documents the promoted store holds.
  uint64_t Docs = 0;
  /// The committed-prefix seq the promoted state reproduces; the seeded
  /// log continues from here.
  uint64_t LastSeq = 0;
  uint64_t Epoch = 0;
  /// The seeded log, attached to F.store() and to F.provenance() as its
  /// snapshots' provenance source: what a Leader endpoint at Epoch
  /// serves. F must outlive it, and it must outlive every commit on
  /// F.store().
  std::unique_ptr<ReplicationLog> Log;
};

/// Runs the fence/seed/flip sequence on \p F (see above). On return
/// F.store() is the leader's store: it serves exactly the committed
/// prefix the follower had applied, and every commit on it is recorded
/// in the returned log. Fails if \p F was promoted before: a node
/// promotes once, and a demoted ex-leader that follows again keeps the
/// log of its first promotion attached.
PromotionResult promoteFollower(Follower &F, uint64_t NewEpoch);

/// Routes requests by the node's current role: Leader serves the full
/// service protocol (writes included), anything else serves the
/// follower's read protocol. The writer handler may be installed later
/// -- promotion constructs it once the log exists -- via setWriter(),
/// which is safe against concurrent handle() calls.
class FailoverHandler : public net::RequestHandler {
public:
  FailoverHandler(net::RoleState &Role, net::RequestHandler &Reader)
      : Role(Role), Reader(Reader) {}

  void setWriter(net::RequestHandler *W) { Writer.store(W); }

  void handle(net::NetRequest Req,
              std::function<void(service::Response)> Done) override {
    net::RequestHandler *W = Writer.load();
    if (W != nullptr && Role.writable()) {
      W->handle(std::move(Req), std::move(Done));
      return;
    }
    Reader.handle(std::move(Req), std::move(Done));
  }

private:
  net::RoleState &Role;
  std::atomic<net::RequestHandler *> Writer{nullptr};
  net::RequestHandler &Reader;
};

} // namespace replica
} // namespace truediff

#endif // TRUEDIFF_REPLICA_FAILOVER_H
