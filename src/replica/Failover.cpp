//===- replica/Failover.cpp - Leader failover machinery --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Failover.h"

using namespace truediff;
using namespace truediff::replica;

PromotionResult replica::promoteFollower(Follower &F, uint64_t NewEpoch) {
  PromotionResult Out;
  Out.Epoch = NewEpoch;

  // Fence first: from here on neither the old leader nor anything else
  // feeds this node, so the position below is final, not a moving target.
  std::optional<Follower::Position> P = F.prepareForPromotion(NewEpoch);
  if (!P) {
    Out.Error = "already promoted: a demoted leader rejoins as a follower";
    return Out;
  }
  Out.Docs = P->Docs.size();
  Out.LastSeq = P->LastSeq;

  // Seed before attach: the first post-promotion commit must continue
  // the applied chains (same incarnations, seq = LastSeq + 1), or
  // re-pointed followers would reject the stream.
  Out.Log = std::make_unique<ReplicationLog>(F.store());
  Out.Log->setProvenanceSource(
      [&F](uint64_t Doc) { return F.provenance().snapshotDoc(Doc); });
  Out.Log->seed(P->LastSeq, P->Docs);
  Out.Log->attach();
  Out.Ok = true;
  return Out;
}
