//===- replica/Failover.cpp - Leader failover machinery --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Failover.h"

#include "blame/Provenance.h"

using namespace truediff;
using namespace truediff::replica;
using service::DocumentStore;

PromotionResult replica::promoteFollower(Follower &F, DocumentStore &Store,
                                         blame::ProvenanceIndex *Prov,
                                         ReplicationLog &Log,
                                         uint64_t NewEpoch) {
  PromotionResult Out;
  Out.Epoch = NewEpoch;

  // Fence first: from here on the old leader cannot feed this node, so
  // the export below is final, not a moving target.
  F.prepareForPromotion(NewEpoch);
  Follower::Export E = F.exportForPromotion();
  Out.LastSeq = E.LastSeq;

  std::vector<ReplicationLog::SeedDoc> Seeds;
  Seeds.reserve(E.Docs.size());
  for (Follower::ExportedDoc &D : E.Docs) {
    // URIs preserved: the promoted store must be byte-identical (URI
    // level) to the follower's applied state, or the convergence digests
    // would diverge on re-replication.
    service::StoreResult R =
        Store.restore(D.Doc, D.Version, restoreBuilder(D.TreeBlob),
                      std::move(D.History), std::move(D.OpenAuthor));
    if (!R.Ok) {
      Out.Error = "restore of document " + std::to_string(D.Doc) +
                  " failed: " + R.Error;
      return Out;
    }
    if (Prov != nullptr && !D.ProvBlob.empty())
      Prov->installSnapshot(D.Doc, D.ProvBlob);
    ReplicationLog::SeedDoc S;
    S.Doc = D.Doc;
    S.Incarnation = D.Incarnation;
    S.Version = D.Version;
    S.LastSeq = D.DocSeq;
    Seeds.push_back(S);
    ++Out.Docs;
  }

  // Seed before attach: the first post-promotion commit must continue
  // the exported chains (same incarnations, seq = LastSeq + 1), or
  // re-pointed followers would reject the stream.
  Log.seed(E.LastSeq, Seeds);
  Log.attach();
  Out.Ok = true;
  return Out;
}
