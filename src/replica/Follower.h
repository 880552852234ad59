//===- replica/Follower.h - Follower replica ---------------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A follower replica: connects to a leader, catches up (tail replay or
/// snapshot transfer), then applies the live record stream. Its documents
/// live in a service::DocumentStore of its own, fed by
/// DocumentStore::applyRecord: every script is re-verified on arrival --
/// the linear type checker (Definitions 3.1/3.2), then syntactic
/// compliance edit by edit (Definition 3.5) -- and applied to the typed
/// tree in place by the document's kept ScriptApplier (truechange/
/// Apply.h). So a follower only ever holds state a well-typed, compliant
/// script sequence produces; replication cannot smuggle in a state the
/// type system would reject. The standard semantics of Figure 2 is not
/// involved: it stays the reference the applier is tested against.
/// Snapshot transfers decode straight into the store, URIs preserved.
/// Promotion (replica/Failover.h) hands this same store, with its
/// provenance index, to the leader stack.
///
/// Consistency machinery:
///   - a global, gap-free seq: a gap after catch-up means lost records,
///     triggering a fresh handshake on the same link;
///   - per-document seq/version/incarnation checks: a mismatch (evicted
///     history, erase/reopen races) triggers a per-document ResyncReq
///     answered with a snapshot;
///   - epoch fencing: a leader announcing an epoch below the highest
///     this follower has ever seen is stale and is rejected.
///
/// Reads print straight from the stored typed tree, exactly as the
/// leader's store does: the get verb gets the plain s-expression,
/// byte-identical to the leader's; read() adds the URI-subscripted form
/// and its summaryDigest -- the byte-identical convergence check the
/// tests assert against the leader -- and the anti-entropy check hashes
/// that same URI form. Blame and history are the leader's own renderers
/// (blame/Render.h) over the follower's store and its provenance index,
/// which listens to the store as the leader's does.
///
/// Threading: records apply on the event-loop thread under the state
/// mutex, which guards the replication metadata. Reads come from any
/// thread and take only the document's lock in the store, so a read of
/// one document never waits for a record of another. connectTo() blocks
/// the calling thread until the handshake completes (never call it from
/// the loop thread).
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_REPLICA_FOLLOWER_H
#define TRUEDIFF_REPLICA_FOLLOWER_H

#include "blame/Provenance.h"
#include "net/EventLoop.h"
#include "net/NetServer.h"
#include "net/Role.h"
#include "replica/Protocol.h"
#include "replica/ReplicationLog.h"
#include "service/DocumentStore.h"

#include <condition_variable>
#include <mutex>
#include <optional>

namespace truediff {
namespace replica {

class Follower {
public:
  struct Config {
    /// Fencing floor: leaders announcing an epoch below this are
    /// rejected. Updated as leaders are accepted.
    uint64_t MaxEpochSeen = 0;
    unsigned HandshakeTimeoutMs = 5000;
    size_t MaxFrameBytes = net::MaxBinaryFrameBytes;
  };

  Follower(net::EventLoop &Loop, const SignatureTable &Sig, Config C);
  Follower(net::EventLoop &Loop, const SignatureTable &Sig);
  ~Follower();

  /// Connects to a leader and blocks until the handshake completes (the
  /// LeaderHello was accepted), the leader was rejected as stale, or the
  /// timeout expired. The loop must already be running; must not be
  /// called from the loop thread. Reconnecting after a disconnect keeps
  /// the applied state and catches up from lastSeq().
  bool connectTo(const std::string &Host, uint16_t Port,
                 std::string *Err = nullptr);

  /// Drops the leader link (no-op if not connected). The applied state
  /// stays readable.
  void disconnect();

  bool connected() const;
  /// True once the current link delivered its CatchupDone.
  bool caughtUp() const;
  uint64_t lastSeq() const;

  struct ReadResult {
    bool Ok = false;
    std::string Error;
    uint64_t Version = 0;
    uint64_t TreeSize = 0;
    std::string Text;      ///< plain s-expression
    std::string UriText;   ///< s-expression with URI subscripts
    Digest Summary;        ///< summaryDigest(UriText): the convergence probe
  };
  /// Both s-expression forms plus the digest of the URI form.
  ReadResult read(uint64_t Doc) const;
  /// What the get verb answers: Version, TreeSize and Text only.
  ReadResult readText(uint64_t Doc) const;
  bool contains(uint64_t Doc) const;

  /// Blame/history reads served from the follower's own store and
  /// provenance index, maintained from the record stream (and installed
  /// from snapshot transfers), so attribution answers do not need the
  /// leader. Rendering is shared with the leader (blame/Render.h), so a
  /// caught-up follower answers byte-identically.
  service::Response blameRead(uint64_t Doc, bool HasUri, URI Uri) const;
  service::Response historyRead(uint64_t Doc, URI Uri) const;

  struct Stats {
    uint64_t LastSeq = 0;
    uint64_t Epoch = 0;
    uint64_t MaxEpochSeen = 0;
    uint64_t Docs = 0;
    uint64_t RecordsApplied = 0;
    uint64_t SnapshotsInstalled = 0;
    uint64_t ResyncsRequested = 0;
    uint64_t GapRehellos = 0;
    uint64_t StaleLeaderRejects = 0;
    uint64_t OrphanRecords = 0;
    uint64_t DupRecords = 0;
    uint64_t SummariesReceived = 0;
    /// Anti-entropy summary entries whose version or content digest
    /// disagreed with our applied state (each one triggered a resync).
    uint64_t SummaryMismatches = 0;
  };
  Stats stats() const;
  std::string statsJson() const;

  /// The applied state. After promotion (replica/Failover.h) it is the
  /// leader's store, written by the leader stack.
  service::DocumentStore &store() { return Store; }
  const service::DocumentStore &store() const { return Store; }
  /// The per-node attribution index, attached to store(): after
  /// promotion the leader's blame handlers serve from it.
  blame::ProvenanceIndex &provenance() { return Prov; }

  /// Test hook: corrupts \p Doc's applied version so the next record for
  /// it fails the version check and triggers a ResyncReq.
  void injectGapForTest(uint64_t Doc);

  /// Test hook: silently mutates one literal of \p Doc's applied tree
  /// *without* touching its version or seq -- divergence no gap or
  /// version check can ever notice, only the anti-entropy digest
  /// comparison. Returns false if the document is absent or its tree
  /// holds no literal to mutate.
  bool corruptDocForTest(uint64_t Doc);

  /// Where the applied state stands: the global seq and, per document,
  /// the chain a promoted leader's log continues.
  struct Position {
    uint64_t LastSeq = 0;
    std::vector<ReplicationLog::SeedDoc> Docs;
  };

  /// The fence of a promotion (see replica/Failover.h): drops the leader
  /// link, raises the fencing floor to \p NewEpoch -- so no leader of an
  /// older epoch can ever be accepted again -- and stops applying
  /// records and snapshots, so the applied state is final. Returns its
  /// position, taken under the state mutex after the fence went up; or
  /// nothing if this follower was promoted before. A later connectTo()
  /// lifts the fence: the node rejoins as a follower from empty state.
  std::optional<Position> prepareForPromotion(uint64_t NewEpoch);

private:
  /// Replication metadata of one stored document; its tree, version and
  /// history live in Store.
  struct ReplicaDoc {
    uint64_t Incarnation = 0;
    /// Global seq of the newest record reflected in the stored document.
    uint64_t DocSeq = 0;
    /// A ResyncReq is in flight; records are ignored until the snapshot
    /// lands.
    bool Resyncing = false;
    /// Handshake generation that last refreshed this doc; snapshot-mode
    /// catch-up prunes docs the dump did not refresh.
    uint64_t RefreshGen = 0;
  };

  enum class Handshake { Idle, Pending, Accepted, Stale, Failed };

  void onData(net::Conn &C);
  bool parseOne(net::Conn &C);
  void onLeaderHello(net::Conn &C, const LeaderHello &LH);
  void onRecord(net::Conn &C, const RecordMsg &R);
  void onSnapshot(const DocSnapshotMsg &S);
  void onShardSummary(net::Conn &C, const ShardSummaryMsg &M);
  void onCatchupDone(const CatchupDoneMsg &D);
  void applyDocRecord(net::Conn &C, const RecordMsg &R);
  void requestResync(net::Conn &C, uint64_t Doc);
  /// Drops \p Doc from the metadata and the store (whose erase listener
  /// drops its provenance).
  void dropDoc(uint64_t Doc);

  net::EventLoop &Loop;
  const SignatureTable &Sig;
  const Config Cfg;

  mutable std::mutex Mu;
  std::condition_variable HandshakeCv;
  Handshake HsState = Handshake::Idle;
  net::Conn *Link = nullptr; ///< loop-thread use only
  bool IsConnected = false;
  bool CatchupSeen = false;
  /// Set by prepareForPromotion: nothing from a leader applies any more.
  /// connectTo() lifts it after emptying the store.
  bool Fenced = false;
  /// Set by the first prepareForPromotion, never cleared.
  bool Promoted = false;
  uint64_t HelloGen = 0;
  uint64_t LastSeq = 0;
  /// Highest seq acked to the current leader; acks fire when a data
  /// batch advanced LastSeq past this.
  uint64_t LastAckSent = 0;
  uint64_t Epoch = 0;
  uint64_t MaxEpochSeen = 0;
  /// Same key set as Store's documents.
  std::unordered_map<uint64_t, ReplicaDoc> Docs;
  Stats Counters;
  /// The applied documents; reads take only its document locks.
  service::DocumentStore Store;
  /// Per-node attribution, folded from the store's script stream (and
  /// installed from snapshot transfers).
  blame::ProvenanceIndex Prov;
};

/// A TreeBuilder that decodes an encodeTree blob with its URIs preserved
/// and continues the document's URI counter from \p NextUri (0 = not
/// recorded): how a transferred document is installed into a store.
/// \p Blob must outlive the builder.
service::TreeBuilder restoreBuilder(const std::string &Blob, URI NextUri);

/// Serves the follower's state through a NetServer: get/stats/health
/// work, every write answers ErrCode::NotLeader -- carrying the leader's
/// address and a retry hint when a RoleState is wired in. This is the
/// follower's read endpoint -- clients point reads here and writes at
/// the leader -- and also the follower's admin endpoint: the promote
/// hook, when set, turns this node into the leader (replica/Failover).
class ReplicaReadHandler : public net::RequestHandler {
public:
  struct Config {
    /// Source of the leader address / retry hint attached to not_leader
    /// answers. Null = bare not_leader. Must outlive the handler.
    net::RoleState *Role = nullptr;
    /// promote <epoch>: run the failover machinery. Unset = error.
    std::function<service::Response(uint64_t NewEpoch)> OnPromote;
    /// demote [<host:port>]: update the redirect hint. Unset = error.
    std::function<service::Response(std::string LeaderAddr)> OnDemote;
  };

  explicit ReplicaReadHandler(Follower &F) : F(F) {}
  ReplicaReadHandler(Follower &F, Config C) : F(F), Cfg(std::move(C)) {}

  void handle(net::NetRequest Req,
              std::function<void(service::Response)> Done) override;

private:
  Follower &F;
  const Config Cfg;
};

} // namespace replica
} // namespace truediff

#endif // TRUEDIFF_REPLICA_FOLLOWER_H
