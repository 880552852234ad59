//===- blame/Provenance.h - Per-node attribution index ----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The provenance index of the blame subsystem: for every live node URI
/// of every document, which revision introduced the node and which
/// revision last touched it (moved or re-literalled it), and who
/// authored those revisions.
///
/// The index is maintained *incrementally* from the DocumentStore's
/// script stream -- the same op+version-contextualized stream the
/// replication log and the persistence layer already consume. Each
/// applied script updates the index in O(|script|): a Load introduces
/// its node at the emitting version, an Unload erases it, Detach/Attach
/// re-attribute the node as moved, Update as edited in place. History is
/// never replayed on the query path; a blame lookup is one hash probe
/// regardless of how many revisions the document has seen.
///
/// Attribution rules (DESIGN.md section 14):
///
///   introduce   Load sets both the intro and last attribution to the
///               emitting (version, author). A node attached in the same
///               script that loaded it stays "insert" -- placing a
///               freshly created node is part of its introduction, not a
///               move.
///   move        Detach/Attach of a pre-existing node re-attributes only
///               the *last* touch; the intro attribution is permanent.
///   update      Update re-attributes the last touch, kind "update".
///   rollback    The inverse script is folded with the same mechanics,
///               but every touched node is attributed to the rollback's
///               *target* version and that version's author (the store
///               passes them in ScriptInfo), with kind "rollback" --
///               rollback restores earlier work, it does not author new
///               work. A node the inverse re-loads gets its intro reset
///               to the target version: its original introduction was
///               forgotten when the rolled-back script unloaded it.
///
/// The fold is a pure function of the (op, version, author, script)
/// sequence, so an index maintained incrementally is byte-identical --
/// via the canonical serialization below -- to one produced by replaying
/// the full stream from scratch. That is the subsystem's correctness
/// property (tests/blame_test.cpp) and what makes durability and
/// replication work: snapshots carry the serialized index, recovery and
/// follower catch-up rebuild the tail by folding the same records the
/// tree state is rebuilt from.
///
/// Serialization is canonical: nodes sorted by URI, author ids remapped
/// to first-use order over that walk. Two indexes holding the same
/// attribution serialize to the same bytes regardless of internal
/// interning order, so blobs can be compared for equality directly.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_BLAME_PROVENANCE_H
#define TRUEDIFF_BLAME_PROVENANCE_H

#include "service/DocumentStore.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace truediff {
namespace blame {

/// How a node's last-touch revision affected it.
enum class ProvOp : uint8_t {
  Insert = 0,   ///< introduced (Load) by that revision
  Move = 1,     ///< detached/attached by that revision
  Update = 2,   ///< literals rewritten in place by that revision
  Rollback = 3, ///< restored by rolling back to that revision
};

/// Returns "insert", "move", "update", "rollback".
const char *provOpName(ProvOp Op);

/// Resolved attribution of one live node, as returned by queries.
struct NodeProvenance {
  uint64_t IntroVersion = 0;
  uint64_t LastVersion = 0;
  ProvOp LastOp = ProvOp::Insert;
  /// Empty = unattributed.
  std::string IntroAuthor;
  std::string LastAuthor;
};

class ProvenanceIndex {
public:
  struct Config {
    /// Budget the index's estimated bytes are charged against -- the
    /// same process-wide budget the document arenas account to, so
    /// admission control sees tree + index memory as one pool. Null =
    /// uncharged (stats still report the estimate). Must outlive the
    /// index.
    MemoryBudget *MemBudget = nullptr;
  };

  ProvenanceIndex();
  explicit ProvenanceIndex(Config C);
  ~ProvenanceIndex();

  ProvenanceIndex(const ProvenanceIndex &) = delete;
  ProvenanceIndex &operator=(const ProvenanceIndex &) = delete;

  /// Subscribes to \p Store's script and erase streams. Register before
  /// serving traffic (the store's listener contract).
  void attach(service::DocumentStore &Store);

  /// Folds one applied script into the index -- the core incremental
  /// step, shared by the store listener, crash recovery, follower
  /// catch-up, and the from-scratch replay the property test compares
  /// against. O(|Script|). For rollback, \p Version and \p Author are
  /// the *target* version and its author (see the file comment).
  void apply(service::DocId Doc, uint64_t Version,
             service::DocumentStore::StoreOp Op, std::string_view Author,
             const EditScript &Script);

  /// Drops \p Doc's index (document erased) and releases its budget.
  void eraseDoc(service::DocId Doc);

  /// Drops every document's index.
  void clear();

  /// Looks up one live node; counts a blame query. Returns false when
  /// the document or the URI is unknown.
  bool blameNode(service::DocId Doc, URI Uri, NodeProvenance &Out) const;

  /// Read-only view of one document's index, for bulk rendering without
  /// a lock/resolve round trip per node. Valid only inside withDocIndex.
  class DocView {
  public:
    /// Resolved attribution of \p Uri; false if not live.
    bool lookup(URI Uri, NodeProvenance &Out) const;
    uint64_t version() const;

  private:
    friend class ProvenanceIndex;
    explicit DocView(const void *D) : D(D) {}
    const void *D;
  };

  /// Runs \p Fn under \p Doc's index lock; counts one blame query.
  /// Returns false when the document is unknown.
  bool withDocIndex(service::DocId Doc,
                    const std::function<void(const DocView &)> &Fn) const;

  /// Canonical serialization of \p Doc's index (see file comment); the
  /// empty-index blob when the document is unknown. The blob travels in
  /// document snapshots and replication snapshot transfers.
  std::string snapshotDoc(service::DocId Doc) const;

  /// Installs \p Blob as \p Doc's entire index state, replacing whatever
  /// was there. Returns false (leaving the previous state untouched) on
  /// a malformed blob.
  bool installSnapshot(service::DocId Doc, std::string_view Blob);

  struct DocStats {
    service::DocId Doc = 0;
    uint64_t Nodes = 0;
    uint64_t Bytes = 0;
    uint64_t Queries = 0;
  };

  struct Stats {
    uint64_t Docs = 0;
    uint64_t Nodes = 0;
    /// Estimated index bytes (what the budget is charged).
    uint64_t Bytes = 0;
    /// Blame/history lookups served from the index.
    uint64_t Queries = 0;
    /// Per-document breakdown, ordered by document id.
    std::vector<DocStats> PerDoc;
  };

  Stats stats() const;

  /// `"blame":{...}` JSON fragment for the service stats augmenter:
  /// blame_queries, provenance_nodes, provenance_bytes plus the
  /// per-document breakdown.
  std::string statsJsonFragment() const;

private:
  struct DocIndex;

  std::shared_ptr<DocIndex> find(service::DocId Doc) const;
  std::shared_ptr<DocIndex> findOrCreate(service::DocId Doc);
  void rechargeLocked(DocIndex &D) const;

  const Config Cfg;
  mutable std::mutex Mu;
  /// Ordered so stats and per-doc JSON render deterministically.
  std::map<service::DocId, std::shared_ptr<DocIndex>> Docs;
};

} // namespace blame
} // namespace truediff

#endif // TRUEDIFF_BLAME_PROVENANCE_H
