//===- service/DocumentStore.h - Versioned live-document store --*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded store of live documents -- the version-control
/// and database use cases the paper motivates (Section 1), grown into a
/// subsystem. Each document owns its TreeContext and current Tree plus a
/// bounded ring of applied edit scripts, so any document can be rolled
/// back version by version (inverting the newest script via
/// truechange/Inverse when the rollback runs) or its history replayed by
/// a subscriber.
///
/// Locking model: a shard mutex guards only the DocId -> Document map;
/// every document has its own mutex that serialises all tree access. This
/// keeps the share-assignment state of one diff single-threaded (as the
/// truediff algorithm requires -- Tree nodes carry mutable diffing state)
/// while diffs on independent documents proceed in parallel. No code path
/// acquires a shard mutex while holding a document mutex, so the two
/// levels cannot deadlock.
///
/// Rollback works in URI space, in place: the inverse of the newest
/// recorded script is applied to the stored tree with applyChecked
/// (truechange/Apply.h) --
/// type-checked, compliance-checked edit by edit, and undone if any edit
/// fails -- so the restored tree keeps its historical URIs and the
/// remaining history ring stays meaningful for further rollbacks.
/// Rollback commits nothing until the inverse has applied: if any step
/// fails (e.g. the requested version's record was evicted from the
/// ring), the document -- tree, context, history -- is left exactly as
/// it was and a clean error is returned; a torn document is never
/// observable.
///
/// Arenas: a document's arena holds its stored tree plus the garbage that
/// in-place edits leave behind -- nodes a submit or rollback unloaded.
/// A submit builds its target tree in an arena of its own, which is
/// released when the submit returns: the diff moves reused nodes over
/// from the stored tree and builds the nodes it loads in the document's
/// arena, so the target is dead once diffed. (The replace-root fallback
/// is the exception: its new stored tree is the target, so the request
/// arena becomes the document's.) Once the garbage outgrows the live
/// tree (Config::CompactionFactor), the arena is compacted by a
/// URI-preserving typed copy into a fresh context.
///
/// Digest cache (truediff Step 1, paper Section 4.2): every stored tree
/// carries its keyed structural/literal digests, heights, and sizes in
/// its nodes, so they persist across requests. The lifecycle is
///   populate     at open (tree construction hashes),
///   invalidate   on submit and rollback along the root-to-edit paths the
///                applied script touched (TrueDiff's and applyChecked's
///                dirty marks), rehashing only those paths, and
///   drop         on arena compaction, whose URI-preserving copy
///                re-derives every digest from scratch.
/// A warm diff therefore skips rehashing the unchanged bulk of the stored
/// tree. Config::PersistDigests turns the cache off, which recomputes the
/// stored tree's digests from scratch on every diff (the cold path); cold
/// and warm diffs produce byte-identical edit scripts.
///
/// Text cache: a get answers with the plain s-expression of the current
/// version. The version's first read renders it and keeps it with the
/// document; later reads of the same version copy it instead of printing
/// the tree again. Every path that changes the tree drops the text
/// (dropText); compaction keeps it, as its copy preserves the tree's text
/// and URIs. The URI form snapshot() adds is rendered on every call.
///
/// Replica mode: a follower replica holds its documents in a store too,
/// fed by applyRecord() with the scripts its leader's store committed.
/// Each such document keeps one ScriptApplier across records, so its URI
/// index is built once, not once per record; the applier is dropped
/// whenever the tree changes any other way (compaction, repair, a
/// leader-side submit or rollback) and rebuilt by the next record.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SERVICE_DOCUMENTSTORE_H
#define TRUEDIFF_SERVICE_DOCUMENTSTORE_H

#include "tree/Tree.h"
#include "truechange/Apply.h"
#include "truechange/Edit.h"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace truediff {
namespace service {

/// Identifies one live document in the store.
using DocId = uint64_t;

/// Typed cause of a failed service or store operation. The wire protocol
/// keeps its human-readable `err <message>` lines; the code travels on
/// the API result so clients, the shedding logic, and tests can switch
/// on the cause without string matching.
enum class ErrCode : uint8_t {
  None = 0,         ///< no error, or an unclassified failure
  NoSuchDocument,   ///< the document does not exist
  DocumentExists,   ///< open() of an existing document
  BuildFailed,      ///< builder failed for a non-admission reason (syntax)
  TreeTooDeep,      ///< parse-time depth cap exceeded (ParseFail::TooDeep)
  TreeTooLarge,     ///< parse-time node cap exceeded (ParseFail::TooLarge)
  MemoryBudget,     ///< process-wide memory budget exhausted
  FrameTooLarge,    ///< wire frame exceeded the byte cap
  Backpressure,     ///< global or per-document queue full
  Shed,             ///< shed by sojourn-time overload control
  DeadlineExpired,  ///< deadline passed while queued
  Shutdown,         ///< service is shut down
  HistoryExhausted, ///< rollback past the retained history ring
  MalformedFrame,   ///< binary wire frame or payload failed to decode
  NotLeader,        ///< write sent to a read-only follower replica
  NoSuchNode,       ///< blame/history query for a URI with no live node
  CasMismatch,      ///< submit's expected version != the current version
  Quarantined,      ///< document failed an integrity check; writes rejected
};

/// Short stable name for \p C (for logs and stats).
const char *errCodeName(ErrCode C);

/// Maps a parser's typed failure to the store/service error code.
inline ErrCode errCodeForParseFail(ParseFail F) {
  switch (F) {
  case ParseFail::TooDeep:
    return ErrCode::TreeTooDeep;
  case ParseFail::TooLarge:
    return ErrCode::TreeTooLarge;
  case ParseFail::OverBudget:
    return ErrCode::MemoryBudget;
  case ParseFail::None:
  case ParseFail::Syntax:
    break;
  }
  return ErrCode::BuildFailed;
}

/// What a TreeBuilder produced: a tree, or an error message with a typed
/// cause (admission rejections vs. plain build failures).
struct BuildResult {
  Tree *Root = nullptr;
  std::string Error;
  ErrCode Code = ErrCode::None;
};

/// Builds a version of a document inside \p Ctx: the document's own
/// context for open, restore and repair, an arena owned by the request
/// for submit. Called under the document lock, so it must not call back
/// into the store. Returning a null Root fails the request with Error.
using TreeBuilder = std::function<BuildResult(TreeContext &)>;

/// Result of a mutating store operation.
struct StoreResult {
  bool Ok = false;
  std::string Error;
  /// Typed cause when !Ok (ErrCode::None if unclassified).
  ErrCode Code = ErrCode::None;
  /// Version after the operation (0 = freshly opened).
  uint64_t Version = 0;
  /// open: the initializing script; submit: the forward script;
  /// rollback: the inverse script that was applied.
  EditScript Script;
  /// submit: source + target node count (throughput accounting).
  uint64_t NodesDiffed = 0;
  /// Node count of the document's tree after the operation.
  uint64_t TreeSize = 0;
  /// submit: nodes of the stored tree whose Step-1 digests were
  /// recomputed serving this request -- only the touched root-to-edit
  /// paths when digests are persisted (warm), the full source and patched
  /// trees when not (cold).
  uint64_t NodesRehashed = 0;
  /// submit: the emitted script is the replace-root fallback (see
  /// SubmitOptions::UseFallback), not a minimal diff.
  bool UsedFallback = false;
};

/// Per-call options for DocumentStore::submit.
struct SubmitOptions {
  /// Consulted once, after the builder produced the target tree (the
  /// deadline check must account for build time) but before the diff
  /// runs. Returning true skips the diff and commits the type-checked
  /// replace-root script instead: invert(init(current)) ++ init(target)
  /// -- unload the old tree, load and attach the new one. Well-typed by
  /// construction (truechange Thm 3.8: the inverse of a well-typed
  /// script is well-typed, and init scripts are the paper's Def 3.2),
  /// so a degraded answer still upholds every script guarantee; it is
  /// just not concise. Null means never.
  std::function<bool()> UseFallback;
  /// Who authored the submitted revision; recorded on the version's
  /// history-ring entry and handed to script listeners, so provenance
  /// consumers (src/blame) can attribute the nodes the script touches.
  /// Empty = unattributed.
  std::string Author;
  /// Optimistic-concurrency guard: when set, the submit only applies if
  /// the document's current version equals this, failing with
  /// ErrCode::CasMismatch (and the current version in
  /// StoreResult::Version) otherwise. A client that retries a timed-out
  /// submit with the same expected version can never apply it twice --
  /// the second application sees a bumped version and fails the guard --
  /// which is what makes at-least-once network retries exactly-once at
  /// the store.
  std::optional<uint64_t> ExpectedVersion;
};

/// Read-only view of a document's current state.
struct DocumentSnapshot {
  bool Ok = false;
  std::string Error;
  uint64_t Version = 0;
  uint64_t TreeSize = 0;
  /// Plain s-expression of the current tree (the wire tree format).
  std::string Text;
  /// S-expression with URI subscripts; stable across rollback, so tests
  /// can assert exact (URI-level) restoration.
  std::string UriText;
  /// The document is quarantined: an integrity check found its in-memory
  /// state corrupt and repair has not (yet) succeeded. The snapshot is
  /// still returned -- a possibly-wrong answer plus an explicit warning
  /// beats silence -- but callers must surface the warning.
  bool Quarantined = false;
  /// Why the document was quarantined (empty when !Quarantined).
  std::string QuarantineReason;
};

/// Aggregate store gauges.
struct StoreStats {
  uint64_t NumDocuments = 0;
  uint64_t VersionsRetained = 0;
  uint64_t LiveNodes = 0;
  /// Nodes held by all document arenas, live or dead: LiveNodes plus the
  /// garbage in-place edits left behind that compaction has not yet
  /// reclaimed.
  uint64_t ArenaNodes = 0;
  /// Total nodes rehashed serving submits (see StoreResult::NodesRehashed).
  uint64_t NodesRehashed = 0;
  /// Total stored-tree nodes whose persisted digests a warm submit reused
  /// instead of rehashing: sum over submits of patched-tree size minus
  /// rehashed paths. Zero when digests are not persisted.
  uint64_t NodesDigestCacheSaved = 0;
  /// Documents currently quarantined by an integrity check.
  uint64_t Quarantined = 0;
  /// Arena compactions since the store was created.
  uint64_t Compactions = 0;
  /// Plain-text renders of a document version since the store was
  /// created. Reads of a version after its first copy the cached text, so
  /// reads minus renders is the cache's hit count.
  uint64_t TextRenders = 0;
};

/// \p S as the `"store":{...}` member of a stats reply: the one rendering
/// of store gauges, shared by the leader's and the follower's `stats`.
std::string storeStatsJson(const StoreStats &S);

class DocumentStore {
public:
  struct Config {
    /// Number of independently locked map shards.
    size_t NumShards = 16;
    /// Bound of the per-document history ring; rollback depth is limited
    /// to this many versions.
    size_t HistoryCapacity = 32;
    /// Compact a document's arena when it holds more than
    /// CompactionFactor * treeSize + 256 nodes, live or unloaded. 0
    /// disables compaction.
    size_t CompactionFactor = 8;
    /// Keep each stored tree's Step-1 digests warm across requests and
    /// rehash only the root-to-edit paths a submit touches. When false,
    /// the stored tree's digests are recomputed from scratch before every
    /// diff and the patched tree is fully rehashed after it (the cold
    /// path a stateless diff service pays). Purely an optimisation: the
    /// emitted edit scripts are byte-identical either way.
    bool PersistDigests = true;
    /// Process-wide memory budget every document context and every
    /// submit's request arena accounts against (open, submit, restore,
    /// repair, rollback and compaction rebuilds). Open and submit
    /// builders observe it via TreeContext::overBudget() and refuse once
    /// it is exhausted; restore and repair install already-accepted
    /// state, which the budget counts but never refuses. A request
    /// arena's charge is released when its submit returns. Null =
    /// unlimited. Must outlive the store.
    MemoryBudget *MemBudget = nullptr;
  };

  /// Which store operation a script listener is observing.
  enum class StoreOp : uint8_t {
    Open,     ///< initializing script, version 0
    Submit,   ///< forward script
    Rollback, ///< the applied inverse script
  };

  /// Out-of-band context delivered with every script notification.
  struct ScriptInfo {
    /// Attribution of the version the script produced. Open/Submit: the
    /// request's author. Rollback: the author of the *target* version
    /// (the one the document rolled back to), never the rollback
    /// request itself -- rollback restores someone else's work, and
    /// provenance must say whose. Empty when unattributed, or when the
    /// target version's record was already evicted from the ring.
    /// Points into store-owned memory; valid only during the call.
    std::string_view Author;
  };

  /// Observes every applied script: the initializing script on open, the
  /// forward script on submit, the inverse script on rollback. Called
  /// under the document's lock, so per-document invocations are totally
  /// ordered; implementations must not call back into the store. Register
  /// all listeners before serving traffic.
  using ScriptListener = std::function<void(DocId, uint64_t Version, StoreOp,
                                            const EditScript &,
                                            const ScriptInfo &)>;

  /// Observes erase(). Called under the shard lock (erase never takes the
  /// document lock), so an erase notification can overtake the script
  /// notification of an in-flight operation on the same document;
  /// consumers that order events must tolerate post-erase stragglers.
  /// Must not call back into the store.
  using EraseListener = std::function<void(DocId)>;

  explicit DocumentStore(const SignatureTable &Sig);
  DocumentStore(const SignatureTable &Sig, Config C);

  const SignatureTable &signatures() const { return Sig; }
  const Config &config() const { return Cfg; }

  void addScriptListener(ScriptListener Listener);
  void addEraseListener(EraseListener Listener);

  /// Creates document \p Doc at version 0 from \p Build; fails if it
  /// already exists. Emits the initializing script. \p Author attributes
  /// version 0 (empty = unattributed).
  StoreResult open(DocId Doc, const TreeBuilder &Build,
                   std::string Author = std::string());

  /// Diffs the current version against the tree \p Build produces and
  /// advances the document to it. The result carries the edit script.
  StoreResult submit(DocId Doc, const TreeBuilder &Build);

  /// submit() with per-call options (deadline fallback).
  StoreResult submit(DocId Doc, const TreeBuilder &Build,
                     const SubmitOptions &Opts);

  /// Undoes the most recent submit by applying the inverse of its
  /// recorded script.
  /// Fails with a clean error -- leaving the document untouched at its
  /// current version -- if the history ring is exhausted, distinguishing
  /// "already at the initial version" from "the record was evicted from
  /// the bounded ring".
  StoreResult rollback(DocId Doc);

  /// Verifies the digest-cache invariant for \p Doc: every node of the
  /// stored tree must carry exactly the structural/literal hashes, height,
  /// and size a from-scratch recomputation yields. Returns a description
  /// of the first stale node, or std::nullopt if the cache is coherent.
  /// O(tree) with full rehashing -- a test/debug facility, not a serving
  /// path.
  std::optional<std::string> checkDigests(DocId Doc) const;

  /// Replica mode: replays one operation a leader's store committed, as
  /// its script listener saw it -- \p Version is the version the
  /// operation produced, \p Author its attribution (for a rollback, the
  /// target version's author) and \p Script the script it applied (for
  /// a rollback, the applied inverse). The script is type-checked and
  /// applied in place through the document's kept ScriptApplier:
  ///   Open      builds a fresh document from the initializing script,
  ///             replacing any earlier life of the id;
  ///   Submit    needs \p Version == current + 1 and records the script
  ///             in the history ring;
  ///   Rollback  needs \p Version == current - 1 and pops the ring's
  ///             newest record (clearing the ring if that is not the
  ///             record being undone).
  /// A version that does not follow fails with ErrCode::CasMismatch, and
  /// an ill-typed or non-compliant script fails too; either way the
  /// document is left exactly as it was. A successful record is emitted
  /// to the script listeners like the operation it replays. The result
  /// carries no script.
  StoreResult applyRecord(DocId Doc, StoreOp Op, uint64_t Version,
                          EditScript Script, std::string Author);

  /// Current version and serialized tree of \p Doc, in both forms.
  DocumentSnapshot snapshot(DocId Doc) const;

  /// What a get answers: snapshot() without the URI form (UriText stays
  /// empty), so the document lock is held for a copy of the version's
  /// cached text (a print on the version's first read), nothing more.
  DocumentSnapshot snapshotText(DocId Doc) const;

  /// One retained history-ring entry, exposed to withDocument visitors.
  /// The script and author pointers are valid only for the duration of
  /// the visit.
  struct HistoryEntry {
    uint64_t Version = 0;
    const EditScript *Script = nullptr;
    /// Author of this version (empty = unattributed).
    const std::string *Author = nullptr;
  };

  /// Runs \p Fn with \p Doc's live tree, version, and history ring
  /// (oldest first) under the document's lock -- the hook the
  /// persistence layer snapshots through, so the captured state is
  /// consistent with the per-document script stream. \p Fn must not call
  /// back into the store. Returns false if the document does not exist.
  bool withDocument(
      DocId Doc,
      const std::function<void(const Tree *, uint64_t Version,
                               const std::vector<HistoryEntry> &)> &Fn) const;

  /// Author of version 0, as recorded at open (or restore). Empty when
  /// the document is absent or version 0 was unattributed.
  std::string openAuthor(DocId Doc) const;

  /// The next fresh URI of \p Doc's arena, above every URI the document
  /// has issued (rolled-back loads included); 0 if absent. The counter
  /// never moves back, so a read taken after a withDocument capture
  /// bounds every URI the captured state issued. Snapshots record it so
  /// a rebuilt document never reissues a URI (TreeContext::
  /// continueUrisFrom).
  URI nextUri(DocId Doc) const;

  /// One history-ring entry handed to restore(), oldest first.
  struct RestoreEntry {
    uint64_t Version = 0;
    EditScript Script;
    std::string Author;
  };

  /// Installs a recovered document: \p Build produces the tree (URIs
  /// preserved, as with TreeContext::CopyUris::Preserve) in the document's
  /// fresh context, \p History carries the forward scripts of the
  /// retained ring (oldest first; the ring is truncated to
  /// Config::HistoryCapacity). Unlike open this emits
  /// nothing to listeners -- recovery runs before traffic -- and leaves
  /// the document at \p Version with version 0 attributed to
  /// \p OpenAuthor. \p Build runs before the memory budget is attached,
  /// so an exhausted budget cannot refuse it. \p Build should also move
  /// the context's URI counter to the document's recorded next URI
  /// (TreeContext::continueUrisFrom), or later submits may reissue URIs
  /// of rolled-back loads. Fails if the document already exists.
  StoreResult restore(DocId Doc, uint64_t Version, const TreeBuilder &Build,
                      std::vector<RestoreEntry> History,
                      std::string OpenAuthor = std::string());

  bool contains(DocId Doc) const;

  /// Removes \p Doc; in-flight operations holding the document finish
  /// against the detached document. Returns false if absent.
  bool erase(DocId Doc);

  /// Ids of every live document, in no particular order -- the scrub
  /// walk's worklist. A snapshot: documents opened or erased afterwards
  /// are not reflected.
  std::vector<DocId> listDocuments() const;

  /// Marks \p Doc corrupt: subsequent submits and rollbacks fail with
  /// ErrCode::Quarantined, snapshots carry an integrity warning, and
  /// every other document keeps serving untouched (the blast radius is
  /// exactly one document). Idempotent; the first reason wins. Returns
  /// false if the document does not exist.
  bool quarantine(DocId Doc, std::string Reason);

  /// Lifts \p Doc's quarantine (after a successful repair). Returns
  /// false if the document does not exist.
  bool clearQuarantine(DocId Doc);

  /// The quarantine reason if \p Doc is quarantined, std::nullopt if it
  /// is healthy or absent.
  std::optional<std::string> quarantineInfo(DocId Doc) const;

  /// Test-only fault injection: flips one byte in the cached structure
  /// hash of \p Doc's root -- the in-memory analogue of FaultyIoEnv's
  /// read-path bit flips -- so the next checkDigests() reports the root
  /// stale. Returns false if the document does not exist.
  bool corruptDigestForTest(DocId Doc);

  /// Test-only fault injection: runs \p Fn on \p Doc's live tree and
  /// version under the document lock, so a test can make the document
  /// silently wrong (a changed literal, a skewed version) without
  /// touching anything else. \p Fn must not change the tree's shape.
  /// Returns false if the document does not exist.
  bool mutateForTest(DocId Doc,
                     const std::function<void(Tree *Root, uint64_t &Version)>
                         &Fn);

  /// Repairs \p Doc in place from recovered state: \p Build produces the
  /// known-good tree (URIs preserved) in a fresh context, \p History the
  /// forward scripts of the retained ring (oldest first), exactly like
  /// restore() -- but the document must already exist, its old (corrupt)
  /// arena is replaced under the document lock, and a successful swap
  /// clears any quarantine. In-flight readers finish against the old
  /// state; nothing is emitted to listeners. Fails without touching the
  /// document if the builder fails or the document is absent.
  StoreResult repair(DocId Doc, uint64_t Version, const TreeBuilder &Build,
                     std::vector<RestoreEntry> History,
                     std::string OpenAuthor = std::string());

  StoreStats stats() const;

private:
  struct VersionRecord {
    uint64_t Version = 0;
    EditScript Script;
    /// Who authored this version (empty = unattributed).
    std::string Author;
  };

  struct Document {
    mutable std::mutex Mu;
    std::unique_ptr<TreeContext> Ctx;
    Tree *Current = nullptr;
    uint64_t Version = 0;
    std::deque<VersionRecord> History;
    /// Author of version 0 (open/restore); rollback to the initial
    /// version re-attributes to this.
    std::string OpenAuthor;
    /// Digest-cache accounting across this document's submits.
    uint64_t NodesRehashed = 0;
    uint64_t NodesDigestCacheSaved = 0;
    /// Set by quarantine(): an integrity check found this document's
    /// state corrupt. Writes are rejected until repair() or
    /// clearQuarantine() lifts it; reads carry QuarantineReason.
    bool Quarantined = false;
    std::string QuarantineReason;
    /// Replica mode: applies applyRecord's scripts, keeping its URI index
    /// across records. Null until the first record; reset whenever Ctx or
    /// the tree changes any other way.
    std::unique_ptr<ScriptApplier> Applier;
    /// Plain s-expression of the current tree, rendered by the version's
    /// first read and copied by later ones; empty until then. Not keyed
    /// by Version, which a rollback and a submit can give to two
    /// different trees: every path that changes the tree calls dropText.
    std::string Text;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<DocId, std::shared_ptr<Document>> Docs;
  };

  Shard &shardFor(DocId Doc) {
    return Shards[static_cast<size_t>(Doc) % Shards.size()];
  }
  const Shard &shardFor(DocId Doc) const {
    return Shards[static_cast<size_t>(Doc) % Shards.size()];
  }

  std::shared_ptr<Document> find(DocId Doc) const;
  DocumentSnapshot read(DocId Doc, bool WithUris) const;
  /// applyRecord's Open: a fresh document, published on success.
  StoreResult openRecord(DocId Doc, const EditScript &Script,
                         std::string Author);
  /// restore()'s and repair()'s ring: the newest HistoryCapacity entries.
  std::deque<VersionRecord> ringFrom(std::vector<RestoreEntry> History) const;
  void emit(DocId Doc, uint64_t Version, StoreOp Op, const EditScript &Script,
            std::string_view Author) const;

  /// Records \p D's new version D.Version, produced by \p Script, in the
  /// history ring and emits it as a submit. Requires D.Mu held.
  void commitSubmit(DocId Doc, Document &D, EditScript Script,
                    std::string Author) const;

  /// Copies \p D's tree into a fresh context, URIs preserved, if the
  /// arena has outgrown the live tree. Requires D.Mu held.
  void maybeCompact(Document &D) const;

  /// Discards \p D's cached text. Called before anything changes the
  /// tree (submit, rollback, applyRecord, repair, mutateForTest).
  /// Requires D.Mu held.
  static void dropText(Document &D);

  const SignatureTable &Sig;
  const Config Cfg;
  std::vector<Shard> Shards;
  mutable std::atomic<uint64_t> Compactions{0};
  mutable std::atomic<uint64_t> TextRenders{0};

  mutable std::mutex ListenersMu;
  std::vector<ScriptListener> Listeners;
  std::vector<EraseListener> EraseListeners;
};

} // namespace service
} // namespace truediff

#endif // TRUEDIFF_SERVICE_DOCUMENTSTORE_H
