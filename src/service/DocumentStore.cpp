//===- service/DocumentStore.cpp - Versioned live-document store -----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/DocumentStore.h"

#include "tree/SExpr.h"
#include "truechange/InitScript.h"
#include "truechange/Inverse.h"
#include "truediff/TrueDiff.h"

#include <cstdio>

using namespace truediff;
using namespace truediff::service;

const char *truediff::service::errCodeName(ErrCode C) {
  switch (C) {
  case ErrCode::None:
    return "none";
  case ErrCode::NoSuchDocument:
    return "no_such_document";
  case ErrCode::DocumentExists:
    return "document_exists";
  case ErrCode::BuildFailed:
    return "build_failed";
  case ErrCode::TreeTooDeep:
    return "tree_too_deep";
  case ErrCode::TreeTooLarge:
    return "tree_too_large";
  case ErrCode::MemoryBudget:
    return "memory_budget";
  case ErrCode::FrameTooLarge:
    return "frame_too_large";
  case ErrCode::Backpressure:
    return "backpressure";
  case ErrCode::Shed:
    return "shed";
  case ErrCode::DeadlineExpired:
    return "deadline_expired";
  case ErrCode::Shutdown:
    return "shutdown";
  case ErrCode::HistoryExhausted:
    return "history_exhausted";
  case ErrCode::MalformedFrame:
    return "malformed_frame";
  case ErrCode::NotLeader:
    return "not_leader";
  case ErrCode::NoSuchNode:
    return "no_such_node";
  case ErrCode::CasMismatch:
    return "cas_mismatch";
  case ErrCode::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

DocumentStore::DocumentStore(const SignatureTable &Sig)
    : DocumentStore(Sig, Config()) {}

DocumentStore::DocumentStore(const SignatureTable &Sig, Config C)
    : Sig(Sig), Cfg(C), Shards(std::max<size_t>(1, C.NumShards)) {}

void DocumentStore::addScriptListener(ScriptListener Listener) {
  std::lock_guard<std::mutex> Lock(ListenersMu);
  Listeners.push_back(std::move(Listener));
}

void DocumentStore::addEraseListener(EraseListener Listener) {
  std::lock_guard<std::mutex> Lock(ListenersMu);
  EraseListeners.push_back(std::move(Listener));
}

std::shared_ptr<DocumentStore::Document> DocumentStore::find(DocId Doc) const {
  const Shard &S = shardFor(Doc);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Docs.find(Doc);
  return It == S.Docs.end() ? nullptr : It->second;
}

void DocumentStore::emit(DocId Doc, uint64_t Version, StoreOp Op,
                         const EditScript &Script,
                         std::string_view Author) const {
  ScriptInfo Info;
  Info.Author = Author;
  std::lock_guard<std::mutex> Lock(ListenersMu);
  for (const ScriptListener &L : Listeners)
    L(Doc, Version, Op, Script, Info);
}

StoreResult DocumentStore::open(DocId Doc, const TreeBuilder &Build,
                                std::string Author) {
  StoreResult R;
  auto D = std::make_shared<Document>();
  D->Ctx = std::make_unique<TreeContext>(Sig);
  D->Ctx->attachBudget(Cfg.MemBudget);
  BuildResult B = Build(*D->Ctx);
  if (B.Root == nullptr) {
    R.Error = B.Error.empty() ? "builder produced no tree" : B.Error;
    R.Code = B.Code != ErrCode::None ? B.Code : ErrCode::BuildFailed;
    return R;
  }
  D->Current = B.Root;
  D->Version = 0;
  D->OpenAuthor = std::move(Author);

  // Hold the (still private) document lock across publication so that a
  // racing submit on the same id observes the initializing script first.
  std::lock_guard<std::mutex> DocLock(D->Mu);
  {
    Shard &S = shardFor(Doc);
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.Docs.emplace(Doc, D).second) {
      R.Error = "document already exists";
      R.Code = ErrCode::DocumentExists;
      return R;
    }
  }
  R.Script = buildInitializingScript(Sig, D->Current);
  emit(Doc, 0, StoreOp::Open, R.Script, D->OpenAuthor);
  R.Ok = true;
  R.Version = 0;
  R.TreeSize = D->Current->size();
  return R;
}

StoreResult DocumentStore::submit(DocId Doc, const TreeBuilder &Build) {
  return submit(Doc, Build, SubmitOptions());
}

StoreResult DocumentStore::submit(DocId Doc, const TreeBuilder &Build,
                                  const SubmitOptions &Opts) {
  StoreResult R;
  std::shared_ptr<Document> D = find(Doc);
  if (!D) {
    R.Error = "no such document";
    R.Code = ErrCode::NoSuchDocument;
    return R;
  }
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (D->Quarantined) {
    // Rejected before the CAS check and the builder: a quarantined
    // document accepts no writes at all until repair lifts the flag, so
    // corruption cannot be compounded by diffing against a corrupt base.
    R.Error = "document is quarantined: " + D->QuarantineReason;
    R.Code = ErrCode::Quarantined;
    R.Version = D->Version;
    return R;
  }
  if (Opts.ExpectedVersion && *Opts.ExpectedVersion != D->Version) {
    // Checked before the builder runs: a failed guard must not pay for a
    // parse, and must report where the document actually is so the
    // client can tell "my retry already applied" from "someone else
    // wrote".
    R.Error = "version mismatch: document is at version " +
              std::to_string(D->Version) + ", expected " +
              std::to_string(*Opts.ExpectedVersion);
    R.Code = ErrCode::CasMismatch;
    R.Version = D->Version;
    R.TreeSize = D->Current->size();
    return R;
  }
  // The target is built in an arena this request owns. Step 4 moves
  // reused nodes over from the stored tree and builds loaded ones in the
  // document's arena, so no stored node points into the target once the
  // diff has run, and the request arena -- with a refused build's partial
  // tree -- is released when the submit returns. Its URIs continue the
  // document's counter, which then moves past them: every URI alive
  // during the diff is unique.
  auto ReqCtx = std::make_unique<TreeContext>(Sig);
  ReqCtx->attachBudget(Cfg.MemBudget);
  ReqCtx->continueUrisFrom(*D->Ctx);
  BuildResult B = Build(*ReqCtx);
  if (B.Root == nullptr) {
    R.Error = B.Error.empty() ? "builder produced no tree" : B.Error;
    R.Code = B.Code != ErrCode::None ? B.Code : ErrCode::BuildFailed;
    return R;
  }
  D->Ctx->continueUrisFrom(*ReqCtx);
  uint64_t SourceSize = D->Current->size();
  uint64_t TargetSize = B.Root->size();

  if (Opts.UseFallback && Opts.UseFallback()) {
    // Over budget: answer with the replace-root script instead of a
    // minimal diff -- unload the stored tree, load and attach the
    // target. The inverse of an initializing script unloads exactly
    // what the script loaded, so the concatenation is well-typed by
    // construction: the degraded path trades conciseness for latency,
    // never type safety.
    EditScript Unload =
        invertScript(buildInitializingScript(Sig, D->Current));
    EditScript Load = buildInitializingScript(Sig, B.Root);
    std::vector<Edit> Edits;
    Edits.reserve(Unload.size() + Load.size());
    for (const Edit &E : Unload.edits())
      Edits.push_back(E);
    for (const Edit &E : Load.edits())
      Edits.push_back(E);
    EditScript Forward{std::move(Edits)};

    // The new stored tree is the target itself: its arena becomes the
    // document's, and the old tree's arena is dropped.
    D->Current = B.Root;
    D->Ctx = std::move(ReqCtx);
    D->Applier.reset();
    dropText(*D);
    ++D->Version;

    commitSubmit(Doc, *D, std::move(Forward), Opts.Author);

    R.Ok = true;
    R.UsedFallback = true;
    R.Version = D->Version;
    R.Script = D->History.back().Script;
    R.NodesDiffed = SourceSize + TargetSize;
    R.TreeSize = D->Current->size();
    return R;
  }

  // Warm path: the stored tree's Step-1 digests are valid (populated at
  // construction, maintained by every previous submit's and rollback's
  // dirty-path rehash and re-derived by compaction), so the diff consumes them
  // as-is and afterwards rehashes only the root-to-edit paths it touched.
  // Cold path: recompute the stored digests from scratch first and fully
  // rehash the patched tree after, like a service that does not own its
  // trees between requests.
  TrueDiffOptions DiffOpts;
  DiffOpts.IncrementalRehash = Cfg.PersistDigests;
  uint64_t ColdRehash = 0;
  if (!Cfg.PersistDigests) {
    D->Current->refreshDerived(Sig);
    ColdRehash = SourceSize;
  }

  TrueDiff Differ(*D->Ctx, DiffOpts);
  DiffResult Diff = Differ.compareTo(D->Current, B.Root);
  D->Current = Diff.Patched;
  D->Applier.reset();
  dropText(*D);
  ++D->Version;

  uint64_t PatchedSize = D->Current->size();
  R.NodesRehashed = ColdRehash + Diff.NodesRehashed;
  D->NodesRehashed += R.NodesRehashed;
  if (Cfg.PersistDigests)
    D->NodesDigestCacheSaved += PatchedSize - Diff.NodesRehashed;

  commitSubmit(Doc, *D, std::move(Diff.Script), Opts.Author);
  maybeCompact(*D);

  R.Ok = true;
  R.Version = D->Version;
  R.Script = D->History.back().Script;
  R.NodesDiffed = SourceSize + TargetSize;
  R.TreeSize = D->Current->size();
  return R;
}

void DocumentStore::commitSubmit(DocId Doc, Document &D, EditScript Script,
                                 std::string Author) const {
  D.History.push_back({D.Version, std::move(Script), std::move(Author)});
  if (D.History.size() > Cfg.HistoryCapacity)
    D.History.pop_front();
  emit(Doc, D.Version, StoreOp::Submit, D.History.back().Script,
       D.History.back().Author);
}

StoreResult DocumentStore::rollback(DocId Doc) {
  StoreResult R;
  std::shared_ptr<Document> D = find(Doc);
  if (!D) {
    R.Error = "no such document";
    R.Code = ErrCode::NoSuchDocument;
    return R;
  }
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (D->Quarantined) {
    R.Error = "document is quarantined: " + D->QuarantineReason;
    R.Code = ErrCode::Quarantined;
    R.Version = D->Version;
    return R;
  }
  if (D->History.empty()) {
    // Distinguish "nothing ever to undo" from "the record fell off the
    // bounded ring": rolling back past the ring's oldest retained version
    // must yield this clean error, never a torn tree.
    R.Error = D->Version == 0
                  ? "no history to roll back"
                  : "cannot roll back version " + std::to_string(D->Version) +
                        ": its script was evicted from the history ring "
                        "(capacity " + std::to_string(Cfg.HistoryCapacity) +
                        ")";
    R.Code = ErrCode::HistoryExhausted;
    return R;
  }

  // Undo in place. The inverse of the newest recorded script is
  // well-typed (Thm 3.8) and compliant with the tree that script
  // produced, so it applies (Thm 3.6) and restores the previous tree with
  // its URIs, which keeps older ring entries applicable. Only the paths
  // it touches are rehashed. Nothing is committed -- the record stays in
  // the ring -- unless it applies; a failed apply leaves the document
  // exactly as it was.
  EditScript Inverse = invertScript(D->History.back().Script);
  D->Applier.reset();
  dropText(*D);
  ApplyResult Applied = applyChecked(*D->Ctx, D->Current, Inverse);
  if (!Applied.Ok) {
    // Cannot happen for scripts we recorded ourselves; fail loudly.
    R.Error = "internal error: inverse script rejected: " + Applied.Error;
    return R;
  }

  // Commit point: consume the record.
  D->Version = D->History.back().Version - 1;
  D->History.pop_back();

  // Rollback's provenance attributes to the *target* version's author:
  // the rollback restores that author's work. Version 0 is the open's
  // author; otherwise the ring's new top is the target version's record
  // -- unless it was evicted, in which case attribution is unknown.
  std::string_view TargetAuthor;
  if (D->Version == 0)
    TargetAuthor = D->OpenAuthor;
  else if (!D->History.empty() && D->History.back().Version == D->Version)
    TargetAuthor = D->History.back().Author;
  emit(Doc, D->Version, StoreOp::Rollback, Inverse, TargetAuthor);
  maybeCompact(*D);

  R.Ok = true;
  R.Version = D->Version;
  R.Script = std::move(Inverse);
  R.TreeSize = D->Current->size();
  return R;
}

StoreResult DocumentStore::openRecord(DocId Doc, const EditScript &Script,
                                      std::string Author) {
  StoreResult R;
  auto D = std::make_shared<Document>();
  D->Ctx = std::make_unique<TreeContext>(Sig);
  D->Ctx->attachBudget(Cfg.MemBudget);
  D->Applier = std::make_unique<ScriptApplier>(*D->Ctx, D->Current);
  ApplyResult Applied = D->Applier->apply(Script);
  if (!Applied.Ok) {
    R.Error = "open record rejected: " + Applied.Error;
    return R;
  }
  D->OpenAuthor = std::move(Author);

  // As in open(): the new life's lock is held across publication, so its
  // script notification precedes any later record's.
  std::lock_guard<std::mutex> DocLock(D->Mu);
  {
    Shard &S = shardFor(Doc);
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Docs[Doc] = D;
  }
  emit(Doc, 0, StoreOp::Open, Script, D->OpenAuthor);
  R.Ok = true;
  R.TreeSize = D->Current->size();
  R.NodesRehashed = Applied.NodesRehashed;
  return R;
}

StoreResult DocumentStore::applyRecord(DocId Doc, StoreOp Op, uint64_t Version,
                                       EditScript Script, std::string Author) {
  if (Op == StoreOp::Open)
    return openRecord(Doc, Script, std::move(Author));
  StoreResult R;
  std::shared_ptr<Document> D = find(Doc);
  if (!D) {
    R.Error = "no such document";
    R.Code = ErrCode::NoSuchDocument;
    return R;
  }
  std::lock_guard<std::mutex> Lock(D->Mu);
  R.Version = D->Version;
  if (D->Quarantined) {
    R.Error = "document is quarantined: " + D->QuarantineReason;
    R.Code = ErrCode::Quarantined;
    return R;
  }
  bool Follows = Op == StoreOp::Submit
                     ? Version == D->Version + 1
                     : D->Version != 0 && Version == D->Version - 1;
  if (!Follows) {
    R.Error = "version " + std::to_string(Version) +
              " does not follow version " + std::to_string(D->Version);
    R.Code = ErrCode::CasMismatch;
    return R;
  }
  if (!D->Applier)
    D->Applier = std::make_unique<ScriptApplier>(*D->Ctx, D->Current);
  dropText(*D);
  ApplyResult Applied = D->Applier->apply(Script);
  if (!Applied.Ok) {
    R.Error = "record rejected: " + Applied.Error;
    return R;
  }

  uint64_t Undone = D->Version;
  D->Version = Version;
  if (Op == StoreOp::Submit) {
    commitSubmit(Doc, *D, std::move(Script), std::move(Author));
  } else {
    // The leader popped the record of the version it undid; a ring that
    // does not end with that record (it began after a state transfer) no
    // longer lines up with the leader's, so it is dropped.
    if (!D->History.empty() && D->History.back().Version == Undone)
      D->History.pop_back();
    else
      D->History.clear();
    emit(Doc, Version, Op, Script, Author);
  }
  maybeCompact(*D);

  R.Ok = true;
  R.Version = Version;
  R.TreeSize = D->Current->size();
  R.NodesRehashed = Applied.NodesRehashed;
  return R;
}

DocumentSnapshot DocumentStore::read(DocId Doc, bool WithUris) const {
  DocumentSnapshot S;
  std::shared_ptr<Document> D = find(Doc);
  if (!D) {
    S.Error = "no such document";
    return S;
  }
  std::lock_guard<std::mutex> Lock(D->Mu);
  S.Ok = true;
  S.Version = D->Version;
  S.TreeSize = D->Current->size();
  if (D->Text.empty()) {
    S.Text = printSExpr(Sig, D->Current);
    // A copy is allocated at its exact size, not the printer's capacity.
    D->Text = S.Text;
    TextRenders.fetch_add(1, std::memory_order_relaxed);
  } else {
    S.Text = D->Text;
  }
  if (WithUris)
    S.UriText = printSExprWithUris(Sig, D->Current);
  S.Quarantined = D->Quarantined;
  S.QuarantineReason = D->QuarantineReason;
  return S;
}

DocumentSnapshot DocumentStore::snapshot(DocId Doc) const {
  return read(Doc, true);
}

DocumentSnapshot DocumentStore::snapshotText(DocId Doc) const {
  return read(Doc, false);
}

std::optional<std::string> DocumentStore::checkDigests(DocId Doc) const {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return "no such document";
  std::lock_guard<std::mutex> Lock(D->Mu);
  // deepCopy re-derives every digest bottom-up in a scratch arena; the
  // stored tree must agree with it node for node.
  TreeContext Scratch(Sig);
  const Tree *Fresh = Scratch.deepCopy(D->Current);
  return compareDerived(D->Current, Fresh);
}

bool DocumentStore::contains(DocId Doc) const { return find(Doc) != nullptr; }

bool DocumentStore::erase(DocId Doc) {
  Shard &S = shardFor(Doc);
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Docs.erase(Doc) == 0)
    return false;
  // Notify while still holding the shard lock: a racing re-open of the
  // same id cannot publish (it needs this shard's lock) until the erase
  // has been observed, so subscribers see erase-before-reopen in order.
  std::lock_guard<std::mutex> LLock(ListenersMu);
  for (const EraseListener &L : EraseListeners)
    L(Doc);
  return true;
}

std::vector<DocId> DocumentStore::listDocuments() const {
  std::vector<DocId> Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &[Id, D] : S.Docs)
      Out.push_back(Id);
  }
  return Out;
}

bool DocumentStore::quarantine(DocId Doc, std::string Reason) {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (!D->Quarantined) {
    D->Quarantined = true;
    D->QuarantineReason = std::move(Reason);
  }
  return true;
}

bool DocumentStore::corruptDigestForTest(DocId Doc) {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  TreeContext::corruptDerivedForTest(D->Current);
  return true;
}

bool DocumentStore::mutateForTest(
    DocId Doc, const std::function<void(Tree *, uint64_t &)> &Fn) {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  dropText(*D);
  Fn(D->Current, D->Version);
  return true;
}

bool DocumentStore::clearQuarantine(DocId Doc) {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  D->Quarantined = false;
  D->QuarantineReason.clear();
  return true;
}

std::optional<std::string> DocumentStore::quarantineInfo(DocId Doc) const {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return std::nullopt;
  std::lock_guard<std::mutex> Lock(D->Mu);
  if (!D->Quarantined)
    return std::nullopt;
  return D->QuarantineReason;
}

std::deque<DocumentStore::VersionRecord>
DocumentStore::ringFrom(std::vector<RestoreEntry> History) const {
  if (History.size() > Cfg.HistoryCapacity)
    History.erase(History.begin(),
                  History.end() - static_cast<ptrdiff_t>(Cfg.HistoryCapacity));
  std::deque<VersionRecord> Ring;
  for (RestoreEntry &E : History)
    Ring.push_back({E.Version, std::move(E.Script), std::move(E.Author)});
  return Ring;
}

StoreResult DocumentStore::repair(DocId Doc, uint64_t Version,
                                  const TreeBuilder &Build,
                                  std::vector<RestoreEntry> History,
                                  std::string OpenAuthor) {
  StoreResult R;
  std::shared_ptr<Document> D = find(Doc);
  if (!D) {
    R.Error = "no such document";
    R.Code = ErrCode::NoSuchDocument;
    return R;
  }
  // Build the recovered state into a fresh context first; the corrupt
  // arena is only released once the replacement exists, so a failed
  // repair leaves the document exactly as it was (still quarantined).
  // The state was accepted once, so the budget counts it but may not
  // refuse it: attach only after the build.
  auto FreshCtx = std::make_unique<TreeContext>(Sig);
  BuildResult B = Build(*FreshCtx);
  if (B.Root == nullptr) {
    R.Error = B.Error.empty() ? "builder produced no tree" : B.Error;
    R.Code = B.Code != ErrCode::None ? B.Code : ErrCode::BuildFailed;
    return R;
  }
  FreshCtx->attachBudget(Cfg.MemBudget);
  std::deque<VersionRecord> Ring = ringFrom(std::move(History));

  std::lock_guard<std::mutex> Lock(D->Mu);
  // The repaired tree must not reissue URIs the corrupt arena handed
  // out, rolled-back loads included.
  FreshCtx->continueUrisFrom(*D->Ctx);
  D->Applier.reset();
  dropText(*D);
  D->Ctx = std::move(FreshCtx);
  D->Current = B.Root;
  D->Version = Version;
  D->History = std::move(Ring);
  D->OpenAuthor = std::move(OpenAuthor);
  D->Quarantined = false;
  D->QuarantineReason.clear();

  R.Ok = true;
  R.Version = Version;
  R.TreeSize = D->Current->size();
  return R;
}

bool DocumentStore::withDocument(
    DocId Doc,
    const std::function<void(const Tree *, uint64_t Version,
                             const std::vector<HistoryEntry> &)> &Fn) const {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return false;
  std::lock_guard<std::mutex> Lock(D->Mu);
  std::vector<HistoryEntry> History;
  History.reserve(D->History.size());
  for (const VersionRecord &Rec : D->History)
    History.push_back({Rec.Version, &Rec.Script, &Rec.Author});
  Fn(D->Current, D->Version, History);
  return true;
}

std::string DocumentStore::openAuthor(DocId Doc) const {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return std::string();
  std::lock_guard<std::mutex> Lock(D->Mu);
  return D->OpenAuthor;
}

URI DocumentStore::nextUri(DocId Doc) const {
  std::shared_ptr<Document> D = find(Doc);
  if (!D)
    return 0;
  std::lock_guard<std::mutex> Lock(D->Mu);
  return D->Ctx->peekNextUri();
}

StoreResult DocumentStore::restore(DocId Doc, uint64_t Version,
                                   const TreeBuilder &Build,
                                   std::vector<RestoreEntry> History,
                                   std::string OpenAuthor) {
  StoreResult R;
  auto D = std::make_shared<Document>();
  // Installs accepted state, as repair() does: the budget counts the
  // tree once it is built but cannot refuse it.
  D->Ctx = std::make_unique<TreeContext>(Sig);
  BuildResult B = Build(*D->Ctx);
  if (B.Root == nullptr) {
    R.Error = B.Error.empty() ? "builder produced no tree" : B.Error;
    R.Code = B.Code != ErrCode::None ? B.Code : ErrCode::BuildFailed;
    return R;
  }
  D->Ctx->attachBudget(Cfg.MemBudget);
  D->Current = B.Root;
  D->Version = Version;
  D->OpenAuthor = std::move(OpenAuthor);
  D->History = ringFrom(std::move(History));

  {
    Shard &S = shardFor(Doc);
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.Docs.emplace(Doc, D).second) {
      R.Error = "document already exists";
      R.Code = ErrCode::DocumentExists;
      return R;
    }
  }
  R.Ok = true;
  R.Version = Version;
  R.TreeSize = D->Current->size();
  return R;
}

std::string service::storeStatsJson(const StoreStats &S) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"store\":{\"documents\":%llu,\"versions_retained\":%llu,"
      "\"live_nodes\":%llu,\"arena_nodes\":%llu,\"compactions\":%llu,"
      "\"text_renders\":%llu,"
      "\"nodes_rehashed\":%llu,\"digest_cache_saved_nodes\":%llu,"
      "\"quarantined\":%llu}",
      static_cast<unsigned long long>(S.NumDocuments),
      static_cast<unsigned long long>(S.VersionsRetained),
      static_cast<unsigned long long>(S.LiveNodes),
      static_cast<unsigned long long>(S.ArenaNodes),
      static_cast<unsigned long long>(S.Compactions),
      static_cast<unsigned long long>(S.TextRenders),
      static_cast<unsigned long long>(S.NodesRehashed),
      static_cast<unsigned long long>(S.NodesDigestCacheSaved),
      static_cast<unsigned long long>(S.Quarantined));
  return Buf;
}

StoreStats DocumentStore::stats() const {
  StoreStats Out;
  for (const Shard &S : Shards) {
    std::vector<std::shared_ptr<Document>> Docs;
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      Docs.reserve(S.Docs.size());
      for (const auto &[Id, D] : S.Docs)
        Docs.push_back(D);
    }
    // Document locks are taken after the shard lock is released; see the
    // locking model in the header.
    for (const std::shared_ptr<Document> &D : Docs) {
      std::lock_guard<std::mutex> Lock(D->Mu);
      ++Out.NumDocuments;
      Out.VersionsRetained += D->History.size();
      Out.LiveNodes += D->Current->size();
      Out.ArenaNodes += D->Ctx->numNodes();
      Out.NodesRehashed += D->NodesRehashed;
      Out.NodesDigestCacheSaved += D->NodesDigestCacheSaved;
      if (D->Quarantined)
        ++Out.Quarantined;
    }
  }
  Out.Compactions = Compactions.load(std::memory_order_relaxed);
  Out.TextRenders = TextRenders.load(std::memory_order_relaxed);
  return Out;
}

void DocumentStore::maybeCompact(Document &D) const {
  if (Cfg.CompactionFactor == 0)
    return;
  if (D.Ctx->numNodes() <= Cfg.CompactionFactor * D.Current->size() + 256)
    return;
  // The copy re-derives every digest: compaction drops the digest cache
  // and recomputes it from scratch. It keeps URIs and so the cached text.
  // The fresh arena continues the old counter rather than restarting
  // above the live tree's URIs: the history ring's scripts name unloaded
  // nodes by URIs that must never be issued again.
  auto FreshCtx = std::make_unique<TreeContext>(Sig);
  FreshCtx->attachBudget(Cfg.MemBudget);
  D.Applier.reset();
  D.Current = FreshCtx->deepCopy(D.Current, TreeContext::CopyUris::Preserve);
  FreshCtx->continueUrisFrom(*D.Ctx);
  D.Ctx = std::move(FreshCtx);
  Compactions.fetch_add(1, std::memory_order_relaxed);
}

void DocumentStore::dropText(Document &D) {
  // Swapped out rather than cleared, so the old version's buffer is freed.
  std::string().swap(D.Text);
}
