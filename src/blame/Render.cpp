//===- blame/Render.cpp - blame / history query rendering -----------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "blame/Render.h"

#include <algorithm>

using namespace truediff;
using namespace truediff::blame;
using service::DocId;
using service::DocumentStore;
using service::ErrCode;
using service::Response;

namespace {

/// "-" for unattributed authors, so every line has the same field count.
std::string_view authorOr(std::string_view Author) {
  return Author.empty() ? std::string_view("-") : Author;
}

/// The attribution suffix shared by tree lines and single-node blame:
/// `intro=v<V>:<author|-> last=v<V>:<author|-> <op>`.
void appendProvenance(std::string &Out, const NodeProvenance &P) {
  Out += "intro=v";
  Out += std::to_string(P.IntroVersion);
  Out += ':';
  Out += authorOr(P.IntroAuthor);
  Out += " last=v";
  Out += std::to_string(P.LastVersion);
  Out += ':';
  Out += authorOr(P.LastAuthor);
  Out += ' ';
  Out += provOpName(P.LastOp);
}

/// True when \p E names \p Uri as the manipulated node or in its kid
/// list -- the revision containing \p E shows up in the node's history.
bool editTouches(const Edit &E, URI Uri) {
  if (E.Node.Uri == Uri)
    return true;
  for (const KidRef &K : E.Kids)
    if (K.Uri == Uri)
      return true;
  return false;
}

/// Deduplicated edit kinds of \p S touching \p Uri, in first-seen order,
/// rendered as "load" / "attach,detach" / ... Empty when none touch it.
std::string touchingKinds(const EditScript &S, URI Uri) {
  bool Seen[5] = {false, false, false, false, false};
  std::string Out;
  for (const Edit &E : S.edits()) {
    if (!editTouches(E, Uri))
      continue;
    unsigned K = static_cast<unsigned>(E.Kind);
    if (Seen[K])
      continue;
    Seen[K] = true;
    if (!Out.empty())
      Out += ',';
    Out += editKindName(E.Kind);
  }
  return Out;
}

Response errResponse(ErrCode Code, std::string Msg) {
  Response R;
  R.Ok = false;
  R.Code = Code;
  R.Error = std::move(Msg);
  return R;
}

/// One retained revision of a document's history ring.
struct HistoryRef {
  uint64_t Version = 0;
  std::string_view Author;
  const EditScript *Script = nullptr;
};

} // namespace

std::string blame::renderBlameTree(const SignatureTable &Sig, const Tree *Root,
                                   const ProvenanceIndex::DocView &View) {
  std::string Out;
  if (Root == nullptr)
    return Out;
  // Iterative pre-order: tree depth is user-controlled, recursion is not.
  std::vector<std::pair<const Tree *, unsigned>> Stack;
  Stack.emplace_back(Root, 0);
  NodeProvenance P;
  while (!Stack.empty()) {
    auto [T, Depth] = Stack.back();
    Stack.pop_back();
    Out.append(static_cast<size_t>(std::min(Depth, MaxIndentDepth)) * 2, ' ');
    if (Depth > MaxIndentDepth) {
      Out += '@';
      Out += std::to_string(Depth);
      Out += ' ';
    }
    Out += Sig.name(T->tag());
    Out += '#';
    Out += std::to_string(T->uri());
    Out += ' ';
    if (View.lookup(T->uri(), P))
      appendProvenance(Out, P);
    else
      Out += "unindexed";
    Out += '\n';
    for (size_t I = T->arity(); I != 0; --I)
      Stack.emplace_back(T->kid(I - 1), Depth + 1);
  }
  return Out;
}

namespace {

/// Serves `blame <doc> [uri]` against a live tree. \p Root may be null
/// only when \p HasUri (single-node blame needs no tree).
Response blameTreeResponse(const SignatureTable &Sig, const Tree *Root,
                           const ProvenanceIndex &Idx, DocId Doc, bool HasUri,
                           URI Uri) {
  Response R;
  bool Known = Idx.withDocIndex(Doc, [&](const ProvenanceIndex::DocView &V) {
    R.Version = V.version();
    if (HasUri) {
      NodeProvenance P;
      if (!V.lookup(Uri, P)) {
        R = errResponse(ErrCode::NoSuchNode,
                        "no live node #" + std::to_string(Uri) +
                            " in document " + std::to_string(Doc));
        return;
      }
      R.Ok = true;
      R.Payload = "#" + std::to_string(Uri) + " ";
      appendProvenance(R.Payload, P);
      return;
    }
    R.Ok = true;
    R.Payload = renderBlameTree(Sig, Root, V);
  });
  if (!Known)
    return errResponse(ErrCode::NoSuchDocument,
                       "no document " + std::to_string(Doc));
  return R;
}

/// Serves `history <doc> <uri>` from the index plus the retained ring
/// (\p Ring oldest first).
Response historyFromRing(const ProvenanceIndex &Idx, DocId Doc, URI Uri,
                         const std::vector<HistoryRef> &Ring) {
  Response R;
  bool Known = Idx.withDocIndex(Doc, [&](const ProvenanceIndex::DocView &V) {
    R.Version = V.version();
    NodeProvenance P;
    if (!V.lookup(Uri, P)) {
      R = errResponse(ErrCode::NoSuchNode,
                      "no live node #" + std::to_string(Uri) +
                          " in document " + std::to_string(Doc));
      return;
    }

    // Lead line: the index attribution, same format as single-node blame.
    std::string Out = "#" + std::to_string(Uri) + " ";
    appendProvenance(Out, P);
    Out += '\n';

    // Retained revisions that touched the node, newest first.
    size_t Listed = 0;
    for (size_t I = Ring.size(); I != 0; --I) {
      const HistoryRef &H = Ring[I - 1];
      if (H.Script == nullptr)
        continue;
      std::string Kinds = touchingKinds(*H.Script, Uri);
      if (Kinds.empty())
        continue;
      Out += 'v';
      Out += std::to_string(H.Version);
      Out += " by ";
      Out += authorOr(H.Author);
      Out += " (";
      Out += Kinds;
      Out += ")\n";
      ++Listed;
    }

    // The open script (version 0) never enters the submit ring; the
    // index itself attributes it, so a v0 introduction is synthesized
    // rather than reported evicted.
    if (P.IntroVersion == 0) {
      Out += "v0 by ";
      Out += authorOr(P.IntroAuthor);
      Out += " (open)\n";
      ++Listed;
    }

    // Coverage: the ring retains versions [front, back]; an introduction
    // before the front means part of the node's chain was evicted. The
    // answer degrades *explicitly* -- a marker for a partial chain, a
    // typed error for a fully evicted one -- never a silently shortened
    // history.
    uint64_t CoveredFrom =
        !Ring.empty() ? Ring.front().Version : (V.version() == 0 ? 1 : 0);
    bool Complete =
        P.IntroVersion == 0 || (CoveredFrom != 0 && P.IntroVersion >= CoveredFrom);
    if (!Complete) {
      if (Listed == 0) {
        R = errResponse(ErrCode::HistoryExhausted,
                        "history exhausted: no retained revision touches "
                        "node #" +
                            std::to_string(Uri) +
                            " (introduced at v" +
                            std::to_string(P.IntroVersion) +
                            ", evicted from the ring)");
        return;
      }
      Out += "evicted: revisions before v";
      Out += std::to_string(CoveredFrom);
      Out += " no longer retained\n";
    }

    R.Ok = true;
    R.Payload = std::move(Out);
  });
  if (!Known)
    return errResponse(ErrCode::NoSuchDocument,
                       "no document " + std::to_string(Doc));
  return R;
}

} // namespace

Response blame::blameResponse(const DocumentStore &Store,
                              const ProvenanceIndex &Idx, DocId Doc,
                              bool HasUri, URI Uri) {
  // Single-node blame is one index probe; the store (and its locks) are
  // never involved.
  if (HasUri)
    return blameTreeResponse(Store.signatures(), nullptr, Idx, Doc, true, Uri);
  Response R;
  // Tree + index are read under the document lock, the same lock the
  // index listener updates under, so the annotation matches the tree.
  bool Found = Store.withDocument(
      Doc, [&](const Tree *Root, uint64_t,
               const std::vector<DocumentStore::HistoryEntry> &) {
        R = blameTreeResponse(Store.signatures(), Root, Idx, Doc, false, Uri);
      });
  if (!Found)
    return errResponse(ErrCode::NoSuchDocument,
                       "no document " + std::to_string(Doc));
  return R;
}

Response blame::historyResponse(const DocumentStore &Store,
                                const ProvenanceIndex &Idx, DocId Doc,
                                URI Uri) {
  Response R;
  bool Found = Store.withDocument(
      Doc, [&](const Tree *, uint64_t,
               const std::vector<DocumentStore::HistoryEntry> &History) {
        std::vector<HistoryRef> Ring;
        Ring.reserve(History.size());
        for (const DocumentStore::HistoryEntry &H : History) {
          HistoryRef Ref;
          Ref.Version = H.Version;
          if (H.Author != nullptr)
            Ref.Author = *H.Author;
          Ref.Script = H.Script;
          Ring.push_back(Ref);
        }
        R = historyFromRing(Idx, Doc, Uri, Ring);
      });
  if (!Found)
    return errResponse(ErrCode::NoSuchDocument,
                       "no document " + std::to_string(Doc));
  return R;
}

void blame::wireBlameHandlers(service::DiffService &Svc,
                              const DocumentStore &Store,
                              const ProvenanceIndex &Idx) {
  Svc.setBlameHandler([&Store, &Idx](DocId Doc, bool HasUri, URI Uri) {
    return blameResponse(Store, Idx, Doc, HasUri, Uri);
  });
  Svc.setHistoryHandler([&Store, &Idx](DocId Doc, URI Uri) {
    return historyResponse(Store, Idx, Doc, Uri);
  });
}
