//===- blame/Render.h - blame / history query rendering ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders blame and history answers from the ProvenanceIndex into wire
/// responses, shared by the leader and follower replicas: both serve
/// from a DocumentStore and a provenance index listening to it. The text
/// is deterministic: a leader and a caught-up follower render
/// byte-identical blame output for the same document, which the
/// replication smoke test asserts.
///
/// `blame <doc>` renders the live tree pre-order, one line per node:
///
///   <indent>[@<depth> ]<tag>#<uri> intro=v<V>:<author|-> last=v<V>:<author|-> <op>
///
/// The indent is two spaces per level, capped at MaxIndentDepth levels;
/// a deeper line is indented as that level and names its depth, so the
/// answer grows linearly with the tree, whatever its height.
///
/// `blame <doc> <uri>` is the single-node line, served from the index
/// alone -- one hash probe, no tree walk, no history replay.
///
/// `history <doc> <uri>` lists the retained revisions that touched the
/// node, newest first, from the script history ring. The ring is
/// bounded, so answers degrade *explicitly*: a partially covered chain
/// carries a trailing `evicted ...` marker, and a node whose retained
/// chain is entirely gone yields ErrCode::HistoryExhausted -- never a
/// silently wrong attribution.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_BLAME_RENDER_H
#define TRUEDIFF_BLAME_RENDER_H

#include "blame/Provenance.h"
#include "service/DiffService.h"

namespace truediff {
namespace blame {

/// Levels of indentation a blame tree line gets at most.
inline constexpr unsigned MaxIndentDepth = 32;

/// Renders the annotated pre-order tree for `blame <doc>` (the DocView
/// must belong to \p Doc's index and the tree to the same version).
std::string renderBlameTree(const SignatureTable &Sig, const Tree *Root,
                            const ProvenanceIndex::DocView &View);

/// `blame <doc> [uri]`: walks the store's live tree under the document
/// lock (single-node blame reads the index alone).
service::Response blameResponse(const service::DocumentStore &Store,
                                const ProvenanceIndex &Idx,
                                service::DocId Doc, bool HasUri, URI Uri);

/// `history <doc> <uri>`: lists the store's retained revisions that
/// touched the node, read under the document lock.
service::Response historyResponse(const service::DocumentStore &Store,
                                  const ProvenanceIndex &Idx,
                                  service::DocId Doc, URI Uri);

/// Wires `blame`/`history` service operations to \p Store + \p Idx; the
/// server binary calls this once after constructing the service. Both
/// must outlive \p Svc.
void wireBlameHandlers(service::DiffService &Svc,
                       const service::DocumentStore &Store,
                       const ProvenanceIndex &Idx);

} // namespace blame
} // namespace truediff

#endif // TRUEDIFF_BLAME_RENDER_H
