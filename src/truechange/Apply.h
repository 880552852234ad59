//===- truechange/Apply.h - Checked in-place script application -*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies a truechange edit script to a typed tree in place: the path a
/// stored document takes when it is rolled back, replayed from the log,
/// or fed a replicated record on a follower.
///
/// The script is first gated on the linear type system (paper Figure 3).
/// Each edit is then checked for syntactic compliance (Definition 3.5)
/// against the live tree, with exactly MTree::checkCompliance's checks,
/// and applied. By Theorems 3.6-3.8 a well-typed, compliant script then
/// yields a closed, well-typed tree, and the inverse of a recorded script
/// restores its source, so no detour through the standard semantics
/// (MTree) is needed. MTree stays the reference semantics: tests run both
/// on the same scripts and require the same decisions and results.
///
/// Only what the script touches is rehashed. Loaded nodes are built with
/// their derived data deferred; every touched node and its ancestors are
/// marked derived-dirty, and one rehashDirtyPaths pass at the end
/// recomputes exactly those paths. A stored document's digest cache thus
/// survives the apply, as it survives a submit.
///
/// A failed apply leaves the tree exactly as it was: the applied prefix is
/// undone, and nodes the prefix loaded stay behind as unreachable arena
/// garbage.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TRUECHANGE_APPLY_H
#define TRUEDIFF_TRUECHANGE_APPLY_H

#include "tree/Tree.h"
#include "truechange/Edit.h"

#include <memory>
#include <string>

namespace truediff {

/// Outcome of applyChecked: Ok, or the index of the failing edit and a
/// message. The index and the decision are those of the type checker if
/// it rejects the script, and otherwise those of MTree::patchChecked --
/// except that a script naming the pre-defined root (NullURI) as a node
/// to attach, unload or load under another node is rejected here, where
/// MTree would accept it and corrupt its own root.
struct ApplyResult {
  bool Ok = true;
  /// The type checker rejected the script; no edit was applied.
  bool IllTyped = false;
  size_t ErrorIndex = 0;
  std::string Error;
  /// Nodes whose derived data the closing dirty-path pass recomputed.
  uint64_t NodesRehashed = 0;
};

/// Applies \p Script to the document whose root slot is \p Root, in
/// place, allocating loaded nodes in \p Ctx (which must own the tree).
/// An empty slot (null \p Root) takes an initializing script (Definition
/// 3.2), a filled one a well-typed script (Definition 3.1). The tree must
/// be closed, its URIs unique, and its derived data clean; on success it
/// is again all three. On failure \p Root and the tree are unchanged.
ApplyResult applyChecked(TreeContext &Ctx, Tree *&Root,
                         const EditScript &Script);

/// applyChecked for a sequence of scripts on one document, such as a
/// replayed log. The URI index over the tree is built by the first
/// script and kept current by every successful one, so the tree is
/// indexed once rather than once per script (after a failure it is
/// rebuilt). Between calls, nothing else may change the tree or \p Root.
class ScriptApplier {
public:
  ScriptApplier(TreeContext &Ctx, Tree *&Root);
  ~ScriptApplier();
  ScriptApplier(const ScriptApplier &) = delete;
  ScriptApplier &operator=(const ScriptApplier &) = delete;

  ApplyResult apply(const EditScript &Script);

private:
  class Impl;
  std::unique_ptr<Impl> I;
};

} // namespace truediff

#endif // TRUEDIFF_TRUECHANGE_APPLY_H
