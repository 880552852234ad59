//===- truechange/MTree.h - Standard semantics of edit scripts --*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard semantics of truechange (paper Figure 2): a mutable tree
/// of MNodes with an index from URI to node, so every edit applies in
/// constant time. The pre-defined root node has tag RootTag, URI null, and
/// a single slot RootLink.
///
/// Because well-typed scripts never overload links, each link maps to at
/// most one child and a plain map<Link, MNode*> suffices -- the paper's
/// key observation enabling typed representations.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TRUECHANGE_MTREE_H
#define TRUEDIFF_TRUECHANGE_MTREE_H

#include "tree/Tree.h"
#include "truechange/Edit.h"

#include <deque>
#include <string>
#include <unordered_map>

namespace truediff {

/// A mutable tree node of the standard semantics: links to child nodes and
/// literals can be updated destructively.
struct MNode {
  TagId Tag = InvalidSymbol;
  URI Uri = NullURI;
  std::unordered_map<LinkId, MNode *> Kids;
  std::unordered_map<LinkId, Literal> Lits;
};

/// A mutable tree with indexed nodes for constant-time access.
class MTree {
public:
  /// Creates the empty tree: just the pre-defined root node with an empty
  /// RootLink slot, as in the paper's MTree constructor.
  explicit MTree(const SignatureTable &Sig);

  MTree(const MTree &) = delete;
  MTree &operator=(const MTree &) = delete;
  MTree(MTree &&) = default;

  /// Converts a typed tree into an MTree, preserving URIs. The tree hangs
  /// off the root's RootLink.
  static MTree fromTree(const SignatureTable &Sig, const Tree *T);

  /// Outcome of patching: Ok, or the index of the failing edit plus a
  /// message. Patching never fails for well-typed, compliant scripts
  /// (Theorem 3.6).
  struct PatchResult {
    bool Ok = true;
    size_t ErrorIndex = 0;
    std::string Error;
    /// On success (patch/patchChecked only): the deduplicated URIs whose
    /// nodes the script mutated in place -- rewired parents, re-literaled
    /// and loaded nodes (EditScript::touchedUris). Consumers maintaining
    /// per-node caches over the tree invalidate exactly these entries
    /// (plus their ancestors) instead of flushing.
    std::vector<URI> TouchedUris;
  };

  /// The standard semantics t => t.patch(Delta): applies each edit with
  /// processEdit. Performs only the lookups Figure 2 performs; trusts the
  /// type system otherwise.
  PatchResult patch(const EditScript &Script);

  /// Like patch, but first verifies each edit's syntactic compliance
  /// (Definition 3.5) against the current tree: detached nodes really are
  /// the children they claim to be, loaded URIs are fresh, unloaded nodes
  /// carry exactly the listed kids and literals, and updates replace the
  /// literals they claim to replace.
  PatchResult patchChecked(const EditScript &Script);

  /// Applies a single edit (Figure 2's processEdit).
  PatchResult processEdit(const Edit &E, size_t Index = 0);

  /// \name Inspection
  /// @{
  MNode *root() { return Root; }
  const MNode *root() const { return Root; }

  /// The node with URI \p Uri, or nullptr if not loaded.
  const MNode *lookup(URI Uri) const;

  /// The tree hanging off the root's RootLink, or nullptr.
  const MNode *top() const;

  /// Number of indexed nodes, including the pre-defined root.
  size_t indexSize() const { return Index.size(); }

  /// True iff the tree is closed and well-formed: every node reachable
  /// from the root has all signature slots filled and all literals
  /// present, and the index contains exactly the reachable nodes (no
  /// leaked detached subtrees). This is the conclusion Theorem 3.6
  /// guarantees for well-typed, compliant scripts.
  bool isClosedWellFormed() const;

  /// True iff the patched content equals \p T up to URIs. Kid links are
  /// compared in signature order.
  bool equalsTree(const Tree *T) const;

  /// Renders the tree like printSExprWithUris, for tests and debugging:
  /// on a closed, well-formed tree the text is byte-identical to
  /// printSExprWithUris of the typed tree it stands for. Unchecked: empty
  /// slots show as "<hole>", absent literals as "<missing>" and tags
  /// without a signature as "<unknown>".
  std::string toString() const;
  /// @}

private:
  PatchResult checkCompliance(const Edit &E, size_t Index) const;
  template <typename Visitor> bool walk(Visitor &V) const;

  const SignatureTable &Sig;
  std::deque<MNode> Arena;
  MNode *Root;
  std::unordered_map<URI, MNode *> Index;
};

} // namespace truediff

#endif // TRUEDIFF_TRUECHANGE_MTREE_H
