//===- gumtree/RoseTree.h - Untyped rose trees for Gumtree ------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untyped tree representation required by Chawathe-style diffing
/// (paper Sections 1 and 7): a node has a type label, a string label, and
/// any number of children. Gumtree edit scripts generate intermediate
/// trees that violate signatures, so they can only be executed against
/// this representation -- which is exactly the paper's argument for
/// truechange.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_GUMTREE_ROSETREE_H
#define TRUEDIFF_GUMTREE_ROSETREE_H

#include "support/Digest.h"
#include "support/Interner.h"
#include "tree/Tree.h"

#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace truediff {
namespace gumtree {

/// An untyped, mutable tree node.
struct RNode {
  /// The node type (Gumtree's "type"); interned tag symbol.
  Symbol Type = InvalidSymbol;
  /// The node label (Gumtree's "label"); rendering of the literals.
  std::string Label;
  std::vector<RNode *> Kids;
  RNode *Parent = nullptr;

  /// Post-order index, assigned by RoseForest::index.
  int Id = -1;
  uint32_t Height = 1;
  uint64_t Size = 1;
  /// Isomorphism hash over type, label, and children: SipHash-2-4-128
  /// under the fixed ChecksumKey.
  Digest Hash;

  bool isLeaf() const { return Kids.empty(); }

  /// Number of proper descendants.
  uint64_t numDescendants() const { return Size - 1; }

  /// Applies \p Fn to this node and all descendants, pre-order.
  void foreachNode(const std::function<void(RNode *)> &Fn);

  /// Applies \p Fn to all nodes, post-order.
  void foreachPostOrder(const std::function<void(RNode *)> &Fn);

  /// Index of \p Kid in Kids; asserts presence.
  size_t kidIndex(const RNode *Kid) const;

  /// True iff the two trees are isomorphic (equal types, labels, shapes);
  /// decided by hash equality.
  bool isomorphicTo(const RNode *Other) const { return Hash == Other->Hash; }
};

/// Arena owning rose trees.
class RoseForest {
public:
  /// Creates a node; derived data (hash, height, size) is computed from
  /// the kids, which must be complete.
  RNode *make(Symbol Type, std::string Label, std::vector<RNode *> Kids);

  /// Converts a typed tree: the type is the tag, the label concatenates
  /// the literals. This plays the role of the paper's Gumtree binding
  /// (Section 5): both tools diff the same files.
  ///
  /// With \p FlattenLists (the default), typed cons-list spines
  /// (tags ending in "Cons"/"Nil") are flattened into n-ary children --
  /// the natural rose-tree shape Gumtree sees for statement lists; the
  /// cons encoding only exists because typed trees need fixed arities.
  RNode *fromTree(const SignatureTable &Sig, const Tree *T,
                  bool FlattenLists = true);

  /// Assigns post-order ids and parent pointers below \p Root.
  static void index(RNode *Root);

  /// Renders e.g. "Add(Num{1},Num{2})" for debugging.
  static std::string toString(const SignatureTable &Sig, const RNode *T);

  size_t numNodes() const { return Arena.size(); }

private:
  std::deque<RNode> Arena;
};

} // namespace gumtree
} // namespace truediff

#endif // TRUEDIFF_GUMTREE_ROSETREE_H
