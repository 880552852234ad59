//===- corpus/Sketch.h - Editable tree sketches -----------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TreeSketch is a plain, freely editable value-type mirror of a Tree.
/// The corpus mutator edits sketches (splice statement lists, rename
/// identifiers, ...) and then materializes the result as a fresh Tree,
/// because Tree nodes are arena-owned and carry derived data that must
/// stay consistent.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_CORPUS_SKETCH_H
#define TRUEDIFF_CORPUS_SKETCH_H

#include "tree/Tree.h"

#include <functional>
#include <vector>

namespace truediff {
namespace corpus {

/// Editable mirror of a tree node.
struct TreeSketch {
  TagId Tag = InvalidSymbol;
  std::vector<TreeSketch> Kids;
  std::vector<Literal> Lits;

  /// Deep-copies \p T into a sketch.
  static TreeSketch of(const Tree *T);

  /// Materializes the sketch as a fresh tree in \p Ctx.
  Tree *build(TreeContext &Ctx) const;

  /// Applies \p Fn to this sketch and all descendants, pre-order.
  void foreach(const std::function<void(TreeSketch &)> &Fn);
};

/// Flattens a cons list (XCons/XNil encoding) into element sketches.
std::vector<TreeSketch> listToVector(const SignatureTable &Sig,
                                     const TreeSketch &List);

/// Rebuilds a cons list from elements; \p ConsTag/\p NilTag name the
/// encoding (e.g. "StmtCons"/"StmtNil").
TreeSketch vectorToList(const SignatureTable &Sig, std::string_view ConsTag,
                        std::string_view NilTag,
                        std::vector<TreeSketch> Elements);

} // namespace corpus
} // namespace truediff

#endif // TRUEDIFF_CORPUS_SKETCH_H
