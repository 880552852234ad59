//===- incremental/TreeDatabase.h - Edit-driven tree database ---*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Datalog-style database of tree facts -- node tags, literals, and one
/// parent/child index per link -- maintained incrementally from truechange
/// edit scripts, as in the paper's IncA driver (Section 6). The index
/// encoding is selectable: one-to-one (possible because the scripts are
/// type-safe) or many-to-one (what untyped scripts would force), so the
/// paper's comparison can be benchmarked.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_INCREMENTAL_TREEDATABASE_H
#define TRUEDIFF_INCREMENTAL_TREEDATABASE_H

#include "incremental/Index.h"
#include "truechange/Edit.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace truediff {

class Tree;

namespace incremental {

/// Which index encoding backs the per-link parent/child relation.
enum class IndexMode : uint8_t { OneToOne, ManyToOne };

/// One row of the node table.
struct NodeRow {
  TagId Tag = InvalidSymbol;
  std::vector<LitRef> Lits;
};

/// The fact database.
class TreeDatabase {
public:
  TreeDatabase(const SignatureTable &Sig, IndexMode Mode)
      : Sig(Sig), Mode(Mode) {}

  /// Inserts the row for the pre-defined virtual root, i.e. the state of
  /// the empty tree. A database initialised this way can be built up
  /// purely from an initializing edit script (truechange/InitScript).
  void initEmpty();

  /// Loads every node of \p T (including a row for the virtual root).
  void initFromTree(const Tree *T);

  /// Applies one edit; constant time per edit.
  void applyEdit(const Edit &E);

  /// Applies a whole script.
  void applyScript(const EditScript &Script);

  /// \name Queries
  /// @{
  const NodeRow *node(URI Uri) const;

  /// The child of \p Parent via \p Link, if any.
  std::optional<URI> childOf(URI Parent, LinkId Link) const;

  /// The parent of \p Child via any link (searches the link indices).
  std::optional<URI> parentOf(URI Child) const;

  /// All children of \p Parent in signature-link order.
  std::vector<URI> childrenOf(URI Parent) const;

  size_t numNodes() const { return Nodes.size(); }
  IndexMode mode() const { return Mode; }
  const SignatureTable &signatures() const { return Sig; }
  /// @}

private:
  void link(URI Parent, LinkId Link, URI Child);
  void unlink(URI Parent, LinkId Link, URI Child);

  const SignatureTable &Sig;
  IndexMode Mode;
  std::unordered_map<URI, NodeRow> Nodes;
  /// One-to-one: parent <-> child per link.
  std::unordered_map<LinkId, BidirectionalOneToOneIndex<URI, URI>> One;
  /// Many-to-one: child -> parent per link, with reverse sets.
  std::unordered_map<LinkId, BidirectionalManyToOneIndex<URI, URI>> Many;
};

} // namespace incremental
} // namespace truediff

#endif // TRUEDIFF_INCREMENTAL_TREEDATABASE_H
