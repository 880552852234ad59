//===- truediff/SubtreeShare.h - Shares of equivalent subtrees --*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subtree shares manage subtrees as resources during diffing (paper
/// Section 4.2): all structurally equivalent subtrees of the source and
/// target tree are assigned the same share. Source subtrees are registered
/// as *available* resources; target subtrees demand resources from their
/// share in Step 3.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TRUEDIFF_SUBTREESHARE_H
#define TRUEDIFF_TRUEDIFF_SUBTREESHARE_H

#include "support/Digest.h"
#include "tree/Tree.h"

#include <deque>
#include <unordered_map>
#include <vector>

namespace truediff {

/// The share of one structural-equivalence class of subtrees.
///
/// Availability is tracked with a registration-order list plus a per-node
/// flag (Tree::shareAvailable); deregistered entries are skipped lazily,
/// which keeps registration, deregistration, and selection amortized
/// constant time (required for the linear-time bound of Theorem 4.1) and
/// makes "take any" deterministic (earliest registered wins). The flag
/// lives in the node rather than a per-share URI hash set so the Step-3
/// scan is a linear walk over Order with one flag load per entry.
class SubtreeShare {
public:
  /// Makes \p T available for reuse. Called for source subtrees in Step 2.
  void registerAvailableTree(Tree *T) {
    Order.push_back(T);
    T->setShareAvailable(true);
  }

  /// Removes \p T from the available set (the tree was consumed as part
  /// of an acquired subtree). No-op if not available.
  void deregisterAvailableTree(Tree *T) { T->setShareAvailable(false); }

  bool isAvailable(const Tree *T) const { return T->shareAvailable(); }

  /// Returns the earliest-registered available tree, or nullptr.
  Tree *takeAny();

  /// Returns the earliest-registered available tree whose literal hash
  /// equals \p LitHash (an exact copy, the *preferred* candidates of
  /// Section 4.1), or nullptr. The literal index is built lazily on the
  /// first preferred query, i.e. at the start of Step 3 when the available
  /// set is complete.
  Tree *takePreferred(const Digest &LitHash);

private:
  /// Candidates with one literal hash, in registration order; Head skips
  /// entries consumed since the index was built.
  struct PrefList {
    std::vector<Tree *> Trees;
    size_t Head = 0;
  };

  void buildPreferredIndex();

  std::vector<Tree *> Order;
  size_t Head = 0;
  std::unordered_map<Digest, PrefList, DigestHash> Preferred;
  bool PreferredBuilt = false;
};

/// Interns subtree shares by structure hash: two subtrees receive the same
/// share iff they are structurally equivalent (Section 4.2). Shares live
/// in a deque arena owned by the registry, so creating one is a bump
/// allocation instead of a heap round trip per equivalence class.
class SubtreeRegistry {
public:
  /// Pre-sizes the intern table and the shared-node list for about
  /// \p NumTrees registered nodes, so Step 2 never rehashes or regrows
  /// them mid-flight. An upper bound is fine; compareTo passes the
  /// combined source+target node count.
  void reserve(size_t NumTrees) {
    Shares.reserve(NumTrees);
    Shared.reserve(NumTrees);
  }

  /// Returns the share for \p T's structure hash, creating it on first
  /// use, and stores it in the node. Idempotent.
  SubtreeShare *assignShare(Tree *T);

  /// assignShare + registerAvailableTree; used for source subtrees that
  /// may be moved anywhere.
  SubtreeShare *assignShareAndRegisterTree(Tree *T);

  size_t numShares() const { return Shares.size(); }

  /// Every node this registry gave a share, once each. Availability and
  /// assignments are only ever stamped on such nodes, so resetting these
  /// (and takeTree's marked nodes) clears all the session's state.
  const std::vector<Tree *> &sharedTrees() const { return Shared; }

private:
  std::unordered_map<Digest, SubtreeShare *, DigestHash> Shares;
  std::vector<Tree *> Shared;
  std::deque<SubtreeShare> Arena;
};

} // namespace truediff

#endif // TRUEDIFF_TRUEDIFF_SUBTREESHARE_H
