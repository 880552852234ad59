//===- truediff/TrueDiff.h - The truediff structural diffing algorithm -----===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The truediff algorithm (paper Section 4): computes a concise, type-safe
/// truechange edit script that transforms a source tree into a target
/// tree, in time linear in the sizes of both trees (Theorem 4.1).
///
/// The four steps:
///  1. Subtree equivalences are prepared during tree construction (the
///     structure and literal hashes cached in every Tree node).
///  2. assignShares: all structurally equivalent subtrees get the same
///     SubtreeShare; source subtrees are registered as available, and
///     identical source/target pairs are assigned preemptively.
///  3. assignSubtrees: target subtrees acquire available source subtrees,
///     highest-first to avoid fragmentation, preferring exact (literally
///     equivalent) copies.
///  4. computeEdits: a simultaneous traversal emits edits for changed
///     nodes only; negative edits precede positive edits in the script.
///
/// compareTo *consumes* the source tree: reused nodes move into the
/// returned patched tree, which is structurally and literally equal to the
/// target but reuses source URIs, ready for the next diffing round
/// (incremental computing, Section 6).
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TRUEDIFF_TRUEDIFF_H
#define TRUEDIFF_TRUEDIFF_TRUEDIFF_H

#include "tree/Tree.h"
#include "truechange/Edit.h"
#include "truediff/EditBuffer.h"
#include "truediff/SubtreeShare.h"

#include <queue>

namespace truediff {

/// Tuning knobs; the defaults reproduce the paper's algorithm, the other
/// settings exist for the ablation benches (DESIGN.md E9/E10).
struct TrueDiffOptions {
  /// Prefer literally equivalent (exact-copy) reuse candidates before
  /// falling back to structurally equivalent ones (Section 4.1/4.3).
  bool PreferLiteralMatches = true;

  /// Traverse target subtrees highest-first (Section 4.3). When false, a
  /// FIFO breadth-first order is used instead.
  bool HeightPriority = true;

  /// After Step 4, recompute the patched tree's derived data (Step-1
  /// digests, heights, sizes) only along the root-to-edit paths the diff
  /// touched, instead of rehashing the whole tree. Semantically invisible
  /// -- the resulting digests are identical -- but it turns the per-diff
  /// hashing cost from O(tree) into O(changed paths), which is what makes
  /// a persisted, pre-hashed source tree "warm" (DocumentStore's digest
  /// cache). When false, the paper-faithful full refresh runs instead.
  bool IncrementalRehash = true;
};

/// Result of one diff: the edit script and the patched tree.
struct DiffResult {
  EditScript Script;
  /// The source tree transformed into the target: uses newly loaded nodes
  /// and reused source nodes only, with fresh derived data and cleared
  /// diffing state.
  Tree *Patched = nullptr;
  /// Number of patched-tree nodes whose derived data was recomputed after
  /// Step 4: the whole tree under full refresh, only the dirty paths under
  /// IncrementalRehash. The difference to Patched->size() is what the
  /// digest cache saved.
  uint64_t NodesRehashed = 0;
};

/// One diffing session. The source and target tree must live in the same
/// TreeContext, so their URIs are unique across both.
class TrueDiff {
public:
  explicit TrueDiff(TreeContext &Ctx, TrueDiffOptions Opts = TrueDiffOptions())
      : Ctx(Ctx), Sig(Ctx.signatures()), Opts(Opts) {}

  /// Computes the difference between \p Source and \p Target.
  /// \p Source is consumed (its nodes move into the result); \p Target is
  /// left intact. Afterwards no node of either tree, or of the result,
  /// carries diffing state: the session resets every node it stamped.
  ///
  /// \p Source must carry valid derived data (it does after construction,
  /// refreshDerived, or a previous compareTo round -- trees are
  /// "pre-hashed" by default in this representation).
  DiffResult compareTo(Tree *Source, Tree *Target);

private:
  /// \name Step 2
  /// Iterative, in the order of the paper's recursive definition.
  /// @{
  void assignShares(Tree *Source, Tree *Target);
  /// @}

  /// \name Step 3
  /// @{
  void assignSubtrees(Tree *That);

  /// Tries to acquire a reuse candidate for \p That; returns true on
  /// success.
  bool selectTree(Tree *That, bool Preferred);

  /// Acquires \p Source for \p That: deregisters Source and its subtrees,
  /// undoes preemptive assignments inside Source (re-enqueueing the
  /// affected target subtrees), and assigns the pair.
  void takeTree(Tree *Source, Tree *That);
  /// @}

  /// \name Step 4
  /// Iterative, in the order of the paper's recursive definition.
  /// @{
  Tree *computeEdits(Tree *Source, Tree *Target, NodeRef Parent, LinkId Link,
                     EditBuffer &Edits);
  Tree *updateLits(Tree *This, Tree *That, EditBuffer &Edits);
  Tree *loadUnassigned(Tree *That, EditBuffer &Edits);
  void unloadUnassigned(Tree *This, EditBuffer &Edits);
  /// Replaces \p This by \p That below \p Parent: detach, unload, load,
  /// attach.
  Tree *replaceTree(Tree *This, Tree *That, NodeRef Parent, LinkId Link,
                    EditBuffer &Edits);
  /// Emits the update of \p This's literals to \p That's and applies it.
  void emitUpdate(Tree *This, const Tree *That, EditBuffer &Edits);
  /// @}

  std::vector<KidRef> kidRefs(const Tree *T) const;
  std::vector<LitRef> litRefs(TagId Tag, LitSpan Lits) const;

  TreeContext &Ctx;
  const SignatureTable &Sig;
  TrueDiffOptions Opts;
  SubtreeRegistry Registry;

  /// Step 3 worklist. Ordered by (height desc, URI asc) for determinism;
  /// takeTree re-enqueues targets whose preemptive assignment was undone.
  struct QueueOrder {
    bool operator()(const Tree *A, const Tree *B) const {
      if (A->height() != B->height())
        return A->height() < B->height();
      return A->uri() > B->uri();
    }
  };
  std::priority_queue<Tree *, std::vector<Tree *>, QueueOrder> Queue;

  /// Session-unique stamp source for takeTree's containment marks.
  uint32_t MarkCounter = 0;

  /// Nodes takeTree marked this session, once each; compareTo resets them
  /// with the registry's shared nodes when it ends.
  std::vector<Tree *> Marked;

  /// Step 4: loaded (or reused) trees whose parent is not built yet.
  std::vector<Tree *> Loaded;
};

} // namespace truediff

#endif // TRUEDIFF_TRUEDIFF_TRUEDIFF_H
