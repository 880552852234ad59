//===- hdiff/HDiff.h - hdiff-style typed pattern diffing --------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the hdiff algorithm (Miraldo &
/// Swierstra, ICFP 2019), the typed baseline of the paper's evaluation.
/// A patch is a tree rewriting
///
///   (deletion context  { insertion context)
///
/// where shared subtrees -- identified by cryptographic hashes, like in
/// truediff -- are replaced by metavariables #n. The deletion context is
/// matched against the source tree to bind the metavariables; the
/// insertion context is a template producing the target tree.
///
/// The paper's criticism (Sections 1 and 7) is that such patches mention
/// every constructor on the spine from the root to each change, so their
/// size grows with the trees; the patch-size metric numConstructors()
/// reproduces that measurement (constructors mentioned in the rewriting).
///
/// After extraction, a closure pass restores well-scopedness: a
/// metavariable used by the insertion context but hidden inside a larger
/// shared tree on the deletion side forces that larger variable to be
/// expanded one constructor level (both sides), until every used variable
/// is bound.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_HDIFF_HDIFF_H
#define TRUEDIFF_HDIFF_HDIFF_H

#include "tree/Tree.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace truediff {
namespace hdiff {

/// A node of a context: either a metavariable or a constructor.
struct PatchNode {
  bool IsMetaVar = false;
  int Var = -1;
  TagId Tag = InvalidSymbol;
  std::vector<PatchNode *> Kids;
  std::vector<Literal> Lits;
};

struct HDiffOptions {
  /// Minimum height of shared subtrees; hdiff does not share trees below
  /// a height threshold to avoid degenerate sharing of tiny leaves.
  uint32_t MinSharedHeight = 2;
};

/// An hdiff patch: deletion context, insertion context, and the trees
/// bound to each metavariable (for expansion and debugging).
struct HDiffPatch {
  PatchNode *Deletion = nullptr;
  PatchNode *Insertion = nullptr;

  /// The paper's patch-size metric for hdiff: the number of constructors
  /// mentioned in the tree rewriting (metavariables are free).
  size_t numConstructors() const;

  /// Renders "(Add (#0) (Mul (#1) (#2))) ~> (Add (#2) ...)".
  std::string toString(const SignatureTable &Sig) const;
};

/// hdiff diffing and patching session; owns the patch nodes it creates.
class HDiff {
public:
  explicit HDiff(TreeContext &Ctx, HDiffOptions Opts = HDiffOptions())
      : Ctx(Ctx), Sig(Ctx.signatures()), Opts(Opts) {}

  /// Computes the patch transforming \p Src into \p Dst. Neither tree is
  /// modified.
  HDiffPatch diff(const Tree *Src, const Tree *Dst);

  /// Applies a patch: matches the deletion context against \p Tree,
  /// binds metavariables (checking consistency for repeated variables),
  /// and instantiates the insertion context with fresh nodes in the
  /// context. Returns nullptr if the deletion context does not match.
  Tree *apply(const HDiffPatch &Patch, const Tree *Tree);

private:
  /// Key identifying equal trees: structure and literal hash together.
  struct TreeKey {
    Digest Struct, Lit;
    bool operator==(const TreeKey &O) const {
      return Struct == O.Struct && Lit == O.Lit;
    }
  };
  struct TreeKeyHash {
    size_t operator()(const TreeKey &K) const {
      return K.Struct.prefixWord() * 31 + K.Lit.prefixWord();
    }
  };
  static TreeKey keyOf(const Tree *T) {
    return TreeKey{T->structureHash(), T->literalHash()};
  }

  struct SharedEntry {
    int Var;
    const Tree *Repr; // representative occurrence (from the source tree)
  };

  PatchNode *makeVar(int Var);
  PatchNode *makeCtor(const Tree *T, std::vector<PatchNode *> Kids);

  /// Extracts a context: shared subtrees become metavariables.
  PatchNode *extract(const Tree *T);

  /// Extracts one constructor level of \p T, sharing the kids.
  PatchNode *extractOneLevel(const Tree *T);

  /// Replaces every occurrence of metavariable \p Var in \p N by a fresh
  /// copy of \p Replacement.
  PatchNode *substVar(PatchNode *N, int Var, const PatchNode *Replacement);

  PatchNode *copyNode(const PatchNode *N);

  /// Closure: expands deletion-hidden variables until the insertion
  /// context only uses bound variables.
  void close(HDiffPatch &Patch);

  bool match(const PatchNode *Pattern, const Tree *T,
             std::unordered_map<int, const Tree *> &Bindings) const;
  Tree *instantiate(const PatchNode *Template,
                    const std::unordered_map<int, const Tree *> &Bindings);

  TreeContext &Ctx;
  const SignatureTable &Sig;
  HDiffOptions Opts;
  std::deque<PatchNode> Arena;
  std::unordered_map<TreeKey, SharedEntry, TreeKeyHash> Shared;
  int NextVar = 0;
};

} // namespace hdiff
} // namespace truediff

#endif // TRUEDIFF_HDIFF_HDIFF_H
