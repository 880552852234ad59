//===- tests/Validate.h - Whole-tree well-typedness check -------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle the parser, codec and generator tests check trees with:
/// every node's tag is known, its kid and literal arities match its
/// signature, every kid is present with a sort its slot accepts, and
/// every literal has its slot's kind. Construction already asserts this;
/// the check catches what a reader builds from untrusted input.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_VALIDATE_H
#define TRUEDIFF_TESTS_VALIDATE_H

#include "tree/Tree.h"

#include <optional>
#include <string>
#include <vector>

namespace truediff {
namespace tests {

/// The first error in pre-order, or std::nullopt if \p T is well-typed.
/// Iterative, so admission-legal deep chains are safe.
inline std::optional<std::string> validateTree(const SignatureTable &Sig,
                                               const Tree *T) {
  // Iterative, in the order of the recursive definition: a node's tag and
  // arities, then per kid its presence and sort followed by the kid's own
  // subtree, then the node's literal kinds.
  struct Frame {
    const Tree *Node;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Enter = [&](const Tree *N) -> std::optional<std::string> {
    if (!Sig.hasTag(N->tag()))
      return "unknown tag: " + Sig.name(N->tag());
    const TagSignature &TagSig = Sig.signature(N->tag());
    if (N->arity() != TagSig.Kids.size())
      return "kid arity mismatch at " + Sig.name(N->tag());
    if (N->numLits() != TagSig.Lits.size())
      return "literal arity mismatch at " + Sig.name(N->tag());
    Stack.push_back({N, 0});
    return std::nullopt;
  };
  if (auto Err = Enter(T))
    return Err;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const Tree *N = Top.Node;
    const TagSignature &TagSig = Sig.signature(N->tag());
    if (Top.NextKid < N->arity()) {
      size_t I = Top.NextKid++;
      const Tree *Kid = N->kid(I);
      if (Kid == nullptr)
        return "empty slot in completed tree at " + Sig.name(N->tag());
      SortId KidSort = Sig.signature(Kid->tag()).Result;
      if (!Sig.isSubsort(KidSort, TagSig.Kids[I].Sort))
        return "kid sort mismatch at " + Sig.name(N->tag()) + "." +
               Sig.name(TagSig.Kids[I].Link);
      if (auto Err = Enter(Kid))
        return Err;
      continue;
    }
    for (size_t I = 0, E = N->numLits(); I != E; ++I)
      if (N->lit(I).kind() != TagSig.Lits[I].Kind)
        return "literal kind mismatch at " + Sig.name(N->tag()) + "." +
               Sig.name(TagSig.Lits[I].Link);
    Stack.pop_back();
  }
  return std::nullopt;
}

} // namespace tests
} // namespace truediff

#endif // TRUEDIFF_TESTS_VALIDATE_H
