//===- tests/RoseEquals.h - Structural equality of rose trees ---*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle the Gumtree tests check simulated scripts with: two rose
/// trees are equal when type, label and kids agree, without relying on
/// their cached hashes.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_ROSEEQUALS_H
#define TRUEDIFF_TESTS_ROSEEQUALS_H

#include "gumtree/RoseTree.h"

namespace truediff {
namespace tests {

inline bool roseEquals(const gumtree::RNode *A, const gumtree::RNode *B) {
  if (A->Type != B->Type || A->Label != B->Label ||
      A->Kids.size() != B->Kids.size())
    return false;
  for (size_t I = 0, E = A->Kids.size(); I != E; ++I)
    if (!roseEquals(A->Kids[I], B->Kids[I]))
      return false;
  return true;
}

} // namespace tests
} // namespace truediff

#endif // TRUEDIFF_TESTS_ROSEEQUALS_H
