//===- tests/ScriptFuzz.h - Corrupted edit scripts for fuzzing --*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random corruption of well-typed truechange scripts, shared by the
/// Theorem 3.6 fuzz test and the differential tests that run applyChecked
/// against MTree::patchChecked on the same corrupted scripts.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_SCRIPTFUZZ_H
#define TRUEDIFF_TESTS_SCRIPTFUZZ_H

#include "support/Rng.h"
#include "truechange/Edit.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace truediff {
namespace tests {

/// Randomly corrupts one aspect of a script: swaps, drops or duplicates
/// an edit, perturbs a node or parent URI, or reverses the edit order
/// without inverting the edits.
inline EditScript corruptScript(Rng &R, const EditScript &Script) {
  std::vector<Edit> Edits(Script.edits());
  if (Edits.empty())
    return EditScript(std::move(Edits));
  switch (R.below(6)) {
  case 0: { // swap two edits
    size_t I = R.below(Edits.size()), J = R.below(Edits.size());
    std::swap(Edits[I], Edits[J]);
    break;
  }
  case 1: // drop an edit
    Edits.erase(Edits.begin() + static_cast<long>(R.below(Edits.size())));
    break;
  case 2: { // duplicate an edit
    size_t I = R.below(Edits.size());
    Edits.insert(Edits.begin() + static_cast<long>(I), Edits[I]);
    break;
  }
  case 3: { // perturb a node URI
    Edit &E = Edits[R.below(Edits.size())];
    E.Node.Uri += R.range(1, 5);
    break;
  }
  case 4: { // perturb a parent URI (detach/attach only)
    Edit &E = Edits[R.below(Edits.size())];
    E.Parent.Uri += R.range(1, 5);
    break;
  }
  default: { // reverse the whole script without inverting the edits
    std::reverse(Edits.begin(), Edits.end());
    break;
  }
  }
  return EditScript(std::move(Edits));
}

} // namespace tests
} // namespace truediff

#endif // TRUEDIFF_TESTS_SCRIPTFUZZ_H
