//===- tree/SExpr.h - S-expression reader and printer -----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads and prints typed trees as s-expressions, e.g.
///
///   (Add (Num 1) (Call "f" (Num 2)))
///
/// For each tag, the reader expects the children first and then the
/// literals, in signature order, so the syntax is unambiguous without
/// labels. This plays the role of the paper's parser bindings (Section 5):
/// it is the generic way to get external trees into Diffable form.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TREE_SEXPR_H
#define TRUEDIFF_TREE_SEXPR_H

#include "tree/Tree.h"

#include <optional>
#include <string>
#include <string_view>

namespace truediff {

/// Result of parsing: the tree, or an error message with position info
/// plus a typed failure reason (admission caps vs. plain syntax errors).
struct ParseResult {
  Tree *Root = nullptr;
  std::string Error;
  ParseFail Fail = ParseFail::None;

  bool ok() const { return Root != nullptr; }
};

/// Parses \p Text into a tree allocated in \p Ctx. \p Limits caps the
/// nesting depth and node count of the input as admission policy; the
/// parser keeps its nesting on the heap, so no depth can exhaust the
/// thread's stack. If \p Ctx has a memory budget attached, the parse also aborts
/// with ParseFail::OverBudget once the budget is exhausted.
ParseResult parseSExpr(TreeContext &Ctx, std::string_view Text,
                       const ParseLimits &Limits = {});

/// Prints \p T as a single-line s-expression.
std::string printSExpr(const SignatureTable &Sig, const Tree *T);

/// Prints \p T as an s-expression with URIs as subscripts, e.g.
/// "(Add_1 (Num_2 1) (Num_3 2))"; matches the paper's notation and is used
/// in tests and examples.
std::string printSExprWithUris(const SignatureTable &Sig, const Tree *T);

} // namespace truediff

#endif // TRUEDIFF_TREE_SEXPR_H
