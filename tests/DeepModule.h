//===- tests/DeepModule.h - Deep Python modules for regressions -*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The s-expression of a Python module of many statements. Its StmtCons
/// chain is as deep as the module is long, so 9,000 statements make a
/// tree 9,003 levels deep: past the 8,192-level guard the snapshot codec
/// once had, yet a document that admission accepts.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_DEEPMODULE_H
#define TRUEDIFF_TESTS_DEEPMODULE_H

#include <string>

namespace truediff {
namespace tests {

/// `Module` of \p Stmts statements: \p First, then `Pass` statements.
inline std::string deepModuleText(int Stmts, const char *First = "Pass") {
  std::string Text = "(Module ";
  for (int I = 0; I != Stmts; ++I)
    Text += std::string("(StmtCons (") + (I == 0 ? First : "Pass") + ") ";
  Text += "(StmtNil)";
  Text.append(static_cast<size_t>(Stmts), ')');
  return Text + ")";
}

} // namespace tests
} // namespace truediff

#endif // TRUEDIFF_TESTS_DEEPMODULE_H
