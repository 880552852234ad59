//===- examples/quickstart.cpp - truediff-cpp in five minutes --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks through the paper's Section 2 example end to end:
///  1. define a signature (the types of your trees),
///  2. build two trees,
///  3. diff them with truediff,
///  4. type check the edit script with truechange's linear type system,
///  5. apply the script to the standard semantics (MTree).
///
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include <cstdio>

using namespace truediff;

int main() {
  // 1. The signature: Exp with Add/Sub/Mul and the leaf tags of the
  // paper's running example. Links are named e1/e2 as in the paper.
  SignatureTable Sig;
  Sig.defineTag("Add", "Exp", {{"e1", "Exp"}, {"e2", "Exp"}}, {});
  Sig.defineTag("Sub", "Exp", {{"e1", "Exp"}, {"e2", "Exp"}}, {});
  Sig.defineTag("Mul", "Exp", {{"e1", "Exp"}, {"e2", "Exp"}}, {});
  for (const char *Leaf : {"a", "b", "c", "d"})
    Sig.defineTag(Leaf, "Exp", {}, {});

  // 2. The two trees of Section 2:
  //    diff(Add(Sub(a,b), Mul(c,d)), Add(d, Mul(c, Sub(a,b))))
  TreeContext Ctx(Sig);
  ParseResult Source =
      parseSExpr(Ctx, "(Add (Sub (a) (b)) (Mul (c) (d)))");
  ParseResult Target =
      parseSExpr(Ctx, "(Add (d) (Mul (c) (Sub (a) (b))))");
  if (!Source.ok() || !Target.ok()) {
    std::printf("parse error: %s%s\n", Source.Error.c_str(),
                Target.Error.c_str());
    return 1;
  }
  std::printf("source: %s\n", printSExprWithUris(Sig, Source.Root).c_str());
  std::printf("target: %s\n\n", printSExpr(Sig, Target.Root).c_str());

  // Keep the source in MTree form: diffing consumes the source tree.
  MTree Standard = MTree::fromTree(Sig, Source.Root);

  // 3. Diff. The script mentions changed nodes only -- the minimal
  // 4-edit move script from the paper.
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Source.Root, Target.Root);
  std::printf("edit script (%zu edits, %zu after coalescing):\n%s\n",
              Result.Script.size(), Result.Script.coalescedSize(),
              Result.Script.toString(Sig).c_str());

  // 4. Type check: detached subtrees and empty slots are linear
  // resources; the checker proves no leaks and no overloaded links.
  LinearTypeChecker Checker(Sig);
  TypeCheckResult TC = Checker.checkWellTyped(Result.Script);
  std::printf("linear type check: %s\n", TC.Ok ? "well-typed" : "ERROR");
  if (!TC.Ok) {
    std::printf("  %s\n", TC.Error.c_str());
    return 1;
  }

  // 5. Apply to the standard semantics: every edit runs in constant
  // time against the node index.
  MTree::PatchResult PR = Standard.patchChecked(Result.Script);
  std::printf("patch application: %s\n", PR.Ok ? "ok" : PR.Error.c_str());
  std::printf("patched tree: %s\n", Standard.toString().c_str());
  std::printf("equals target: %s\n",
              Standard.equalsTree(Target.Root) ? "yes" : "NO");
  // Theorem 3.6: a well-typed, compliant script leaves a closed,
  // well-formed tree -- no empty slot, no leaked detached subtree.
  std::printf("closed and well-formed: %s\n",
              Standard.isClosedWellFormed() ? "yes" : "NO");

  // The returned patched tree reuses source nodes (same URIs) and is
  // ready for the next diffing round.
  std::printf("patched (typed): %s\n",
              printSExprWithUris(Sig, Result.Patched).c_str());
  return 0;
}
