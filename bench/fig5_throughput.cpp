//===- bench/fig5_throughput.cpp - Reproduces paper Figure 5 ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5 of the paper: diffing throughput in nodes per millisecond for
/// hdiff, Gumtree, and truediff, as box plots over the commit corpus,
/// excluding parsing times. Per the paper's setup, every pair is diffed
/// three times and the fastest run is kept, and trees are reconstructed
/// before each truediff/hdiff invocation so the time for computing the
/// hashes is included.
///
/// Three gates on truediff's keyed node digest make this a CI perf smoke
/// test. Every pair is also diffed under a second digest key, and the
/// bench exits non-zero if any script or touched-URI set differs from
/// the process key's (same URIs, same operation order): digests decide
/// subtree equivalence, so the key must never change a script. It also
/// exits non-zero unless the eight-lane kernel (sipHash128x8) hashes the
/// corpus's node preimages, grouped by word count as DeriveBatch groups
/// them, at least MinBatchedDigestSpeedup times as fast per message as
/// the scalar sipHash128 (BenchUtil.h). And it exits non-zero unless the batched derive of a
/// whole-tree copy (Tree::deriveAll, eight SipHash lanes at a time)
/// gives every corpus node the digests, height and size that per-node
/// construction gave it; the report names the kernel clone that ran.
///
/// Also prints truediff's absolute per-file running times (the paper
/// reports median 6.4 ms, mean 12.7 ms on its corpus).
///
/// Expected shape: truediff fastest; Gumtree pays for quadratic matching;
/// the hdiff column reflects *our C++* hdiff, not the paper's Haskell
/// implementation (see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gumtree/GumTree.h"
#include "hdiff/HDiff.h"
#include "python/Python.h"
#include "support/TreeHash.h"
#include "truechange/Serialize.h"
#include "truediff/TrueDiff.h"

using namespace truediff;
using namespace truediff::bench;

namespace {

/// One copy+diff in \p Ctx; returns the serialized script and touched URIs.
/// Callers compare the result across per-key contexts that performed an
/// identical allocation sequence, so the URI streams line up byte for byte.
std::pair<std::string, std::vector<URI>>
diffOnce(TreeContext &Ctx, const SignatureTable &Sig, Tree *Before,
         Tree *After) {
  Tree *Src = Ctx.deepCopy(Before);
  Tree *Dst = Ctx.deepCopy(After);
  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Src, Dst);
  return {serializeEditScript(Sig, R.Script), R.Script.touchedUris()};
}

} // namespace

int main(int Argc, char **Argv) {
  std::printf("fig5_throughput: diffing throughput in nodes/ms "
              "(paper Figure 5)\n");
  SignatureTable Sig = python::makePythonSignature();
  std::vector<corpus::CommitPair> Pairs = defaultCorpus(Argc, Argv, 200);

  std::vector<double> TruediffThroughput, GumtreeThroughput, HdiffThroughput,
      TruediffMs, GumtreeMs, HdiffMs;
  std::vector<std::string> Preimages;
  size_t ScriptMismatches = 0, UriMismatches = 0, DeriveMismatches = 0;

  for (const corpus::CommitPair &Pair : Pairs) {
    TreeContext Ctx(Sig);
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    if (!Before.ok() || !After.ok())
      continue;
    double Nodes =
        static_cast<double>(Before.Module->size() + After.Module->size());
    appendNodePreimages(Before.Module, Preimages);

    // Batched derive: the parser built every node with its own make(),
    // hashed one at a time; a copy derives them all at once.
    for (const Tree *Parsed : {Before.Module, After.Module}) {
      TreeContext Copies(Sig);
      if (compareDerived(Copies.deepCopy(Parsed), Parsed).has_value())
        ++DeriveMismatches;
    }

    // Cross-key correctness: the edit script must not depend on the
    // digest key. One copy+diff per key, each in a context that repeats
    // the same allocation sequence, byte-compared.
    auto Keyed = diffOnce(Ctx, Sig, Before.Module, After.Module);
    withDigestKey(SecondDigestKey, [&] {
      TreeContext Ctx2(Sig);
      auto Before2 = python::parsePython(Ctx2, Pair.Before);
      auto After2 = python::parsePython(Ctx2, Pair.After);
      auto Rekeyed = diffOnce(Ctx2, Sig, Before2.Module, After2.Module);
      if (Rekeyed.first != Keyed.first)
        ++ScriptMismatches;
      if (Rekeyed.second != Keyed.second)
        ++UriMismatches;
    });

    // truediff: rebuild both trees per run (hash computation included);
    // compareTo consumes the source copy.
    double TD = fastestMs(3, [&] {
      Tree *Src = Ctx.deepCopy(Before.Module);
      Tree *Dst = Ctx.deepCopy(After.Module);
      TrueDiff Differ(Ctx);
      DiffResult R = Differ.compareTo(Src, Dst);
      (void)R;
    });

    // Gumtree: rebuild the rose trees per run (hashing included).
    double GT = fastestMs(3, [&] {
      gumtree::RoseForest Forest;
      gumtree::RNode *Src = Forest.fromTree(Sig, Before.Module);
      gumtree::RNode *Dst = Forest.fromTree(Sig, After.Module);
      gumtree::GumTreeResult R = gumtree::gumtreeDiff(Forest, Src, Dst);
      (void)R;
    });

    // hdiff: rebuild both trees per run.
    double HD = fastestMs(3, [&] {
      Tree *Src = Ctx.deepCopy(Before.Module);
      Tree *Dst = Ctx.deepCopy(After.Module);
      hdiff::HDiff Differ(Ctx);
      hdiff::HDiffPatch P = Differ.diff(Src, Dst);
      (void)P;
    });

    TruediffMs.push_back(TD);
    GumtreeMs.push_back(GT);
    HdiffMs.push_back(HD);
    TruediffThroughput.push_back(Nodes / TD);
    GumtreeThroughput.push_back(Nodes / GT);
    HdiffThroughput.push_back(Nodes / HD);
  }

  printHeader("Figure 5: throughput (nodes/ms), fastest of 3");
  printRow("hdiff (C++ reimpl.)", HdiffThroughput);
  printRow("gumtree", GumtreeThroughput);
  printRow("truediff", TruediffThroughput);

  printHeader("running time per file (ms)");
  printRow("hdiff (C++ reimpl.)", HdiffMs);
  printRow("gumtree", GumtreeMs);
  printRow("truediff", TruediffMs);
  std::printf("\n# paper reference for truediff: median 6.4 ms, mean 12.7 "
              "ms per file (JVM, keras corpus)\n");

  JsonReport Report("fig5_throughput");
  Report.meta("pairs", static_cast<double>(TruediffMs.size()));

  bool Identical = ScriptMismatches == 0 && UriMismatches == 0;
  BatchedDigestSpeedup Batched = batchedDigestSpeedup(Preimages);
  bool FastEnough = Batched.Ratio >= MinBatchedDigestSpeedup;
  bool DeriveExact = DeriveMismatches == 0;
  std::printf("# cross-key scripts identical: %s (%zu script, %zu "
              "touched-uri mismatches)\n",
              Identical ? "yes" : "NO", ScriptMismatches, UriMismatches);
  std::printf("# batched node digest over scalar (%s kernel), %zu "
              "preimages: %.2fx (gate: >= %.1f) %s\n",
              sipHash128x8Clone(), Batched.Messages, Batched.Ratio,
              MinBatchedDigestSpeedup, FastEnough ? "ok" : "FAIL");
  std::printf("# batched derive equals per-node digests (%s kernel): %s "
              "(%zu mismatching trees)\n",
              sipHash128x8Clone(), DeriveExact ? "yes" : "NO",
              DeriveMismatches);

  Report.meta("scripts_identical", Identical ? "yes" : "no");
  Report.meta("batched_digest_over_scalar_ratio", Batched.Ratio);
  Report.meta("batched_derive_exact", DeriveExact ? "yes" : "no");
  Report.meta("sip_kernel_clone", sipHash128x8Clone());
  Report.add("truediff", "nodes_per_ms", TruediffThroughput);
  Report.add("gumtree", "nodes_per_ms", GumtreeThroughput);
  Report.add("hdiff", "nodes_per_ms", HdiffThroughput);
  Report.add("truediff_time", "ms", TruediffMs);
  Report.add("gumtree_time", "ms", GumtreeMs);
  Report.add("hdiff_time", "ms", HdiffMs);
  Report.write();
  return Identical && FastEnough && DeriveExact ? 0 : 1;
}
