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
/// truediff is measured under both digest policies: the SHA-256 default
/// and the Fast128 non-cryptographic policy. The two must produce
/// byte-identical edit scripts (same URIs, same operation order) — this
/// bench diffs every pair under both policies and exits non-zero if any
/// script or touched-URI set diverges, or if the fast policy's median
/// throughput is below 2x the SHA-256 policy. CI runs this as a perf
/// smoke gate.
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
#include "truechange/Serialize.h"
#include "truediff/TrueDiff.h"

using namespace truediff;
using namespace truediff::bench;

namespace {

/// One copy+diff in \p Ctx; returns the serialized script and touched URIs.
/// Callers compare the result across per-policy contexts that performed an
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

  std::vector<double> TruediffThroughput, FastThroughput, GumtreeThroughput,
      HdiffThroughput, TruediffMs, FastMs, GumtreeMs, HdiffMs;
  size_t ScriptMismatches = 0, UriMismatches = 0;

  for (const corpus::CommitPair &Pair : Pairs) {
    // Per-policy contexts. Both see the identical operation sequence
    // (parse Before, parse After, copy+diff, timing loops), so URIs —
    // and therefore serialized scripts — are comparable across them.
    TreeContext Ctx(Sig, DigestPolicy::Sha256);
    TreeContext CtxFast(Sig, DigestPolicy::Fast128);
    auto Before = python::parsePython(Ctx, Pair.Before);
    auto After = python::parsePython(Ctx, Pair.After);
    auto BeforeF = python::parsePython(CtxFast, Pair.Before);
    auto AfterF = python::parsePython(CtxFast, Pair.After);
    if (!Before.ok() || !After.ok() || !BeforeF.ok() || !AfterF.ok())
      continue;
    double Nodes =
        static_cast<double>(Before.Module->size() + After.Module->size());

    // Cross-policy correctness: the edit script must not depend on the
    // digest policy. One copy+diff per context, byte-compared.
    auto ShaOut = diffOnce(Ctx, Sig, Before.Module, After.Module);
    auto FastOut = diffOnce(CtxFast, Sig, BeforeF.Module, AfterF.Module);
    if (ShaOut.first != FastOut.first)
      ++ScriptMismatches;
    if (ShaOut.second != FastOut.second)
      ++UriMismatches;

    // truediff (SHA-256): rebuild both trees per run (hash computation
    // included); compareTo consumes the source copy.
    double TD = fastestMs(3, [&] {
      Tree *Src = Ctx.deepCopy(Before.Module);
      Tree *Dst = Ctx.deepCopy(After.Module);
      TrueDiff Differ(Ctx);
      DiffResult R = Differ.compareTo(Src, Dst);
      (void)R;
    });

    // truediff (Fast128): same protocol under the fast digest policy.
    double TF = fastestMs(3, [&] {
      Tree *Src = CtxFast.deepCopy(BeforeF.Module);
      Tree *Dst = CtxFast.deepCopy(AfterF.Module);
      TrueDiff Differ(CtxFast);
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
    FastMs.push_back(TF);
    GumtreeMs.push_back(GT);
    HdiffMs.push_back(HD);
    TruediffThroughput.push_back(Nodes / TD);
    FastThroughput.push_back(Nodes / TF);
    GumtreeThroughput.push_back(Nodes / GT);
    HdiffThroughput.push_back(Nodes / HD);
  }

  printHeader("Figure 5: throughput (nodes/ms), fastest of 3");
  printRow("hdiff (C++ reimpl.)", HdiffThroughput);
  printRow("gumtree", GumtreeThroughput);
  printRow("truediff (sha256)", TruediffThroughput);
  printRow("truediff (fast128)", FastThroughput);

  printHeader("running time per file (ms)");
  printRow("hdiff (C++ reimpl.)", HdiffMs);
  printRow("gumtree", GumtreeMs);
  printRow("truediff (sha256)", TruediffMs);
  printRow("truediff (fast128)", FastMs);
  std::printf("\n# paper reference for truediff: median 6.4 ms, mean 12.7 "
              "ms per file (JVM, keras corpus)\n");

  JsonReport Report("fig5_throughput");
  Report.meta("pairs", static_cast<double>(TruediffMs.size()));

  bool Identical = ScriptMismatches == 0 && UriMismatches == 0;
  double ShaMedian = BoxStats::of(TruediffThroughput).Median;
  double FastMedian = BoxStats::of(FastThroughput).Median;
  double Ratio = ShaMedian > 0 ? FastMedian / ShaMedian : 0;
  bool FastEnough = Ratio >= 2.0;
  std::printf("# cross-policy scripts identical: %s (%zu script, %zu "
              "touched-uri mismatches)\n",
              Identical ? "yes" : "NO", ScriptMismatches, UriMismatches);
  std::printf("# fast128/sha256 median throughput ratio: %.2fx (gate: "
              ">= 2.0) %s\n", Ratio, FastEnough ? "ok" : "FAIL");

  Report.meta("scripts_identical", Identical ? "yes" : "no");
  Report.meta("fast_over_sha_ratio", Ratio);
  Report.add("truediff", "nodes_per_ms", TruediffThroughput);
  Report.add("truediff_fast", "nodes_per_ms", FastThroughput);
  Report.add("gumtree", "nodes_per_ms", GumtreeThroughput);
  Report.add("hdiff", "nodes_per_ms", HdiffThroughput);
  Report.add("truediff_time", "ms", TruediffMs);
  Report.add("truediff_fast_time", "ms", FastMs);
  Report.add("gumtree_time", "ms", GumtreeMs);
  Report.add("hdiff_time", "ms", HdiffMs);
  Report.write();
  return Identical && FastEnough ? 0 : 1;
}
