//===- perfbench/src/Workloads.h - The benchmark's workloads --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "tree/Signature.h"
#include "tree/Tree.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using truediff::SignatureTable;
using truediff::Tree;
using truediff::TreeContext;

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the span file goes; empty = not written.
  std::string OutDir;
  /// Scratch space for the serving workloads' data directories.
  std::string WorkDir;
};

/// Times \p Setup and returns the median of its durations in seconds. An
/// untraced run sets up five times: the first four in forked child
/// processes, so only the last set-up -- the state that is measured --
/// lives in this process's heap and peak RSS. A traced run sets up once.
/// Setup receives the repetition's index, distinct per repetition.
double timeSetups(const RunArgs &A, const std::function<void(int)> &Setup);

/// The seeded Python commit corpus, parsed once: each chain is one
/// generated file's successive commits, parsed into the chain's own arena.
struct PyCorpus {
  SignatureTable Sig;
  std::vector<std::unique_ptr<TreeContext>> Arenas;
  std::vector<std::vector<Tree *>> Chains;
  /// Per parsed file: python::parsePython time.
  std::vector<double> ParseMs;
  uint64_t Pairs = 0;
};

/// buildCommitCorpus(NumPairs, CommitsPerFile, Seed) + parsePython of
/// every version.
std::unique_ptr<PyCorpus> loadPyCorpus(uint64_t Seed, unsigned NumPairs,
                                       unsigned CommitsPerFile);

struct PairRef {
  const Tree *Before;
  const Tree *After;
};

/// Every consecutive pair of versions of every chain of \p C.
std::vector<PairRef> pairsOf(const PyCorpus &C);

/// Times the library layers the service calls, one call per pair, and
/// checks the paper's guarantees on every script: well-typed, MTree
/// patching reproduces the target, and the inverse restores the source.
/// Timings go to \p R as per-layer metrics when \p Timed (with the
/// binary tree codec when \p DecodeBlobs); violations always do. Returns
/// the total script length.
uint64_t libraryPass(const SignatureTable &Sig,
                     const std::vector<PairRef> &Pairs, bool Timed,
                     bool DecodeBlobs, Report &R);

void runCorpusDiff(const RunArgs &A, Report &R);
void runServeWrite(const RunArgs &A, Report &R);
void runServeReadMixed(const RunArgs &A, Report &R);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
