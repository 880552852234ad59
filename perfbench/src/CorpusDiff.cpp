//===- perfbench/src/CorpusDiff.cpp - The corpus_diff workload ------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 5 protocol on the seeded Python commit corpus: parse
/// every file once during set-up, then time a deep copy of source and
/// target (construction plus Step-1 hashing) and TrueDiff::compareTo per
/// pair, one thread, in passes over the corpus until the window ends; a
/// pair's time is its fastest run. No service, network, persistence or
/// replication code runs, so a change to the diff core shows here
/// undiluted.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "corpus/Corpus.h"
#include "persist/BinaryCodec.h"
#include "python/Python.h"
#include "tree/SExpr.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include <cstdio>
#include <sys/wait.h>
#include <unistd.h>

using namespace truediff;
using namespace pb;

namespace {

/// Pairs per corpus, two commits per generated file: 500 independent
/// files of ~2k nodes, enough that one seed's corpus is a stable sample
/// of the generator and that ten pairs lie beyond the p99.
constexpr unsigned CorpusPairs = 1000;
constexpr unsigned CorpusCommitsPerFile = 2;

/// Per pair: its fastest copy+diff and that run's split.
struct DiffSamples {
  std::vector<double> Ms, BuildMs, CompareMs;
  double Nodes = 0;
  double TotalMs = 0;
  uint64_t Runs = 0;
  double CpuS = 0;
};

/// Copies and diffs every pair in passes over the corpus until \p Seconds
/// elapse. A pair's time is the fastest of its runs: the paper's Figure 5
/// protocol keeps the fastest of three, and spreading the runs over the
/// whole window keeps a slow stretch of a shared machine from setting it.
/// The default window gives each pair about eight runs.
void diffWindow(const SignatureTable &Sig, const std::vector<PairRef> &Pairs,
                double Seconds, DiffSamples &Out) {
  Tracer &T = Tracer::get();
  std::vector<double> Best(Pairs.size(), 0), Build(Pairs.size(), 0),
      Compare(Pairs.size(), 0);
  std::vector<unsigned> Runs(Pairs.size(), 0);
  double Cpu0 = cpuSeconds();
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  for (size_t I = 0; nowNs() < End; I = (I + 1) % Pairs.size()) {
    const PairRef &P = Pairs[I];
    TreeContext Ctx(Sig);
    int64_t T0 = nowNs();
    Tree *Src = Ctx.deepCopy(P.Before);
    Tree *Dst = Ctx.deepCopy(P.After);
    int64_t T1 = nowNs();
    TrueDiff Differ(Ctx);
    DiffResult Res = Differ.compareTo(Src, Dst);
    int64_t T2 = nowNs();
    if (Res.Patched == nullptr)
      std::abort(); // compareTo always returns the patched source
    if (Runs[I]++ == 0 || msBetween(T0, T2) < Best[I]) {
      Best[I] = msBetween(T0, T2);
      Build[I] = msBetween(T0, T1);
      Compare[I] = msBetween(T1, T2);
    }
    ++Out.Runs;
    if (T.on()) {
      uint64_t Id = T.record("corpus.pair", 0, 0, T0, T2);
      T.record("tree.build", Id, Id, T0, T1);
      T.record("truediff.compare", Id, Id, T1, T2);
    }
  }
  Out.CpuS += cpuSeconds() - Cpu0;
  for (size_t I = 0; I != Pairs.size(); ++I) {
    if (Runs[I] == 0)
      continue;
    Out.Ms.push_back(Best[I]);
    Out.BuildMs.push_back(Build[I]);
    Out.CompareMs.push_back(Compare[I]);
    Out.Nodes +=
        static_cast<double>(Pairs[I].Before->size() + Pairs[I].After->size());
    Out.TotalMs += Best[I];
  }
}

} // namespace

double pb::timeSetups(const RunArgs &A,
                      const std::function<void(int)> &Setup) {
  std::vector<double> Seconds;
  int I = 0;
  for (; !A.Trace && I != 4; ++I) {
    int Fd[2];
    if (::pipe(Fd) != 0) {
      std::perror("perfbench: pipe");
      std::exit(1);
    }
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid == 0) {
      int64_t T0 = nowNs();
      Setup(I);
      double S = msBetween(T0, nowNs()) / 1e3;
      bool Sent = ::write(Fd[1], &S, sizeof(S)) == sizeof(S);
      ::_exit(Sent ? 0 : 1); // skip teardown: the child's state is discarded
    }
    ::close(Fd[1]);
    double S = 0;
    ssize_t N = Pid > 0 ? ::read(Fd[0], &S, sizeof(S)) : -1;
    ::close(Fd[0]);
    int Status = 0;
    if (Pid > 0)
      ::waitpid(Pid, &Status, 0);
    if (N != sizeof(S) || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      std::fprintf(stderr, "perfbench: set-up failed in a child process\n");
      std::exit(1);
    }
    Seconds.push_back(S);
  }
  int64_t T0 = nowNs();
  Setup(I);
  Seconds.push_back(msBetween(T0, nowNs()) / 1e3);
  return quantile(Seconds, 0.5);
}

std::vector<PairRef> pb::pairsOf(const PyCorpus &C) {
  std::vector<PairRef> Out;
  for (const std::vector<Tree *> &Chain : C.Chains)
    for (size_t I = 1; I < Chain.size(); ++I)
      Out.push_back({Chain[I - 1], Chain[I]});
  return Out;
}

std::unique_ptr<PyCorpus> pb::loadPyCorpus(uint64_t Seed, unsigned NumPairs,
                                           unsigned CommitsPerFile) {
  corpus::CorpusOptions Opts;
  Opts.NumPairs = NumPairs;
  Opts.CommitsPerFile = CommitsPerFile;
  Opts.Seed = Seed;
  std::vector<corpus::CommitPair> Raw = corpus::buildCommitCorpus(Opts);

  auto C = std::make_unique<PyCorpus>();
  C->Sig = python::makePythonSignature();
  auto Parse = [&](const std::string &Src) {
    int64_t T0 = nowNs();
    python::PyParseResult P = python::parsePython(*C->Arenas.back(), Src);
    C->ParseMs.push_back(msBetween(T0, nowNs()));
    if (!P.ok()) {
      std::fprintf(stderr, "perfbench: corpus file does not parse: %s\n",
                   P.Error.c_str());
      std::exit(1);
    }
    return P.Module;
  };
  const std::string *PrevAfter = nullptr;
  for (const corpus::CommitPair &P : Raw) {
    // Pairs chain within one generated file: a pair whose source is not
    // the previous pair's target starts the next file.
    if (PrevAfter == nullptr || *PrevAfter != P.Before) {
      C->Arenas.push_back(std::make_unique<TreeContext>(C->Sig));
      C->Chains.push_back({Parse(P.Before)});
    }
    C->Chains.back().push_back(Parse(P.After));
    PrevAfter = &P.After;
    ++C->Pairs;
  }
  return C;
}

uint64_t pb::libraryPass(const SignatureTable &Sig,
                         const std::vector<PairRef> &Pairs, bool Timed,
                         bool DecodeBlobs, Report &R) {
  std::vector<double> SexprMs, DecodeMs, BuildMs, CompareMs, SerMs, TcMs,
      PatchMs;
  double Rehashed = 0, PatchedNodes = 0, ScriptBytes = 0;
  uint64_t Edits = 0;
  LinearTypeChecker Checker(Sig);
  for (size_t I = 0; I != Pairs.size(); ++I) {
    const PairRef &P = Pairs[I];
    auto Fail = [&](const std::string &What) {
      R.violation("pair " + std::to_string(I) + ": " + What);
    };
    TreeContext Ctx(Sig);
    if (Timed) {
      std::string Wire = printSExpr(Sig, P.After);
      int64_t T0 = nowNs();
      ParseResult PR = parseSExpr(Ctx, Wire);
      SexprMs.push_back(msBetween(T0, nowNs()));
      if (!PR.ok() || !treeEqualsModuloUris(PR.Root, P.After))
        Fail("wire text does not parse back to the target");
      if (DecodeBlobs) {
        std::string Blob = persist::encodeTree(Sig, P.After);
        T0 = nowNs();
        persist::DecodeTreeResult D =
            persist::decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/false);
        DecodeMs.push_back(msBetween(T0, nowNs()));
        if (!D.ok() || !treeEqualsModuloUris(D.Root, P.After))
          Fail("binary payload does not decode back to the target");
      }
    }
    int64_t T0 = nowNs();
    Tree *Src = Ctx.deepCopy(P.Before);
    Tree *Dst = Ctx.deepCopy(P.After);
    int64_t T1 = nowNs();
    MTree M = MTree::fromTree(Sig, Src);
    int64_t T2 = nowNs();
    TrueDiff Differ(Ctx);
    DiffResult D = Differ.compareTo(Src, Dst);
    int64_t T3 = nowNs();
    std::string Text = serializeEditScript(Sig, D.Script);
    int64_t T4 = nowNs();
    TypeCheckResult TC = Checker.checkWellTyped(D.Script);
    int64_t T5 = nowNs();
    MTree::PatchResult PR = M.patchChecked(D.Script);
    int64_t T6 = nowNs();
    BuildMs.push_back(msBetween(T0, T1));
    CompareMs.push_back(msBetween(T2, T3));
    SerMs.push_back(msBetween(T3, T4));
    TcMs.push_back(msBetween(T4, T5));
    PatchMs.push_back(msBetween(T1, T2) + msBetween(T5, T6));
    ScriptBytes += static_cast<double>(Text.size());
    Rehashed += static_cast<double>(D.NodesRehashed);
    PatchedNodes += static_cast<double>(D.Patched->size());
    Edits += D.Script.size();

    if (!TC.Ok)
      Fail("script is not well-typed: " + TC.Error);
    if (!PR.Ok || !M.equalsTree(P.After))
      Fail("patching the source does not reproduce the target");
    MTree::PatchResult Back = M.patchChecked(invertScript(D.Script));
    if (!Back.Ok || !M.equalsTree(P.Before))
      Fail("the inverse script does not restore the source");
  }
  if (Timed) {
    R.set("tree.sexpr_parse_ms_p50", quantile(SexprMs, 0.5), "ms");
    if (DecodeBlobs)
      R.set("persist.decode_tree_ms_p50", quantile(DecodeMs, 0.5), "ms");
    R.set("tree.build_ms_p50", quantile(BuildMs, 0.5), "ms");
    R.set("truediff.compare_ms_p50", quantile(CompareMs, 0.5), "ms");
    R.set("truediff.compare_ms_p99", quantile(CompareMs, 0.99), "ms");
    R.set("truediff.rehash_frac",
          PatchedNodes > 0 ? Rehashed / PatchedNodes : 0, "ratio");
    R.set("truechange.serialize_ms_p50", quantile(SerMs, 0.5), "ms");
    R.set("truechange.edits_per_script",
          Pairs.empty() ? 0 : double(Edits) / double(Pairs.size()), "edits");
    R.set("truechange.script_bytes",
          Pairs.empty() ? 0 : ScriptBytes / static_cast<double>(Pairs.size()),
          "bytes");
    R.set("truechange.typecheck_ms_p50", quantile(TcMs, 0.5), "ms");
    R.set("truechange.patch_ms_p50", quantile(PatchMs, 0.5), "ms");
  }
  return Edits;
}

void pb::runCorpusDiff(const RunArgs &A, Report &R) {
  std::unique_ptr<PyCorpus> C;
  std::vector<PairRef> Pairs;
  double SetupS = timeSetups(A, [&](int) {
    C = loadPyCorpus(A.Seed, CorpusPairs, CorpusCommitsPerFile);
    Pairs = pairsOf(*C);
  });
  R.meta("corpus_pairs", static_cast<double>(Pairs.size()));
  R.meta("corpus_files", static_cast<double>(C->Chains.size()));

  DiffSamples On, Off;
  Tracer &T = Tracer::get();
  if (A.Trace) {
    // Alternate untraced and traced quarters so drift hits both alike.
    for (int Q = 0; Q != 4; ++Q) {
      T.setOn(Q % 2 == 1);
      diffWindow(C->Sig, Pairs, A.Seconds / 4, Q % 2 ? On : Off);
    }
  } else {
    diffWindow(C->Sig, Pairs, A.Seconds, Off);
  }
  const DiffSamples &S = A.Trace ? On : Off;
  R.Attempted = On.Runs + Off.Runs;

  // One checked pass over the whole corpus: every script well-typed,
  // patching reproduces the target, the inverse restores the source. In
  // a traced run it also times the library layers on each pair.
  T.setOn(false);
  uint64_t Edits = libraryPass(C->Sig, Pairs, A.Trace, false, R);
  R.Attempted += Pairs.size();

  double NodesPerMs = S.TotalMs > 0 ? S.Nodes / S.TotalMs : 0;
  R.set("setup_s", SetupS, "s");
  R.set("cpu_ms_per_op", Off.Runs ? Off.CpuS * 1e3 / double(Off.Runs) : 0,
        "ms");
  R.set("diff_nodes_per_ms", NodesPerMs, "nodes/ms");
  R.set("diff_ms_p50", quantile(S.Ms, 0.5), "ms");
  R.set("diff_ms_p99", quantile(S.Ms, 0.99), "ms");
  R.set("script_edits", static_cast<double>(Edits), "edits");
  R.meta("diff_runs", static_cast<double>(S.Runs));
  R.meta("pairs_timed", static_cast<double>(S.Ms.size()));

  if (A.Trace) {
    R.set("python.parse_ms_p50", quantile(C->ParseMs, 0.5), "ms");
    R.set("tree.build_ms_p50", quantile(S.BuildMs, 0.5), "ms");
    R.set("truediff.compare_ms_p50", quantile(S.CompareMs, 0.5), "ms");
    R.set("truediff.compare_ms_p99", quantile(S.CompareMs, 0.99), "ms");
    double OffRate = Off.TotalMs > 0 ? Off.Nodes / Off.TotalMs : 0;
    R.set("trace.overhead_frac", OffRate > 0 ? 1 - NodesPerMs / OffRate : 0,
          "ratio");
    double OffCpu = Off.Runs ? Off.CpuS / double(Off.Runs) : 0;
    double OnCpu = On.Runs ? On.CpuS / double(On.Runs) : 0;
    R.set("trace.overhead_frac.cpu_ms_per_op",
          OffCpu > 0 ? OnCpu / OffCpu - 1 : 0, "ratio");
  }
}
