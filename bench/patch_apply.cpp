//===- bench/patch_apply.cpp - Micro-benchmarks (google-benchmark) ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks for the building blocks the paper's claims rest on:
///
///  - MTree patching handles each edit in constant time (Section 3.2,
///    "This allows us to process edit operations in constant time");
///  - hashed tree construction (Step 1 cost);
///  - the linear type checker;
///  - end-to-end truediff on a fixed mid-size pair.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "incremental/Index.h"
#include "python/Python.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include <benchmark/benchmark.h>

using namespace truediff;

namespace {

/// Shared fixture data: one generated module and a mutated version, plus
/// the truediff script between them.
struct Fixture {
  Fixture() : Sig(python::makePythonSignature()), Ctx(Sig) {
    Rng R(99);
    corpus::PyGenOptions Gen;
    Gen.NumFunctions = 30;
    Base = corpus::generateModule(Ctx, R, Gen);
    Target = corpus::mutateModule(Ctx, R, Base);
    Tree *Src = Ctx.deepCopy(Base);
    TrueDiff Differ(Ctx);
    DiffResult Result = Differ.compareTo(Src, Ctx.deepCopy(Target));
    Script = std::move(Result.Script);
  }

  SignatureTable Sig;
  TreeContext Ctx;
  Tree *Base;
  Tree *Target;
  EditScript Script;
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_TreeConstructionWithHashes(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    Tree *Copy = F.Ctx.deepCopy(F.Base);
    benchmark::DoNotOptimize(Copy);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Base->size()));
}
BENCHMARK(BM_TreeConstructionWithHashes);

void BM_MTreePatchPerEdit(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    State.PauseTiming();
    MTree M = MTree::fromTree(F.Sig, F.Base);
    State.ResumeTiming();
    auto R = M.patch(F.Script);
    benchmark::DoNotOptimize(R.Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Script.size()));
}
BENCHMARK(BM_MTreePatchPerEdit);

void BM_LinearTypeChecker(benchmark::State &State) {
  Fixture &F = fixture();
  LinearTypeChecker Checker(F.Sig);
  for (auto _ : State) {
    auto R = Checker.checkWellTyped(F.Script);
    benchmark::DoNotOptimize(R.Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Script.size()));
}
BENCHMARK(BM_LinearTypeChecker);

void BM_TrueDiffEndToEnd(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    Tree *Src = F.Ctx.deepCopy(F.Base);
    Tree *Dst = F.Ctx.deepCopy(F.Target);
    TrueDiff Differ(F.Ctx);
    DiffResult R = Differ.compareTo(Src, Dst);
    benchmark::DoNotOptimize(R.Patched);
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations()) *
      static_cast<int64_t>(F.Base->size() + F.Target->size()));
}
BENCHMARK(BM_TrueDiffEndToEnd);

void BM_OneToOneIndexOps(benchmark::State &State) {
  // The encoding enabled by type-safe edit scripts (paper Section 6).
  for (auto _ : State) {
    incremental::BidirectionalOneToOneIndex<uint64_t, uint64_t> Idx;
    for (uint64_t I = 0; I != 1000; ++I)
      Idx.put(I, I + 1000000);
    for (uint64_t I = 0; I != 1000; ++I) {
      benchmark::DoNotOptimize(Idx.get(I));
      benchmark::DoNotOptimize(Idx.getReverse(I + 1000000));
    }
    for (uint64_t I = 0; I != 1000; ++I)
      Idx.eraseKey(I);
    benchmark::DoNotOptimize(Idx.size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 4000);
}
BENCHMARK(BM_OneToOneIndexOps);

void BM_ManyToOneIndexOps(benchmark::State &State) {
  // The weaker encoding untyped edit scripts force: set operations on
  // every access.
  for (auto _ : State) {
    incremental::BidirectionalManyToOneIndex<uint64_t, uint64_t> Idx;
    for (uint64_t I = 0; I != 1000; ++I)
      Idx.put(I, I + 1000000);
    for (uint64_t I = 0; I != 1000; ++I) {
      benchmark::DoNotOptimize(Idx.get(I));
      benchmark::DoNotOptimize(Idx.getReverse(I + 1000000));
    }
    for (uint64_t I = 0; I != 1000; ++I)
      Idx.eraseKey(I);
    benchmark::DoNotOptimize(Idx.size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 4000);
}
BENCHMARK(BM_ManyToOneIndexOps);

void BM_PythonParse(benchmark::State &State) {
  Fixture &F = fixture();
  std::string Source = python::unparsePython(F.Sig, F.Base);
  for (auto _ : State) {
    TreeContext Local(F.Sig);
    auto R = python::parsePython(Local, Source);
    benchmark::DoNotOptimize(R.Module);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_PythonParse);

} // namespace

BENCHMARK_MAIN();
