//===- examples/incremental_analysis.cpp - IncA-style driver demo ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the paper's incremental-computing pipeline (Section 6):
/// a call-graph and a def-use analysis maintained across code edits by
/// reparsing, diffing with truediff, and processing the edit script --
/// instead of reanalyzing the whole file. Prints, for each edit, the edit
/// script size, how few functions were reanalyzed, and the updated call
/// graph with each function's free variables.
///
//===----------------------------------------------------------------------===//

#include "incremental/Pipeline.h"

#include <cstdio>

using namespace truediff;
using namespace truediff::incremental;

namespace {

const char *Version1 = R"py(
def normalize(data):
    total = sum(data)
    return scale(data, total)

def scale(data, factor):
    result = []
    for x in data:
        result.append(x / factor)
    return result

def pipeline(data):
    clean = normalize(data)
    return clean
)py";

// Commit 1: pipeline() additionally validates.
const char *Version2 = R"py(
def normalize(data):
    total = sum(data)
    return scale(data, total)

def scale(data, factor):
    result = []
    for x in data:
        result.append(x / factor)
    return result

def pipeline(data):
    validate(data)
    clean = normalize(data)
    return clean
)py";

// Commit 2: scale() clamps via min(); normalize/pipeline untouched.
const char *Version3 = R"py(
def normalize(data):
    total = sum(data)
    return scale(data, total)

def scale(data, factor):
    result = []
    for x in data:
        result.append(min(x / factor, 1.0))
    return result

def pipeline(data):
    validate(data)
    clean = normalize(data)
    return clean
)py";

void printAnalyses(const IncrementalPipeline &Pipeline) {
  const Tree *Module = Pipeline.currentTree();
  const SignatureTable &Sig = Pipeline.database().signatures();
  // Walk the module body and print each FuncDef's callees and free
  // variables.
  const Tree *List = Module->kid(0);
  while (Sig.name(List->tag()) == "StmtCons") {
    const Tree *Stmt = List->kid(0);
    if (Sig.name(Stmt->tag()) == "FuncDef") {
      std::printf("  %s ->", Stmt->lit(0).asString().c_str());
      if (const auto *Callees = Pipeline.callGraph().calleesOf(Stmt->uri())) {
        for (const std::string &Callee : *Callees)
          std::printf(" %s", Callee.c_str());
      }
      // The def-use analysis: names the function reads but never defines.
      if (const auto *Info = Pipeline.defUse().infoOf(Stmt->uri())) {
        std::printf("   (free:");
        for (const std::string &Name : Info->freeVariables())
          std::printf(" %s", Name.c_str());
        std::printf(")");
      }
      std::printf("\n");
    }
    List = List->kid(1);
  }
}

} // namespace

int main() {
  IncrementalPipeline Pipeline(IndexMode::OneToOne);
  if (!Pipeline.init(Version1)) {
    std::printf("parse error in version 1\n");
    return 1;
  }
  std::printf("initial call graph and free variables:\n");
  printAnalyses(Pipeline);

  int Commit = 1;
  for (const char *Version : {Version2, Version3}) {
    auto Stats = Pipeline.step(Version);
    if (!Stats) {
      std::printf("parse error in commit %d\n", Commit);
      return 1;
    }
    std::printf("\ncommit %d: %zu edits (%zu coalesced); reanalyzed "
                "%zu of %zu functions in %.3f ms "
                "(parse %.3f ms, diff %.3f ms)\n",
                Commit, Stats->EditCount, Stats->PatchSize,
                Stats->DirtyFunctions, Stats->TotalFunctions,
                Stats->DbMs + Stats->AnalysisMs, Stats->ParseMs,
                Stats->DiffMs);
    printAnalyses(Pipeline);
    ++Commit;
  }

  std::printf("\nnode census: %llu Call nodes, %llu Name nodes\n",
              static_cast<unsigned long long>(Pipeline.census().countOf(
                  Pipeline.database().signatures().lookup("Call"))),
              static_cast<unsigned long long>(Pipeline.census().countOf(
                  Pipeline.database().signatures().lookup("Name"))));
  return 0;
}
