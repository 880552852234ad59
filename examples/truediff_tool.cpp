//===- examples/truediff_tool.cpp - Command-line structural differ ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line front end to the library, in the spirit of Unix diff
/// but structural, concise, and type-safe:
///
///   truediff_tool <py|json> <before> <after> [options]
///
///   --stats        print patch statistics only
///   --patched      print the patched document (reconstructed source)
///   --undo         also print the inverse (undo) script
///   --out FILE     write the serialized edit script to FILE
///
/// Exit code 0: diff computed, script well-typed, patch verified.
///
//===----------------------------------------------------------------------===//

#include "json/Json.h"
#include "python/Python.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace truediff;

namespace {

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

int usage(const char *Argv0) {
  std::printf("usage: %s <py|json> <before> <after> "
              "[--stats] [--patched] [--undo] [--out FILE]\n",
              Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 4)
    return usage(Argv[0]);
  std::string Lang = Argv[1];
  if (Lang != "py" && Lang != "json")
    return usage(Argv[0]);

  bool StatsOnly = false, PrintPatched = false, PrintUndo = false;
  const char *OutPath = nullptr;
  for (int I = 4; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--stats") == 0)
      StatsOnly = true;
    else if (std::strcmp(Argv[I], "--patched") == 0)
      PrintPatched = true;
    else if (std::strcmp(Argv[I], "--undo") == 0)
      PrintUndo = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc)
      OutPath = Argv[++I];
    else
      return usage(Argv[0]);
  }

  std::string Before, After;
  if (!readFile(Argv[2], Before) || !readFile(Argv[3], After)) {
    std::fprintf(stderr, "error: cannot read input files\n");
    return 1;
  }

  SignatureTable Sig = Lang == "py" ? python::makePythonSignature()
                                    : json::makeJsonSignature();
  TreeContext Ctx(Sig);

  Tree *Old = nullptr, *New = nullptr;
  std::string ParseError;
  if (Lang == "py") {
    auto A = python::parsePython(Ctx, Before);
    auto B = python::parsePython(Ctx, After);
    Old = A.Module;
    New = B.Module;
    ParseError = A.Error + B.Error;
  } else {
    auto A = json::parseJson(Ctx, Before);
    auto B = json::parseJson(Ctx, After);
    Old = A.Value;
    New = B.Value;
    ParseError = A.Error + B.Error;
  }
  if (Old == nullptr || New == nullptr) {
    std::fprintf(stderr, "parse error: %s\n", ParseError.c_str());
    return 1;
  }

  MTree Standard = MTree::fromTree(Sig, Old);
  uint64_t OldSize = Old->size(), NewSize = New->size();

  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(Old, New);

  LinearTypeChecker Checker(Sig);
  TypeCheckResult TC = Checker.checkWellTyped(Result.Script);
  MTree::PatchResult PR = Standard.patchChecked(Result.Script);
  bool Verified = TC.Ok && PR.Ok && Standard.equalsTree(New);

  std::printf("nodes: %llu -> %llu | edits: %zu (%zu coalesced) | "
              "type-safe: %s | verified: %s\n",
              static_cast<unsigned long long>(OldSize),
              static_cast<unsigned long long>(NewSize),
              Result.Script.size(), Result.Script.coalescedSize(),
              TC.Ok ? "yes" : "NO", Verified ? "yes" : "NO");
  if (!TC.Ok)
    std::fprintf(stderr, "type error: %s\n", TC.Error.c_str());
  if (!PR.Ok)
    std::fprintf(stderr, "patch error: %s\n", PR.Error.c_str());

  if (!StatsOnly) {
    std::printf("\n%s", Result.Script.toString(Sig).c_str());
    if (PrintUndo)
      std::printf("\nundo script:\n%s",
                  invertScript(Result.Script).toString(Sig).c_str());
  }

  if (PrintPatched) {
    std::string Patched =
        Lang == "py"
            ? python::unparsePython(Sig, Result.Patched)
            : json::unparseJson(Sig, Result.Patched, /*Pretty=*/true);
    std::printf("\npatched document:\n%s\n", Patched.c_str());
  }

  if (OutPath != nullptr) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutPath);
      return 1;
    }
    Out << serializeEditScript(Sig, Result.Script);
    std::printf("\nwrote edit script to %s\n", OutPath);
  }

  return Verified ? 0 : 1;
}
