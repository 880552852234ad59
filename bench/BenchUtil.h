//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benches: wall-clock timing,
/// fastest-of-N measurement (the paper takes the fastest of three runs,
/// Section 6 "Setup"), corpus loading, and table printing.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_BENCH_BENCHUTIL_H
#define TRUEDIFF_BENCH_BENCHUTIL_H

#include "corpus/Corpus.h"
#include "support/Sha256.h"
#include "support/Stats.h"
#include "support/TreeHash.h"
#include "tree/Tree.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace truediff {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Runs \p Fn \p Runs times and returns the fastest wall time in ms.
inline double fastestMs(unsigned Runs, const std::function<void()> &Fn) {
  double Best = 1e300;
  for (unsigned I = 0; I != Runs; ++I) {
    auto Start = Clock::now();
    Fn();
    Best = std::min(Best, msSince(Start));
  }
  return Best;
}

/// Parses a positive integer CLI argument. Unlike std::atoi, garbage,
/// trailing junk, negative values, and out-of-range inputs fail loudly
/// instead of silently becoming 0 (which turns a bench into a no-op).
inline unsigned parseCountArg(const char *Arg, const char *What) {
  errno = 0;
  char *End = nullptr;
  long Value = std::strtol(Arg, &End, 10);
  if (End == Arg || *End != '\0' || errno == ERANGE || Value <= 0 ||
      Value > 0x7FFFFFFFL) {
    std::fprintf(stderr, "error: invalid %s '%s' (expected a positive integer)\n",
                 What, Arg);
    std::exit(2);
  }
  return static_cast<unsigned>(Value);
}

/// Builds the default evaluation corpus. NumPairs scales run time;
/// overridable via argv[1].
inline std::vector<corpus::CommitPair> defaultCorpus(int Argc, char **Argv,
                                                     unsigned NumPairs) {
  corpus::CorpusOptions Opts;
  Opts.NumPairs = NumPairs;
  if (Argc > 1)
    Opts.NumPairs = parseCountArg(Argv[1], "pair count");
  std::printf("# corpus: %u commit pairs (seed %llu)\n", Opts.NumPairs,
              static_cast<unsigned long long>(Opts.Seed));
  return corpus::buildCommitCorpus(Opts);
}

inline void printHeader(const char *Title) {
  std::printf("\n== %s ==\n", Title);
  std::printf("%-28s %10s %10s %10s %10s %12s %10s %8s\n", "series", "min",
              "q1", "median", "q3", "max", "mean", "n");
}

inline void printRow(const std::string &Label,
                     const std::vector<double> &Values) {
  std::printf("%s\n", formatBoxRow(Label, BoxStats::of(Values)).c_str());
}

//===----------------------------------------------------------------------===//
// Node-digest gates: the keyed digest must not depend on its key, and must
// beat streaming SHA-256 over the same preimages.
//===----------------------------------------------------------------------===//

/// A fixed key other than any process key a run is likely to draw.
inline constexpr DigestKey SecondDigestKey{0x0706050403020100ULL,
                                           0x0f0e0d0c0b0a0908ULL};

/// Runs \p Fn with node digests keyed by \p Key, then restores the
/// process key. Trees built inside must not be diffed outside.
inline void withDigestKey(const DigestKey &Key,
                          const std::function<void()> &Fn) {
  DigestKey Saved = processDigestKey();
  setProcessDigestKeyForTest(Key);
  Fn();
  setProcessDigestKeyForTest(Saved);
}

/// Appends the two digest preimages of every node of \p Root to \p Out,
/// laid out as tree/Tree.cpp hashes them: u32 tag, u32 arity and each
/// kid's structure digest; u32 literal count, each literal's
/// hashEncoding and each kid's literal digest.
inline void appendNodePreimages(Tree *Root, std::vector<std::string> &Out) {
  Root->foreachTree([&](Tree *T) {
    auto PutU32 = [](std::string &S, uint32_t V) {
      S.append(reinterpret_cast<const char *>(&V), sizeof(V));
    };
    std::string Struct, Lit;
    PutU32(Struct, T->tag());
    PutU32(Struct, static_cast<uint32_t>(T->arity()));
    PutU32(Lit, static_cast<uint32_t>(T->numLits()));
    for (const Literal &L : T->lits()) {
      size_t At = Lit.size();
      Lit.resize(At + L.hashEncodingSize());
      L.hashEncoding(reinterpret_cast<uint8_t *>(Lit.data() + At));
    }
    for (size_t I = 0; I != T->arity(); ++I) {
      Struct.append(reinterpret_cast<const char *>(
                        T->kid(I)->structureHash().bytes().data()),
                    Digest::NumBytes);
      Lit.append(reinterpret_cast<const char *>(
                     T->kid(I)->literalHash().bytes().data()),
                 Digest::NumBytes);
    }
    Out.push_back(std::move(Struct));
    Out.push_back(std::move(Lit));
  });
}

/// Streaming SHA-256 time over the keyed node-digest time for hashing
/// every message of \p Preimages, each side the fastest of five passes.
inline double nodeDigestSpeedupOverSha256(
    const std::vector<std::string> &Preimages) {
  uint64_t Sink = 0;
  const DigestKey &Key = processDigestKey();
  double SipMs = fastestMs(5, [&] {
    for (const std::string &P : Preimages)
      Sink ^= sipHash128(Key, P.data(), P.size()).word(0);
  });
  double ShaMs = fastestMs(5, [&] {
    for (const std::string &P : Preimages)
      Sink ^= Sha256::hash(P).Bytes[0];
  });
  // Keeps both loops observable.
  if (Sink == 0x5eed)
    std::printf(" ");
  return SipMs > 0 ? ShaMs / SipMs : 0;
}

//===----------------------------------------------------------------------===//
// Machine-readable results: every bench writes one BENCH_<name>.json with
// the same schema, so the perf trajectory stays comparable across PRs:
//
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "meta": {"<key>": <number-or-string>, ...},
//     "series": [
//       {"name": "...", "unit": "...",
//        "stats": {"min":..,"q1":..,"median":..,"q3":..,"max":..,
//                  "mean":..,"n":..}},
//       ...
//     ]
//   }
//===----------------------------------------------------------------------===//

inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      (Out += '\\') += C;
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

class JsonReport {
public:
  explicit JsonReport(std::string BenchName) : Name(std::move(BenchName)) {}

  void meta(const std::string &Key, double Value) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%g", Value);
    MetaItems.push_back("\"" + jsonEscape(Key) + "\":" + Buf);
  }

  void meta(const std::string &Key, const std::string &Value) {
    MetaItems.push_back("\"" + jsonEscape(Key) + "\":\"" + jsonEscape(Value) +
                        "\"");
  }

  /// Adds one series, summarised as box stats over \p Values.
  void add(const std::string &Series, const std::string &Unit,
           const std::vector<double> &Values) {
    BoxStats S = BoxStats::of(Values);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"min\":%g,\"q1\":%g,\"median\":%g,\"q3\":%g,"
                  "\"max\":%g,\"mean\":%g,\"n\":%zu}",
                  S.Min, S.Q1, S.Median, S.Q3, S.Max, S.Mean, S.Count);
    SeriesItems.push_back("{\"name\":\"" + jsonEscape(Series) +
                          "\",\"unit\":\"" + jsonEscape(Unit) +
                          "\",\"stats\":" + Buf + "}");
  }

  /// Adds a single-valued series (a scalar measurement).
  void scalar(const std::string &Series, const std::string &Unit,
              double Value) {
    add(Series, Unit, std::vector<double>{Value});
  }

  /// Writes BENCH_<name>.json into the working directory.
  void write() const {
    std::string Path = "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (F == nullptr) {
      std::printf("# failed to write %s\n", Path.c_str());
      return;
    }
    std::string Out = "{\"schema_version\":1,\"bench\":\"" + jsonEscape(Name) +
                      "\",\"meta\":{";
    for (size_t I = 0; I != MetaItems.size(); ++I) {
      if (I != 0)
        Out += ",";
      Out += MetaItems[I];
    }
    Out += "},\"series\":[";
    for (size_t I = 0; I != SeriesItems.size(); ++I) {
      if (I != 0)
        Out += ",";
      Out += SeriesItems[I];
    }
    Out += "]}\n";
    std::fwrite(Out.data(), 1, Out.size(), F);
    std::fclose(F);
    std::printf("# wrote %s\n", Path.c_str());
  }

private:
  std::string Name;
  std::vector<std::string> MetaItems;
  std::vector<std::string> SeriesItems;
};

} // namespace bench
} // namespace truediff

#endif // TRUEDIFF_BENCH_BENCHUTIL_H
