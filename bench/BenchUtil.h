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
#include "support/Stats.h"
#include "support/TreeHash.h"
#include "tree/Tree.h"

#include <algorithm>
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
// Node-digest gates: the keyed digest must not depend on its key, and its
// eight-lane kernel must beat the scalar one on the preimages it batches.
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

/// The least batchedDigestSpeedup ratio the fig5 and service benches
/// accept: below it the eight-lane kernel no longer pays for itself. The
/// AVX-512F clone read 4.6-7.6x on a 4-core x86-64 box (Xeon with
/// AVX-512F) and an AVX2-only build of the same kernel 1.9-3.0x, so 1.5
/// holds for either clone with room for run-to-run noise.
inline constexpr double MinBatchedDigestSpeedup = 1.5;

/// What batchedDigestSpeedup measured.
struct BatchedDigestSpeedup {
  /// Scalar time over batched time for the same messages.
  double Ratio = 0;
  /// Messages hashed per pass, all in full batches of eight.
  size_t Messages = 0;
};

/// Scalar sipHash128 time over sipHash128x8 time for the messages of
/// \p Preimages that DeriveBatch batches: grouped by word count (at most
/// DeriveBatch::MaxBatchWords words), eight of one word count per kernel
/// call; a group's last few that fill no batch are left out. The kernel
/// reads its input transposed, as DeriveBatch writes it. Both sides hash
/// the same messages under the process key, each the fastest of five
/// passes.
inline BatchedDigestSpeedup
batchedDigestSpeedup(const std::vector<std::string> &Preimages) {
  constexpr size_t MaxWords = DeriveBatch::MaxBatchWords;
  std::vector<std::vector<const std::string *>> ByWords(MaxWords + 1);
  for (const std::string &P : Preimages)
    if (sipWords(P.size()) <= MaxWords)
      ByWords[sipWords(P.size())].push_back(&P);

  struct Batch {
    size_t NumWords;
    size_t At; ///< offset of its transposed words in Words
  };
  std::vector<const std::string *> Messages;
  std::vector<Batch> Batches;
  std::vector<uint64_t> Words;
  for (size_t W = 1; W <= MaxWords; ++W) {
    const std::vector<const std::string *> &Group = ByWords[W];
    for (size_t I = 0; I + SipLanes <= Group.size(); I += SipLanes) {
      Batches.push_back({W, Words.size()});
      Words.resize(Words.size() + W * SipLanes);
      uint64_t *Lanes = Words.data() + Batches.back().At;
      for (size_t L = 0; L != SipLanes; ++L) {
        const std::string &P = *Group[I + L];
        Messages.push_back(&P);
        // Whole words, then the final word: the remaining bytes under
        // the length's low byte.
        for (size_t K = 0; K != W; ++K) {
          uint64_t V = 0;
          std::memcpy(&V, P.data() + 8 * K,
                      std::min<size_t>(8, P.size() - 8 * K));
          if (K == W - 1)
            V |= uint64_t(P.size()) << 56;
          Lanes[SipLanes * K + L] = V;
        }
      }
    }
  }

  uint64_t Sink = 0;
  const DigestKey &Key = processDigestKey();
  double ScalarMs = fastestMs(5, [&] {
    for (const std::string *P : Messages)
      Sink ^= sipHash128(Key, P->data(), P->size()).word(0);
  });
  double BatchedMs = fastestMs(5, [&] {
    Digest Out[SipLanes];
    for (const Batch &B : Batches) {
      sipHash128x8(Key, Words.data() + B.At, B.NumWords, Out);
      Sink ^= Out[0].word(0) ^ Out[SipLanes - 1].word(1);
    }
  });
  // Keeps both loops observable.
  if (Sink == 0x5eed)
    std::printf(" ");
  return {BatchedMs > 0 ? ScalarMs / BatchedMs : 0, Messages.size()};
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
