//===- tests/TestSeed.h - Reproducible seeds for randomized tests -*-C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed plumbing for randomized/property tests. Every test that draws
/// from an Rng takes its base seed from testSeed(Default): normally the
/// fixed default (CI per-PR runs are reproducible byte-for-byte), but
/// the TRUEDIFF_TEST_SEED environment variable overrides it, which is
/// how the nightly chaos job explores fresh schedules and how a failure
/// seen there is replayed locally:
///
///   TRUEDIFF_TEST_SEED=123456 ./build/tests/chaos_test
///
/// Use SEED_TRACE(Seed) at the top of the test so any assertion failure
/// prints the seed that produced it. SEED_TRACE also echoes the
/// per-process digest seed (TRUEDIFF_DIGEST_SEED): hash-table iteration
/// order and, when the seed is pinned, the node-digest key derive from
/// it, so replaying a failure faithfully needs both seeds exported.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_TESTSEED_H
#define TRUEDIFF_TESTS_TESTSEED_H

#include "support/TreeHash.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <cstdlib>
#include <string>

namespace truediff {
namespace tests {

/// The base seed for a randomized test: TRUEDIFF_TEST_SEED if set and
/// parseable, else \p Default. Tests deriving several streams should mix
/// the base with distinct odd constants, not reuse it verbatim.
inline uint64_t testSeed(uint64_t Default) {
  const char *Env = std::getenv("TRUEDIFF_TEST_SEED");
  if (Env == nullptr || *Env == '\0')
    return Default;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0')
    return Default;
  return static_cast<uint64_t>(V);
}

/// Iteration count knob for the chaos/property hammers: \p EnvVar
/// (e.g. "TRUEDIFF_CHAOS_ITERS") overrides \p Default. The nightly job
/// cranks this up; per-PR runs keep it small.
inline uint64_t testIters(const char *EnvVar, uint64_t Default) {
  const char *Env = std::getenv(EnvVar);
  if (Env == nullptr || *Env == '\0')
    return Default;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0' || V == 0)
    return Default;
  return static_cast<uint64_t>(V);
}

} // namespace tests
} // namespace truediff

/// Attaches both seeds to every assertion failure in the enclosing scope,
/// so a red nightly run is reproducible by exporting TRUEDIFF_TEST_SEED
/// and, when digest-sensitive behaviour is involved, TRUEDIFF_DIGEST_SEED.
#define SEED_TRACE(Seed)                                                       \
  SCOPED_TRACE("TRUEDIFF_TEST_SEED=" + std::to_string(Seed) +                  \
               " TRUEDIFF_DIGEST_SEED=" +                                      \
               std::to_string(::truediff::processDigestSeed()))

#endif // TRUEDIFF_TESTS_TESTSEED_H
