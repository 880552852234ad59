//===- support/TreeHash.h - The keyed node digest ---------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one Step-1 node digest: keyed SipHash-2-4 with 128-bit output
/// (Aumasson and Bernstein, "SipHash: a fast short-input PRF", INDOCRYPT
/// 2012). truediff decides subtree equivalence purely through digest
/// equality (paper Section 4.1), and a leader hashes trees its clients
/// send, so a client that could craft a collision could make two
/// different subtrees count as one. SipHash is a pseudorandom function of
/// a 128-bit key drawn once per process: a client without the key cannot
/// compute digests offline, so it cannot search for a collision, and
/// accidental collisions among 128-bit outputs are negligible.
///
/// Digests are therefore meaningless outside the producing process and
/// never leave it: followers, recovery and anti-entropy rebuild node
/// digests themselves or compare the SHA-256 of the URI rendering.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_TREEHASH_H
#define TRUEDIFF_SUPPORT_TREEHASH_H

#include "support/Digest.h"

#include <cstddef>
#include <cstdint>

namespace truediff {

/// A 128-bit SipHash key as two little-endian words: K0 holds key bytes
/// 0..7, K1 bytes 8..15.
struct DigestKey {
  uint64_t K0 = 0;
  uint64_t K1 = 0;
};

/// The per-process random seed DigestHash folds into table hashes. Drawn
/// from std::random_device once per process; the TRUEDIFF_DIGEST_SEED
/// environment variable (decimal or 0x-hex) pins it so tests and
/// benchmarks can replay a run.
uint64_t processDigestSeed();

/// The node-digest key, fixed for the process's lifetime. A 128-bit draw
/// from std::random_device; when TRUEDIFF_DIGEST_SEED pins the seed, the
/// key is expanded from that seed instead, so a pinned run replays
/// exactly.
const DigestKey &processDigestKey();

/// Test-only: replaces the process key. Digests cached under the old key
/// no longer match fresh ones, so call it only while no tree built under
/// the old key is still diffed. Lets one test process compare scripts
/// across keys.
void setProcessDigestKeyForTest(const DigestKey &Key);

/// SipHash-2-4 with 128-bit output of the \p Size bytes at \p Data under
/// \p Key, as the reference implementation's siphash(..., outlen = 16)
/// lays it out: bytes 0..7 are the first output word, little-endian.
Digest sipHash128(const DigestKey &Key, const void *Data, size_t Size);

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_TREEHASH_H
