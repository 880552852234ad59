//===- support/Sha256.h - SHA-256 message digest ----------------*- C++-*-===//
//
// Part of truediff-cpp, a reproduction of "Concise, Type-Safe, and Efficient
// Structural Diffing" (PLDI 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the SHA-256 cryptographic hash
/// (FIPS 180-4). truediff decides subtree equivalence purely through digest
/// equality (paper Section 4.1), so the hash must be collision resistant.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_SHA256_H
#define TRUEDIFF_SUPPORT_SHA256_H

#include "support/Digest.h"

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace truediff {

/// Incremental SHA-256 hasher.
///
/// Usage mirrors `MessageDigest` from the paper's Scala implementation:
/// feed byte ranges with update() and obtain the 32-byte digest with
/// finish(). A hasher must not be updated after finish().
class Sha256 {
public:
  Sha256() { reset(); }

  /// Resets the hasher to the initial state so it can be reused.
  void reset();

  /// Absorbs \p Size bytes starting at \p Data.
  void update(const void *Data, size_t Size);

  /// Absorbs the bytes of \p Str.
  void update(std::string_view Str) { update(Str.data(), Str.size()); }

  /// Absorbs a little-endian encoding of \p Value.
  void updateU64(uint64_t Value);

  /// Absorbs a little-endian encoding of \p Value.
  void updateU32(uint32_t Value);

  /// Absorbs a previously computed digest.
  void update(const Digest &D) { update(D.bytes().data(), Digest::NumBytes); }

  /// Pads, finalizes, and returns the 32-byte digest.
  Digest finish();

  /// Convenience helper: hash of one contiguous byte range.
  static Digest hash(const void *Data, size_t Size);

  /// Convenience helper: hash of a string.
  static Digest hash(std::string_view Str) {
    return hash(Str.data(), Str.size());
  }

  /// \name One-shot paired digests of short messages
  ///
  /// Step 1 hashes two short messages per tree node (structure and
  /// literal preimages, usually a few dozen bytes each). hashPair pads both
  /// in place and compresses them side by side, so one chain's round
  /// latency hides behind the other's and no streaming buffer is copied.
  /// @{

  /// Capacity of a hashPair message buffer: four blocks.
  static constexpr size_t PairBufferBytes = 256;

  /// Longest message hashPair accepts: the buffer less the 0x80
  /// terminator and the 8-byte length field. Callers stream longer ones.
  static constexpr size_t PairMaxBytes = PairBufferBytes - 9;

  /// Digests of the first \p LenA bytes of \p A and the first \p LenB
  /// bytes of \p B (each at most PairMaxBytes), equal to hash() of each.
  /// The buffers are padded in place, so bytes past each message are
  /// scratch.
  static void hashPair(uint8_t (&A)[PairBufferBytes], size_t LenA,
                       uint8_t (&B)[PairBufferBytes], size_t LenB,
                       Digest &OutA, Digest &OutB);
  /// @}

private:
  void compressBlock(const uint8_t *Block);

  uint32_t State[8];
  uint8_t Buffer[64];
  size_t BufferLen = 0;
  uint64_t TotalBytes = 0;
};

namespace detail {

/// The 64 round constants (FIPS 180-4, Section 4.2.2), 16-byte aligned so
/// the SHA-NI kernel loads four at a time.
extern const uint32_t RoundConstants[64];

/// True when the CPU has the x86 SHA extensions.
bool haveShaNi();

/// The portable FIPS 180-4 compression of one 64-byte block.
void compressPortable(uint32_t State[8], const uint8_t *Block);

/// SHA-NI compression of \p N independent (state, block) lanes, their
/// rounds interleaved. Only call when haveShaNi(); instantiated for N = 1
/// and 2.
template <unsigned N>
void compressLanesShaNi(uint32_t *const State[N], const uint8_t *const Block[N]);

} // namespace detail

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_SHA256_H
