//===- support/Sha256.h - SHA-256 message digest ----------------*- C++-*-===//
//
// Part of truediff-cpp, a reproduction of "Concise, Type-Safe, and Efficient
// Structural Diffing" (PLDI 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the SHA-256 cryptographic hash
/// (FIPS 180-4), for digests compared across processes: anti-entropy and
/// scrub hash the URI rendering of a document with it, and GumTree its
/// rose-tree nodes. Step-1 node digests use the keyed SipHash of
/// TreeHash.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_SHA256_H
#define TRUEDIFF_SUPPORT_SHA256_H

#include "support/Digest.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace truediff {

/// A SHA-256 result: the 32-byte big-endian serialization of the final
/// state.
struct Sha256Digest {
  static constexpr size_t NumBytes = 32;

  std::array<uint8_t, NumBytes> Bytes{};

  bool operator==(const Sha256Digest &O) const { return Bytes == O.Bytes; }
  bool operator!=(const Sha256Digest &O) const { return Bytes != O.Bytes; }

  /// The first 16 bytes as a Digest, for tables keyed by Digest.
  Digest truncated() const;

  /// Renders the digest as lowercase hex.
  std::string toHex() const { return hexString(Bytes.data(), NumBytes); }
};

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
  Sha256Digest finish();

  /// Convenience helper: hash of one contiguous byte range.
  static Sha256Digest hash(const void *Data, size_t Size);

  /// Convenience helper: hash of a string.
  static Sha256Digest hash(std::string_view Str) {
    return hash(Str.data(), Str.size());
  }

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

/// The SHA-NI compression of one 64-byte block. Only call when
/// haveShaNi().
void compressShaNi(uint32_t State[8], const uint8_t *Block);

} // namespace detail

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_SHA256_H
