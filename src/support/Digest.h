//===- support/Digest.h - 128-bit digest value type -------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 16-byte digest value with cheap equality and hashing. truediff stores
/// two digests per tree node (structure hash and literal hash, paper
/// Section 4.1) and uses them as hash-table keys in the SubtreeRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_DIGEST_H
#define TRUEDIFF_SUPPORT_DIGEST_H

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace truediff {

/// A 128-bit digest. Equality of digests is treated as equality of the
/// hashed trees, exactly as in the paper.
class Digest {
public:
  static constexpr size_t NumBytes = 16;

  Digest() { Bytes.fill(0); }

  explicit Digest(const std::array<uint8_t, NumBytes> &B) : Bytes(B) {}

  const std::array<uint8_t, NumBytes> &bytes() const { return Bytes; }

  /// The first eight bytes interpreted as a machine word.
  uint64_t prefixWord() const { return word(0); }

  /// Eight-byte word \p I (0 or 1) of the digest, little-endian.
  uint64_t word(size_t I) const {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I * sizeof(W), sizeof(W));
    return W;
  }

  bool operator==(const Digest &O) const { return Bytes == O.Bytes; }
  bool operator!=(const Digest &O) const { return Bytes != O.Bytes; }

  /// Lexicographic order, handy for deterministic iteration in tests.
  bool operator<(const Digest &O) const { return Bytes < O.Bytes; }

  /// Renders the digest as lowercase hex, e.g. for debugging output.
  std::string toHex() const;

private:
  std::array<uint8_t, NumBytes> Bytes;
};

/// The per-process random seed DigestHash folds into every table hash.
/// Not every Digest is keyed per process (GumTree's and the anti-entropy
/// summaries use the fixed ChecksumKey of TreeHash.h), so exposing digest
/// bytes directly as the bucket key would let crafted inputs flood one
/// hash bucket; the seed (plus a strong finisher) makes bucket placement
/// unpredictable. Defined in Digest.cpp; see also processDigestSeed() in
/// TreeHash.h, which this reuses.
uint64_t digestTableSeed();

/// Hash functor so Digest can key std::unordered_map. Mixes the first two
/// digest words with the per-process seed through a splitmix64-style
/// finisher, rather than exposing the raw prefix as the bucket key.
struct DigestHash {
  size_t operator()(const Digest &D) const {
    uint64_t X = D.word(0) ^ digestTableSeed();
    X += D.word(1) * 0x9E3779B97F4A7C15ULL;
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(X ^ (X >> 31));
  }
};

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_DIGEST_H
