//===- support/TreeHash.h - Pluggable subtree digest policies ---*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The digest policy seam for Step-1 subtree hashing. truediff decides
/// subtree equivalence purely through digest equality (paper Section 4.1),
/// so the default policy stays SHA-256: a leader hashes trees its clients
/// send, and a client that could craft a collision could make two
/// different subtrees count as one. No node digest leaves its process
/// (followers, recovery and anti-entropy all rehash or hash the URI text
/// instead). For diff throughput, a context can instead opt into Fast128,
/// a seeded non-cryptographic 128-bit hash in the wyhash/rapidhash family
/// that is an order of magnitude cheaper per node.
///
/// Fast128 digests are seeded per process (see processDigestSeed), so they
/// are meaningless outside the producing process and must never be
/// persisted or shipped to replicas -- both already rebuild digests from
/// structure. See DESIGN.md section 13 for the trade-off discussion.
///
/// Fast128 is implemented inline: Step 1 constructs two hashers per node
/// over inputs that are usually a few dozen bytes, so call overhead and
/// the full-block code path would otherwise dominate the actual mixing.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_TREEHASH_H
#define TRUEDIFF_SUPPORT_TREEHASH_H

#include "support/Digest.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

namespace truediff {

/// Which hash computes the per-node structure and literal digests.
enum class DigestPolicy : uint8_t {
  /// Truncated SHA-256 (the seed's behaviour): collision resistant against
  /// adversarial inputs, so digest equality is safe to take as subtree
  /// equivalence (Section 4.1) on untrusted client trees.
  Sha256,
  /// Seeded 128-bit mum-mix hash: not collision resistant against an
  /// adversary who knows the seed, but ~10x cheaper per node. Digests live
  /// in bytes [0,16) of the Digest value; bytes [16,32) are zero.
  Fast128,
};

/// "sha256" or "fast".
const char *digestPolicyName(DigestPolicy Policy);

/// Parses "sha256"/"sha" or "fast"/"fast128"; nullopt on anything else.
std::optional<DigestPolicy> parseDigestPolicy(std::string_view Name);

/// The per-process random seed mixed into Fast128 digests and DigestHash
/// table hashes. Drawn from std::random_device once per process;
/// overridable via the TRUEDIFF_DIGEST_SEED environment variable (decimal
/// or 0x-hex) so tests and benchmarks can pin it.
uint64_t processDigestSeed();

namespace fast128_detail {

/// Odd constants from the wyhash family; lanes are re-seeded per process
/// (see fast128SeededLanes) so digests are not attacker-predictable.
inline constexpr uint64_t Secret[4] = {
    0xA0761D6478BD642FULL,
    0xE7037ED1A0B428DBULL,
    0x8EBC6AF09C88C6E3ULL,
    0x589965CC75374CC3ULL,
};

inline uint64_t read64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

/// 64x64 -> 128 multiply folded to 64 bits (the wyhash "mum" primitive).
inline uint64_t mum(uint64_t A, uint64_t B) {
  unsigned __int128 R = static_cast<unsigned __int128>(A) * B;
  return static_cast<uint64_t>(R) ^ static_cast<uint64_t>(R >> 64);
}

inline uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

} // namespace fast128_detail

/// The per-process seeded initial lane values, computed once. Hasher
/// construction copies these instead of re-deriving them from the seed --
/// Step 1 resets two hashers per tree node.
inline const std::array<uint64_t, 4> &fast128SeededLanes() {
  static const std::array<uint64_t, 4> Lanes = [] {
    uint64_t Seed = processDigestSeed();
    std::array<uint64_t, 4> L;
    for (int I = 0; I != 4; ++I)
      L[I] = fast128_detail::splitmix64(Seed ^ fast128_detail::Secret[I]);
    return L;
  }();
  return Lanes;
}

/// Incremental seeded 128-bit hasher with the same update API as Sha256,
/// so Tree::computeDerived can be instantiated over either.
///
/// Construction: a wyhash-style folded-multiply compressor over 64-byte
/// blocks with four lanes, length-armoured in the finalizer; inputs that
/// never fill a block take a two-accumulator short path in finish().
/// Quality goal is "no accidental collisions among structured tree
/// encodings", not cryptographic strength.
class Fast128 {
public:
  Fast128() { reset(); }

  void reset() {
    const std::array<uint64_t, 4> &Seeded = fast128SeededLanes();
    Lane[0] = Seeded[0];
    Lane[1] = Seeded[1];
    Lane[2] = Seeded[2];
    Lane[3] = Seeded[3];
    BufferLen = 0;
    TotalBytes = 0;
  }

  void update(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    TotalBytes += Size;
    if (BufferLen != 0) {
      size_t Take = Size < sizeof(Buffer) - BufferLen
                        ? Size
                        : sizeof(Buffer) - BufferLen;
      std::memcpy(Buffer + BufferLen, P, Take);
      BufferLen += Take;
      P += Take;
      Size -= Take;
      if (BufferLen == sizeof(Buffer)) {
        compressBlock(Buffer);
        BufferLen = 0;
      }
    }
    while (Size >= sizeof(Buffer)) {
      compressBlock(P);
      P += sizeof(Buffer);
      Size -= sizeof(Buffer);
    }
    if (Size != 0) {
      std::memcpy(Buffer + BufferLen, P, Size);
      BufferLen += Size;
    }
  }

  void update(std::string_view Str) { update(Str.data(), Str.size()); }

  void updateU64(uint64_t Value) { update(&Value, sizeof(Value)); }

  void updateU32(uint32_t Value) { update(&Value, sizeof(Value)); }

  void update(const Digest &D) { update(D.bytes().data(), Digest::NumBytes); }

  /// Returns the 128-bit digest in bytes [0,16); bytes [16,32) are zero.
  Digest finish() {
    using fast128_detail::mum;
    using fast128_detail::read64;
    using fast128_detail::Secret;
    uint64_t L0, L1;
    if (TotalBytes < sizeof(Buffer)) {
      // Short input: every byte seen is still in Buffer. Fold 16-byte
      // chunks through two chained accumulators instead of running the
      // 4-lane block machinery over a mostly-zero padded block. Padding
      // only reaches the next chunk boundary; the total length folded
      // into the finalizer disambiguates padded tails.
      size_t Padded = (BufferLen + 15) & ~static_cast<size_t>(15);
      std::memset(Buffer + BufferLen, 0, Padded - BufferLen);
      L0 = Lane[0];
      L1 = Lane[1];
      for (size_t I = 0; I != Padded; I += 16) {
        uint64_t W0 = read64(Buffer + I);
        uint64_t W1 = read64(Buffer + I + 8);
        L0 = mum(L0 ^ W0, Secret[(I >> 4) & 3] ^ W1);
        L1 = mum(L1 ^ W1, Secret[(I >> 4) & 3] ^ L0);
      }
    } else {
      if (BufferLen != 0) {
        // Zero-pad the final partial block; length armouring as above.
        std::memset(Buffer + BufferLen, 0, sizeof(Buffer) - BufferLen);
        compressBlock(Buffer);
        BufferLen = 0;
      }
      L0 = Lane[0];
      L1 = Lane[1];
    }
    uint64_t H0 = mum(L0 ^ TotalBytes, Lane[2] ^ Secret[0]);
    uint64_t H1 = mum(L1 ^ Secret[1], Lane[3] ^ TotalBytes);
    H0 = mum(H0 ^ Secret[2], H1 ^ Secret[3]);
    H1 = fast128_detail::splitmix64(H0 ^ H1);

    std::array<uint8_t, Digest::NumBytes> Bytes{};
    std::memcpy(Bytes.data(), &H0, sizeof(H0));
    std::memcpy(Bytes.data() + sizeof(H0), &H1, sizeof(H1));
    return Digest(Bytes);
  }

  /// Convenience helper: hash of one contiguous byte range.
  static Digest hash(const void *Data, size_t Size) {
    Fast128 Hasher;
    Hasher.update(Data, Size);
    return Hasher.finish();
  }

private:
  void compressBlock(const uint8_t *Block) {
    using fast128_detail::mum;
    using fast128_detail::read64;
    using fast128_detail::Secret;
    for (int I = 0; I != 4; ++I)
      Lane[I] = mum(Lane[I] ^ read64(Block + 16 * I),
                    Secret[I] ^ read64(Block + 16 * I + 8));
  }

  uint64_t Lane[4];
  uint8_t Buffer[64];
  size_t BufferLen = 0;
  uint64_t TotalBytes = 0;
};

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_TREEHASH_H
