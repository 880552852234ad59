//===- support/TreeHash.cpp - The keyed node digest ------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TreeHash.h"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>

using namespace truediff;

namespace {

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// The seed TRUEDIFF_DIGEST_SEED pins, if it is set and parses.
std::optional<uint64_t> pinnedSeed() {
  const char *Env = std::getenv("TRUEDIFF_DIGEST_SEED");
  if (Env == nullptr)
    return std::nullopt;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 0);
  if (End == Env || *End != '\0')
    return std::nullopt;
  return static_cast<uint64_t>(V);
}

/// 64 bits from \p Rd, which may deliver only 32 per call.
uint64_t draw64(std::random_device &Rd) {
  uint64_t Hi = Rd();
  uint64_t Lo = Rd();
  return (Hi << 32) ^ Lo;
}

DigestKey drawProcessKey() {
  if (std::optional<uint64_t> Seed = pinnedSeed())
    return {splitmix64(*Seed ^ 0x736970686173684BULL /* "siphashK" */),
            splitmix64(*Seed ^ 0x6B65792D6869676EULL /* "key-high" */)};
  std::random_device Rd;
  return {draw64(Rd), draw64(Rd)};
}

DigestKey &processKeySlot() {
  static DigestKey Key = drawProcessKey();
  return Key;
}

uint64_t rotl(uint64_t X, unsigned B) { return (X << B) | (X >> (64 - B)); }

uint64_t read64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

struct SipState {
  uint64_t V0, V1, V2, V3;

  void round() {
    V0 += V1;
    V1 = rotl(V1, 13);
    V1 ^= V0;
    V0 = rotl(V0, 32);
    V2 += V3;
    V3 = rotl(V3, 16);
    V3 ^= V2;
    V0 += V3;
    V3 = rotl(V3, 21);
    V3 ^= V0;
    V2 += V1;
    V1 = rotl(V1, 17);
    V1 ^= V2;
    V2 = rotl(V2, 32);
  }

  /// One message word with the two compression rounds of SipHash-2-4.
  void absorb(uint64_t M) {
    V3 ^= M;
    round();
    round();
    V0 ^= M;
  }

  void finalRounds() {
    round();
    round();
    round();
    round();
  }

  uint64_t fold() const { return V0 ^ V1 ^ V2 ^ V3; }
};

} // namespace

uint64_t truediff::processDigestSeed() {
  static const uint64_t Seed = [] {
    if (std::optional<uint64_t> Pinned = pinnedSeed())
      return *Pinned;
    std::random_device Rd;
    // Stirred so a weak random_device still yields a full-width seed.
    return splitmix64(draw64(Rd));
  }();
  return Seed;
}

const DigestKey &truediff::processDigestKey() { return processKeySlot(); }

void truediff::setProcessDigestKeyForTest(const DigestKey &Key) {
  processKeySlot() = Key;
}

Digest truediff::sipHash128(const DigestKey &Key, const void *Data,
                            size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  // "somepseudorandomlygeneratedbytes"; the 0xee tweak selects the
  // 128-bit output variant.
  SipState S{0x736f6d6570736575ULL ^ Key.K0, 0x646f72616e646f6dULL ^ Key.K1,
             0x6c7967656e657261ULL ^ Key.K0, 0x7465646279746573ULL ^ Key.K1};
  S.V1 ^= 0xee;
  const uint8_t *End = P + (Size & ~size_t(7));
  for (; P != End; P += 8)
    S.absorb(read64(P));
  // The last word carries the length's low byte on top of the 0..7
  // remaining message bytes.
  uint64_t Last = uint64_t(Size) << 56;
  for (size_t I = 0, Left = Size & 7; I != Left; ++I)
    Last |= uint64_t(P[I]) << (8 * I);
  S.absorb(Last);

  S.V2 ^= 0xee;
  S.finalRounds();
  uint64_t Lo = S.fold();
  S.V1 ^= 0xdd;
  S.finalRounds();
  uint64_t Hi = S.fold();

  std::array<uint8_t, Digest::NumBytes> Bytes;
  for (unsigned I = 0; I != 8; ++I) {
    Bytes[I] = uint8_t(Lo >> (8 * I));
    Bytes[8 + I] = uint8_t(Hi >> (8 * I));
  }
  return Digest(Bytes);
}
