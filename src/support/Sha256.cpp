//===- support/Sha256.cpp - SHA-256 message digest ------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace truediff;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4, Section 4.2.2).
alignas(16) const uint32_t detail::RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

using detail::RoundConstants;

/// Initial hash values: fractional parts of the square roots of the first
/// eight primes (FIPS 180-4, Section 5.3.3).
constexpr uint32_t IV[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

uint32_t rotr(uint32_t X, unsigned N) { return (X >> N) | (X << (32 - N)); }

/// The big-endian serialization of a final state.
Sha256Digest digestOf(const uint32_t State[8]) {
  Sha256Digest Out;
  for (unsigned I = 0; I != 8; ++I) {
    Out.Bytes[I * 4] = uint8_t(State[I] >> 24);
    Out.Bytes[I * 4 + 1] = uint8_t(State[I] >> 16);
    Out.Bytes[I * 4 + 2] = uint8_t(State[I] >> 8);
    Out.Bytes[I * 4 + 3] = uint8_t(State[I]);
  }
  return Out;
}

} // namespace

void detail::compressPortable(uint32_t State[8], const uint8_t *Block) {
  uint32_t W[64];
  for (unsigned I = 0; I != 16; ++I)
    W[I] = (uint32_t(Block[I * 4]) << 24) | (uint32_t(Block[I * 4 + 1]) << 16) |
           (uint32_t(Block[I * 4 + 2]) << 8) | uint32_t(Block[I * 4 + 3]);
  for (unsigned I = 16; I != 64; ++I) {
    uint32_t S0 = rotr(W[I - 15], 7) ^ rotr(W[I - 15], 18) ^ (W[I - 15] >> 3);
    uint32_t S1 = rotr(W[I - 2], 17) ^ rotr(W[I - 2], 19) ^ (W[I - 2] >> 10);
    W[I] = W[I - 16] + S0 + W[I - 7] + S1;
  }

  uint32_t A = State[0], B = State[1], C = State[2], D = State[3];
  uint32_t E = State[4], F = State[5], G = State[6], H = State[7];

  for (unsigned I = 0; I != 64; ++I) {
    uint32_t S1 = rotr(E, 6) ^ rotr(E, 11) ^ rotr(E, 25);
    uint32_t Ch = (E & F) ^ (~E & G);
    uint32_t Temp1 = H + S1 + Ch + RoundConstants[I] + W[I];
    uint32_t S0 = rotr(A, 2) ^ rotr(A, 13) ^ rotr(A, 22);
    uint32_t Maj = (A & B) ^ (A & C) ^ (B & C);
    uint32_t Temp2 = S0 + Maj;
    H = G;
    G = F;
    F = E;
    E = D + Temp1;
    D = C;
    C = B;
    B = A;
    A = Temp1 + Temp2;
  }

  State[0] += A;
  State[1] += B;
  State[2] += C;
  State[3] += D;
  State[4] += E;
  State[5] += F;
  State[6] += G;
  State[7] += H;
}

void Sha256::reset() {
  std::memcpy(State, IV, sizeof(State));
  BufferLen = 0;
  TotalBytes = 0;
}

void Sha256::compressBlock(const uint8_t *Block) {
  if (detail::haveShaNi()) {
    detail::compressShaNi(State, Block);
    return;
  }
  detail::compressPortable(State, Block);
}

void Sha256::update(const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  TotalBytes += Size;

  // Fill a partially buffered block first.
  if (BufferLen != 0) {
    size_t Take = std::min(Size, sizeof(Buffer) - BufferLen);
    std::memcpy(Buffer + BufferLen, Bytes, Take);
    BufferLen += Take;
    Bytes += Take;
    Size -= Take;
    if (BufferLen == sizeof(Buffer)) {
      compressBlock(Buffer);
      BufferLen = 0;
    }
  }

  // Compress full blocks directly from the input.
  while (Size >= sizeof(Buffer)) {
    compressBlock(Bytes);
    Bytes += sizeof(Buffer);
    Size -= sizeof(Buffer);
  }

  if (Size != 0) {
    std::memcpy(Buffer, Bytes, Size);
    BufferLen = Size;
  }
}

void Sha256::updateU64(uint64_t Value) {
  uint8_t Bytes[8];
  for (unsigned I = 0; I != 8; ++I)
    Bytes[I] = uint8_t(Value >> (I * 8));
  update(Bytes, sizeof(Bytes));
}

void Sha256::updateU32(uint32_t Value) {
  uint8_t Bytes[4];
  for (unsigned I = 0; I != 4; ++I)
    Bytes[I] = uint8_t(Value >> (I * 8));
  update(Bytes, sizeof(Bytes));
}

Sha256Digest Sha256::finish() {
  uint64_t BitLen = TotalBytes * 8;

  // Append the 0x80 terminator, zero padding, and the 64-bit big-endian
  // message length.
  uint8_t Pad[72];
  size_t PadLen = (BufferLen < 56) ? (56 - BufferLen) : (120 - BufferLen);
  Pad[0] = 0x80;
  std::memset(Pad + 1, 0, PadLen - 1);
  update(Pad, PadLen);
  // update() counts the padding, but the length field must describe the
  // original message only; TotalBytes is no longer needed afterwards.
  uint8_t LenBytes[8];
  for (unsigned I = 0; I != 8; ++I)
    LenBytes[I] = uint8_t(BitLen >> ((7 - I) * 8));
  update(LenBytes, sizeof(LenBytes));
  assert(BufferLen == 0 && "padding must complete the final block");
  return digestOf(State);
}

Sha256Digest Sha256::hash(const void *Data, size_t Size) {
  Sha256 Hasher;
  Hasher.update(Data, Size);
  return Hasher.finish();
}

Digest Sha256Digest::truncated() const {
  std::array<uint8_t, Digest::NumBytes> Prefix;
  std::memcpy(Prefix.data(), Bytes.data(), Digest::NumBytes);
  return Digest(Prefix);
}
