//===- support/Digest.cpp - 128-bit digest value type ----------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Digest.h"

#include "support/TreeHash.h"

using namespace truediff;

uint64_t truediff::digestTableSeed() { return processDigestSeed(); }

std::string truediff::hexString(const uint8_t *Bytes, size_t Size) {
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Size * 2);
  for (size_t I = 0; I != Size; ++I) {
    Out.push_back(Hex[Bytes[I] >> 4]);
    Out.push_back(Hex[Bytes[I] & 0xf]);
  }
  return Out;
}

std::string Digest::toHex() const { return hexString(Bytes.data(), NumBytes); }
