//===- support/Digest.cpp - 128-bit digest value type ----------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Digest.h"

#include "support/TreeHash.h"

using namespace truediff;

uint64_t truediff::digestTableSeed() { return processDigestSeed(); }

std::string Digest::toHex() const {
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(NumBytes * 2);
  for (uint8_t B : Bytes) {
    Out.push_back(Hex[B >> 4]);
    Out.push_back(Hex[B & 0xf]);
  }
  return Out;
}
