//===- support/Sha256Ni.cpp - SHA-NI accelerated compression ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// x86 SHA-NI implementation of the SHA-256 compression function,
/// following Intel's published instruction sequence. Selected at run time
/// when the CPU supports it; the portable implementation in Sha256.cpp
/// remains the fallback and the reference for the FIPS test vectors.
///
//===----------------------------------------------------------------------===//

#include "support/Sha256.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace truediff {
namespace detail {

bool haveShaNi() {
  static const bool Have = __builtin_cpu_supports("sha");
  return Have;
}

// The kernel alone is compiled for the SHA extensions; callers check
// haveShaNi() first.
#pragma GCC push_options
#pragma GCC target("sha,sse4.1")

void compressShaNi(uint32_t State[8], const uint8_t *Block) {
  const __m128i MASK =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The state as the ABEF/CDGH register pair the instructions expect,
  // and the sliding four-group message schedule (W[Q & 3] holds schedule
  // words 4Q..4Q+3).
  __m128i W[4];
  __m128i DCBA = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&State[0]));
  __m128i HGFE = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&State[4]));
  __m128i CDAB = _mm_shuffle_epi32(DCBA, 0xB1);
  __m128i EFGH = _mm_shuffle_epi32(HGFE, 0x1B);
  const __m128i ABEFIn = _mm_alignr_epi8(CDAB, EFGH, 8);
  const __m128i CDGHIn = _mm_blend_epi16(EFGH, CDAB, 0xF0);
  __m128i ABEF = ABEFIn, CDGH = CDGHIn;

  // Sixteen groups of four rounds. Group Q consumes schedule words
  // 4Q..4Q+3; from group 3 on it also finishes the words of group Q+1
  // (msg2), and from group 1 on it starts those of group Q+3 (msg1).
  // The conditions fold away once the loop is unrolled.
  _Pragma("GCC unroll 16") for (unsigned Q = 0; Q != 16; ++Q) {
    const __m128i KQ =
        _mm_load_si128(reinterpret_cast<const __m128i *>(RoundConstants + 4 * Q));
    if (Q < 4)
      W[Q] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i *>(Block + 16 * Q)),
          MASK);
    __m128i MSG = _mm_add_epi32(W[Q & 3], KQ);
    CDGH = _mm_sha256rnds2_epu32(CDGH, ABEF, MSG);
    if (Q >= 3 && Q < 15) {
      __m128i TMP = _mm_alignr_epi8(W[Q & 3], W[(Q - 1) & 3], 4);
      W[(Q + 1) & 3] =
          _mm_sha256msg2_epu32(_mm_add_epi32(W[(Q + 1) & 3], TMP), W[Q & 3]);
    }
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    ABEF = _mm_sha256rnds2_epu32(ABEF, CDGH, MSG);
    if (Q >= 1 && Q < 13)
      W[(Q - 1) & 3] = _mm_sha256msg1_epu32(W[(Q - 1) & 3], W[Q & 3]);
  }

  // Write back in the conventional ABCDEFGH order.
  __m128i S0 = _mm_add_epi32(ABEF, ABEFIn);
  __m128i S1 = _mm_add_epi32(CDGH, CDGHIn);
  __m128i FEBA = _mm_shuffle_epi32(S0, 0x1B);
  __m128i DCHG = _mm_shuffle_epi32(S1, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(&State[0]),
                   _mm_blend_epi16(FEBA, DCHG, 0xF0)); // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i *>(&State[4]),
                   _mm_alignr_epi8(DCHG, FEBA, 8)); // HGFE
}

#pragma GCC pop_options

} // namespace detail
} // namespace truediff

#else

namespace truediff {
namespace detail {

bool haveShaNi() { return false; }

// Never selected (haveShaNi() is false); defined so callers link.
void compressShaNi(uint32_t State[8], const uint8_t *Block) {
  compressPortable(State, Block);
}

} // namespace detail
} // namespace truediff

#endif
