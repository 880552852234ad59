//===- support/Sha256Ni.cpp - SHA-NI accelerated compression ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// x86 SHA-NI implementation of the SHA-256 compression function,
/// following Intel's published instruction sequence, generic over the
/// number of independent lanes it compresses at once. Selected at run time
/// when the CPU supports it (truediff hashes every tree node twice, so
/// this directly accelerates Step 1 of the algorithm); the portable
/// implementation in Sha256.cpp remains the fallback and the reference
/// for the FIPS test vectors.
///
/// One lane serves the streaming hasher. Two lanes serve Sha256::hashPair:
/// a chain of sha256rnds2 instructions is latency bound, so interleaving a
/// second, independent chain costs little more than one.
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

template <unsigned N>
void compressLanesShaNi(uint32_t *const State[N], const uint8_t *const Block[N]) {
  const __m128i MASK =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // Per lane: the state as the ABEF/CDGH register pair the instructions
  // expect, its value on entry, and the sliding four-group message
  // schedule (W[L][Q & 3] holds schedule words 4Q..4Q+3).
  __m128i ABEF[N], CDGH[N], ABEFIn[N], CDGHIn[N], W[N][4];

#define FOR_LANES _Pragma("GCC unroll 2") for (unsigned L = 0; L != N; ++L)

  FOR_LANES {
    __m128i DCBA =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&State[L][0]));
    __m128i HGFE =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&State[L][4]));
    __m128i CDAB = _mm_shuffle_epi32(DCBA, 0xB1);
    __m128i EFGH = _mm_shuffle_epi32(HGFE, 0x1B);
    ABEF[L] = ABEFIn[L] = _mm_alignr_epi8(CDAB, EFGH, 8);
    CDGH[L] = CDGHIn[L] = _mm_blend_epi16(EFGH, CDAB, 0xF0);
  }

  // Sixteen groups of four rounds. Group Q consumes schedule words
  // 4Q..4Q+3; from group 3 on it also finishes the words of group Q+1
  // (msg2), and from group 1 on it starts those of group Q+3 (msg1).
  // The conditions fold away once the loop is unrolled.
  _Pragma("GCC unroll 16") for (unsigned Q = 0; Q != 16; ++Q) {
    const __m128i KQ =
        _mm_load_si128(reinterpret_cast<const __m128i *>(RoundConstants + 4 * Q));
    FOR_LANES {
      if (Q < 4)
        W[L][Q] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(Block[L] + 16 * Q)),
            MASK);
      __m128i MSG = _mm_add_epi32(W[L][Q & 3], KQ);
      CDGH[L] = _mm_sha256rnds2_epu32(CDGH[L], ABEF[L], MSG);
      if (Q >= 3 && Q < 15) {
        __m128i TMP = _mm_alignr_epi8(W[L][Q & 3], W[L][(Q - 1) & 3], 4);
        W[L][(Q + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(W[L][(Q + 1) & 3], TMP), W[L][Q & 3]);
      }
      MSG = _mm_shuffle_epi32(MSG, 0x0E);
      ABEF[L] = _mm_sha256rnds2_epu32(ABEF[L], CDGH[L], MSG);
      if (Q >= 1 && Q < 13)
        W[L][(Q - 1) & 3] =
            _mm_sha256msg1_epu32(W[L][(Q - 1) & 3], W[L][Q & 3]);
    }
  }

  // Write back in the conventional ABCDEFGH order.
  FOR_LANES {
    __m128i S0 = _mm_add_epi32(ABEF[L], ABEFIn[L]);
    __m128i S1 = _mm_add_epi32(CDGH[L], CDGHIn[L]);
    __m128i FEBA = _mm_shuffle_epi32(S0, 0x1B);
    __m128i DCHG = _mm_shuffle_epi32(S1, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&State[L][0]),
                     _mm_blend_epi16(FEBA, DCHG, 0xF0)); // DCBA
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&State[L][4]),
                     _mm_alignr_epi8(DCHG, FEBA, 8)); // HGFE
  }
#undef FOR_LANES
}

template void compressLanesShaNi<1>(uint32_t *const[1], const uint8_t *const[1]);
template void compressLanesShaNi<2>(uint32_t *const[2], const uint8_t *const[2]);

#pragma GCC pop_options

} // namespace detail
} // namespace truediff

#else

namespace truediff {
namespace detail {

bool haveShaNi() { return false; }

// Never selected (haveShaNi() is false); defined so callers link.
template <unsigned N>
void compressLanesShaNi(uint32_t *const State[N], const uint8_t *const Block[N]) {
  for (unsigned L = 0; L != N; ++L)
    compressPortable(State[L], Block[L]);
}

template void compressLanesShaNi<1>(uint32_t *const[1], const uint8_t *const[1]);
template void compressLanesShaNi<2>(uint32_t *const[2], const uint8_t *const[2]);

} // namespace detail
} // namespace truediff

#endif
