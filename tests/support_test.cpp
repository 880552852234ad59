//===- tests/support_test.cpp - Unit tests for the support library ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"
#include "support/Literal.h"
#include "support/Rng.h"
#include "support/Sha256.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace truediff;

//===----------------------------------------------------------------------===//
// SHA-256 (FIPS 180-4 test vectors)
//===----------------------------------------------------------------------===//

TEST(Sha256Test, EmptyMessage) {
  EXPECT_EQ(Sha256::hash("").toHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::hash("abc").toHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlocks) {
  EXPECT_EQ(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                         "pnopq")
                .toHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 Hasher;
  std::string Chunk(1000, 'a');
  for (int I = 0; I != 1000; ++I)
    Hasher.update(Chunk);
  EXPECT_EQ(Hasher.finish().toHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 55, 56, 63, 64, 65 bytes exercise all padding cases.
  for (size_t Len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    std::string Msg(Len, 'x');
    Sha256Digest Whole = Sha256::hash(Msg);
    Sha256 Chunked;
    for (char C : Msg)
      Chunked.update(&C, 1);
    EXPECT_EQ(Whole, Chunked.finish()) << "length " << Len;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string Msg = "the quick brown fox jumps over the lazy dog";
  Sha256 Hasher;
  Hasher.update(Msg.substr(0, 10));
  Hasher.update(Msg.substr(10));
  EXPECT_EQ(Hasher.finish(), Sha256::hash(Msg));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 Hasher;
  Hasher.update("garbage");
  (void)Hasher.finish();
  Hasher.reset();
  Hasher.update("abc");
  EXPECT_EQ(Hasher.finish(), Sha256::hash("abc"));
}

TEST(Sha256Test, U64AndU32Helpers) {
  Sha256 A;
  A.updateU64(0x0123456789abcdefull);
  Sha256 B;
  const uint8_t Bytes[8] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  B.update(Bytes, 8);
  EXPECT_EQ(A.finish(), B.finish());

  Sha256 C;
  C.updateU32(0x04030201u);
  Sha256 D;
  const uint8_t Bytes4[4] = {0x01, 0x02, 0x03, 0x04};
  D.update(Bytes4, 4);
  EXPECT_EQ(C.finish(), D.finish());
}

TEST(Sha256PairTest, ShaNiAndPortableCompressAgree) {
  if (!detail::haveShaNi())
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng R(2024);
  for (int Trial = 0; Trial != 64; ++Trial) {
    uint8_t Block[64];
    uint32_t Portable[8], Ni[8];
    for (uint8_t &Byte : Block)
      Byte = static_cast<uint8_t>(R.next());
    for (uint32_t &Word : Portable)
      Word = static_cast<uint32_t>(R.next());
    std::memcpy(Ni, Portable, sizeof(Ni));

    detail::compressPortable(Portable, Block);
    detail::compressShaNi(Ni, Block);

    EXPECT_EQ(std::memcmp(Portable, Ni, sizeof(Ni)), 0) << Trial;
  }
}

TEST(DigestTest, PrefixWordAndOrdering) {
  Digest A = Sha256::hash("a").truncated();
  Digest B = Sha256::hash("b").truncated();
  EXPECT_NE(A, B);
  EXPECT_NE(A.prefixWord(), B.prefixWord());
  EXPECT_TRUE((A < B) || (B < A));
  Digest Zero;
  EXPECT_EQ(Zero.prefixWord(), 0u);
}

//===----------------------------------------------------------------------===//
// Interner
//===----------------------------------------------------------------------===//

TEST(InternerTest, InternIsStable) {
  Interner I;
  Symbol A = I.intern("Add");
  Symbol B = I.intern("Sub");
  EXPECT_NE(A, B);
  EXPECT_EQ(A, I.intern("Add"));
  EXPECT_EQ(I.name(A), "Add");
  EXPECT_EQ(I.name(B), "Sub");
}

TEST(InternerTest, LookupWithoutInterning) {
  Interner I;
  EXPECT_EQ(I.lookup("missing"), InvalidSymbol);
  Symbol A = I.intern("present");
  EXPECT_EQ(I.lookup("present"), A);
}

TEST(InternerTest, SymbolZeroIsReserved) {
  Interner I;
  EXPECT_NE(I.intern("first"), InvalidSymbol);
}

//===----------------------------------------------------------------------===//
// Literal
//===----------------------------------------------------------------------===//

TEST(LiteralTest, KindsAndEquality) {
  EXPECT_EQ(Literal(int64_t(4)).kind(), LitKind::Int);
  EXPECT_EQ(Literal(4.0).kind(), LitKind::Float);
  EXPECT_EQ(Literal(true).kind(), LitKind::Bool);
  EXPECT_EQ(Literal("x").kind(), LitKind::String);

  EXPECT_EQ(Literal(int64_t(4)), Literal(int64_t(4)));
  EXPECT_NE(Literal(int64_t(4)), Literal(4.0));
  EXPECT_NE(Literal("a"), Literal("b"));
}

TEST(LiteralTest, ToString) {
  EXPECT_EQ(Literal(int64_t(-7)).toString(), "-7");
  EXPECT_EQ(Literal(true).toString(), "true");
  EXPECT_EQ(Literal("hi\n").toString(), "\"hi\\n\"");
  EXPECT_EQ(Literal(2.5).toString(), "2.5");
  EXPECT_EQ(Literal(2.0).toString(), "2.0");
}

TEST(LiteralTest, HashDistinguishesKindsAndValues) {
  auto HashOf = [](const Literal &L) {
    std::vector<uint8_t> Bytes(L.hashEncodingSize());
    EXPECT_EQ(L.hashEncoding(Bytes.data()), Bytes.data() + Bytes.size());
    return Sha256::hash(Bytes.data(), Bytes.size());
  };
  EXPECT_NE(HashOf(Literal(int64_t(1))), HashOf(Literal(int64_t(2))));
  EXPECT_NE(HashOf(Literal(int64_t(1))), HashOf(Literal(1.0)));
  EXPECT_NE(HashOf(Literal("1")), HashOf(Literal(int64_t(1))));
  EXPECT_EQ(HashOf(Literal("x")), HashOf(Literal("x")));
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, Deterministic) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(42);
  for (int I = 0; I != 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(RngTest, BelowAndRangeInBounds) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.below(10), 10u);
    int64_t V = R.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// BoxStats
//===----------------------------------------------------------------------===//

TEST(StatsTest, FiveNumberSummary) {
  BoxStats S = BoxStats::of({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(S.Min, 1);
  EXPECT_DOUBLE_EQ(S.Q1, 2);
  EXPECT_DOUBLE_EQ(S.Median, 3);
  EXPECT_DOUBLE_EQ(S.Q3, 4);
  EXPECT_DOUBLE_EQ(S.Max, 5);
  EXPECT_DOUBLE_EQ(S.Mean, 3);
  EXPECT_EQ(S.Count, 5u);
}

TEST(StatsTest, InterpolatedQuartiles) {
  BoxStats S = BoxStats::of({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(S.Median, 2.5);
  EXPECT_DOUBLE_EQ(S.Q1, 1.75);
  EXPECT_DOUBLE_EQ(S.Q3, 3.25);
}

TEST(StatsTest, EmptyAndSingleton) {
  BoxStats Empty = BoxStats::of({});
  EXPECT_EQ(Empty.Count, 0u);
  BoxStats One = BoxStats::of({7});
  EXPECT_DOUBLE_EQ(One.Median, 7);
  EXPECT_DOUBLE_EQ(One.Min, 7);
  EXPECT_DOUBLE_EQ(One.Max, 7);
}
