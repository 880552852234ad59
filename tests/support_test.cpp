//===- tests/support_test.cpp - Unit tests for the support library ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"
#include "support/Literal.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/TreeHash.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace truediff;

//===----------------------------------------------------------------------===//
// Digest
//===----------------------------------------------------------------------===//

TEST(DigestTest, PrefixWordAndOrdering) {
  Digest A = sipHash128(ChecksumKey, "a", 1);
  Digest B = sipHash128(ChecksumKey, "b", 1);
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
    return sipHash128(ChecksumKey, Bytes.data(), Bytes.size());
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
