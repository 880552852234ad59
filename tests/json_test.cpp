//===- tests/json_test.cpp - Unit tests for the JSON substrate -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "json/Json.h"

#include "support/Rng.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include "Validate.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::json;

namespace {

class JsonTest : public ::testing::Test {
protected:
  JsonTest() : Sig(makeJsonSignature()), Ctx(Sig) {}

  Tree *parseOk(std::string_view Text) {
    JsonParseResult R = parseJson(Ctx, Text);
    EXPECT_TRUE(R.ok()) << R.Error;
    return R.Value;
  }

  void roundTrip(std::string_view Text) {
    Tree *First = parseOk(Text);
    if (First == nullptr)
      return;
    std::string Printed = unparseJson(Sig, First);
    JsonParseResult Again = parseJson(Ctx, Printed);
    ASSERT_TRUE(Again.ok()) << Again.Error << "\n" << Printed;
    EXPECT_TRUE(treeEqualsModuloUris(First, Again.Value))
        << Printed;
    // Pretty output reparses equally too.
    JsonParseResult Pretty =
        parseJson(Ctx, unparseJson(Sig, First, /*Pretty=*/true));
    ASSERT_TRUE(Pretty.ok());
    EXPECT_TRUE(treeEqualsModuloUris(First, Pretty.Value));
  }

  SignatureTable Sig;
  TreeContext Ctx;
};

TEST_F(JsonTest, ParsesScalars) {
  EXPECT_EQ(Sig.name(parseOk("null")->tag()), "JNull");
  EXPECT_EQ(parseOk("true")->lit(0), Literal(true));
  EXPECT_EQ(parseOk("-2.5")->lit(0), Literal(-2.5));
  EXPECT_EQ(parseOk("\"hi\\n\"")->lit(0), Literal("hi\n"));
}

TEST_F(JsonTest, ParsesUnicodeEscapes) {
  Tree *T = parseOk("\"\\u00e9\"");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->lit(0).asString(), "\xc3\xa9");
}

TEST_F(JsonTest, ParsesNestedStructures) {
  Tree *T = parseOk(R"({"users": [{"name": "ada", "age": 36},
                                  {"name": "alan", "age": 41}],
                        "active": true})");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Sig.name(T->tag()), "JObject");
  EXPECT_FALSE(tests::validateTree(Ctx.signatures(), T).has_value());
}

TEST_F(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(parseJson(Ctx, "{\"a\": }").ok());
  EXPECT_FALSE(parseJson(Ctx, "[1, 2").ok());
  EXPECT_FALSE(parseJson(Ctx, "nul").ok());
  EXPECT_FALSE(parseJson(Ctx, "\"open").ok());
  EXPECT_FALSE(parseJson(Ctx, "1 2").ok());
}

TEST_F(JsonTest, CompactRoundTrips) {
  Tree *T = parseOk(R"({"a": [1, 2, {"b": null}], "c": "x\"y"})");
  ASSERT_NE(T, nullptr);
  std::string Printed = unparseJson(Sig, T);
  JsonParseResult Again = parseJson(Ctx, Printed);
  ASSERT_TRUE(Again.ok()) << Again.Error << "\n" << Printed;
  EXPECT_TRUE(treeEqualsModuloUris(T, Again.Value)) << Printed;
}

TEST_F(JsonTest, PrettyRoundTrips) {
  Tree *T = parseOk(R"([{"k": [true, false]}, 3.5, "s"])");
  ASSERT_NE(T, nullptr);
  std::string Pretty = unparseJson(Sig, T, /*Pretty=*/true);
  EXPECT_NE(Pretty.find('\n'), std::string::npos);
  JsonParseResult Again = parseJson(Ctx, Pretty);
  ASSERT_TRUE(Again.ok()) << Again.Error;
  EXPECT_TRUE(treeEqualsModuloUris(T, Again.Value));
}

TEST_F(JsonTest, DiffingJsonDocuments) {
  // The database use case: a record changes, an entry moves.
  Tree *Before = parseOk(R"({"config": {"rate": 10, "mode": "fast"},
                             "jobs": [{"id": 1}, {"id": 2}]})");
  Tree *After = parseOk(R"({"config": {"rate": 50, "mode": "fast"},
                            "jobs": [{"id": 2}, {"id": 1}]})");
  ASSERT_NE(Before, nullptr);
  ASSERT_NE(After, nullptr);

  MTree M = MTree::fromTree(Sig, Before);
  TrueDiff Differ(Ctx);
  DiffResult R = Differ.compareTo(Before, After);

  LinearTypeChecker Checker(Sig);
  EXPECT_TRUE(Checker.checkWellTyped(R.Script).Ok);
  ASSERT_TRUE(M.patchChecked(R.Script).Ok);
  EXPECT_TRUE(M.equalsTree(After));
  // Concise: one update (rate) plus the moves/rebuilds for the swapped
  // array entries; far below the document size.
  EXPECT_LE(R.Script.coalescedSize(), 12u) << R.Script.toString(Sig);
}

class JsonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Random JSON documents: parse/print round trip and diff invariants.
TEST_P(JsonPropertyTest, RandomDocumentInvariants) {
  SignatureTable Sig = makeJsonSignature();
  TreeContext Ctx(Sig);
  Rng R(GetParam() * 409 + 3);

  std::function<Tree *(int)> Gen = [&](int Depth) -> Tree * {
    if (Depth <= 0 || R.chance(40)) {
      switch (R.below(4)) {
      case 0:
        return Ctx.make("JNull", {}, {});
      case 1:
        return Ctx.make("JBool", {}, {Literal(R.chance(50))});
      case 2:
        return Ctx.make("JNumber", {},
                        {Literal(static_cast<double>(R.range(-50, 50)))});
      default:
        return Ctx.make(
            "JString", {},
            {Literal(std::string("s") + std::to_string(R.below(20)))});
      }
    }
    if (R.chance(50)) {
      Tree *List = Ctx.make("ElemNil", {}, {});
      for (int I = static_cast<int>(R.below(4)); I-- > 0;)
        List = Ctx.make("ElemCons", {Gen(Depth - 1), List}, {});
      return Ctx.make("JArray", {List}, {});
    }
    Tree *List = Ctx.make("MemberNil", {}, {});
    for (int I = static_cast<int>(R.below(4)); I-- > 0;)
      List = Ctx.make(
          "MemberCons",
          {Ctx.make("Member", {Gen(Depth - 1)},
                    {Literal(std::string("k") + std::to_string(R.below(8)))}),
           List},
          {});
    return Ctx.make("JObject", {List}, {});
  };

  Tree *A = Gen(4);
  Tree *B = Gen(4);

  // Round trip.
  JsonParseResult P = parseJson(Ctx, unparseJson(Sig, A));
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_TRUE(treeEqualsModuloUris(A, P.Value));

  // Diff invariants.
  MTree M = MTree::fromTree(Sig, A);
  TrueDiff Differ(Ctx);
  DiffResult Result = Differ.compareTo(A, B);
  LinearTypeChecker Checker(Sig);
  ASSERT_TRUE(Checker.checkWellTyped(Result.Script).Ok);
  ASSERT_TRUE(M.patchChecked(Result.Script).Ok);
  EXPECT_TRUE(M.equalsTree(B));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

} // namespace
