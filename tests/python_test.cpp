//===- tests/python_test.cpp - Unit tests for the Python front end ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "python/Python.h"

#include "python/Lexer.h"
#include "tree/SExpr.h"

#include "Validate.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::python;

namespace {

class PythonTest : public ::testing::Test {
protected:
  PythonTest() : Sig(makePythonSignature()), Ctx(Sig) {}

  Tree *parseOk(std::string_view Source) {
    PyParseResult R = parsePython(Ctx, Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    return R.Module;
  }

  /// Parses, unparses, reparses: both trees must be equal (canonical
  /// round trip).
  void roundTrip(std::string_view Source) {
    Tree *First = parseOk(Source);
    if (First == nullptr)
      return;
    std::string Printed = unparsePython(Sig, First);
    PyParseResult Again = parsePython(Ctx, Printed);
    ASSERT_TRUE(Again.ok()) << Again.Error << "\nunparsed:\n" << Printed;
    EXPECT_TRUE(treeEqualsModuloUris(First, Again.Module))
        << "unparsed:\n"
        << Printed << "\nfirst:  " << printSExpr(Sig, First)
        << "\nsecond: " << printSExpr(Sig, Again.Module);
  }

  SignatureTable Sig;
  TreeContext Ctx;
};

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(PyLexerTest, BasicTokens) {
  auto Toks = lexPython("x = 1 + 2.5\n");
  ASSERT_GE(Toks.size(), 7u);
  EXPECT_EQ(Toks[0].Kind, TokKind::Name);
  EXPECT_EQ(Toks[1].Text, "=");
  EXPECT_EQ(Toks[2].Kind, TokKind::Int);
  EXPECT_EQ(Toks[3].Text, "+");
  EXPECT_EQ(Toks[4].Kind, TokKind::Float);
  EXPECT_EQ(Toks[5].Kind, TokKind::Newline);
  EXPECT_EQ(Toks.back().Kind, TokKind::EndOfFile);
}

TEST(PyLexerTest, IndentDedent) {
  auto Toks = lexPython("if x:\n    y = 1\nz = 2\n");
  size_t Indents = 0, Dedents = 0;
  for (const Tok &T : Toks) {
    Indents += T.Kind == TokKind::Indent;
    Dedents += T.Kind == TokKind::Dedent;
  }
  EXPECT_EQ(Indents, 1u);
  EXPECT_EQ(Dedents, 1u);
}

TEST(PyLexerTest, CommentsAndBlankLinesSkipped) {
  auto Toks = lexPython("# comment\n\nx = 1  # trailing\n");
  size_t Names = 0;
  for (const Tok &T : Toks)
    Names += T.Kind == TokKind::Name;
  EXPECT_EQ(Names, 1u);
}

TEST(PyLexerTest, BracketsSuppressNewlines) {
  auto Toks = lexPython("x = f(1,\n      2)\ny = 3\n");
  size_t Newlines = 0;
  for (const Tok &T : Toks)
    Newlines += T.Kind == TokKind::Newline;
  EXPECT_EQ(Newlines, 2u); // one per logical line
}

TEST(PyLexerTest, StringEscapes) {
  auto Toks = lexPython("s = 'a\\nb'\n");
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[2].Kind, TokKind::Str);
  EXPECT_EQ(Toks[2].Text, "a\nb");
}

TEST(PyLexerTest, ErrorOnBadDedent) {
  auto Toks = lexPython("if x:\n        y = 1\n    z = 2\n");
  EXPECT_EQ(Toks.back().Kind, TokKind::Error);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST_F(PythonTest, SimpleModule) {
  Tree *M = parseOk("x = 1\n");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(Sig.name(M->tag()), "Module");
  const Tree *Body = M->kid(0);
  EXPECT_EQ(Sig.name(Body->tag()), "StmtCons");
  EXPECT_EQ(Sig.name(Body->kid(0)->tag()), "Assign");
}

TEST_F(PythonTest, FunctionWithControlFlow) {
  Tree *M = parseOk("def fib(n):\n"
                    "    if n < 2:\n"
                    "        return n\n"
                    "    return fib(n - 1) + fib(n - 2)\n");
  ASSERT_NE(M, nullptr);
  const Tree *Func = M->kid(0)->kid(0);
  EXPECT_EQ(Sig.name(Func->tag()), "FuncDef");
  EXPECT_EQ(Func->lit(0).asString(), "fib");
}

TEST_F(PythonTest, ElifBecomesNestedIf) {
  Tree *M = parseOk("if a:\n    pass\nelif b:\n    pass\nelse:\n    pass\n");
  const Tree *If = M->kid(0)->kid(0);
  ASSERT_EQ(Sig.name(If->tag()), "If");
  const Tree *Else = If->kid(2);
  ASSERT_EQ(Sig.name(Else->tag()), "StmtCons");
  EXPECT_EQ(Sig.name(Else->kid(0)->tag()), "If");
}

TEST_F(PythonTest, OperatorPrecedence) {
  Tree *M = parseOk("x = 1 + 2 * 3\n");
  const Tree *Add = M->kid(0)->kid(0)->kid(1);
  ASSERT_EQ(Sig.name(Add->tag()), "BinOp");
  EXPECT_EQ(Add->lit(0).asString(), "+");
  EXPECT_EQ(Sig.name(Add->kid(1)->tag()), "BinOp");
  EXPECT_EQ(Add->kid(1)->lit(0).asString(), "*");
}

TEST_F(PythonTest, PowerIsRightAssociative) {
  Tree *M = parseOk("x = 2 ** 3 ** 4\n");
  const Tree *Pow = M->kid(0)->kid(0)->kid(1);
  ASSERT_EQ(Sig.name(Pow->tag()), "BinOp");
  EXPECT_EQ(Sig.name(Pow->kid(1)->tag()), "BinOp");
  EXPECT_EQ(Sig.name(Pow->kid(0)->tag()), "IntLit");
}

TEST_F(PythonTest, ComparisonChain) {
  Tree *M = parseOk("x = a < b <= c\n");
  const Tree *Cmp = M->kid(0)->kid(0)->kid(1);
  ASSERT_EQ(Sig.name(Cmp->tag()), "Compare");
  EXPECT_EQ(Cmp->lit(0).asString(), "<=");
  EXPECT_EQ(Sig.name(Cmp->kid(0)->tag()), "Compare");
}

TEST_F(PythonTest, NotInAndIsNot) {
  Tree *M = parseOk("x = a not in b\ny = a is not b\n");
  const Tree *S1 = M->kid(0)->kid(0);
  const Tree *S2 = M->kid(0)->kid(1)->kid(0);
  EXPECT_EQ(S1->kid(1)->lit(0).asString(), "not in");
  EXPECT_EQ(S2->kid(1)->lit(0).asString(), "is not");
}

TEST_F(PythonTest, CallsAttributesSubscripts) {
  Tree *M = parseOk("y = obj.method(a, b)[0].field\n");
  const Tree *E = M->kid(0)->kid(0)->kid(1);
  EXPECT_EQ(Sig.name(E->tag()), "Attribute");
  EXPECT_EQ(Sig.name(E->kid(0)->tag()), "Subscript");
}

TEST_F(PythonTest, CollectionsAndTuples) {
  Tree *M = parseOk("x = [1, 2]\ny = (1, 2)\nz = {1: 'a', 2: 'b'}\n"
                    "w = ()\nv = (1,)\n");
  const Tree *Body = M->kid(0);
  EXPECT_EQ(Sig.name(Body->kid(0)->kid(1)->tag()), "ListExpr");
  const Tree *Y = Body->kid(1)->kid(0)->kid(1);
  EXPECT_EQ(Sig.name(Y->tag()), "TupleExpr");
  const Tree *Z = Body->kid(1)->kid(1)->kid(0)->kid(1);
  EXPECT_EQ(Sig.name(Z->tag()), "DictExpr");
}

TEST_F(PythonTest, ImportsAndAssert) {
  Tree *M = parseOk("import os.path\nfrom keras import layers\n"
                    "assert x == 1\n");
  const Tree *Body = M->kid(0);
  EXPECT_EQ(Sig.name(Body->kid(0)->tag()), "Import");
  EXPECT_EQ(Body->kid(0)->lit(0).asString(), "os.path");
  const Tree *From = Body->kid(1)->kid(0);
  EXPECT_EQ(From->lit(0).asString(), "keras");
  EXPECT_EQ(From->lit(1).asString(), "layers");
}

TEST_F(PythonTest, AugAssignVariants) {
  Tree *M = parseOk("x += 1\nx //= 2\nx **= 3\n");
  const Tree *Body = M->kid(0);
  EXPECT_EQ(Body->kid(0)->lit(0).asString(), "+");
  EXPECT_EQ(Body->kid(1)->kid(0)->lit(0).asString(), "//");
  EXPECT_EQ(Body->kid(1)->kid(1)->kid(0)->lit(0).asString(), "**");
}

TEST_F(PythonTest, ParseErrorsAreReported) {
  EXPECT_FALSE(parsePython(Ctx, "def f(:\n    pass\n").ok());
  EXPECT_FALSE(parsePython(Ctx, "if x\n    pass\n").ok());
  EXPECT_FALSE(parsePython(Ctx, "x = \n").ok());
  EXPECT_FALSE(parsePython(Ctx, "x = 'unterminated\n").ok());
}

TEST_F(PythonTest, ValidatesAgainstSignature) {
  Tree *M = parseOk("def f(a):\n    return a * 2\n");
  EXPECT_FALSE(tests::validateTree(Ctx.signatures(), M).has_value());
}

//===----------------------------------------------------------------------===//
// Unparser round trips
//===----------------------------------------------------------------------===//

TEST_F(PythonTest, RoundTripStatements) {
  roundTrip("x = 1\n"
            "y = x + 2\n"
            "del_me = [1, 2, 3]\n");
  roundTrip("def f(a, b):\n"
            "    c = a * b\n"
            "    return c\n");
  roundTrip("class Model(Base):\n"
            "    def run(self):\n"
            "        pass\n");
  roundTrip("for i in range(10):\n"
            "    if i % 2 == 0:\n"
            "        continue\n"
            "    total += i\n");
  roundTrip("while not done:\n"
            "    step()\n"
            "    break\n");
}

TEST_F(PythonTest, RoundTripExpressions) {
  roundTrip("x = a or b and not c\n");
  roundTrip("x = -(a + b) * c ** 2\n");
  roundTrip("x = a < b <= c != d\n");
  roundTrip("x = f(g(1), h()[0].attr)\n");
  roundTrip("x = {'k': [1, (2, 3)], 'j': (4,)}\n");
  roundTrip("x = a is not None and b not in c\n");
  roundTrip("x, y = y, x\n");
  roundTrip("x = 2 ** 3 ** 4\n");
  roundTrip("x = (a + b) * (c - d) / e % f // g\n");
}

TEST_F(PythonTest, RoundTripMixedProgram) {
  roundTrip("import math\n"
            "from keras import layers\n"
            "\n"
            "def dense(units, activation):\n"
            "    layer = layers.Dense(units)\n"
            "    if activation is not None:\n"
            "        layer.activation = activation\n"
            "    elif units > 128:\n"
            "        layer.activation = 'relu'\n"
            "    return layer\n"
            "\n"
            "class Net(Model):\n"
            "    def call(self, x):\n"
            "        for layer in self.layers:\n"
            "            x = layer(x)\n"
            "        return x\n"
            "\n"
            "assert dense(1, None) is not None\n");
}

TEST_F(PythonTest, RoundTripEmptyModule) { roundTrip(""); }

} // namespace
