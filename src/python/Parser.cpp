//===- python/Parser.cpp - Recursive-descent parser for the subset ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "python/Python.h"

#include "python/Lexer.h"
#include "tree/Builder.h"

#include <cassert>
#include <cstdlib>
#include <initializer_list>

using namespace truediff;
using namespace truediff::python;

namespace {

/// Every constructor tag the parser builds.
#define PY_TAGS(X)                                                             \
  X(Module) X(StmtNil) X(StmtCons) X(ExprNil) X(ExprCons) X(ParamNil)          \
  X(ParamCons) X(EntryNil) X(EntryCons) X(Param) X(FuncDef) X(ClassDef) X(If)  \
  X(While) X(TupleExpr) X(For) X(Pass) X(Break) X(Continue) X(Return)          \
  X(NoneLit) X(Import) X(ImportFrom) X(Assert) X(AugAssign) X(Assign)          \
  X(ExprStmt) X(BoolOp) X(UnaryOp) X(Compare) X(BinOp) X(Call) X(Attribute)    \
  X(Subscript) X(Name) X(IntLit) X(FloatLit) X(StrLit) X(BoolLit) X(ListExpr)  \
  X(Entry) X(DictExpr)

/// The parser's tags, looked up by name once per parse rather than once
/// per node.
struct PyTags {
#define PY_TAG_FIELD(Name) TagId Name;
  PY_TAGS(PY_TAG_FIELD)
#undef PY_TAG_FIELD

  explicit PyTags(const SignatureTable &Sig) {
#define PY_TAG_LOOKUP(Name)                                                    \
  Name = Sig.lookup(#Name);                                                    \
  assert(Name != InvalidSymbol && "not the Python signature");
    PY_TAGS(PY_TAG_LOOKUP)
#undef PY_TAG_LOOKUP
  }
};

/// Recursive-descent parser; errors unwind through nullptr with the first
/// message retained.
class Parser {
public:
  Parser(TreeContext &Ctx, std::vector<Tok> Tokens, const ParseLimits &Limits)
      : Ctx(Ctx), T(Ctx.signatures()), Toks(std::move(Tokens)),
        Adm(Ctx, Limits), BaseNodes(Ctx.numNodes()) {}

  Tree *parseModule() {
    if (!Toks.empty() && Toks.back().Kind == TokKind::Error) {
      Err = Toks.back().Text;
      return nullptr;
    }
    std::vector<Tree *> Stmts;
    while (!at(TokKind::EndOfFile)) {
      Tree *S = parseStmt();
      if (S == nullptr)
        return nullptr;
      Stmts.push_back(S);
    }
    return mk(T.Module, {stmtList(Stmts)}, {});
  }

  const std::string &error() const { return Err; }
  ParseFail failKind() const { return Err.empty() ? ParseFail::None : Fail; }

private:
  //===--------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------===//

  const Tok &cur() const { return Toks[Pos]; }
  bool at(TokKind K) const { return cur().Kind == K; }
  bool atKw(std::string_view K) const { return cur().isKw(K); }
  bool atOp(std::string_view O) const { return cur().isOp(O); }

  Tok take() { return Toks[Pos++]; }

  bool eatKw(std::string_view K) {
    if (!atKw(K))
      return false;
    ++Pos;
    return true;
  }
  bool eatOp(std::string_view O) {
    if (!atOp(O))
      return false;
    ++Pos;
    return true;
  }
  bool eat(TokKind K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }

  std::nullptr_t fail(const std::string &Message) {
    if (Err.empty()) {
      Fail = ParseFail::Syntax;
      Err = Message + " at line " + std::to_string(cur().Line);
    }
    return nullptr;
  }

  std::nullptr_t failTyped(ParseFail Kind, const std::string &Message) {
    if (Err.empty()) {
      Fail = Kind;
      Err = Message;
    }
    return nullptr;
  }

  /// Admission caps, polled at every statement/expression nesting level.
  /// The depth check fires on the way down, so hostile deeply-nested
  /// input unwinds after MaxDepth parser frames; the node check bounds
  /// how much arena a single parse can allocate before being abandoned.
  bool enterNested() {
    ++Depth;
    if (Adm.depth(Depth) && Adm.nodes(Ctx.numNodes() - BaseNodes))
      return true;
    failTyped(Adm.fail(), Adm.message());
    return false;
  }

  bool expectOp(std::string_view O) {
    if (eatOp(O))
      return true;
    fail("expected '" + std::string(O) + "'");
    return false;
  }

  bool expectNewline() {
    if (eat(TokKind::Newline))
      return true;
    fail("expected end of line");
    return false;
  }

  //===--------------------------------------------------------------===//
  // Tree builders
  //===--------------------------------------------------------------===//

  /// One node, its kids passed as a pointer range (no kid vector).
  Tree *mk(TagId Tag, std::initializer_list<Tree *> Kids,
           std::vector<Literal> Lits) {
    return Ctx.make(Tag, Kids.begin(), Kids.size(), std::move(Lits));
  }

  Tree *stmtList(const std::vector<Tree *> &Stmts) {
    Tree *List = mk(T.StmtNil, {}, {});
    for (size_t I = Stmts.size(); I-- > 0;)
      List = mk(T.StmtCons, {Stmts[I], List}, {});
    return List;
  }

  Tree *exprList(const std::vector<Tree *> &Exprs) {
    Tree *List = mk(T.ExprNil, {}, {});
    for (size_t I = Exprs.size(); I-- > 0;)
      List = mk(T.ExprCons, {Exprs[I], List}, {});
    return List;
  }

  Tree *paramList(const std::vector<Tree *> &Params) {
    Tree *List = mk(T.ParamNil, {}, {});
    for (size_t I = Params.size(); I-- > 0;)
      List = mk(T.ParamCons, {Params[I], List}, {});
    return List;
  }

  Tree *entryList(const std::vector<Tree *> &Entries) {
    Tree *List = mk(T.EntryNil, {}, {});
    for (size_t I = Entries.size(); I-- > 0;)
      List = mk(T.EntryCons, {Entries[I], List}, {});
    return List;
  }

  //===--------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------===//

  Tree *parseStmt() {
    if (!enterNested())
      return nullptr;
    Tree *S = parseStmtBody();
    --Depth;
    return S;
  }

  Tree *parseStmtBody() {
    if (atKw("def"))
      return parseFuncDef();
    if (atKw("class"))
      return parseClassDef();
    if (atKw("if"))
      return parseIf();
    if (atKw("while"))
      return parseWhile();
    if (atKw("for"))
      return parseFor();
    Tree *S = parseSimpleStmt();
    if (S == nullptr)
      return nullptr;
    if (!expectNewline())
      return nullptr;
    return S;
  }

  /// ':' NEWLINE INDENT stmt+ DEDENT
  Tree *parseBlock() {
    if (!expectOp(":"))
      return nullptr;
    if (!expectNewline())
      return nullptr;
    if (!eat(TokKind::Indent))
      return fail("expected an indented block");
    std::vector<Tree *> Stmts;
    while (!at(TokKind::Dedent) && !at(TokKind::EndOfFile)) {
      Tree *S = parseStmt();
      if (S == nullptr)
        return nullptr;
      Stmts.push_back(S);
    }
    if (!eat(TokKind::Dedent))
      return fail("expected dedent");
    if (Stmts.empty())
      return fail("empty block");
    return stmtList(Stmts);
  }

  Tree *parseFuncDef() {
    eatKw("def");
    if (!at(TokKind::Name))
      return fail("expected function name");
    std::string Name = take().Text;
    if (!expectOp("("))
      return nullptr;
    std::vector<Tree *> Params;
    if (!atOp(")")) {
      do {
        if (!at(TokKind::Name))
          return fail("expected parameter name");
        Params.push_back(mk(T.Param, {}, {Literal(take().Text)}));
      } while (eatOp(","));
    }
    if (!expectOp(")"))
      return nullptr;
    Tree *Body = parseBlock();
    if (Body == nullptr)
      return nullptr;
    return mk(T.FuncDef, {paramList(Params), Body},
                    {Literal(std::move(Name))});
  }

  Tree *parseClassDef() {
    eatKw("class");
    if (!at(TokKind::Name))
      return fail("expected class name");
    std::string Name = take().Text;
    std::vector<Tree *> Bases;
    if (eatOp("(")) {
      if (!atOp(")")) {
        do {
          Tree *E = parseExpr();
          if (E == nullptr)
            return nullptr;
          Bases.push_back(E);
        } while (eatOp(","));
      }
      if (!expectOp(")"))
        return nullptr;
    }
    Tree *Body = parseBlock();
    if (Body == nullptr)
      return nullptr;
    return mk(T.ClassDef, {exprList(Bases), Body},
                    {Literal(std::move(Name))});
  }

  Tree *parseIf() {
    eatKw("if");
    return parseIfRest();
  }

  /// Parses "<cond> block {elif...} [else...]"; elif becomes a nested If.
  Tree *parseIfRest() {
    Tree *Cond = parseExpr();
    if (Cond == nullptr)
      return nullptr;
    Tree *Then = parseBlock();
    if (Then == nullptr)
      return nullptr;
    Tree *Else = nullptr;
    if (atKw("elif")) {
      eatKw("elif");
      Tree *Nested = parseIfRest();
      if (Nested == nullptr)
        return nullptr;
      Else = stmtList({Nested});
    } else if (eatKw("else")) {
      Else = parseBlock();
      if (Else == nullptr)
        return nullptr;
    } else {
      Else = mk(T.StmtNil, {}, {});
    }
    return mk(T.If, {Cond, Then, Else}, {});
  }

  Tree *parseWhile() {
    eatKw("while");
    Tree *Cond = parseExpr();
    if (Cond == nullptr)
      return nullptr;
    Tree *Body = parseBlock();
    if (Body == nullptr)
      return nullptr;
    return mk(T.While, {Cond, Body}, {});
  }

  /// For-loop targets are postfix expressions (names, attributes,
  /// subscripts) or tuples thereof; a full expression would swallow the
  /// 'in' keyword as a comparison.
  Tree *parseTarget() {
    Tree *First = parsePostfix();
    if (First == nullptr)
      return nullptr;
    if (!atOp(","))
      return First;
    std::vector<Tree *> Elts{First};
    while (eatOp(",")) {
      if (atKw("in"))
        break;
      Tree *E = parsePostfix();
      if (E == nullptr)
        return nullptr;
      Elts.push_back(E);
    }
    return mk(T.TupleExpr, {exprList(Elts)}, {});
  }

  Tree *parseFor() {
    eatKw("for");
    Tree *Target = parseTarget();
    if (Target == nullptr)
      return nullptr;
    if (!eatKw("in"))
      return fail("expected 'in'");
    Tree *Iter = parseExpr();
    if (Iter == nullptr)
      return nullptr;
    Tree *Body = parseBlock();
    if (Body == nullptr)
      return nullptr;
    return mk(T.For, {Target, Iter, Body}, {});
  }

  Tree *parseSimpleStmt() {
    if (eatKw("pass"))
      return mk(T.Pass, {}, {});
    if (eatKw("break"))
      return mk(T.Break, {}, {});
    if (eatKw("continue"))
      return mk(T.Continue, {}, {});
    if (eatKw("return")) {
      if (at(TokKind::Newline))
        return mk(T.Return, {mk(T.NoneLit, {}, {})}, {});
      Tree *V = parseExprListAsExpr();
      if (V == nullptr)
        return nullptr;
      return mk(T.Return, {V}, {});
    }
    if (eatKw("import")) {
      std::string Module = parseDottedName();
      if (Module.empty())
        return nullptr;
      return mk(T.Import, {}, {Literal(std::move(Module))});
    }
    if (eatKw("from")) {
      std::string Module = parseDottedName();
      if (Module.empty())
        return nullptr;
      if (!eatKw("import"))
        return fail("expected 'import'");
      if (!at(TokKind::Name) && !atOp("*"))
        return fail("expected imported name");
      std::string Name = take().Text;
      return mk(T.ImportFrom, {},
                      {Literal(std::move(Module)), Literal(std::move(Name))});
    }
    if (eatKw("assert")) {
      Tree *Test = parseExpr();
      if (Test == nullptr)
        return nullptr;
      return mk(T.Assert, {Test}, {});
    }

    // Expression statement, assignment, or augmented assignment.
    Tree *Target = parseExprListAsExpr();
    if (Target == nullptr)
      return nullptr;
    static const char *AugOps[] = {"+=", "-=", "*=", "/=", "%=", "**=",
                                   "//="};
    for (const char *O : AugOps) {
      if (atOp(O)) {
        std::string Op(take().Text, 0, std::string(O).size() - 1);
        Tree *Value = parseExprListAsExpr();
        if (Value == nullptr)
          return nullptr;
        return mk(T.AugAssign, {Target, Value},
                        {Literal(std::move(Op))});
      }
    }
    if (eatOp("=")) {
      Tree *Value = parseExprListAsExpr();
      if (Value == nullptr)
        return nullptr;
      return mk(T.Assign, {Target, Value}, {});
    }
    return mk(T.ExprStmt, {Target}, {});
  }

  std::string parseDottedName() {
    if (!at(TokKind::Name)) {
      fail("expected module name");
      return "";
    }
    std::string Name = take().Text;
    while (atOp(".")) {
      ++Pos;
      if (!at(TokKind::Name)) {
        fail("expected name after '.'");
        return "";
      }
      Name += ".";
      Name += take().Text;
    }
    return Name;
  }

  //===--------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------===//

  /// expr {',' expr}: a single expression, or a TupleExpr.
  Tree *parseExprListAsExpr() {
    Tree *First = parseExpr();
    if (First == nullptr)
      return nullptr;
    if (!atOp(","))
      return First;
    std::vector<Tree *> Elts{First};
    while (eatOp(",")) {
      if (at(TokKind::Newline) || atOp(")") || atOp("]") || atOp("}") ||
          atOp(":") || atOp("="))
        break; // trailing comma
      Tree *E = parseExpr();
      if (E == nullptr)
        return nullptr;
      Elts.push_back(E);
    }
    return mk(T.TupleExpr, {exprList(Elts)}, {});
  }

  Tree *parseExpr() {
    if (!enterNested())
      return nullptr;
    Tree *E = parseOr();
    --Depth;
    return E;
  }

  Tree *parseOr() {
    Tree *L = parseAnd();
    if (L == nullptr)
      return nullptr;
    while (atKw("or")) {
      ++Pos;
      Tree *R = parseAnd();
      if (R == nullptr)
        return nullptr;
      L = mk(T.BoolOp, {L, R}, {Literal("or")});
    }
    return L;
  }

  Tree *parseAnd() {
    Tree *L = parseNot();
    if (L == nullptr)
      return nullptr;
    while (atKw("and")) {
      ++Pos;
      Tree *R = parseNot();
      if (R == nullptr)
        return nullptr;
      L = mk(T.BoolOp, {L, R}, {Literal("and")});
    }
    return L;
  }

  Tree *parseNot() {
    if (atKw("not")) {
      ++Pos;
      Tree *E = parseNot();
      if (E == nullptr)
        return nullptr;
      return mk(T.UnaryOp, {E}, {Literal("not")});
    }
    return parseComparison();
  }

  Tree *parseComparison() {
    Tree *L = parseArith();
    if (L == nullptr)
      return nullptr;
    for (;;) {
      std::string Op;
      if (atOp("==") || atOp("!=") || atOp("<") || atOp("<=") ||
          atOp(">") || atOp(">=")) {
        Op = take().Text;
      } else if (atKw("in")) {
        ++Pos;
        Op = "in";
      } else if (atKw("not")) {
        // 'not in'
        ++Pos;
        if (!eatKw("in"))
          return fail("expected 'in' after 'not'");
        Op = "not in";
      } else if (atKw("is")) {
        ++Pos;
        Op = eatKw("not") ? "is not" : "is";
      } else {
        return L;
      }
      Tree *R = parseArith();
      if (R == nullptr)
        return nullptr;
      L = mk(T.Compare, {L, R}, {Literal(std::move(Op))});
    }
  }

  Tree *parseArith() {
    Tree *L = parseTerm();
    if (L == nullptr)
      return nullptr;
    while (atOp("+") || atOp("-")) {
      std::string Op = take().Text;
      Tree *R = parseTerm();
      if (R == nullptr)
        return nullptr;
      L = mk(T.BinOp, {L, R}, {Literal(std::move(Op))});
    }
    return L;
  }

  Tree *parseTerm() {
    Tree *L = parseFactor();
    if (L == nullptr)
      return nullptr;
    while (atOp("*") || atOp("/") || atOp("%") || atOp("//")) {
      std::string Op = take().Text;
      Tree *R = parseFactor();
      if (R == nullptr)
        return nullptr;
      L = mk(T.BinOp, {L, R}, {Literal(std::move(Op))});
    }
    return L;
  }

  Tree *parseFactor() {
    if (atOp("-") || atOp("+")) {
      std::string Op = take().Text;
      Tree *E = parseFactor();
      if (E == nullptr)
        return nullptr;
      return mk(T.UnaryOp, {E}, {Literal(std::move(Op))});
    }
    return parsePower();
  }

  Tree *parsePower() {
    Tree *L = parsePostfix();
    if (L == nullptr)
      return nullptr;
    if (atOp("**")) {
      ++Pos;
      Tree *R = parseFactor(); // right-associative
      if (R == nullptr)
        return nullptr;
      return mk(T.BinOp, {L, R}, {Literal("**")});
    }
    return L;
  }

  Tree *parsePostfix() {
    Tree *E = parseAtom();
    if (E == nullptr)
      return nullptr;
    for (;;) {
      if (eatOp("(")) {
        std::vector<Tree *> Args;
        if (!atOp(")")) {
          do {
            if (atOp(")"))
              break; // trailing comma
            Tree *A = parseExpr();
            if (A == nullptr)
              return nullptr;
            Args.push_back(A);
          } while (eatOp(","));
        }
        if (!expectOp(")"))
          return nullptr;
        E = mk(T.Call, {E, exprList(Args)}, {});
        continue;
      }
      if (eatOp(".")) {
        if (!at(TokKind::Name))
          return fail("expected attribute name");
        E = mk(T.Attribute, {E}, {Literal(take().Text)});
        continue;
      }
      if (eatOp("[")) {
        Tree *Index = parseExprListAsExpr();
        if (Index == nullptr)
          return nullptr;
        if (!expectOp("]"))
          return nullptr;
        E = mk(T.Subscript, {E, Index}, {});
        continue;
      }
      return E;
    }
  }

  Tree *parseAtom() {
    if (at(TokKind::Name))
      return mk(T.Name, {}, {Literal(take().Text)});
    if (at(TokKind::Int))
      return mk(T.IntLit, {},
          {Literal(static_cast<int64_t>(
              std::strtoll(take().Text.c_str(), nullptr, 10)))});
    if (at(TokKind::Float))
      return mk(T.FloatLit, {},
                      {Literal(std::strtod(take().Text.c_str(), nullptr))});
    if (at(TokKind::Str))
      return mk(T.StrLit, {}, {Literal(take().Text)});
    if (eatKw("True"))
      return mk(T.BoolLit, {}, {Literal(true)});
    if (eatKw("False"))
      return mk(T.BoolLit, {}, {Literal(false)});
    if (eatKw("None"))
      return mk(T.NoneLit, {}, {});
    if (eatOp("(")) {
      if (eatOp(")")) // empty tuple
        return mk(T.TupleExpr, {exprList({})}, {});
      Tree *E = parseExprListAsExpr();
      if (E == nullptr)
        return nullptr;
      if (!expectOp(")"))
        return nullptr;
      return E; // grouping; tuples got built by the comma rule
    }
    if (eatOp("[")) {
      std::vector<Tree *> Elts;
      if (!atOp("]")) {
        do {
          if (atOp("]"))
            break;
          Tree *E = parseExpr();
          if (E == nullptr)
            return nullptr;
          Elts.push_back(E);
        } while (eatOp(","));
      }
      if (!expectOp("]"))
        return nullptr;
      return mk(T.ListExpr, {exprList(Elts)}, {});
    }
    if (eatOp("{")) {
      std::vector<Tree *> Entries;
      if (!atOp("}")) {
        do {
          if (atOp("}"))
            break;
          Tree *K = parseExpr();
          if (K == nullptr)
            return nullptr;
          if (!expectOp(":"))
            return nullptr;
          Tree *V = parseExpr();
          if (V == nullptr)
            return nullptr;
          Entries.push_back(mk(T.Entry, {K, V}, {}));
        } while (eatOp(","));
      }
      if (!expectOp("}"))
        return nullptr;
      return mk(T.DictExpr, {entryList(Entries)}, {});
    }
    return fail("expected expression");
  }

  TreeContext &Ctx;
  const PyTags T;
  std::vector<Tok> Toks;
  Admission Adm;
  size_t BaseNodes = 0;
  uint32_t Depth = 0;
  size_t Pos = 0;
  std::string Err;
  ParseFail Fail = ParseFail::None;
};

} // namespace

PyParseResult truediff::python::parsePython(TreeContext &Ctx,
                                            std::string_view Source,
                                            const ParseLimits &Limits) {
  Parser P(Ctx, lexPython(Source), Limits);
  PyParseResult R;
  R.Module = P.parseModule();
  if (R.Module == nullptr) {
    R.Error = P.error().empty() ? "parse error" : P.error();
    R.Fail = P.failKind();
  }
  return R;
}
