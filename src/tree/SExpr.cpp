//===- tree/SExpr.cpp - S-expression reader and printer --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"

#include <cctype>
#include <cstdlib>
#include <vector>

using namespace truediff;

namespace {

/// S-expression parser. No exceptions: errors set Err and unwind through
/// nullptr returns. Iterative: the nesting lives in a heap stack of POD
/// frames, and finished kids wait on one shared results stack until their
/// parent is built from them, as in TreeContext::deepCopy. So input
/// nesting is bounded by ParseLimits::MaxDepth as an admission policy,
/// not by the thread's stack.
class SExprParser {
public:
  SExprParser(TreeContext &Ctx, std::string_view Text,
              const ParseLimits &Limits)
      : Ctx(Ctx), Sig(Ctx.signatures()), Text(Text), Limits(Limits) {}

  Tree *parse() {
    Tree *T = parseTree();
    if (T == nullptr)
      return nullptr;
    skipSpace();
    if (Pos != Text.size()) {
      fail("trailing input after s-expression");
      return nullptr;
    }
    return T;
  }

  const std::string &error() const { return Err; }
  ParseFail failKind() const { return Err.empty() ? ParseFail::None : Fail; }

private:
  void skipSpace() {
    while (Pos < Text.size()) {
      if (std::isspace(static_cast<unsigned char>(Text[Pos]))) {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ';') { // comment to end of line
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  void fail(const std::string &Message) {
    if (Err.empty()) {
      Fail = ParseFail::Syntax;
      Err = Message + " at offset " + std::to_string(Pos);
    }
  }

  void failTyped(ParseFail Kind, const std::string &Message) {
    if (Err.empty()) {
      Fail = Kind;
      Err = Message;
    }
  }

  bool expect(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    fail(std::string("expected '") + C + "'");
    return false;
  }

  std::string_view parseSymbol() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '-' || Text[Pos] == '.' ||
            Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      fail("expected symbol");
    return Text.substr(Start, Pos - Start);
  }

  std::optional<Literal> parseLiteral(LitKind Kind) {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("expected literal");
      return std::nullopt;
    }
    switch (Kind) {
    case LitKind::String:
      return parseStringLiteral();
    case LitKind::Bool: {
      std::string_view Sym = parseSymbol();
      if (Sym == "true")
        return Literal(true);
      if (Sym == "false")
        return Literal(false);
      fail("expected 'true' or 'false'");
      return std::nullopt;
    }
    case LitKind::Int: {
      std::string_view Sym = parseSymbol();
      if (Sym.empty())
        return std::nullopt;
      return Literal(static_cast<int64_t>(
          std::strtoll(std::string(Sym).c_str(), nullptr, 10)));
    }
    case LitKind::Float: {
      std::string_view Sym = parseSymbol();
      if (Sym.empty())
        return std::nullopt;
      return Literal(std::strtod(std::string(Sym).c_str(), nullptr));
    }
    }
    fail("unknown literal kind");
    return std::nullopt;
  }

  std::optional<Literal> parseStringLiteral() {
    if (Text[Pos] != '"') {
      fail("expected string literal");
      return std::nullopt;
    }
    ++Pos;
    std::string Value;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\' && Pos + 1 < Text.size()) {
        ++Pos;
        switch (Text[Pos]) {
        case 'n':
          Value.push_back('\n');
          break;
        case 't':
          Value.push_back('\t');
          break;
        default:
          Value.push_back(Text[Pos]);
        }
      } else {
        Value.push_back(C);
      }
      ++Pos;
    }
    if (Pos >= Text.size()) {
      fail("unterminated string literal");
      return std::nullopt;
    }
    ++Pos; // closing quote
    return Literal(std::move(Value));
  }

  /// One node whose kids are being parsed.
  struct Frame {
    TagId Tag;
    const TagSignature *TagSig;
    size_t NextKid;
  };

  Tree *parseTree() {
    if (!enter())
      return nullptr;
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.NextKid < Top.TagSig->Kids.size()) {
        ++Top.NextKid;
        if (!enter())
          return nullptr;
        continue;
      }
      Frame Done = Top;
      Stack.pop_back();
      Tree *T = leave(Done);
      if (T == nullptr)
        return nullptr;
      if (!Stack.empty()) {
        const Frame &Parent = Stack.back();
        SortId KidSort = Sig.signature(T->tag()).Result;
        if (!Sig.isSubsort(KidSort,
                           Parent.TagSig->Kids[Parent.NextKid - 1].Sort)) {
          fail("kid sort mismatch under '" + Sig.name(Parent.Tag) + "'");
          return nullptr;
        }
      }
      Results.push_back(T);
    }
    return Results.back();
  }

  /// Reads a node's opening paren and tag and pushes its frame. Admission
  /// caps fire on the way down: a million-paren hostile input stops after
  /// MaxDepth frames.
  bool enter() {
    if (Limits.MaxDepth != 0 && Stack.size() >= Limits.MaxDepth) {
      failTyped(ParseFail::TooDeep, "input nesting exceeds the depth cap of " +
                                        std::to_string(Limits.MaxDepth));
      return false;
    }
    if (!expect('('))
      return false;
    std::string_view TagName = parseSymbol();
    if (!Err.empty())
      return false;
    Symbol Tag = Sig.lookup(TagName);
    if (Tag == InvalidSymbol || !Sig.hasTag(Tag)) {
      fail("unknown tag '" + std::string(TagName) + "'");
      return false;
    }
    Stack.push_back({Tag, &Sig.signature(Tag), 0});
    return true;
  }

  /// Reads the literals and closing paren of \p F, whose kids are the
  /// top entries of Results, and builds the node from them.
  Tree *leave(const Frame &F) {
    std::vector<Literal> Lits;
    Lits.reserve(F.TagSig->Lits.size());
    for (const LitSpec &Spec : F.TagSig->Lits) {
      std::optional<Literal> Lit = parseLiteral(Spec.Kind);
      if (!Lit)
        return nullptr;
      Lits.push_back(std::move(*Lit));
    }

    if (!expect(')'))
      return nullptr;
    if (Limits.MaxNodes != 0 && NodesMade >= Limits.MaxNodes) {
      failTyped(ParseFail::TooLarge, "input exceeds the node cap of " +
                                         std::to_string(Limits.MaxNodes) +
                                         " nodes");
      return nullptr;
    }
    if (Ctx.overBudget()) {
      failTyped(ParseFail::OverBudget,
                "memory budget exhausted while parsing input");
      return nullptr;
    }
    ++NodesMade;
    size_t Arity = F.TagSig->Kids.size();
    Tree *T = Ctx.make(F.Tag, Results.data() + Results.size() - Arity, Arity,
                       std::move(Lits));
    Results.resize(Results.size() - Arity);
    return T;
  }

  TreeContext &Ctx;
  const SignatureTable &Sig;
  std::string_view Text;
  ParseLimits Limits;
  size_t Pos = 0;
  std::vector<Frame> Stack;
  /// Finished nodes whose parent is not built yet, in document order.
  std::vector<Tree *> Results;
  uint32_t NodesMade = 0;
  std::string Err;
  ParseFail Fail = ParseFail::None;
};

/// Prints \p T in s-expression form, iteratively: a frame per open node,
/// so chains of any depth print without growing the thread's stack.
std::string print(const SignatureTable &Sig, const Tree *T, bool WithUris) {
  struct Frame {
    const Tree *Node;
    size_t NextKid;
  };
  std::string Out;
  std::vector<Frame> Stack;
  auto Open = [&](const Tree *N) {
    Out.push_back('(');
    Out += Sig.name(N->tag());
    if (WithUris) {
      Out.push_back('_');
      Out += std::to_string(N->uri());
    }
    Stack.push_back({N, 0});
  };
  Open(T);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const Tree *N = Top.Node;
    if (Top.NextKid < N->arity()) {
      const Tree *Kid = N->kid(Top.NextKid++);
      Out.push_back(' ');
      if (Kid == nullptr)
        Out += "<hole>";
      else
        Open(Kid);
      continue;
    }
    for (size_t I = 0, E = N->numLits(); I != E; ++I) {
      Out.push_back(' ');
      Out += N->lit(I).toString();
    }
    Out.push_back(')');
    Stack.pop_back();
  }
  return Out;
}

} // namespace

ParseResult truediff::parseSExpr(TreeContext &Ctx, std::string_view Text,
                                 const ParseLimits &Limits) {
  SExprParser Parser(Ctx, Text, Limits);
  ParseResult Result;
  Result.Root = Parser.parse();
  if (Result.Root == nullptr) {
    Result.Error = Parser.error();
    Result.Fail = Parser.failKind();
  }
  return Result;
}

std::string truediff::printSExpr(const SignatureTable &Sig, const Tree *T) {
  return print(Sig, T, /*WithUris=*/false);
}

std::string truediff::printSExprWithUris(const SignatureTable &Sig,
                                         const Tree *T) {
  return print(Sig, T, /*WithUris=*/true);
}
