//===- tree/SExpr.cpp - S-expression reader and printer --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"

#include "tree/Builder.h"

#include <cctype>
#include <cstdlib>
#include <vector>

using namespace truediff;

namespace {

/// S-expression parser. No exceptions: errors set Err and unwind through
/// false/nullptr returns. The tree streams into a CheckedBuilder, which
/// keeps the nesting on the heap and runs every structural and admission
/// check, so input nesting is bounded by ParseLimits::MaxDepth as an
/// admission policy, not by the thread's stack.
class SExprParser {
public:
  SExprParser(TreeContext &Ctx, std::string_view Text,
              const ParseLimits &Limits)
      : Sig(Ctx.signatures()), B(Ctx, Limits), Text(Text) {}

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

  /// Streams the input into the builder: a header per '(' and a close
  /// per ')'.
  Tree *parseTree() {
    while (!B.done()) {
      if (!(B.wantsNode() ? enter() : leave()))
        return nullptr;
    }
    return B.root();
  }

  /// Records the builder's refusal: admission caps with their own typed
  /// messages, structural checks in this reader's words.
  bool refused(std::string_view TagName = {}) {
    switch (B.failure()) {
    case CheckedBuilder::Check::Admission:
      failTyped(B.parseFail(), B.error());
      break;
    case CheckedBuilder::Check::UnknownTag:
      fail("unknown tag '" + std::string(TagName) + "'");
      break;
    case CheckedBuilder::Check::KidSort:
      fail("kid sort mismatch under '" + Sig.name(B.failTag()) + "'");
      break;
    default:
      fail(B.error());
      break;
    }
    return false;
  }

  /// Reads a node's opening paren and tag. The depth cap fires before
  /// the paren is read: a million-paren hostile input stops after
  /// MaxDepth levels.
  bool enter() {
    if (!B.admitLevel())
      return refused();
    if (!expect('('))
      return false;
    std::string_view TagName = parseSymbol();
    if (!Err.empty())
      return false;
    return B.open(Sig.lookup(TagName)) || refused(TagName);
  }

  /// Reads the innermost node's literals and closing paren, then builds
  /// it from its kids.
  bool leave() {
    for (const LitSpec &Spec : B.litSpecs()) {
      std::optional<Literal> Lit = parseLiteral(Spec.Kind);
      if (!Lit)
        return false;
      B.lit(std::move(*Lit));
    }
    if (!expect(')'))
      return false;
    return B.close() != nullptr || refused();
  }

  const SignatureTable &Sig;
  CheckedBuilder B;
  std::string_view Text;
  size_t Pos = 0;
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
