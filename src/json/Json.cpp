//===- json/Json.cpp - JSON documents as typed trees -----------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "json/Json.h"

#include "tree/Builder.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <vector>

using namespace truediff;
using namespace truediff::json;

SignatureTable truediff::json::makeJsonSignature() {
  SignatureTable Sig;
  Sig.defineTag("JNull", "Value", {}, {});
  Sig.defineTag("JBool", "Value", {}, {{"value", LitKind::Bool}});
  Sig.defineTag("JNumber", "Value", {}, {{"value", LitKind::Float}});
  Sig.defineTag("JString", "Value", {}, {{"value", LitKind::String}});
  Sig.defineTag("JArray", "Value", {{"elems", "ElemList"}}, {});
  Sig.defineTag("JObject", "Value", {{"members", "MemberList"}}, {});
  Sig.defineTag("ElemNil", "ElemList", {}, {});
  Sig.defineTag("ElemCons", "ElemList",
                {{"head", "Value"}, {"tail", "ElemList"}}, {});
  Sig.defineTag("Member", "Member", {{"value", "Value"}},
                {{"key", LitKind::String}});
  Sig.defineTag("MemberNil", "MemberList", {}, {});
  Sig.defineTag("MemberCons", "MemberList",
                {{"head", "Member"}, {"tail", "MemberList"}}, {});
  return Sig;
}

namespace {

class JsonParser {
public:
  JsonParser(TreeContext &Ctx, std::string_view Text,
             const ParseLimits &Limits)
      : Ctx(Ctx), Text(Text), Adm(Ctx, Limits), BaseNodes(Ctx.numNodes()) {}

  Tree *run() {
    Tree *V = parseValue();
    if (V == nullptr)
      return nullptr;
    skipSpace();
    if (Pos != Text.size()) {
      fail("trailing input");
      return nullptr;
    }
    return V;
  }

  const std::string &error() const { return Err; }
  ParseFail failKind() const { return Err.empty() ? ParseFail::None : Fail; }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
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

  bool peekIs(char C) {
    skipSpace();
    return Pos < Text.size() && Text[Pos] == C;
  }

  bool eatWord(std::string_view Word) {
    skipSpace();
    if (Text.substr(Pos, Word.size()) == Word) {
      Pos += Word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parseString() {
    if (!expect('"'))
      return std::nullopt;
    std::string Out;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\' && Pos + 1 < Text.size()) {
        ++Pos;
        switch (Text[Pos]) {
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        case 'r':
          Out.push_back('\r');
          break;
        case 'b':
          Out.push_back('\b');
          break;
        case 'f':
          Out.push_back('\f');
          break;
        case '/':
          Out.push_back('/');
          break;
        case '"':
          Out.push_back('"');
          break;
        case '\\':
          Out.push_back('\\');
          break;
        case 'u': {
          // Keep it simple: decode BMP escapes to UTF-8.
          if (Pos + 4 >= Text.size()) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          unsigned Code = 0;
          for (int I = 1; I <= 4; ++I) {
            char H = Text[Pos + I];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code += static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code += static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code += static_cast<unsigned>(H - 'A' + 10);
            else {
              fail("bad \\u escape");
              return std::nullopt;
            }
          }
          Pos += 4;
          if (Code < 0x80) {
            Out.push_back(static_cast<char>(Code));
          } else if (Code < 0x800) {
            Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
            Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
          } else {
            Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
            Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
            Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
        }
        ++Pos;
      } else {
        Out.push_back(C);
        ++Pos;
      }
    }
    if (Pos >= Text.size()) {
      fail("unterminated string");
      return std::nullopt;
    }
    ++Pos;
    return Out;
  }

  Tree *parseValue() {
    // Admission caps fire on the way down, so hostile deeply-nested input
    // unwinds after MaxDepth parser frames instead of smashing the stack.
    ++Depth;
    if (!Adm.depth(Depth) || !Adm.nodes(Ctx.numNodes() - BaseNodes)) {
      failTyped(Adm.fail(), Adm.message());
      return nullptr;
    }
    Tree *V = parseValueBody();
    --Depth;
    return V;
  }

  Tree *parseValueBody() {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("expected value");
      return nullptr;
    }
    char C = Text[Pos];
    if (C == 'n')
      return eatWord("null") ? Ctx.make("JNull", {}, {})
                             : (fail("expected 'null'"), nullptr);
    if (C == 't')
      return eatWord("true") ? Ctx.make("JBool", {}, {Literal(true)})
                             : (fail("expected 'true'"), nullptr);
    if (C == 'f')
      return eatWord("false") ? Ctx.make("JBool", {}, {Literal(false)})
                              : (fail("expected 'false'"), nullptr);
    if (C == '"') {
      std::optional<std::string> S = parseString();
      if (!S)
        return nullptr;
      return Ctx.make("JString", {}, {Literal(std::move(*S))});
    }
    if (C == '[') {
      ++Pos;
      std::vector<Tree *> Elems;
      if (!peekIs(']')) {
        do {
          Tree *E = parseValue();
          if (E == nullptr)
            return nullptr;
          Elems.push_back(E);
        } while (peekIs(',') && expect(','));
      }
      if (!expect(']'))
        return nullptr;
      Tree *List = Ctx.make("ElemNil", {}, {});
      for (size_t I = Elems.size(); I-- > 0;)
        List = Ctx.make("ElemCons", {Elems[I], List}, {});
      return Ctx.make("JArray", {List}, {});
    }
    if (C == '{') {
      ++Pos;
      std::vector<Tree *> Members;
      if (!peekIs('}')) {
        do {
          std::optional<std::string> Key = parseString();
          if (!Key || !expect(':'))
            return nullptr;
          Tree *V = parseValue();
          if (V == nullptr)
            return nullptr;
          Members.push_back(
              Ctx.make("Member", {V}, {Literal(std::move(*Key))}));
        } while (peekIs(',') && expect(','));
      }
      if (!expect('}'))
        return nullptr;
      Tree *List = Ctx.make("MemberNil", {}, {});
      for (size_t I = Members.size(); I-- > 0;)
        List = Ctx.make("MemberCons", {Members[I], List}, {});
      return Ctx.make("JObject", {List}, {});
    }
    // Number.
    size_t Start = Pos;
    if (C == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected value");
      return nullptr;
    }
    return Ctx.make(
        "JNumber", {},
        {Literal(std::strtod(std::string(Text.substr(Start, Pos - Start))
                                 .c_str(),
                             nullptr))});
  }

  TreeContext &Ctx;
  std::string_view Text;
  Admission Adm;
  size_t BaseNodes = 0;
  uint32_t Depth = 0;
  size_t Pos = 0;
  std::string Err;
  ParseFail Fail = ParseFail::None;
};

void escapeJsonString(const std::string &In, std::string &Out) {
  Out.push_back('"');
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out.push_back(C);
    }
  }
  Out.push_back('"');
}

void printNumber(double V, std::string &Out) {
  char Buf[64];
  auto [End, Ec] =
      std::to_chars(Buf, Buf + sizeof(Buf), V, std::chars_format::general);
  (void)Ec;
  Out.append(Buf, End);
}

void printRec(const SignatureTable &Sig, const Tree *T, std::string &Out,
              int Indent) {
  const std::string &Tag = Sig.name(T->tag());
  auto Newline = [&](int Level) {
    if (Indent < 0)
      return;
    Out.push_back('\n');
    Out.append(static_cast<size_t>(Level) * 2, ' ');
  };

  if (Tag == "JNull") {
    Out += "null";
  } else if (Tag == "JBool") {
    Out += T->lit(0).asBool() ? "true" : "false";
  } else if (Tag == "JNumber") {
    printNumber(T->lit(0).asFloat(), Out);
  } else if (Tag == "JString") {
    escapeJsonString(T->lit(0).asString(), Out);
  } else if (Tag == "JArray") {
    Out.push_back('[');
    const Tree *List = T->kid(0);
    bool First = true;
    while (Sig.name(List->tag()) == "ElemCons") {
      if (!First)
        Out.push_back(',');
      Newline(Indent + 1);
      printRec(Sig, List->kid(0), Out, Indent < 0 ? Indent : Indent + 1);
      First = false;
      List = List->kid(1);
    }
    if (!First)
      Newline(Indent);
    Out.push_back(']');
  } else if (Tag == "JObject") {
    Out.push_back('{');
    const Tree *List = T->kid(0);
    bool First = true;
    while (Sig.name(List->tag()) == "MemberCons") {
      if (!First)
        Out.push_back(',');
      Newline(Indent + 1);
      const Tree *Member = List->kid(0);
      escapeJsonString(Member->lit(0).asString(), Out);
      Out.push_back(':');
      if (Indent >= 0)
        Out.push_back(' ');
      printRec(Sig, Member->kid(0), Out, Indent < 0 ? Indent : Indent + 1);
      First = false;
      List = List->kid(1);
    }
    if (!First)
      Newline(Indent);
    Out.push_back('}');
  }
}

} // namespace

JsonParseResult truediff::json::parseJson(TreeContext &Ctx,
                                          std::string_view Text,
                                          const ParseLimits &Limits) {
  JsonParser P(Ctx, Text, Limits);
  JsonParseResult R;
  R.Value = P.run();
  if (R.Value == nullptr) {
    R.Error = P.error().empty() ? "parse error" : P.error();
    R.Fail = P.failKind();
  }
  return R;
}

std::string truediff::json::unparseJson(const SignatureTable &Sig,
                                        const Tree *Value, bool Pretty) {
  std::string Out;
  printRec(Sig, Value, Out, Pretty ? 0 : -1);
  return Out;
}
