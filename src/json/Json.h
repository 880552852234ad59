//===- json/Json.h - JSON documents as typed trees --------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second language substrate besides Python: JSON documents as typed
/// trees. The paper motivates structural patches for databases and
/// version control (Section 1); this front end shows that the entire
/// stack -- truediff, the type checker, the standard semantics -- is
/// datatype-generic: it only needs a signature.
///
/// Signature: sorts Value, ElemList, Member, MemberList. Arrays and
/// objects use the typed cons encoding like Python's statement lists.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_JSON_JSON_H
#define TRUEDIFF_JSON_JSON_H

#include "tree/Signature.h"
#include "tree/Tree.h"

#include <string>
#include <string_view>

namespace truediff {
namespace json {

/// Builds the JSON signature: JNull, JBool, JNumber, JString, JArray,
/// JObject, plus the list encodings.
SignatureTable makeJsonSignature();

struct JsonParseResult {
  Tree *Value = nullptr;
  std::string Error;
  ParseFail Fail = ParseFail::None;

  bool ok() const { return Value != nullptr; }
};

/// Parses a JSON document into a typed tree; the context's signature
/// must be makeJsonSignature(). Numbers are stored as doubles (JSON has
/// one number type); object member order is preserved. \p Limits caps
/// the value nesting depth (bounding parser recursion against hostile
/// input) and the node count of one parse; if \p Ctx has a memory budget
/// attached, the parse aborts once it is exhausted.
JsonParseResult parseJson(TreeContext &Ctx, std::string_view Text,
                          const ParseLimits &Limits = {});

/// Renders the tree as JSON: compact, or indented for humans when
/// \p Pretty. Either form round-trips through parseJson.
std::string unparseJson(const SignatureTable &Sig, const Tree *Value,
                        bool Pretty = false);

} // namespace json
} // namespace truediff

#endif // TRUEDIFF_JSON_JSON_H
