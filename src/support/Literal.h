//===- support/Literal.h - Literal values in tree nodes ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Literal values stored at tree leaves (paper: "usually numbers and
/// strings"). Literals participate in the literal hash and in Update edits
/// but never in the structure hash.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SUPPORT_LITERAL_H
#define TRUEDIFF_SUPPORT_LITERAL_H

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>

namespace truediff {

/// Base types of literals, mirroring the paper's base types B in tag
/// signatures.
enum class LitKind : uint8_t {
  Int,
  Float,
  Bool,
  String,
};

/// Returns a human-readable name for \p Kind ("Int", "Float", ...).
const char *litKindName(LitKind Kind);

/// A dynamically typed literal value with a LitKind discriminator.
class Literal {
public:
  Literal() : Value(int64_t(0)) {}
  explicit Literal(int64_t V) : Value(V) {}
  explicit Literal(double V) : Value(V) {}
  explicit Literal(bool V) : Value(V) {}
  explicit Literal(std::string V) : Value(std::move(V)) {}
  explicit Literal(const char *V) : Value(std::string(V)) {}

  LitKind kind() const {
    switch (Value.index()) {
    case 0:
      return LitKind::Int;
    case 1:
      return LitKind::Float;
    case 2:
      return LitKind::Bool;
    default:
      return LitKind::String;
    }
  }

  int64_t asInt() const { return std::get<int64_t>(Value); }
  double asFloat() const { return std::get<double>(Value); }
  bool asBool() const { return std::get<bool>(Value); }
  const std::string &asString() const { return std::get<std::string>(Value); }

  bool operator==(const Literal &O) const { return Value == O.Value; }
  bool operator!=(const Literal &O) const { return Value != O.Value; }

  /// \name Canonical hash encoding
  ///
  /// The bytes a literal contributes to its node's literal hash: a kind
  /// byte, then the payload little-endian -- 8 bytes for Int, the 8 bytes
  /// of the IEEE double for Float, 1 byte for Bool, and for String an
  /// 8-byte length followed by the bytes (the length prefix keeps
  /// adjacent strings unambiguous).
  /// @{

  /// Length of hashEncoding's output.
  size_t hashEncodingSize() const {
    switch (kind()) {
    case LitKind::Int:
    case LitKind::Float:
      return 1 + 8;
    case LitKind::Bool:
      return 1 + 1;
    case LitKind::String:
      return 1 + 8 + asString().size();
    }
    return 0;
  }

  /// Writes the encoding at \p Out, which has room for
  /// hashEncodingSize() bytes; returns the byte after it.
  uint8_t *hashEncoding(uint8_t *Out) const {
    *Out++ = static_cast<uint8_t>(kind());
    switch (kind()) {
    case LitKind::Int:
      return putLE64(Out, static_cast<uint64_t>(asInt()));
    case LitKind::Float: {
      double V = asFloat();
      uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(V));
      std::memcpy(&Bits, &V, sizeof(Bits));
      return putLE64(Out, Bits);
    }
    case LitKind::Bool:
      *Out = asBool() ? 1 : 0;
      return Out + 1;
    case LitKind::String: {
      const std::string &Str = asString();
      Out = putLE64(Out, Str.size());
      std::memcpy(Out, Str.data(), Str.size());
      return Out + Str.size();
    }
    }
    return Out;
  }
  /// @}

  /// Renders the literal the way it appears in s-expressions and edit
  /// script dumps; strings are quoted and escaped.
  std::string toString() const;

private:
  static uint8_t *putLE64(uint8_t *Out, uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Out[I] = static_cast<uint8_t>(V >> (I * 8));
    return Out + 8;
  }

  std::variant<int64_t, double, bool, std::string> Value;
};

} // namespace truediff

#endif // TRUEDIFF_SUPPORT_LITERAL_H
