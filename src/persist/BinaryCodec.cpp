//===- persist/BinaryCodec.cpp - Binary trees and edit scripts -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/BinaryCodec.h"

#include "persist/Varint.h"
#include "tree/Builder.h"

#include <cstring>
#include <unordered_map>
#include <vector>

using namespace truediff;
using namespace truediff::persist;

namespace {

//===----------------------------------------------------------------------===//
// Primitive writers and readers
//===----------------------------------------------------------------------===//

/// Bounds-checked reader; after any failure every further read returns
/// zero values and Ok stays false, so decoders can check once at the end
/// of a production instead of after every byte.
class BinReader {
public:
  explicit BinReader(std::string_view Bytes) : Bytes(Bytes) {}

  bool ok() const { return Failed == nullptr; }
  const char *error() const { return Failed; }
  bool atEnd() const { return Pos == Bytes.size(); }

  uint64_t getVarint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Bytes.size()) {
        fail("truncated varint");
        return 0;
      }
      uint8_t B = static_cast<uint8_t>(Bytes[Pos++]);
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if ((B & 0x80) == 0)
        return V;
    }
    fail("overlong varint");
    return 0;
  }

  uint8_t getByte() {
    if (Pos >= Bytes.size()) {
      fail("truncated byte");
      return 0;
    }
    return static_cast<uint8_t>(Bytes[Pos++]);
  }

  std::string_view getBytes(size_t N) {
    if (N > Bytes.size() - Pos) {
      fail("truncated byte string");
      return {};
    }
    std::string_view V = Bytes.substr(Pos, N);
    Pos += N;
    return V;
  }

  void fail(const char *Why) {
    if (Failed == nullptr)
      Failed = Why;
    Pos = Bytes.size();
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
  const char *Failed = nullptr;
};

//===----------------------------------------------------------------------===//
// Local symbol tables
//===----------------------------------------------------------------------===//

/// Collects the symbols a blob mentions and assigns dense local indices;
/// the body is built against the local indices while the table grows.
class SymbolSink {
public:
  explicit SymbolSink(const SignatureTable &Sig) : Sig(Sig) {}

  uint64_t localIndex(Symbol S) {
    auto [It, Inserted] = Local.emplace(S, Order.size());
    if (Inserted)
      Order.push_back(S);
    return It->second;
  }

  /// Renders the table: count, then each name length-prefixed.
  std::string render() const {
    std::string Out;
    putVarint(Out, Order.size());
    for (Symbol S : Order) {
      const std::string &Name = Sig.name(S);
      putVarint(Out, Name.size());
      Out += Name;
    }
    return Out;
  }

private:
  const SignatureTable &Sig;
  std::unordered_map<Symbol, uint64_t> Local;
  std::vector<Symbol> Order;
};

/// Upper bound on symbol-table entries and name lengths; corrupt counts
/// must not translate into unbounded allocations.
constexpr uint64_t MaxSymbols = 1 << 20;
constexpr uint64_t MaxNameBytes = 1 << 16;

/// Reads the local symbol table back and resolves every name in \p Sig.
/// Unknown names fail the decode: a blob only makes sense against the
/// signature it was produced for.
bool readSymbolTable(BinReader &R, const SignatureTable &Sig,
                     std::vector<Symbol> &Out, std::string &Error) {
  uint64_t Count = R.getVarint();
  if (!R.ok() || Count > MaxSymbols) {
    Error = R.ok() ? "symbol table too large" : R.error();
    return false;
  }
  Out.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Len = R.getVarint();
    if (R.ok() && Len > MaxNameBytes)
      R.fail("symbol name too long");
    std::string_view Name = R.getBytes(Len);
    if (!R.ok()) {
      Error = R.error();
      return false;
    }
    Symbol S = Sig.lookup(Name);
    if (S == InvalidSymbol) {
      Error = "unknown symbol '" + std::string(Name) + "'";
      return false;
    }
    Out.push_back(S);
  }
  return true;
}

/// Resolves a body reference into the local table.
Symbol localSymbol(BinReader &R, const std::vector<Symbol> &Table) {
  uint64_t Index = R.getVarint();
  if (!R.ok())
    return InvalidSymbol;
  if (Index >= Table.size()) {
    R.fail("symbol index out of range");
    return InvalidSymbol;
  }
  return Table[Index];
}

//===----------------------------------------------------------------------===//
// Literals
//===----------------------------------------------------------------------===//

void putLiteral(std::string &Out, const Literal &L) {
  Out.push_back(static_cast<char>(L.kind()));
  switch (L.kind()) {
  case LitKind::Int:
    putVarint(Out, zigzag(L.asInt()));
    break;
  case LitKind::Float: {
    uint64_t Bits;
    double V = L.asFloat();
    std::memcpy(&Bits, &V, sizeof(Bits));
    // Fixed eight bytes: float bit patterns have no small-value bias for
    // a varint to exploit.
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>(Bits >> (8 * I)));
    break;
  }
  case LitKind::Bool:
    Out.push_back(L.asBool() ? 1 : 0);
    break;
  case LitKind::String:
    putVarint(Out, L.asString().size());
    Out += L.asString();
    break;
  }
}

Literal getLiteral(BinReader &R) {
  uint8_t Kind = R.getByte();
  switch (static_cast<LitKind>(Kind)) {
  case LitKind::Int:
    return Literal(unzigzag(R.getVarint()));
  case LitKind::Float: {
    uint64_t Bits = 0;
    for (int I = 0; I != 8; ++I)
      Bits |= static_cast<uint64_t>(R.getByte()) << (8 * I);
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return Literal(V);
  }
  case LitKind::Bool:
    return Literal(R.getByte() != 0);
  case LitKind::String: {
    uint64_t Len = R.getVarint();
    return Literal(std::string(R.getBytes(Len)));
  }
  }
  R.fail("invalid literal kind");
  return Literal();
}

//===----------------------------------------------------------------------===//
// Edit scripts
//===----------------------------------------------------------------------===//

void putNode(std::string &Body, SymbolSink &Syms, const NodeRef &N) {
  putVarint(Body, Syms.localIndex(N.Tag));
  putVarint(Body, N.Uri);
}

NodeRef getNode(BinReader &R, const SignatureTable &Sig,
                const std::vector<Symbol> &Table) {
  NodeRef N;
  N.Tag = localSymbol(R, Table);
  N.Uri = R.getVarint();
  if (R.ok() && !Sig.hasTag(N.Tag))
    R.fail("node symbol is not a constructor tag");
  return N;
}

void putLitRefs(std::string &Body, SymbolSink &Syms,
                const std::vector<LitRef> &Lits) {
  putVarint(Body, Lits.size());
  for (const LitRef &L : Lits) {
    putVarint(Body, Syms.localIndex(L.Link));
    putLiteral(Body, L.Value);
  }
}

/// Caps on list lengths read back from a blob (see MaxSymbols).
constexpr uint64_t MaxListEntries = 1 << 24;

std::vector<LitRef> getLitRefs(BinReader &R,
                               const std::vector<Symbol> &Table) {
  std::vector<LitRef> Out;
  uint64_t Count = R.getVarint();
  if (R.ok() && Count > MaxListEntries)
    R.fail("literal list too long");
  if (!R.ok())
    return Out;
  Out.reserve(Count);
  for (uint64_t I = 0; I != Count && R.ok(); ++I) {
    LinkId Link = localSymbol(R, Table);
    Literal Value = getLiteral(R);
    Out.push_back(LitRef{Link, std::move(Value)});
  }
  return Out;
}

} // namespace

std::string persist::encodeEditScript(const SignatureTable &Sig,
                                      const EditScript &Script) {
  SymbolSink Syms(Sig);
  std::string Body;
  putVarint(Body, Script.size());
  for (const Edit &E : Script.edits()) {
    Body.push_back(static_cast<char>(E.Kind));
    putNode(Body, Syms, E.Node);
    switch (E.Kind) {
    case EditKind::Detach:
    case EditKind::Attach:
      putVarint(Body, Syms.localIndex(E.Link));
      putNode(Body, Syms, E.Parent);
      break;
    case EditKind::Load:
    case EditKind::Unload:
      putVarint(Body, E.Kids.size());
      for (const KidRef &K : E.Kids) {
        putVarint(Body, Syms.localIndex(K.Link));
        putVarint(Body, K.Uri);
      }
      putLitRefs(Body, Syms, E.Lits);
      break;
    case EditKind::Update:
      putLitRefs(Body, Syms, E.OldLits);
      putLitRefs(Body, Syms, E.Lits);
      break;
    }
  }
  return Syms.render() + Body;
}

DecodeScriptResult persist::decodeEditScript(const SignatureTable &Sig,
                                             std::string_view Blob) {
  DecodeScriptResult Result;
  BinReader R(Blob);
  std::vector<Symbol> Table;
  if (!readSymbolTable(R, Sig, Table, Result.Error))
    return Result;

  uint64_t Count = R.getVarint();
  if (R.ok() && Count > MaxListEntries)
    R.fail("edit script too long");
  std::vector<Edit> Edits;
  Edits.reserve(R.ok() ? Count : 0);
  for (uint64_t I = 0; I != Count && R.ok(); ++I) {
    uint8_t KindByte = R.getByte();
    if (KindByte > static_cast<uint8_t>(EditKind::Update)) {
      R.fail("invalid edit kind");
      break;
    }
    EditKind Kind = static_cast<EditKind>(KindByte);
    NodeRef Node = getNode(R, Sig, Table);
    switch (Kind) {
    case EditKind::Detach:
    case EditKind::Attach: {
      LinkId Link = localSymbol(R, Table);
      NodeRef Parent = getNode(R, Sig, Table);
      Edits.push_back(Kind == EditKind::Detach
                          ? Edit::detach(Node, Link, Parent)
                          : Edit::attach(Node, Link, Parent));
      break;
    }
    case EditKind::Load:
    case EditKind::Unload: {
      uint64_t NumKids = R.getVarint();
      if (R.ok() && NumKids > MaxListEntries)
        R.fail("kid list too long");
      std::vector<KidRef> Kids;
      Kids.reserve(R.ok() ? NumKids : 0);
      for (uint64_t K = 0; K != NumKids && R.ok(); ++K) {
        LinkId Link = localSymbol(R, Table);
        URI Uri = R.getVarint();
        Kids.push_back(KidRef{Link, Uri});
      }
      std::vector<LitRef> Lits = getLitRefs(R, Table);
      Edits.push_back(Kind == EditKind::Load
                          ? Edit::load(Node, std::move(Kids), std::move(Lits))
                          : Edit::unload(Node, std::move(Kids),
                                         std::move(Lits)));
      break;
    }
    case EditKind::Update: {
      std::vector<LitRef> Old = getLitRefs(R, Table);
      std::vector<LitRef> Now = getLitRefs(R, Table);
      Edits.push_back(Edit::update(Node, std::move(Old), std::move(Now)));
      break;
    }
    }
  }
  if (!R.ok()) {
    Result.Error = R.error();
    return Result;
  }
  if (!R.atEnd()) {
    Result.Error = "trailing bytes after edit script";
    return Result;
  }
  Result.Ok = true;
  Result.Script = EditScript(std::move(Edits));
  return Result;
}

namespace {

/// Writes \p T pre-order: tag, URI and kid count on the way down, then
/// the kids, then the literal count and literals on the way up.
/// Iterative, so any depth is safe.
void encodeTreeNode(std::string &Body, SymbolSink &Syms, const Tree *T) {
  struct Frame {
    const Tree *Node;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Open = [&](const Tree *N) {
    putVarint(Body, Syms.localIndex(N->tag()));
    putVarint(Body, N->uri());
    putVarint(Body, N->arity());
    Stack.push_back({N, 0});
  };
  Open(T);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const Tree *N = Top.Node;
    if (Top.NextKid < N->arity()) {
      Open(N->kid(Top.NextKid++));
      continue;
    }
    putVarint(Body, N->numLits());
    for (size_t I = 0, E = N->numLits(); I != E; ++I)
      putLiteral(Body, N->lit(I));
    Stack.pop_back();
  }
}

/// Hostile-input bounds. Nesting costs the decoder heap, not stack, so
/// depth is bounded only by the caller's ParseLimits: any tree admission
/// accepted decodes. A blob's size and node count are, so a forged blob
/// cannot make the decoder allocate far beyond what a real document of
/// that size would.
constexpr size_t MaxTreeBlobBytes = size_t(1) << 30;
constexpr uint64_t MaxTreeNodes = uint64_t(1) << 26;

/// Streams one tree into \p B: tag, URI and kid count open a node, its
/// literal count and literals close it. The builder checks each node
/// against the signature, the URIs for uniqueness, and the admission
/// caps. Returns the root, or nullptr with the failure in \p R or \p B.
Tree *decodeTreeBody(BinReader &R, CheckedBuilder &B,
                     const std::vector<Symbol> &Table) {
  uint64_t Nodes = 0;
  while (!B.done()) {
    if (B.wantsNode()) {
      if (++Nodes > MaxTreeNodes) {
        R.fail("tree has too many nodes");
        return nullptr;
      }
      TagId Tag = localSymbol(R, Table);
      URI Uri = R.getVarint();
      if (!R.ok() || !B.open(Tag, Uri))
        return nullptr;
      uint64_t NumKids = R.getVarint();
      if (!R.ok() || !B.kidCount(NumKids))
        return nullptr;
      continue;
    }
    uint64_t NumLits = R.getVarint();
    if (!R.ok() || !B.litCount(NumLits))
      return nullptr;
    for (uint64_t I = 0; I != NumLits; ++I) {
      Literal L = getLiteral(R);
      if (!R.ok() || !B.lit(std::move(L)))
        return nullptr;
    }
    if (B.close() == nullptr)
      return nullptr;
  }
  return B.root();
}

} // namespace

std::string persist::encodeTree(const SignatureTable &Sig, const Tree *T) {
  SymbolSink Syms(Sig);
  std::string Body;
  encodeTreeNode(Body, Syms, T);
  return Syms.render() + Body;
}

DecodeTreeResult persist::decodeTree(const SignatureTable &Sig,
                                     TreeContext &Ctx,
                                     std::string_view Blob) {
  return decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/true);
}

DecodeTreeResult persist::decodeTree(const SignatureTable &Sig,
                                     TreeContext &Ctx, std::string_view Blob,
                                     bool PreserveUris,
                                     const ParseLimits &Limits) {
  DecodeTreeResult Result;
  Result.Fail = ParseFail::Syntax;
  if (Blob.size() > MaxTreeBlobBytes) {
    Result.Error = "tree blob too large";
    return Result;
  }
  BinReader R(Blob);
  std::vector<Symbol> Table;
  if (!readSymbolTable(R, Sig, Table, Result.Error))
    return Result;
  CheckedBuilder B(Ctx, Limits,
                   PreserveUris ? TreeContext::CopyUris::Preserve
                                : TreeContext::CopyUris::Fresh);
  Tree *Root = decodeTreeBody(R, B, Table);
  if (B.failure() != CheckedBuilder::Check::None) {
    Result.Error = B.error();
    Result.Fail = B.parseFail();
    return Result;
  }
  if (Root == nullptr || !R.ok()) {
    Result.Error = R.ok() ? "invalid tree blob" : R.error();
    return Result;
  }
  if (!R.atEnd()) {
    Result.Error = "trailing bytes after tree";
    return Result;
  }
  Result.Root = Root;
  Result.Fail = ParseFail::None;
  return Result;
}
