//===- tree/Tree.cpp - Mutable typed trees with hashes ---------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/Tree.h"

#include "support/TreeHash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace truediff;

namespace {

/// Writes \p V's low \p Bytes bytes little-endian at \p P; returns the end.
uint8_t *putLE(uint8_t *P, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I != Bytes; ++I)
    P[I] = uint8_t(V >> (I * 8));
  return P + Bytes;
}

/// Writes a node's two digest preimages (Section 4.1) at \p StructOut and
/// \p LitOut:
///   structure: u32 tag, u32 arity, each kid's structure hash;
///   literal:   u32 literal count, each literal's Literal::hashEncoding,
///              each kid's literal hash (the tag is NOT included).
/// Integers are little-endian.
void writePreimages(TagId Tag, Tree *const *Kids, size_t Arity,
                    const std::vector<Literal> &Lits, uint8_t *StructOut,
                    uint8_t *LitOut) {
  StructOut = putLE(StructOut, Tag, 4);
  StructOut = putLE(StructOut, Arity, 4);
  LitOut = putLE(LitOut, Lits.size(), 4);
  for (const Literal &L : Lits)
    LitOut = L.hashEncoding(LitOut);
  for (size_t I = 0; I != Arity; ++I) {
    std::memcpy(StructOut, Kids[I]->structureHash().bytes().data(),
                Digest::NumBytes);
    std::memcpy(LitOut, Kids[I]->literalHash().bytes().data(),
                Digest::NumBytes);
    StructOut += Digest::NumBytes;
    LitOut += Digest::NumBytes;
  }
}

/// Preimages up to this many bytes are written to the stack; longer ones
/// (long string literals, very wide nodes) go to the heap. The bytes
/// hashed, and so the digests, are the same either way.
constexpr size_t StackPreimageBytes = 256;

/// The node's keyed structure and literal digests (TreeHash.h).
void hashNode(TagId Tag, Tree *const *Kids, size_t Arity,
              const std::vector<Literal> &Lits, Digest &StructOut,
              Digest &LitOut) {
  const DigestKey &Key = processDigestKey();
  size_t StructLen = 8 + Arity * Digest::NumBytes;
  size_t LitLen = 4 + Arity * Digest::NumBytes;
  for (const Literal &L : Lits)
    LitLen += L.hashEncodingSize();
  if (StructLen <= StackPreimageBytes && LitLen <= StackPreimageBytes) {
    uint8_t StructMsg[StackPreimageBytes];
    uint8_t LitMsg[StackPreimageBytes];
    writePreimages(Tag, Kids, Arity, Lits, StructMsg, LitMsg);
    StructOut = sipHash128(Key, StructMsg, StructLen);
    LitOut = sipHash128(Key, LitMsg, LitLen);
    return;
  }
  std::vector<uint8_t> StructMsg(StructLen), LitMsg(LitLen);
  writePreimages(Tag, Kids, Arity, Lits, StructMsg.data(), LitMsg.data());
  StructOut = sipHash128(Key, StructMsg.data(), StructLen);
  LitOut = sipHash128(Key, LitMsg.data(), LitLen);
}

} // namespace

void Tree::computeDerived(const SignatureTable &Sig) {
  for (size_t I = 0; I != Arity; ++I)
    assert(Kids[I] != nullptr && "derived data requires complete trees");
  hashNode(Tag, Kids, Arity, Lits, StructHash, LitHash);

  Height = 1;
  Size = 1;
  for (size_t I = 0; I != Arity; ++I) {
    Height = std::max(Height, Kids[I]->Height + 1);
    Size += Kids[I]->Size;
  }
  (void)Sig;
}

namespace {

/// Post-order frame: NextKid counts how many kids have been pushed so far.
struct PostorderFrame {
  Tree *Node;
  size_t NextKid;
};

} // namespace

void Tree::refreshDerived(const SignatureTable &Sig) {
  // Iterative post-order: kids are fully recomputed before their parent.
  // Explicit stack so a depth-MaxDepth chain cannot overflow the call
  // stack.
  std::vector<PostorderFrame> Stack;
  Stack.push_back({this, 0});
  while (!Stack.empty()) {
    PostorderFrame &Top = Stack.back();
    if (Top.NextKid < Top.Node->Arity) {
      Tree *Kid = Top.Node->Kids[Top.NextKid++];
      Stack.push_back({Kid, 0});
      continue;
    }
    Top.Node->computeDerived(Sig);
    Top.Node->DerivedDirty = false;
    Stack.pop_back();
  }
}

uint64_t Tree::rehashDirtyPaths(const SignatureTable &Sig) {
  if (!DerivedDirty)
    return 0;
  uint64_t Rehashed = 0;
  std::vector<PostorderFrame> Stack;
  Stack.push_back({this, 0});
  while (!Stack.empty()) {
    PostorderFrame &Top = Stack.back();
    if (Top.NextKid < Top.Node->Arity) {
      Tree *Kid = Top.Node->Kids[Top.NextKid++];
      // Clean subtrees keep their digests: the dirtiness invariant says
      // every node with a stale descendant is itself marked.
      if (Kid->DerivedDirty)
        Stack.push_back({Kid, 0});
      continue;
    }
    Top.Node->computeDerived(Sig);
    Top.Node->DerivedDirty = false;
    ++Rehashed;
    Stack.pop_back();
  }
  return Rehashed;
}

static void assertMatchesSignature(const SignatureTable &Sig, TagId Tag,
                                   Tree *const *Kids, size_t Arity,
                                   const std::vector<Literal> &Lits) {
#ifndef NDEBUG
  const TagSignature &TagSig = Sig.signature(Tag);
  assert(Arity == TagSig.Kids.size() && "kid arity mismatch");
  assert(Lits.size() == TagSig.Lits.size() && "literal arity mismatch");
  for (size_t I = 0; I != Arity; ++I) {
    assert(Kids[I] != nullptr && "kids of constructed nodes must be present");
    SortId KidSort = Sig.signature(Kids[I]->tag()).Result;
    assert(Sig.isSubsort(KidSort, TagSig.Kids[I].Sort) &&
           "kid sort does not match signature");
  }
  for (size_t I = 0, E = Lits.size(); I != E; ++I)
    assert(Lits[I].kind() == TagSig.Lits[I].Kind &&
           "literal kind does not match signature");
#else
  (void)Sig;
  (void)Tag;
  (void)Kids;
  (void)Arity;
  (void)Lits;
#endif
}

Tree *TreeContext::make(TagId Tag, const std::vector<Tree *> &Kids,
                        std::vector<Literal> Lits) {
  return build(Tag, NextUri, Kids.data(), Kids.size(), std::move(Lits));
}

Tree *TreeContext::make(TagId Tag, Tree *const *Kids, size_t Arity,
                        std::vector<Literal> Lits) {
  return build(Tag, NextUri, Kids, Arity, std::move(Lits));
}

Tree *TreeContext::make(std::string_view TagName,
                        const std::vector<Tree *> &Kids,
                        std::vector<Literal> Lits) {
  Symbol Tag = Sig.lookup(TagName);
  assert(Tag != InvalidSymbol && "unknown tag name");
  return make(Tag, Kids, std::move(Lits));
}

Tree *TreeContext::adoptWithUri(TagId Tag, URI Uri, Tree *const *Kids,
                                size_t Arity, std::vector<Literal> Lits,
                                Derive When) {
  return build(Tag, Uri, Kids, Arity, std::move(Lits), When);
}

/// Estimate of a node's heap footprint for memory-budget accounting: the
/// node itself, its kid-pointer and literal arrays, and the heap payload
/// of string literals. An estimate is enough -- the budget guards against
/// order-of-magnitude blowups, not byte-exact ceilings.
static size_t approxNodeBytes(const Tree &N) {
  size_t Bytes = sizeof(Tree) + N.arity() * sizeof(Tree *) +
                 N.numLits() * sizeof(Literal);
  for (size_t I = 0, E = N.numLits(); I != E; ++I) {
    const Literal &L = N.lit(I);
    if (L.kind() == LitKind::String)
      Bytes += L.asString().capacity();
  }
  return Bytes;
}

void TreeContext::attachBudget(MemoryBudget *B) {
  assert(Budget == nullptr && "a context is charged to one budget");
  Budget = B;
  if (Budget == nullptr)
    return;
  size_t Bytes = 0;
  for (size_t I = 0; I != NumNodes; ++I)
    Bytes += approxNodeBytes(NodeSlabs[I / NodeSlabSize][I % NodeSlabSize]);
  Budget->charge(Bytes);
  BytesCharged += Bytes;
}

TreeContext::~TreeContext() {
  if (Budget != nullptr)
    Budget->release(BytesCharged);
}

Tree *TreeContext::allocNode() {
  size_t Slot = NumNodes % NodeSlabSize;
  if (Slot == 0)
    NodeSlabs.emplace_back(new Tree[NodeSlabSize]);
  ++NumNodes;
  return &NodeSlabs.back()[Slot];
}

Tree **TreeContext::allocKids(size_t N) {
  if (N > KidsLeft) {
    size_t Slab = std::max(N, KidSlabSize);
    KidSlabs.emplace_back(new Tree *[Slab]);
    KidCursor = KidSlabs.back().get();
    KidsLeft = Slab;
  }
  Tree **Kids = KidCursor;
  KidCursor += N;
  KidsLeft -= N;
  return Kids;
}

Tree *TreeContext::build(TagId Tag, URI Uri, Tree *const *Kids, size_t Arity,
                         std::vector<Literal> Lits, Derive When) {
  assertMatchesSignature(Sig, Tag, Kids, Arity, Lits);

  Tree *Node = allocNode();
  Node->Tag = Tag;
  Node->Uri = Uri;
  Node->Arity = static_cast<uint32_t>(Arity);
  if (Arity != 0) {
    Node->Kids = allocKids(Arity);
    std::copy(Kids, Kids + Arity, Node->Kids);
  }
  Node->Lits = std::move(Lits);
  if (When == Derive::Now)
    Node->computeDerived(Sig);
  else
    Node->DerivedDirty = true;
  NextUri = std::max(NextUri, Uri + 1);
  if (Budget != nullptr) {
    // Every node of the arena is built here, so this is the single
    // accounting point.
    size_t Bytes = approxNodeBytes(*Node);
    Budget->charge(Bytes);
    BytesCharged += Bytes;
  }
  return Node;
}

Tree *TreeContext::deepCopy(const Tree *T, CopyUris Uris) {
  // Iterative post-order with POD frames and one shared results stack:
  // when a frame completes, its kids' copies are the top arity() entries
  // of Done (in order), which build() copies straight into the kid slab.
  // This is the hot path of every diff invocation (source trees are
  // consumed), so no per-frame allocations. Stack-safe on chains as deep
  // as admission allows. Both URI modes run this one loop.
  const bool KeepUris = Uris == CopyUris::Preserve;
  struct CopyFrame {
    const Tree *Src;
    size_t NextKid;
  };
  std::vector<CopyFrame> Stack;
  std::vector<Tree *> Done;
  Stack.reserve(std::min<uint64_t>(T->height(), 4096));
  Done.reserve(64);
  Stack.push_back({T, 0});
  while (!Stack.empty()) {
    CopyFrame &Top = Stack.back();
    if (Top.NextKid < Top.Src->arity()) {
      Stack.push_back({Top.Src->kid(Top.NextKid++), 0});
      continue;
    }
    const Tree *Src = Top.Src;
    Stack.pop_back();
    size_t Arity = Src->arity();
    Tree *Copy = build(Src->tag(), KeepUris ? Src->uri() : NextUri,
                       Done.data() + Done.size() - Arity, Arity, Src->lits());
    Done.resize(Done.size() - Arity);
    Done.push_back(Copy);
  }
  return Done.front();
}

void TreeContext::corruptDerivedForTest(Tree *T) {
  std::array<uint8_t, Digest::NumBytes> B = T->StructHash.bytes();
  B[0] ^= 0x01;
  T->StructHash = Digest(B);
}

bool truediff::treeEqualsModuloUris(const Tree *A, const Tree *B) {
  std::vector<std::pair<const Tree *, const Tree *>> Stack{{A, B}};
  while (!Stack.empty()) {
    auto [X, Y] = Stack.back();
    Stack.pop_back();
    if (X->tag() != Y->tag() || X->arity() != Y->arity() ||
        X->numLits() != Y->numLits())
      return false;
    for (size_t I = 0, E = X->numLits(); I != E; ++I)
      if (X->lit(I) != Y->lit(I))
        return false;
    for (size_t I = X->arity(); I != 0; --I)
      Stack.emplace_back(X->kid(I - 1), Y->kid(I - 1));
  }
  return true;
}

std::optional<std::string> truediff::compareDerived(const Tree *Stored,
                                                    const Tree *Fresh) {
  std::vector<std::pair<const Tree *, const Tree *>> Stack{{Stored, Fresh}};
  while (!Stack.empty()) {
    auto [S, F] = Stack.back();
    Stack.pop_back();
    auto Complain = [&](const char *What) {
      return "stale " + std::string(What) + " at uri " +
             std::to_string(S->uri());
    };
    if (S->structureHash() != F->structureHash())
      return Complain("structure hash");
    if (S->literalHash() != F->literalHash())
      return Complain("literal hash");
    if (S->height() != F->height())
      return Complain("height");
    if (S->size() != F->size())
      return Complain("size");
    if (S->arity() != F->arity())
      return Complain("arity");
    for (size_t I = S->arity(); I != 0; --I)
      Stack.emplace_back(S->kid(I - 1), F->kid(I - 1));
  }
  return std::nullopt;
}
