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

/// A node's two digest preimages (Section 4.1), integers little-endian:
///   structure: u32 tag, u32 arity, each kid's structure hash;
///   literal:   u32 literal count, each literal's Literal::hashEncoding,
///              each kid's literal hash (the tag is NOT included).
/// The writers return the end of what they wrote.
size_t structureSize(size_t Arity) { return 8 + Arity * Digest::NumBytes; }

uint8_t *writeStructure(TagId Tag, Tree *const *Kids, size_t Arity,
                        uint8_t *Out) {
  Out = putLE(Out, Tag, 4);
  Out = putLE(Out, Arity, 4);
  for (size_t I = 0; I != Arity; ++I) {
    std::memcpy(Out, Kids[I]->structureHash().bytes().data(),
                Digest::NumBytes);
    Out += Digest::NumBytes;
  }
  return Out;
}

size_t literalSize(LitSpan Lits, size_t Arity) {
  size_t Size = 4 + Arity * Digest::NumBytes;
  for (const Literal &L : Lits)
    Size += L.hashEncodingSize();
  return Size;
}

uint8_t *writeLiterals(LitSpan Lits, Tree *const *Kids, size_t Arity,
                       uint8_t *Out) {
  Out = putLE(Out, Lits.size(), 4);
  for (const Literal &L : Lits)
    Out = L.hashEncoding(Out);
  for (size_t I = 0; I != Arity; ++I) {
    std::memcpy(Out, Kids[I]->literalHash().bytes().data(), Digest::NumBytes);
    Out += Digest::NumBytes;
  }
  return Out;
}

/// Preimages up to this many bytes are written to the stack; longer ones
/// (long string literals, very wide nodes) go to the heap. The bytes
/// hashed, and so the digests, are the same either way.
constexpr size_t StackPreimageBytes = 256;

/// The keyed digest (TreeHash.h) of the \p Size-byte preimage \p Write
/// writes.
template <typename WriteFn>
Digest hashPreimage(const DigestKey &Key, size_t Size, WriteFn &&Write) {
  if (Size <= StackPreimageBytes) {
    uint8_t Msg[StackPreimageBytes];
    Write(Msg);
    return sipHash128(Key, Msg, Size);
  }
  std::vector<uint8_t> Msg(Size);
  Write(Msg.data());
  return sipHash128(Key, Msg.data(), Size);
}

Digest hashStructure(const DigestKey &Key, TagId Tag, Tree *const *Kids,
                     size_t Arity) {
  return hashPreimage(Key, structureSize(Arity), [&](uint8_t *Out) {
    writeStructure(Tag, Kids, Arity, Out);
  });
}

Digest hashLiterals(const DigestKey &Key, LitSpan Lits, Tree *const *Kids,
                    size_t Arity) {
  return hashPreimage(Key, literalSize(Lits, Arity), [&](uint8_t *Out) {
    writeLiterals(Lits, Kids, Arity, Out);
  });
}

/// A level's leftover batch of fewer preimages than this is hashed one by
/// one: the 8-lane kernel costs about what two scalar calls cost.
constexpr unsigned MinBatchLanes = 3;

/// Writes a preimage into one lane of sipHash128x8's transposed input a
/// word at a time, never reading back a word it stored byte by byte.
class LaneWriter {
public:
  explicit LaneWriter(uint64_t *Lane) : Out(Lane) {}

  /// Appends the low \p Bytes (1 to 8) bytes of \p V, whose other bytes
  /// are zero.
  void put(uint64_t V, unsigned Bytes) {
    Acc |= V << (8 * Fill);
    Fill += Bytes;
    if (Fill >= 8) {
      *Out = Acc;
      Out += SipLanes;
      Fill -= 8;
      Acc = Fill == 0 ? 0 : V >> (8 * (Bytes - Fill));
    }
  }

  void putBytes(const char *P, size_t N) {
    uint64_t V;
    for (; N >= 8; N -= 8, P += 8) {
      std::memcpy(&V, P, 8);
      put(V, 8);
    }
    if (N != 0) {
      V = 0;
      std::memcpy(&V, P, N);
      put(V, static_cast<unsigned>(N));
    }
  }

  /// Appends Literal::hashEncoding's bytes for \p L.
  void putLiteral(const Literal &L) {
    uint64_t Kind = static_cast<uint64_t>(L.kind());
    switch (L.kind()) {
    case LitKind::Int:
      put(Kind, 1);
      put(static_cast<uint64_t>(L.asInt()), 8);
      return;
    case LitKind::Float: {
      double D = L.asFloat();
      uint64_t Bits;
      std::memcpy(&Bits, &D, sizeof(Bits));
      put(Kind, 1);
      put(Bits, 8);
      return;
    }
    case LitKind::Bool:
      put(Kind | uint64_t(L.asBool()) << 8, 2);
      return;
    case LitKind::String: {
      const std::string &Str = L.asString();
      put(Kind, 1);
      put(Str.size(), 8);
      putBytes(Str.data(), Str.size());
      return;
    }
    }
  }

  /// Writes the last word: the remaining bytes and the preimage's length
  /// \p Size, as sipWords describes it.
  void finish(size_t Size) { *Out = Acc | uint64_t(Size) << 56; }

private:
  uint64_t *Out;
  /// The next word's first Fill bytes.
  uint64_t Acc = 0;
  unsigned Fill = 0;
};

} // namespace

void Tree::hashDigests(const DigestKey &Key) {
  size_t StructLen = structureSize(Arity);
  size_t LitLen = literalSize(lits(), Arity);
  if (StructLen > StackPreimageBytes || LitLen > StackPreimageBytes) {
    StructHash = hashStructure(Key, Tag, Kids, Arity);
    LitHash = hashLiterals(Key, lits(), Kids, Arity);
    return;
  }
  uint8_t StructMsg[StackPreimageBytes];
  uint8_t LitMsg[StackPreimageBytes];
  writeStructure(Tag, Kids, Arity, StructMsg);
  writeLiterals(lits(), Kids, Arity, LitMsg);
  StructHash = sipHash128(Key, StructMsg, StructLen);
  LitHash = sipHash128(Key, LitMsg, LitLen);
}

void Tree::computeDerived() {
  for (size_t I = 0; I != Arity; ++I)
    assert(Kids[I] != nullptr && "derived data requires complete trees");
  hashDigests(processDigestKey());

  Height = 1;
  Size = 1;
  for (size_t I = 0; I != Arity; ++I) {
    Height = std::max(Height, Kids[I]->Height + 1);
    Size += Kids[I]->Size;
  }
}

DeriveBatch::DeriveBatch() : Key(processDigestKey()) {}

const Digest &DeriveBatch::leafStructure(TagId Tag) {
  size_t Slot = Tag % LeafMemoSize;
  if (LeafTags[Slot] != Tag) {
    LeafTags[Slot] = Tag;
    LeafHashes[Slot] = hashStructure(Key, Tag, nullptr, 0);
  }
  return LeafHashes[Slot];
}

const Digest &DeriveBatch::emptyLiterals() {
  if (!HaveEmptyLits) {
    EmptyLits = hashLiterals(Key, {}, nullptr, 0);
    HaveEmptyLits = true;
  }
  return EmptyLits;
}

void DeriveBatch::add(Tree *T) {
  if (T->Arity == 0) {
    T->StructHash = leafStructure(T->Tag);
    if (T->NumLits == 0) {
      T->Height = 1;
      T->Size = 1;
      T->LitHash = emptyLiterals();
      T->DerivedDirty = false;
      return;
    }
  }
  uint32_t H = 1, Level = 1;
  uint64_t S = 1;
  for (size_t K = 0; K != T->Arity; ++K) {
    const Tree *Kid = T->Kids[K];
    assert(Kid != nullptr && "derived data requires complete trees");
    H = std::max(H, Kid->Height + 1);
    S += Kid->Size;
    Level = std::max(Level, Kid->DeriveLevel + 1);
  }
  T->Height = H;
  T->Size = S;
  T->DeriveLevel = Level;
  if (Level > MaxLevel) {
    // A node's level is at most one above its kids', so levels open one
    // at a time.
    MaxLevel = Level;
    Levels[Level] = nullptr;
  }
  T->DeriveNext = Levels[Level];
  Levels[Level] = T;
  if (++NumAdded == Chunk)
    deriveLevels();
}

void DeriveBatch::finish() {
  if (NumAdded != 0)
    deriveLevels();
}

/// Per level, queues both preimages of every node into batches by SipHash
/// word count (a leaf's structure digest is already set), runs each batch
/// through sipHash128x8 as it fills, and at the level's end flushes the
/// partial batches. A level of one node (a cons spine, a deep chain) can
/// fill no batch, so its node is hashed as TreeContext::make hashes it.
void DeriveBatch::deriveLevels() {
  for (uint32_t Level = 1; Level <= MaxLevel; ++Level) {
    if (Tree *T = Levels[Level]; T->DeriveNext == nullptr) {
      if (T->Arity == 0)
        T->LitHash = hashLiterals(Key, T->lits(), nullptr, 0);
      else
        T->hashDigests(Key);
      T->DeriveLevel = 0;
      T->DerivedDirty = false;
      continue;
    }
    for (Tree *T = Levels[Level]; T != nullptr; T = T->DeriveNext) {
      if (T->Arity != 0) {
        size_t StructWords = sipWords(structureSize(T->Arity));
        if (StructWords <= MaxBatchWords)
          queue(T, /*Lit=*/false, StructWords);
        else
          T->StructHash = hashStructure(Key, T->Tag, T->Kids, T->Arity);
      }
      size_t LitWords = sipWords(literalSize(T->lits(), T->Arity));
      if (LitWords <= MaxBatchWords)
        queue(T, /*Lit=*/true, LitWords);
      else
        T->LitHash = hashLiterals(Key, T->lits(), T->Kids, T->Arity);
      // Its parents took their levels in add().
      T->DeriveLevel = 0;
      T->DerivedDirty = false;
    }
    flush();
  }
  NumAdded = 0;
  MaxLevel = 0;
}

void DeriveBatch::queue(Tree *T, bool Lit, size_t NumWords) {
  Lanes &B = Batches[NumWords - 1];
  B.Nodes[B.Size] = T;
  B.LitLanes |= unsigned(Lit) << B.Size;
  if (++B.Size == SipLanes) {
    run(B, NumWords);
    Pending &= ~(1u << (NumWords - 1));
  } else {
    Pending |= 1u << (NumWords - 1);
  }
}

void DeriveBatch::run(Lanes &B, size_t NumWords) {
  for (unsigned L = 0; L != B.Size; ++L) {
    const Tree *T = B.Nodes[L];
    uint64_t *Lane = Words + L;
    if (B.LitLanes >> L & 1) {
      LaneWriter W(Lane);
      W.put(T->NumLits, 4);
      for (const Literal &Lit : T->lits())
        W.putLiteral(Lit);
      for (size_t K = 0; K != T->Arity; ++K) {
        const Digest &KidHash = T->Kids[K]->LitHash;
        W.put(KidHash.word(0), 8);
        W.put(KidHash.word(1), 8);
      }
      W.finish(literalSize(T->lits(), T->Arity));
      continue;
    }
    Lane[0] = T->Tag | uint64_t(T->Arity) << 32;
    for (size_t K = 0; K != T->Arity; ++K) {
      const Digest &KidHash = T->Kids[K]->StructHash;
      Lane[SipLanes * (1 + 2 * K)] = KidHash.word(0);
      Lane[SipLanes * (2 + 2 * K)] = KidHash.word(1);
    }
    Lane[SipLanes * (NumWords - 1)] = uint64_t(structureSize(T->Arity)) << 56;
  }
  Digest Out[SipLanes];
  sipHash128x8(Key, Words, NumWords, Out);
  for (unsigned L = 0; L != B.Size; ++L)
    (B.LitLanes >> L & 1 ? B.Nodes[L]->LitHash : B.Nodes[L]->StructHash) =
        Out[L];
  B.Size = 0;
  B.LitLanes = 0;
}

void DeriveBatch::flush() {
  for (; Pending != 0; Pending &= Pending - 1) {
    unsigned I = static_cast<unsigned>(__builtin_ctz(Pending));
    Lanes &B = Batches[I];
    if (B.Size >= MinBatchLanes) {
      run(B, I + 1);
      continue;
    }
    for (unsigned L = 0; L != B.Size; ++L) {
      Tree *T = B.Nodes[L];
      if (B.LitLanes >> L & 1)
        T->LitHash = hashLiterals(Key, T->lits(), T->Kids, T->Arity);
      else
        T->StructHash = hashStructure(Key, T->Tag, T->Kids, T->Arity);
    }
    B.Size = 0;
    B.LitLanes = 0;
  }
}

namespace {

/// Post-order frame: NextKid counts how many kids have been pushed so far.
struct PostorderFrame {
  Tree *Node;
  size_t NextKid;
};

} // namespace

void Tree::refreshDerived() {
  // Iterative post-order: kids are listed before their parent. Explicit
  // stack so a depth-MaxDepth chain cannot overflow the call stack.
  std::vector<PostorderFrame> Stack;
  DeriveBatch Derive;
  Stack.push_back({this, 0});
  while (!Stack.empty()) {
    PostorderFrame &Top = Stack.back();
    if (Top.NextKid < Top.Node->Arity) {
      Tree *Kid = Top.Node->Kids[Top.NextKid++];
      Stack.push_back({Kid, 0});
      continue;
    }
    Derive.add(Top.Node);
    Stack.pop_back();
  }
  Derive.finish();
}

uint64_t Tree::rehashDirtyPaths() {
  if (!DerivedDirty)
    return 0;
  uint64_t Rehashed = 0;
  std::vector<PostorderFrame> Stack;
  DeriveBatch Derive;
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
    Derive.add(Top.Node);
    ++Rehashed;
    Stack.pop_back();
  }
  Derive.finish();
  return Rehashed;
}

static void assertMatchesSignature(const SignatureTable &Sig, TagId Tag,
                                   Tree *const *Kids, size_t Arity,
                                   LitSpan Lits) {
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
  Tree *Node = allocate(Tag, NextUri, Kids.data(), Kids.size(), Lits.size());
  std::move(Lits.begin(), Lits.end(), Node->Lits);
  return finish(Node, Derive::Now);
}

Tree *TreeContext::make(TagId Tag, Tree *const *Kids, size_t Arity,
                        LitSpan Lits) {
  Tree *Node = allocate(Tag, NextUri, Kids, Arity, Lits.size());
  std::copy(Lits.begin(), Lits.end(), Node->Lits);
  return finish(Node, Derive::Now);
}

Tree *TreeContext::make(std::string_view TagName,
                        const std::vector<Tree *> &Kids,
                        std::vector<Literal> Lits) {
  Symbol Tag = Sig.lookup(TagName);
  assert(Tag != InvalidSymbol && "unknown tag name");
  return make(Tag, Kids, std::move(Lits));
}

Tree *TreeContext::adoptWithUri(TagId Tag, URI Uri, Tree *const *Kids,
                                size_t Arity, std::span<Literal> Lits,
                                Derive When) {
  Tree *Node = allocate(Tag, Uri, Kids, Arity, Lits.size());
  std::move(Lits.begin(), Lits.end(), Node->Lits);
  return finish(Node, When);
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

Literal *TreeContext::allocLits(size_t N) {
  if (N > LitsLeft) {
    size_t Slab = std::max(N, LitSlabSize);
    LitSlabs.emplace_back(new Literal[Slab]);
    LitCursor = LitSlabs.back().get();
    LitsLeft = Slab;
  }
  Literal *Lits = LitCursor;
  LitCursor += N;
  LitsLeft -= N;
  return Lits;
}

Tree *TreeContext::allocate(TagId Tag, URI Uri, Tree *const *Kids,
                            size_t Arity, size_t NumLits) {
  Tree *Node = allocNode();
  Node->Tag = Tag;
  Node->Uri = Uri;
  Node->Arity = static_cast<uint32_t>(Arity);
  if (Arity != 0) {
    Node->Kids = allocKids(Arity);
    std::copy(Kids, Kids + Arity, Node->Kids);
  }
  if (NumLits != 0) {
    Node->Lits = allocLits(NumLits);
    Node->NumLits = static_cast<uint32_t>(NumLits);
  }
  NextUri = std::max(NextUri, Uri + 1);
  return Node;
}

Tree *TreeContext::finish(Tree *Node, Derive When) {
  assertMatchesSignature(Sig, Node->Tag, Node->Kids, Node->Arity,
                         Node->lits());
  if (When == Derive::Now)
    Node->computeDerived();
  else
    Node->DerivedDirty = true;
  if (Budget != nullptr) {
    // Every node of the arena is finished here, so this is the single
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
  // of Done (in order), which allocate() copies straight into the kid
  // slab. The copies are built derive-dirty and derived in chunks as
  // they are made. This is the hot path of every diff invocation (source
  // trees are consumed), so no per-frame allocations. Stack-safe on
  // chains as deep as admission allows. Both URI modes run this one
  // loop.
  const bool KeepUris = Uris == CopyUris::Preserve;
  struct CopyFrame {
    const Tree *Src;
    size_t NextKid;
  };
  std::vector<CopyFrame> Stack;
  std::vector<Tree *> Done;
  DeriveBatch Derive;
  Stack.reserve(std::min<uint64_t>(T->height(), 4096));
  Done.reserve(64);
  Stack.push_back({T, 0});
  while (!Stack.empty()) {
    CopyFrame &Top = Stack.back();
    if (Top.NextKid < Top.Src->arity()) {
      if (Top.NextKid == 0) {
        // First visit: fetch every kid's header (its first 40 bytes may
        // straddle two cache lines) while the walk descends into the
        // first. The source is usually cold, so each node would
        // otherwise wait on memory when the walk reaches it.
        for (size_t I = 0, E = Top.Src->arity(); I != E; ++I) {
          const Tree *Kid = Top.Src->Kids[I];
          __builtin_prefetch(Kid);
          __builtin_prefetch(&Kid->NumLits);
        }
      }
      Stack.push_back({Top.Src->kid(Top.NextKid++), 0});
      continue;
    }
    const Tree *Src = Top.Src;
    Stack.pop_back();
    size_t Arity = Src->arity();
    LitSpan Lits = Src->lits();
    Tree *Copy = allocate(Src->tag(), KeepUris ? Src->uri() : NextUri,
                          Done.data() + Done.size() - Arity, Arity,
                          Lits.size());
    std::copy(Lits.begin(), Lits.end(), Copy->Lits);
    finish(Copy, Derive::Deferred);
    Done.resize(Done.size() - Arity);
    Done.push_back(Copy);
    Derive.add(Copy);
  }
  Derive.finish();
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
