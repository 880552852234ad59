//===- gumtree/RoseTree.cpp - Untyped rose trees for Gumtree ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "gumtree/RoseTree.h"

#include "support/Sha256.h"

#include <cassert>

using namespace truediff;
using namespace truediff::gumtree;

void RNode::foreachNode(const std::function<void(RNode *)> &Fn) {
  Fn(this);
  for (RNode *Kid : Kids)
    Kid->foreachNode(Fn);
}

void RNode::foreachPostOrder(const std::function<void(RNode *)> &Fn) {
  for (RNode *Kid : Kids)
    Kid->foreachPostOrder(Fn);
  Fn(this);
}

size_t RNode::kidIndex(const RNode *Kid) const {
  for (size_t I = 0, E = Kids.size(); I != E; ++I)
    if (Kids[I] == Kid)
      return I;
  assert(false && "kid not found");
  return 0;
}

static void computeDerived(RNode *N) {
  Sha256 Hasher;
  Hasher.updateU32(N->Type);
  Hasher.updateU64(N->Label.size());
  Hasher.update(N->Label);
  Hasher.updateU32(static_cast<uint32_t>(N->Kids.size()));
  N->Height = 1;
  N->Size = 1;
  for (RNode *Kid : N->Kids) {
    Hasher.update(Kid->Hash);
    N->Height = std::max(N->Height, Kid->Height + 1);
    N->Size += Kid->Size;
  }
  N->Hash = Hasher.finish().truncated();
}

RNode *RoseForest::make(Symbol Type, std::string Label,
                        std::vector<RNode *> Kids) {
  Arena.emplace_back();
  RNode *N = &Arena.back();
  N->Type = Type;
  N->Label = std::move(Label);
  N->Kids = std::move(Kids);
  for (RNode *Kid : N->Kids)
    Kid->Parent = N;
  computeDerived(N);
  return N;
}

namespace {

/// True for the XCons spine cells of the typed list encoding.
bool isConsCell(const SignatureTable &Sig, const Tree *T) {
  return T->arity() == 2 && Sig.name(T->tag()).ends_with("Cons");
}

/// True for the XNil terminators.
bool isNilCell(const SignatureTable &Sig, const Tree *T) {
  return T->arity() == 0 && T->numLits() == 0 &&
         Sig.name(T->tag()).ends_with("Nil");
}

} // namespace

RNode *RoseForest::fromTree(const SignatureTable &Sig, const Tree *T,
                            bool FlattenLists) {
  std::vector<RNode *> Kids;
  Kids.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I) {
    const Tree *Kid = T->kid(I);
    if (FlattenLists && (isConsCell(Sig, Kid) || isNilCell(Sig, Kid))) {
      // Replace the cons spine by one n-ary list node (like the block
      // nodes of real ASTs), typed by the terminator tag.
      std::vector<RNode *> Elements;
      const Tree *Cell = Kid;
      for (; isConsCell(Sig, Cell); Cell = Cell->kid(1))
        Elements.push_back(fromTree(Sig, Cell->kid(0), FlattenLists));
      Kids.push_back(make(Cell->tag(), "", std::move(Elements)));
      continue;
    }
    Kids.push_back(fromTree(Sig, Kid, FlattenLists));
  }
  std::string Label;
  for (size_t I = 0, E = T->numLits(); I != E; ++I) {
    if (I != 0)
      Label += ",";
    Label += T->lit(I).toString();
  }
  return make(T->tag(), std::move(Label), std::move(Kids));
}

void RoseForest::index(RNode *Root) {
  int Next = 0;
  Root->foreachPostOrder([&](RNode *N) {
    N->Id = Next++;
    for (RNode *Kid : N->Kids)
      Kid->Parent = N;
  });
  Root->Parent = nullptr;
}

std::string RoseForest::toString(const SignatureTable &Sig, const RNode *T) {
  std::string Out = Sig.name(T->Type);
  if (!T->Label.empty())
    Out += "{" + T->Label + "}";
  if (!T->Kids.empty()) {
    Out += "(";
    for (size_t I = 0, E = T->Kids.size(); I != E; ++I) {
      if (I != 0)
        Out += ",";
      Out += toString(Sig, T->Kids[I]);
    }
    Out += ")";
  }
  return Out;
}
