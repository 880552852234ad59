//===- truediff/SubtreeShare.cpp - Shares of equivalent subtrees -----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truediff/SubtreeShare.h"

using namespace truediff;

Tree *SubtreeShare::takeAny() {
  while (Head < Order.size()) {
    Tree *T = Order[Head];
    if (T->shareAvailable())
      return T;
    ++Head; // consumed elsewhere; skip for good
  }
  return nullptr;
}

void SubtreeShare::buildPreferredIndex() {
  for (size_t I = Head, E = Order.size(); I != E; ++I) {
    Tree *T = Order[I];
    if (T->shareAvailable())
      Preferred[T->literalHash()].Trees.push_back(T);
  }
  PreferredBuilt = true;
}

Tree *SubtreeShare::takePreferred(const Digest &LitHash) {
  if (!PreferredBuilt)
    buildPreferredIndex();
  auto It = Preferred.find(LitHash);
  if (It == Preferred.end())
    return nullptr;
  PrefList &List = It->second;
  while (List.Head < List.Trees.size()) {
    Tree *T = List.Trees[List.Head];
    if (T->shareAvailable())
      return T;
    ++List.Head;
  }
  return nullptr;
}

SubtreeShare *SubtreeRegistry::assignShare(Tree *T) {
  if (T->share() != nullptr)
    return T->share();
  SubtreeShare *&Slot = Shares[T->structureHash()];
  if (Slot == nullptr) {
    Arena.emplace_back();
    Slot = &Arena.back();
  }
  T->setShare(Slot);
  Shared.push_back(T);
  return Slot;
}

SubtreeShare *SubtreeRegistry::assignShareAndRegisterTree(Tree *T) {
  SubtreeShare *Share = assignShare(T);
  Share->registerAvailableTree(T);
  return Share;
}
