//===- corpus/Sketch.cpp - Editable tree sketches --------------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Sketch.h"

#include <cassert>

using namespace truediff;
using namespace truediff::corpus;

TreeSketch TreeSketch::of(const Tree *T) {
  TreeSketch S;
  S.Tag = T->tag();
  S.Lits.assign(T->lits().begin(), T->lits().end());
  S.Kids.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    S.Kids.push_back(TreeSketch::of(T->kid(I)));
  return S;
}

Tree *TreeSketch::build(TreeContext &Ctx) const {
  std::vector<Tree *> Built;
  Built.reserve(Kids.size());
  for (const TreeSketch &Kid : Kids)
    Built.push_back(Kid.build(Ctx));
  return Ctx.make(Tag, std::move(Built), Lits);
}

void TreeSketch::foreach(const std::function<void(TreeSketch &)> &Fn) {
  Fn(*this);
  for (TreeSketch &Kid : Kids)
    Kid.foreach(Fn);
}

std::vector<TreeSketch>
truediff::corpus::listToVector(const SignatureTable &Sig,
                               const TreeSketch &List) {
  std::vector<TreeSketch> Out;
  const TreeSketch *Cur = &List;
  while (Cur->Kids.size() == 2 &&
         Sig.name(Cur->Tag).ends_with("Cons")) {
    Out.push_back(Cur->Kids[0]);
    Cur = &Cur->Kids[1];
  }
  return Out;
}

TreeSketch truediff::corpus::vectorToList(const SignatureTable &Sig,
                                          std::string_view ConsTag,
                                          std::string_view NilTag,
                                          std::vector<TreeSketch> Elements) {
  TreeSketch List;
  List.Tag = Sig.lookup(NilTag);
  assert(List.Tag != InvalidSymbol);
  TagId Cons = Sig.lookup(ConsTag);
  assert(Cons != InvalidSymbol);
  for (size_t I = Elements.size(); I-- > 0;) {
    TreeSketch Node;
    Node.Tag = Cons;
    Node.Kids.push_back(std::move(Elements[I]));
    Node.Kids.push_back(std::move(List));
    List = std::move(Node);
  }
  return List;
}
