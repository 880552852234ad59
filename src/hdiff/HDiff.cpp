//===- hdiff/HDiff.cpp - hdiff-style typed pattern diffing -----------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hdiff/HDiff.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_set>

using namespace truediff;
using namespace truediff::hdiff;

namespace {

void forEachConst(const Tree *T, const std::function<void(const Tree *)> &Fn) {
  Fn(T);
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    forEachConst(T->kid(I), Fn);
}

size_t countCtors(const PatchNode *N) {
  if (N->IsMetaVar)
    return 0;
  size_t Count = 1;
  for (const PatchNode *Kid : N->Kids)
    Count += countCtors(Kid);
  return Count;
}

void collectVars(const PatchNode *N, std::unordered_set<int> &Vars) {
  if (N->IsMetaVar) {
    Vars.insert(N->Var);
    return;
  }
  for (const PatchNode *Kid : N->Kids)
    collectVars(Kid, Vars);
}

std::string nodeToString(const SignatureTable &Sig, const PatchNode *N) {
  if (N->IsMetaVar) {
    std::string Var = "#";
    Var += std::to_string(N->Var);
    return Var;
  }
  std::string Out = "(";
  Out += Sig.name(N->Tag);
  for (const PatchNode *Kid : N->Kids) {
    Out += ' ';
    Out += nodeToString(Sig, Kid);
  }
  for (const Literal &L : N->Lits) {
    Out += ' ';
    Out += L.toString();
  }
  Out += ')';
  return Out;
}

} // namespace

size_t HDiffPatch::numConstructors() const {
  return countCtors(Deletion) + countCtors(Insertion);
}

std::string HDiffPatch::toString(const SignatureTable &Sig) const {
  return nodeToString(Sig, Deletion) + " ~> " + nodeToString(Sig, Insertion);
}

PatchNode *HDiff::makeVar(int Var) {
  Arena.emplace_back();
  PatchNode *N = &Arena.back();
  N->IsMetaVar = true;
  N->Var = Var;
  return N;
}

PatchNode *HDiff::makeCtor(const Tree *T, std::vector<PatchNode *> Kids) {
  Arena.emplace_back();
  PatchNode *N = &Arena.back();
  N->Tag = T->tag();
  N->Kids = std::move(Kids);
  N->Lits.assign(T->lits().begin(), T->lits().end());
  return N;
}

PatchNode *HDiff::extract(const Tree *T) {
  if (T->height() >= Opts.MinSharedHeight) {
    auto It = Shared.find(keyOf(T));
    if (It != Shared.end())
      return makeVar(It->second.Var);
  }
  std::vector<PatchNode *> Kids;
  Kids.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Kids.push_back(extract(T->kid(I)));
  return makeCtor(T, std::move(Kids));
}

PatchNode *HDiff::extractOneLevel(const Tree *T) {
  std::vector<PatchNode *> Kids;
  Kids.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Kids.push_back(extract(T->kid(I)));
  return makeCtor(T, std::move(Kids));
}

PatchNode *HDiff::copyNode(const PatchNode *N) {
  if (N->IsMetaVar)
    return makeVar(N->Var);
  Arena.emplace_back();
  PatchNode *Copy = &Arena.back();
  Copy->Tag = N->Tag;
  Copy->Lits = N->Lits;
  Copy->Kids.reserve(N->Kids.size());
  for (const PatchNode *Kid : N->Kids)
    Copy->Kids.push_back(copyNode(Kid));
  return Copy;
}

PatchNode *HDiff::substVar(PatchNode *N, int Var,
                           const PatchNode *Replacement) {
  if (N->IsMetaVar)
    return N->Var == Var ? copyNode(Replacement) : N;
  for (PatchNode *&Kid : N->Kids)
    Kid = substVar(Kid, Var, Replacement);
  return N;
}

void HDiff::close(HDiffPatch &Patch) {
  // Variable -> representative source tree, for expansion.
  std::unordered_map<int, const Tree *> ReprOf;
  for (const auto &[Key, Entry] : Shared)
    ReprOf.emplace(Entry.Var, Entry.Repr);

  for (;;) {
    std::unordered_set<int> Bound, Used;
    collectVars(Patch.Deletion, Bound);
    collectVars(Patch.Insertion, Used);
    std::unordered_set<int> Missing;
    for (int V : Used)
      if (!Bound.count(V))
        Missing.insert(V);
    if (Missing.empty())
      return;

    // Find a bound variable whose tree hides an occurrence of a missing
    // variable's tree, and expand it one constructor level on both sides.
    int Expand = -1;
    for (int W : Bound) {
      const Tree *Repr = ReprOf.at(W);
      bool Hides = false;
      forEachConst(Repr, [&](const Tree *Sub) {
        if (Sub == Repr || Sub->height() < Opts.MinSharedHeight)
          return;
        auto It = Shared.find(keyOf(Sub));
        if (It != Shared.end() && Missing.count(It->second.Var))
          Hides = true;
      });
      if (Hides) {
        Expand = W;
        break;
      }
    }
    assert(Expand >= 0 && "missing variable not hidden in any bound one");
    if (Expand < 0)
      return; // defensive: give up closure; apply() may then fail

    PatchNode *Replacement = extractOneLevel(ReprOf.at(Expand));
    Patch.Deletion = substVar(Patch.Deletion, Expand, Replacement);
    Patch.Insertion = substVar(Patch.Insertion, Expand, Replacement);
  }
}

HDiffPatch HDiff::diff(const Tree *Src, const Tree *Dst) {
  Shared.clear();
  NextVar = 0;

  // Sharing map: subtrees (of sufficient height) occurring in both trees
  // get a metavariable; equality is hash equality, as in truediff.
  std::unordered_map<TreeKey, const Tree *, TreeKeyHash> SrcOcc;
  forEachConst(Src, [&](const Tree *T) {
    if (T->height() >= Opts.MinSharedHeight)
      SrcOcc.emplace(keyOf(T), T);
  });
  forEachConst(Dst, [&](const Tree *T) {
    if (T->height() < Opts.MinSharedHeight)
      return;
    auto It = SrcOcc.find(keyOf(T));
    if (It != SrcOcc.end() && !Shared.count(It->first))
      Shared.emplace(It->first, SharedEntry{NextVar++, It->second});
  });

  HDiffPatch Patch;
  Patch.Deletion = extract(Src);
  Patch.Insertion = extract(Dst);
  close(Patch);
  return Patch;
}

bool HDiff::match(const PatchNode *Pattern, const Tree *T,
                  std::unordered_map<int, const Tree *> &Bindings) const {
  if (Pattern->IsMetaVar) {
    auto [It, Inserted] = Bindings.emplace(Pattern->Var, T);
    if (Inserted)
      return true;
    // Repeated variable: occurrences must bind equal trees.
    return It->second->structureHash() == T->structureHash() &&
           It->second->literalHash() == T->literalHash();
  }
  if (Pattern->Tag != T->tag() || Pattern->Kids.size() != T->arity() ||
      !std::ranges::equal(Pattern->Lits, T->lits()))
    return false;
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    if (!match(Pattern->Kids[I], T->kid(I), Bindings))
      return false;
  return true;
}

Tree *HDiff::instantiate(
    const PatchNode *Template,
    const std::unordered_map<int, const Tree *> &Bindings) {
  if (Template->IsMetaVar) {
    auto It = Bindings.find(Template->Var);
    if (It == Bindings.end())
      return nullptr; // unbound variable: closure failed
    return Ctx.deepCopy(It->second);
  }
  std::vector<Tree *> Kids;
  Kids.reserve(Template->Kids.size());
  for (const PatchNode *Kid : Template->Kids) {
    Tree *NewKid = instantiate(Kid, Bindings);
    if (NewKid == nullptr)
      return nullptr;
    Kids.push_back(NewKid);
  }
  return Ctx.make(Template->Tag, std::move(Kids), Template->Lits);
}

Tree *HDiff::apply(const HDiffPatch &Patch, const Tree *T) {
  std::unordered_map<int, const Tree *> Bindings;
  if (!match(Patch.Deletion, T, Bindings))
    return nullptr;
  return instantiate(Patch.Insertion, Bindings);
}
