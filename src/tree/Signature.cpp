//===- tree/Signature.cpp - Tag signatures and subtyping -------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/Signature.h"

#include <cassert>
#include <deque>

using namespace truediff;

int TagSignature::kidIndex(LinkId Link) const {
  for (size_t I = 0, E = Kids.size(); I != E; ++I)
    if (Kids[I].Link == Link)
      return static_cast<int>(I);
  return -1;
}

int TagSignature::litIndex(LinkId Link) const {
  for (size_t I = 0, E = Lits.size(); I != E; ++I)
    if (Lits[I].Link == Link)
      return static_cast<int>(I);
  return -1;
}

SignatureTable::SignatureTable() {
  Any = Symbols.intern("Any");
  Root = Symbols.intern("Root");
  RootLinkId = Symbols.intern("RootLink");
  RootTagId = Symbols.intern("RootTag");

  TagSignature RootSig;
  RootSig.Tag = RootTagId;
  RootSig.Result = Root;
  RootSig.Kids.push_back(KidSpec{RootLinkId, Any});
  Tags.emplace(RootTagId, std::move(RootSig));
}

SortId SignatureTable::sort(std::string_view Name) {
  return Symbols.intern(Name);
}

void SignatureTable::declareSubsort(SortId Sub, SortId Super) {
  assert(Sub != InvalidSymbol && Super != InvalidSymbol);
  SubsortEdges[Sub].insert(Super);
}

bool SignatureTable::isSubsort(SortId Sub, SortId Super) const {
  if (Sub == Super || Super == Any)
    return true;
  // BFS over declared edges; the relation is small (one entry per sort).
  std::deque<SortId> Work{Sub};
  std::unordered_set<SortId> Seen{Sub};
  while (!Work.empty()) {
    SortId Cur = Work.front();
    Work.pop_front();
    auto It = SubsortEdges.find(Cur);
    if (It == SubsortEdges.end())
      continue;
    for (SortId Next : It->second) {
      if (Next == Super)
        return true;
      if (Seen.insert(Next).second)
        Work.push_back(Next);
    }
  }
  return false;
}

TagId SignatureTable::defineTag(
    std::string_view Name, std::string_view ResultSort,
    std::vector<std::pair<std::string, std::string>> Kids,
    std::vector<std::pair<std::string, LitKind>> Lits) {
  TagId Tag = Symbols.intern(Name);
  assert(!Tags.count(Tag) && "tag defined twice");

  TagSignature Sig;
  Sig.Tag = Tag;
  Sig.Result = sort(ResultSort);
  for (auto &[LinkName, SortName] : Kids)
    Sig.Kids.push_back(KidSpec{Symbols.intern(LinkName), sort(SortName)});
  for (auto &[LinkName, Kind] : Lits)
    Sig.Lits.push_back(LitSpec{Symbols.intern(LinkName), Kind});

  Tags.emplace(Tag, std::move(Sig));
  return Tag;
}

const TagSignature &SignatureTable::signature(TagId Tag) const {
  auto It = Tags.find(Tag);
  assert(It != Tags.end() && "tag has no signature");
  return It->second;
}
