//===- tree/Builder.cpp - Checked streaming tree construction --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/Builder.h"

#include <cassert>

using namespace truediff;

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

bool Admission::refuse(ParseFail Why, std::string What) {
  if (Fail == ParseFail::None) {
    Fail = Why;
    Message = std::move(What);
  }
  return false;
}

bool Admission::depth(uint64_t Depth) {
  if (Limits.MaxDepth != 0 && Depth > Limits.MaxDepth)
    return refuse(ParseFail::TooDeep,
                  "input nesting exceeds the depth cap of " +
                      std::to_string(Limits.MaxDepth));
  return true;
}

bool Admission::nodes(uint64_t Nodes) {
  if (Limits.MaxNodes != 0 && Nodes > Limits.MaxNodes)
    return refuse(ParseFail::TooLarge, "input exceeds the node cap of " +
                                           std::to_string(Limits.MaxNodes) +
                                           " nodes");
  if (Ctx.overBudget())
    return refuse(ParseFail::OverBudget,
                  "memory budget exhausted while parsing input");
  return true;
}

//===----------------------------------------------------------------------===//
// CheckedBuilder::UriSet
//===----------------------------------------------------------------------===//

bool CheckedBuilder::UriSet::insert(URI Uri) {
  if (Uri == NullURI) {
    bool Fresh = !HasNull;
    HasNull = true;
    return Fresh;
  }
  if (2 * (Count + 1) > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  // Fibonacci hashing: the top bits of the product spread the dense,
  // sequential URIs of a real tree evenly over the table.
  for (size_t I = (Uri * 0x9E3779B97F4A7C15ull) >> Shift;; I = (I + 1) & Mask) {
    if (Slots[I] == Uri)
      return false;
    if (Slots[I] == NullURI) {
      Slots[I] = Uri;
      ++Count;
      return true;
    }
  }
}

void CheckedBuilder::UriSet::grow() {
  std::vector<URI> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 64 : 2 * Old.size(), NullURI);
  Shift = 64 - static_cast<unsigned>(__builtin_ctzll(Slots.size()));
  Count = 0;
  for (URI Uri : Old)
    if (Uri != NullURI)
      insert(Uri);
}

//===----------------------------------------------------------------------===//
// CheckedBuilder
//===----------------------------------------------------------------------===//

bool CheckedBuilder::refuse(Check Why, TagId Tag) {
  if (Failed == Check::None) {
    Failed = Why;
    FailTag = Tag;
  }
  return false;
}

bool CheckedBuilder::admitLevel() {
  return Adm.depth(Stack.size() + 1) || refuse(Check::Admission);
}

bool CheckedBuilder::open(TagId Tag) {
  assert(wantsNode() && "open() while the innermost node expects no kid");
  if (!admitLevel())
    return false;
  const TagSignature *TagSig = Sig.findSignature(Tag);
  if (TagSig == nullptr)
    return refuse(Check::UnknownTag, Tag);
  if (!Stack.empty())
    ++Stack.back().NextKid;
  Stack.push_back({Tag, NullURI, TagSig, 0});
  return true;
}

bool CheckedBuilder::open(TagId Tag, URI Uri) {
  if (!open(Tag))
    return false;
  if (!Uris.insert(Uri))
    return refuse(Check::DuplicateUri, Tag);
  Stack.back().Uri = Uri;
  return true;
}

bool CheckedBuilder::kidCount(uint64_t N) {
  return N == Stack.back().Sig->Kids.size() || refuse(Check::KidCount);
}

bool CheckedBuilder::litCount(uint64_t N) {
  return N == Stack.back().Sig->Lits.size() || refuse(Check::LitCount);
}

bool CheckedBuilder::lit(Literal L) {
  const std::vector<LitSpec> &Specs = Stack.back().Sig->Lits;
  assert(Lits.size() < Specs.size() && "more literals than the signature");
  if (L.kind() != Specs[Lits.size()].Kind)
    return refuse(Check::LitKind);
  Lits.push_back(std::move(L));
  return true;
}

Tree *CheckedBuilder::close() {
  assert(!wantsNode() && !done() && "close() before the node's kids");
  Frame F = Stack.back();
  assert(Lits.size() == F.Sig->Lits.size() && "close() before every literal");
  if (!Adm.nodes(Made + 1)) {
    refuse(Check::Admission);
    return nullptr;
  }
  Stack.pop_back();
  ++Made;
  size_t Arity = F.Sig->Kids.size();
  Tree *const *Kids = Done.data() + Done.size() - Arity;
  // Built derive-dirty and derived in chunks; the last chunk when the
  // root closes. The literals move into the arena, and Lits keeps its
  // buffer for the next node.
  Tree *Node = Ctx.adoptWithUri(F.Tag, KeepUris ? F.Uri : Ctx.peekNextUri(),
                                Kids, Arity, Lits,
                                TreeContext::Derive::Deferred);
  Lits.clear();
  Derive.add(Node);
  Done.resize(Done.size() - Arity);
  if (!Stack.empty()) {
    const Frame &Parent = Stack.back();
    if (!Sig.isSubsort(F.Sig->Result,
                       Parent.Sig->Kids[Parent.NextKid - 1].Sort)) {
      refuse(Check::KidSort, Parent.Tag);
      return nullptr;
    }
  } else {
    Derive.finish();
  }
  Done.push_back(Node);
  return Node;
}

ParseFail CheckedBuilder::parseFail() const {
  switch (Failed) {
  case Check::None:
    return ParseFail::None;
  case Check::Admission:
    return Adm.fail();
  default:
    return ParseFail::Syntax;
  }
}

std::string CheckedBuilder::error() const {
  switch (Failed) {
  case Check::None:
    return std::string();
  case Check::Admission:
    return Adm.message();
  case Check::UnknownTag:
    return "node symbol is not a constructor tag";
  case Check::DuplicateUri:
    return "duplicate URI in tree";
  case Check::KidCount:
    return "kid count does not match tag signature";
  case Check::LitCount:
    return "literal count does not match tag signature";
  case Check::LitKind:
    return "literal kind does not match tag signature";
  case Check::KidSort:
    return "kid sort does not match slot sort";
  }
  return std::string();
}
