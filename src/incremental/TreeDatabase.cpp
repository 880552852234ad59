//===- incremental/TreeDatabase.cpp - Edit-driven tree database ------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "incremental/TreeDatabase.h"

#include "tree/Tree.h"

#include <functional>

using namespace truediff;
using namespace truediff::incremental;

void TreeDatabase::link(URI Parent, LinkId Link, URI Child) {
  if (Mode == IndexMode::OneToOne)
    One[Link].put(Parent, Child);
  else
    Many[Link].put(Child, Parent);
}

void TreeDatabase::unlink(URI Parent, LinkId Link, URI Child) {
  if (Mode == IndexMode::OneToOne)
    One[Link].eraseKey(Parent);
  else
    Many[Link].eraseKey(Child);
}

void TreeDatabase::initEmpty() {
  NodeRow Root;
  Root.Tag = Sig.rootTag();
  Nodes.emplace(NullURI, Root);
}

void TreeDatabase::initFromTree(const Tree *T) {
  // Row for the pre-defined root, then the tree below RootLink.
  initEmpty();
  link(NullURI, Sig.rootLink(), T->uri());

  std::function<void(const Tree *)> Walk = [&](const Tree *Node) {
    const TagSignature &TagSig = Sig.signature(Node->tag());
    NodeRow Row;
    Row.Tag = Node->tag();
    for (size_t I = 0, E = Node->numLits(); I != E; ++I)
      Row.Lits.push_back(LitRef{TagSig.Lits[I].Link, Node->lit(I)});
    Nodes.emplace(Node->uri(), std::move(Row));
    for (size_t I = 0, E = Node->arity(); I != E; ++I) {
      link(Node->uri(), TagSig.Kids[I].Link, Node->kid(I)->uri());
      Walk(Node->kid(I));
    }
  };
  Walk(T);
}

void TreeDatabase::applyEdit(const Edit &E) {
  switch (E.Kind) {
  case EditKind::Detach:
    unlink(E.Parent.Uri, E.Link, E.Node.Uri);
    break;
  case EditKind::Attach:
    link(E.Parent.Uri, E.Link, E.Node.Uri);
    break;
  case EditKind::Load: {
    NodeRow Row;
    Row.Tag = E.Node.Tag;
    Row.Lits = E.Lits;
    Nodes.emplace(E.Node.Uri, std::move(Row));
    for (const KidRef &Kid : E.Kids)
      link(E.Node.Uri, Kid.Link, Kid.Uri);
    break;
  }
  case EditKind::Unload:
    for (const KidRef &Kid : E.Kids)
      unlink(E.Node.Uri, Kid.Link, Kid.Uri);
    Nodes.erase(E.Node.Uri);
    break;
  case EditKind::Update: {
    auto It = Nodes.find(E.Node.Uri);
    if (It != Nodes.end())
      It->second.Lits = E.Lits;
    break;
  }
  }
}

void TreeDatabase::applyScript(const EditScript &Script) {
  for (const Edit &E : Script.edits())
    applyEdit(E);
}

const NodeRow *TreeDatabase::node(URI Uri) const {
  auto It = Nodes.find(Uri);
  return It == Nodes.end() ? nullptr : &It->second;
}

std::optional<URI> TreeDatabase::childOf(URI Parent, LinkId Link) const {
  if (Mode == IndexMode::OneToOne) {
    auto It = One.find(Link);
    return It == One.end() ? std::nullopt : It->second.get(Parent);
  }
  auto It = Many.find(Link);
  if (It == Many.end())
    return std::nullopt;
  const std::set<URI> *Kids = It->second.getReverse(Parent);
  if (Kids == nullptr || Kids->empty())
    return std::nullopt;
  // Well-typed scripts keep this set at size <= 1.
  return *Kids->begin();
}

std::optional<URI> TreeDatabase::parentOf(URI Child) const {
  if (Mode == IndexMode::OneToOne) {
    for (const auto &[Link, Index] : One)
      if (auto Parent = Index.getReverse(Child))
        return Parent;
    return std::nullopt;
  }
  for (const auto &[Link, Index] : Many)
    if (auto Parent = Index.get(Child))
      return Parent;
  return std::nullopt;
}

std::vector<URI> TreeDatabase::childrenOf(URI Parent) const {
  std::vector<URI> Out;
  const NodeRow *Row = node(Parent);
  if (Row == nullptr || !Sig.hasTag(Row->Tag))
    return Out;
  for (const KidSpec &Spec : Sig.signature(Row->Tag).Kids)
    if (auto Kid = childOf(Parent, Spec.Link))
      Out.push_back(*Kid);
  return Out;
}
