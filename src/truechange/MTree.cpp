//===- truechange/MTree.cpp - Standard semantics of edit scripts -----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/MTree.h"

#include <cassert>
#include <charconv>
#include <string_view>

using namespace truediff;

MTree::MTree(const SignatureTable &Sig) : Sig(Sig) {
  Arena.emplace_back();
  Root = &Arena.back();
  Root->Tag = Sig.rootTag();
  Root->Uri = NullURI;
  Root->Kids.emplace(Sig.rootLink(), nullptr);
  Index.emplace(NullURI, Root);
}

MTree MTree::fromTree(const SignatureTable &Sig, const Tree *T) {
  MTree M(Sig);
  if (T == nullptr)
    return M;
  M.Index.reserve(T->size() + 1);
  // Pre-order with an explicit stack (kids pushed in reverse, so they are
  // built in signature order): stack-safe on chains as deep as admission
  // allows.
  struct Pending {
    MNode *Parent;
    LinkId Link;
    const Tree *Src;
  };
  std::vector<Pending> Stack{{M.Root, Sig.rootLink(), T}};
  while (!Stack.empty()) {
    Pending P = Stack.back();
    Stack.pop_back();
    M.Arena.emplace_back();
    MNode *N = &M.Arena.back();
    N->Tag = P.Src->tag();
    N->Uri = P.Src->uri();
    P.Parent->Kids[P.Link] = N;
    assert(!M.Index.count(N->Uri) && "URIs must be unique");
    M.Index.emplace(N->Uri, N);

    const TagSignature &TagSig = Sig.signature(N->Tag);
    for (size_t I = 0, E = P.Src->numLits(); I != E; ++I)
      N->Lits.emplace(TagSig.Lits[I].Link, P.Src->lit(I));
    for (size_t I = P.Src->arity(); I != 0; --I)
      Stack.push_back({N, TagSig.Kids[I - 1].Link, P.Src->kid(I - 1)});
  }
  return M;
}

const MNode *MTree::lookup(URI Uri) const {
  auto It = Index.find(Uri);
  return It == Index.end() ? nullptr : It->second;
}

const MNode *MTree::top() const {
  auto It = Root->Kids.find(Sig.rootLink());
  return It == Root->Kids.end() ? nullptr : It->second;
}

MTree::PatchResult MTree::processEdit(const Edit &E, size_t Index0) {
  auto Fail = [&](std::string Message) {
    PatchResult R;
    R.Ok = false;
    R.ErrorIndex = Index0;
    R.Error = E.toString(Sig) + ": " + std::move(Message);
    return R;
  };

  switch (E.Kind) {
  case EditKind::Detach: {
    auto It = Index.find(E.Parent.Uri);
    if (It == Index.end())
      return Fail("parent not in index");
    It->second->Kids[E.Link] = nullptr;
    return PatchResult();
  }
  case EditKind::Attach: {
    auto ParentIt = Index.find(E.Parent.Uri);
    if (ParentIt == Index.end())
      return Fail("parent not in index");
    auto NodeIt = Index.find(E.Node.Uri);
    if (NodeIt == Index.end())
      return Fail("node not in index");
    ParentIt->second->Kids[E.Link] = NodeIt->second;
    return PatchResult();
  }
  case EditKind::Load: {
    Arena.emplace_back();
    MNode *N = &Arena.back();
    N->Tag = E.Node.Tag;
    N->Uri = E.Node.Uri;
    for (const KidRef &Kid : E.Kids) {
      auto It = Index.find(Kid.Uri);
      if (It == Index.end()) {
        Arena.pop_back();
        return Fail("kid " + std::to_string(Kid.Uri) + " not in index");
      }
      N->Kids.emplace(Kid.Link, It->second);
    }
    for (const LitRef &Lit : E.Lits)
      N->Lits.emplace(Lit.Link, Lit.Value);
    if (!Index.emplace(E.Node.Uri, N).second) {
      Arena.pop_back();
      return Fail("URI already loaded");
    }
    return PatchResult();
  }
  case EditKind::Unload: {
    if (Index.erase(E.Node.Uri) == 0)
      return Fail("node not in index");
    return PatchResult();
  }
  case EditKind::Update: {
    auto It = Index.find(E.Node.Uri);
    if (It == Index.end())
      return Fail("node not in index");
    for (const LitRef &Lit : E.Lits)
      It->second->Lits[Lit.Link] = Lit.Value;
    return PatchResult();
  }
  }
  return Fail("unknown edit kind");
}

MTree::PatchResult MTree::checkCompliance(const Edit &E, size_t Index0) const {
  auto Fail = [&](std::string Message) {
    PatchResult R;
    R.Ok = false;
    R.ErrorIndex = Index0;
    R.Error = E.toString(Sig) + ": non-compliant: " + std::move(Message);
    return R;
  };

  switch (E.Kind) {
  case EditKind::Detach: {
    // Definition 3.5 (1): the parent exists, has the claimed tag, and its
    // link currently holds the claimed node.
    const MNode *P = lookup(E.Parent.Uri);
    if (P == nullptr)
      return Fail("parent not loaded");
    if (P->Tag != E.Parent.Tag)
      return Fail("parent tag mismatch");
    auto It = P->Kids.find(E.Link);
    if (It == P->Kids.end() || It->second == nullptr)
      return Fail("link is not filled");
    if (It->second->Uri != E.Node.Uri || It->second->Tag != E.Node.Tag)
      return Fail("link holds a different node");
    return PatchResult();
  }
  case EditKind::Attach:
    // Definition 3.5 (2): ensured by the type system, nothing to check.
    return PatchResult();
  case EditKind::Load:
    // Definition 3.5 (3): the URI is fresh. Later loads of the same URI
    // fail here too because patching interleaves with these checks.
    if (lookup(E.Node.Uri) != nullptr)
      return Fail("URI is not fresh");
    return PatchResult();
  case EditKind::Unload: {
    // Definition 3.5 (4): the node exists with the claimed tag, kids, and
    // literals.
    const MNode *N = lookup(E.Node.Uri);
    if (N == nullptr)
      return Fail("node not loaded");
    if (N->Tag != E.Node.Tag)
      return Fail("tag mismatch");
    for (const KidRef &Kid : E.Kids) {
      auto It = N->Kids.find(Kid.Link);
      if (It == N->Kids.end() || It->second == nullptr ||
          It->second->Uri != Kid.Uri)
        return Fail("kid list disagrees with tree");
    }
    for (const LitRef &Lit : E.Lits) {
      auto It = N->Lits.find(Lit.Link);
      if (It == N->Lits.end() || !(It->second == Lit.Value))
        return Fail("literal list disagrees with tree");
    }
    return PatchResult();
  }
  case EditKind::Update: {
    const MNode *N = lookup(E.Node.Uri);
    if (N == nullptr)
      return Fail("node not loaded");
    if (N->Tag != E.Node.Tag)
      return Fail("tag mismatch");
    for (const LitRef &Lit : E.OldLits) {
      auto It = N->Lits.find(Lit.Link);
      if (It == N->Lits.end() || !(It->second == Lit.Value))
        return Fail("old literals disagree with tree");
    }
    return PatchResult();
  }
  }
  return Fail("unknown edit kind");
}

MTree::PatchResult MTree::patch(const EditScript &Script) {
  for (size_t I = 0, E = Script.size(); I != E; ++I) {
    PatchResult R = processEdit(Script[I], I);
    if (!R.Ok)
      return R;
  }
  PatchResult Done;
  Done.TouchedUris = Script.touchedUris();
  return Done;
}

MTree::PatchResult MTree::patchChecked(const EditScript &Script) {
  for (size_t I = 0, E = Script.size(); I != E; ++I) {
    PatchResult R = checkCompliance(Script[I], I);
    if (!R.Ok)
      return R;
    R = processEdit(Script[I], I);
    if (!R.Ok)
      return R;
  }
  PatchResult Done;
  Done.TouchedUris = Script.touchedUris();
  return Done;
}

bool MTree::equalsTree(const Tree *T) const {
  std::vector<std::pair<const MNode *, const Tree *>> Stack{{top(), T}};
  while (!Stack.empty()) {
    auto [N, U] = Stack.back();
    Stack.pop_back();
    if (N == nullptr || U == nullptr) {
      if ((N == nullptr) != (U == nullptr))
        return false;
      continue;
    }
    if (N->Tag != U->tag())
      return false;
    const TagSignature &TagSig = Sig.signature(U->tag());
    if (N->Kids.size() != TagSig.Kids.size() ||
        N->Lits.size() != TagSig.Lits.size())
      return false;
    for (size_t I = 0, E = U->numLits(); I != E; ++I) {
      auto It = N->Lits.find(TagSig.Lits[I].Link);
      if (It == N->Lits.end() || !(It->second == U->lit(I)))
        return false;
    }
    for (size_t I = 0, E = U->arity(); I != E; ++I) {
      auto It = N->Kids.find(TagSig.Kids[I].Link);
      if (It == N->Kids.end())
        return false;
      Stack.emplace_back(It->second, U->kid(I));
    }
  }
  return true;
}

/// The one traversal behind toString and isClosedWellFormed: depth first
/// from top(), kids in signature order, with an explicit stack, so chains
/// as deep as admission allows cannot overflow the thread stack. For each
/// slot it calls V.hole(IsTop) if the slot is empty or absent,
/// V.unknownTag(N, IsTop) if the node's tag has no signature (its kids are
/// not visited), and otherwise V.enter(N, TagSig, IsTop) before the node's
/// kids and V.leave(N, TagSig) after them. A callback returning false
/// stops the walk, which then returns false.
template <typename Visitor> bool MTree::walk(Visitor &V) const {
  struct Frame {
    const MNode *N;
    const TagSignature *TagSig;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Visit = [&](const MNode *N, bool IsTop) {
    if (N == nullptr)
      return V.hole(IsTop);
    const TagSignature *TagSig = Sig.findSignature(N->Tag);
    if (TagSig == nullptr)
      return V.unknownTag(*N, IsTop);
    if (!V.enter(*N, *TagSig, IsTop))
      return false;
    Stack.push_back({N, TagSig, 0});
    return true;
  };
  if (!Visit(top(), /*IsTop=*/true))
    return false;
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextKid == F.TagSig->Kids.size()) {
      Frame Done = F;
      Stack.pop_back();
      if (!V.leave(*Done.N, *Done.TagSig))
        return false;
      continue;
    }
    auto It = F.N->Kids.find(F.TagSig->Kids[F.NextKid++].Link);
    if (!Visit(It == F.N->Kids.end() ? nullptr : It->second, false))
      return false;
  }
  return true;
}

namespace {

/// Checks the tree as the walk goes, or writes its printSExprWithUris
/// form. Without a sink (isClosedWellFormed), it fails on an empty slot,
/// an unknown tag, an absent or mistyped literal, or more reachable nodes
/// than the index holds (failing as soon as there are more also ends the
/// walk on a cycle; the caller checks for fewer). With one (toString), it
/// writes to Out and marks the defects instead.
struct SExprWriter {
  const SignatureTable &Sig;
  std::string *Out;
  /// Index size minus the root: the most nodes a closed tree can reach.
  size_t MaxNodes;
  uint64_t Nodes = 0;

  /// A defect in place of a node: fails a check, marked in a print.
  bool defect(bool IsTop, std::string_view Marker) {
    if (Out == nullptr)
      return false;
    if (!IsTop)
      Out->push_back(' ');
    Out->append(Marker);
    return true;
  }
  bool hole(bool IsTop) { return defect(IsTop, "<hole>"); }
  bool unknownTag(const MNode &, bool IsTop) {
    return defect(IsTop, "<unknown>");
  }

  bool enter(const MNode &N, const TagSignature &, bool IsTop) {
    if (Out == nullptr)
      return ++Nodes <= MaxNodes;
    if (!IsTop)
      Out->push_back(' ');
    Out->push_back('(');
    Out->append(Sig.name(N.Tag));
    char Buf[24];
    Buf[0] = '_';
    char *End = std::to_chars(Buf + 1, Buf + sizeof(Buf), N.Uri).ptr;
    Out->append(Buf, End);
    return true;
  }

  bool leave(const MNode &N, const TagSignature &TagSig) {
    for (const LitSpec &Spec : TagSig.Lits) {
      auto It = N.Lits.find(Spec.Link);
      bool Present = It != N.Lits.end();
      if (Out == nullptr) {
        if (!Present || It->second.kind() != Spec.Kind)
          return false;
        continue;
      }
      Out->push_back(' ');
      Out->append(Present ? It->second.toString() : "<missing>");
    }
    if (Out != nullptr)
      Out->push_back(')');
    return true;
  }
};

} // namespace

bool MTree::isClosedWellFormed() const {
  if (Index.empty())
    return false; // even the root was unloaded
  size_t MaxNodes = Index.size() - 1;
  SExprWriter W{Sig, nullptr, MaxNodes};
  // No leaked roots: the index holds exactly the reachable nodes.
  return walk(W) && W.Nodes == MaxNodes;
}

std::string MTree::toString() const {
  std::string Out;
  SExprWriter W{Sig, &Out, 0};
  walk(W);
  return Out;
}
