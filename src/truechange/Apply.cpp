//===- truechange/Apply.cpp - Checked in-place script application ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/Apply.h"

#include "truechange/TypeChecker.h"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace truediff;

namespace {

/// Where a live node sits: under Parent at kid index Slot, in the
/// document's root slot, or nowhere (an unattached root of the script).
struct Place {
  Tree *Node;
  Tree *Parent;
  uint32_t Slot;
};

constexpr uint32_t InRootSlot = UINT32_MAX - 1;
constexpr uint32_t Unattached = UINT32_MAX;

} // namespace

/// Edit-by-edit application of scripts. Detach/Attach rewire kid slots
/// and Update rewrites literals; both are logged so a failure can undo
/// them. Load and Unload only allocate or forget nodes, which the tree
/// does not see until an Attach links them in.
class ScriptApplier::Impl {
public:
  Impl(TreeContext &Ctx, Tree *&Root, Derived Derive)
      : Ctx(Ctx), Sig(Ctx.signatures()), Root(Root), Derive(Derive) {}

  ApplyResult apply(const EditScript &Script);

private:
  /// Indexes the live tree from scratch.
  void buildIndex();

  /// Checks and applies edit \p I; false (with Failure set) if it fails.
  bool apply(const Edit &E, size_t I);

  /// Restores every slot and literal the applied prefix changed.
  void undo();

  /// Marks the touched nodes and their ancestors derived-dirty and
  /// rehashes those paths; returns the number of nodes rehashed.
  uint64_t finish();

  /// The error helpers mirror MTree's messages: a compliance failure is
  /// "<edit>: non-compliant: <why>", an application failure "<edit>: <why>".
  bool fail(const Edit &E, size_t I, const std::string &Message) {
    Failure.Ok = false;
    Failure.ErrorIndex = I;
    Failure.Error = E.toString(Sig) + ": " + Message;
    return false;
  }
  bool nonCompliant(const Edit &E, size_t I, const std::string &Message) {
    return fail(E, I, "non-compliant: " + Message);
  }

  Place *lookup(URI Uri) {
    auto It = Index.find(Uri);
    return It == Index.end() ? nullptr : &It->second;
  }

  /// The node in kid slot \p Slot of \p Parent, null meaning the root slot.
  Tree *slot(Tree *Parent, uint32_t Slot) const {
    return Parent == nullptr ? Root : Parent->kid(Slot);
  }

  void setSlot(Tree *Parent, uint32_t Slot, Tree *Kid) {
    KidLog.push_back({Parent, Slot, slot(Parent, Slot)});
    if (Parent == nullptr)
      Root = Kid;
    else
      Parent->setKid(Slot, Kid);
  }

  /// A kid slot named by an edit: the parent (null for the pre-defined
  /// root) with its actual tag, and the kid index, if the link is one of
  /// the parent's.
  struct SlotRef {
    Tree *Parent;
    TagId ParentTag;
    uint32_t Slot;
    bool HasLink;
  };

  /// Resolves (ParentUri, Link); nullopt if no such parent is loaded.
  std::optional<SlotRef> resolveSlot(URI ParentUri, LinkId Link);

  bool detach(const Edit &E, size_t I);
  bool attach(const Edit &E, size_t I);
  bool load(const Edit &E, size_t I);
  bool unload(const Edit &E, size_t I);
  bool update(const Edit &E, size_t I);

  struct KidWrite {
    Tree *Parent;
    uint32_t Slot;
    Tree *Old;
  };
  struct LitWrite {
    Tree *Node;
    std::vector<Literal> Old;
  };

  TreeContext &Ctx;
  const SignatureTable &Sig;
  Tree *&Root;
  ApplyResult Failure;
  /// Every node a script can name: the live tree plus the script's
  /// unattached roots. The pre-defined root (NullURI) is not in it.
  std::unordered_map<URI, Place> Index;
  /// Index describes the live tree; false before the first script and
  /// after a failed one, whose undo it does not follow.
  bool Indexed = false;
  std::vector<KidWrite> KidLog;
  std::vector<LitWrite> LitLog;
  /// Nodes mutated in place or loaded (EditScript::touchedUris).
  std::vector<Tree *> Touched;
  /// Scratch for load(): the index entries of the node's kids, which stay
  /// put while the index grows.
  std::vector<Place *> KidPlaces;
  const Derived Derive;
};

std::optional<ScriptApplier::Impl::SlotRef>
ScriptApplier::Impl::resolveSlot(URI ParentUri, LinkId Link) {
  if (ParentUri == NullURI)
    return SlotRef{nullptr, Sig.rootTag(), InRootSlot, Link == Sig.rootLink()};
  Place *P = lookup(ParentUri);
  if (P == nullptr)
    return std::nullopt;
  int Index = Sig.signature(P->Node->tag()).kidIndex(Link);
  return SlotRef{P->Node, P->Node->tag(), static_cast<uint32_t>(Index),
                 Index >= 0};
}

bool ScriptApplier::Impl::detach(const Edit &E, size_t I) {
  // Definition 3.5 (1): the parent exists, has the claimed tag, and its
  // link currently holds the claimed node.
  std::optional<SlotRef> S = resolveSlot(E.Parent.Uri, E.Link);
  if (!S)
    return nonCompliant(E, I, "parent not loaded");
  if (S->ParentTag != E.Parent.Tag)
    return nonCompliant(E, I, "parent tag mismatch");
  Tree *Kid = S->HasLink ? slot(S->Parent, S->Slot) : nullptr;
  if (Kid == nullptr)
    return nonCompliant(E, I, "link is not filled");
  if (Kid->uri() != E.Node.Uri || Kid->tag() != E.Node.Tag)
    return nonCompliant(E, I, "link holds a different node");

  setSlot(S->Parent, S->Slot, nullptr);
  Place &KidPlace = Index.at(Kid->uri());
  KidPlace.Parent = nullptr;
  KidPlace.Slot = Unattached;
  if (S->Parent != nullptr)
    Touched.push_back(S->Parent);
  return true;
}

bool ScriptApplier::Impl::attach(const Edit &E, size_t I) {
  // Definition 3.5 (2) holds by typing: the slot was emptied and the node
  // unattached earlier in this script. The lookups are Figure 2's.
  std::optional<SlotRef> S = resolveSlot(E.Parent.Uri, E.Link);
  if (!S)
    return fail(E, I, "parent not in index");
  Place *NodePlace = lookup(E.Node.Uri);
  if (NodePlace == nullptr)
    return fail(E, I, "node not in index");
  if (!S->HasLink || slot(S->Parent, S->Slot) != nullptr ||
      NodePlace->Slot != Unattached)
    return fail(E, I, "slot or node is not free"); // excluded by typing

  setSlot(S->Parent, S->Slot, NodePlace->Node);
  NodePlace->Parent = S->Parent;
  NodePlace->Slot = S->Slot;
  if (S->Parent != nullptr)
    Touched.push_back(S->Parent);
  return true;
}

bool ScriptApplier::Impl::load(const Edit &E, size_t I) {
  // Definition 3.5 (3): the URI is fresh (the pre-defined root never is).
  if (E.Node.Uri == NullURI || lookup(E.Node.Uri) != nullptr)
    return nonCompliant(E, I, "URI is not fresh");
  // Typing matched the kid and literal lists to the signature, one entry
  // per link; place them in signature order.
  const TagSignature &TagSig = Sig.signature(E.Node.Tag);
  size_t Arity = TagSig.Kids.size();
  KidPlaces.assign(Arity, nullptr);
  for (const KidRef &Kid : E.Kids) {
    Place *KidPlace = lookup(Kid.Uri);
    if (KidPlace == nullptr)
      return fail(E, I, "kid " + std::to_string(Kid.Uri) + " not in index");
    KidPlaces[TagSig.kidIndex(Kid.Link)] = KidPlace;
  }
  std::vector<Tree *> Kids(Arity);
  for (size_t K = 0; K != Arity; ++K)
    Kids[K] = KidPlaces[K]->Node;
  std::vector<Literal> Lits(TagSig.Lits.size());
  for (const LitRef &Lit : E.Lits)
    Lits[TagSig.litIndex(Lit.Link)] = Lit.Value;

  Tree *Node =
      Ctx.adoptWithUri(E.Node.Tag, E.Node.Uri, Kids.data(), Arity,
                       std::move(Lits), TreeContext::Derive::Deferred);
  for (size_t K = 0; K != Arity; ++K) {
    KidPlaces[K]->Parent = Node;
    KidPlaces[K]->Slot = static_cast<uint32_t>(K);
  }
  Index.emplace(Node->uri(), Place{Node, nullptr, Unattached});
  Touched.push_back(Node);
  return true;
}

bool ScriptApplier::Impl::unload(const Edit &E, size_t I) {
  // Definition 3.5 (4): the node exists with the claimed tag, kids, and
  // literals. The pre-defined root is never unloaded.
  Place *P = lookup(E.Node.Uri);
  if (P == nullptr)
    return nonCompliant(E, I, "node not loaded");
  Tree *Node = P->Node;
  if (Node->tag() != E.Node.Tag)
    return nonCompliant(E, I, "tag mismatch");
  const TagSignature &TagSig = Sig.signature(Node->tag());
  for (const KidRef &Kid : E.Kids) {
    int K = TagSig.kidIndex(Kid.Link);
    if (K < 0 || Node->kid(K) == nullptr || Node->kid(K)->uri() != Kid.Uri)
      return nonCompliant(E, I, "kid list disagrees with tree");
  }
  for (const LitRef &Lit : E.Lits) {
    int L = TagSig.litIndex(Lit.Link);
    if (L < 0 || !(Node->lit(L) == Lit.Value))
      return nonCompliant(E, I, "literal list disagrees with tree");
  }
  if (P->Slot != Unattached)
    return fail(E, I, "node is attached"); // excluded by typing

  // The node becomes arena garbage; its kids become unattached roots.
  for (uint32_t K = 0, End = Node->arity(); K != End; ++K) {
    Place &KidPlace = Index.at(Node->kid(K)->uri());
    KidPlace.Parent = nullptr;
    KidPlace.Slot = Unattached;
  }
  Index.erase(E.Node.Uri);
  return true;
}

bool ScriptApplier::Impl::update(const Edit &E, size_t I) {
  if (E.Node.Uri == NullURI) {
    // The pre-defined root has no literals: at most a no-op.
    if (E.Node.Tag != Sig.rootTag())
      return nonCompliant(E, I, "tag mismatch");
    if (!E.OldLits.empty())
      return nonCompliant(E, I, "old literals disagree with tree");
    return true;
  }
  Place *P = lookup(E.Node.Uri);
  if (P == nullptr)
    return nonCompliant(E, I, "node not loaded");
  Tree *Node = P->Node;
  if (Node->tag() != E.Node.Tag)
    return nonCompliant(E, I, "tag mismatch");
  const TagSignature &TagSig = Sig.signature(Node->tag());
  for (const LitRef &Lit : E.OldLits) {
    int L = TagSig.litIndex(Lit.Link);
    if (L < 0 || !(Node->lit(L) == Lit.Value))
      return nonCompliant(E, I, "old literals disagree with tree");
  }

  std::vector<Literal> Lits = Node->lits();
  for (const LitRef &Lit : E.Lits)
    Lits[TagSig.litIndex(Lit.Link)] = Lit.Value;
  LitLog.push_back({Node, Node->lits()});
  Node->setLits(std::move(Lits));
  Touched.push_back(Node);
  return true;
}

bool ScriptApplier::Impl::apply(const Edit &E, size_t I) {
  switch (E.Kind) {
  case EditKind::Detach:
    return detach(E, I);
  case EditKind::Attach:
    return attach(E, I);
  case EditKind::Load:
    return load(E, I);
  case EditKind::Unload:
    return unload(E, I);
  case EditKind::Update:
    return update(E, I);
  }
  return fail(E, I, "unknown edit kind");
}

void ScriptApplier::Impl::undo() {
  for (auto It = KidLog.rbegin(); It != KidLog.rend(); ++It) {
    if (It->Parent == nullptr)
      Root = It->Old;
    else
      It->Parent->setKid(It->Slot, It->Old);
  }
  for (auto It = LitLog.rbegin(); It != LitLog.rend(); ++It)
    It->Node->setLits(std::move(It->Old));
}

uint64_t ScriptApplier::Impl::finish() {
  // Every dirty node must have dirty ancestors (rehashDirtyPaths'
  // invariant). The tree starts clean, so each walk may stop at the first
  // dirty ancestor: that one was either marked by an earlier walk, which
  // went on to the root, or is a loaded node, whose own walk does.
  for (Tree *T : Touched) {
    Place *P = lookup(T->uri());
    if (P == nullptr || P->Node != T)
      continue; // unloaded later in the script
    T->markDerivedDirty();
    for (Tree *Up = P->Parent; Up != nullptr && !Up->derivedDirty();
         Up = Index.at(Up->uri()).Parent)
      Up->markDerivedDirty();
  }
  if (Root == nullptr)
    return 0;
  return Root->rehashDirtyPaths(Sig);
}

void ScriptApplier::Impl::buildIndex() {
  Index.clear();
  Indexed = true;
  if (Root == nullptr)
    return;
  Index.reserve(Root->size());
  std::vector<Place> Stack{{Root, nullptr, InRootSlot}};
  while (!Stack.empty()) {
    Place P = Stack.back();
    Stack.pop_back();
    Index.emplace(P.Node->uri(), P);
    for (uint32_t I = 0, E = P.Node->arity(); I != E; ++I)
      Stack.push_back({P.Node->kid(I), P.Node, I});
  }
}

ApplyResult ScriptApplier::Impl::apply(const EditScript &Script) {
  LinearTypeChecker Checker(Sig);
  TypeCheckResult Typed = Root == nullptr ? Checker.checkInitializing(Script)
                                          : Checker.checkWellTyped(Script);
  if (!Typed.Ok) {
    ApplyResult R;
    R.Ok = false;
    R.IllTyped = true;
    R.ErrorIndex = Typed.ErrorIndex;
    R.Error = std::move(Typed.Error);
    return R;
  }
  if (!Indexed)
    buildIndex();
  KidLog.clear();
  LitLog.clear();
  Touched.clear();
  for (size_t I = 0, E = Script.size(); I != E; ++I) {
    if (!apply(Script[I], I)) {
      undo();
      Indexed = false;
      ApplyResult R = std::move(Failure);
      Failure = ApplyResult();
      return R;
    }
  }
  ApplyResult R;
  if (Derive == Derived::Maintain)
    R.NodesRehashed = finish();
  return R;
}

ScriptApplier::ScriptApplier(TreeContext &Ctx, Tree *&Root, Derived Derive)
    : I(std::make_unique<Impl>(Ctx, Root, Derive)) {}

ScriptApplier::~ScriptApplier() = default;

ApplyResult ScriptApplier::apply(const EditScript &Script) {
  return I->apply(Script);
}

ApplyResult truediff::applyChecked(TreeContext &Ctx, Tree *&Root,
                                   const EditScript &Script) {
  return ScriptApplier(Ctx, Root).apply(Script);
}
