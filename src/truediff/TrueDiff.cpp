//===- truediff/TrueDiff.cpp - The truediff structural diffing algorithm ---===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truediff/TrueDiff.h"

#include <cassert>
#include <deque>
#include <unordered_set>

using namespace truediff;

//===----------------------------------------------------------------------===//
// Step 2: find reuse candidates
//===----------------------------------------------------------------------===//

void TrueDiff::assignShares(Tree *Source, Tree *Target) {
  // Pre-order over the simultaneous traversal, kids left to right, with
  // an explicit stack: the visit order (and so the order shares and
  // available trees are registered in) is the recursive definition's,
  // and no tree height can exhaust the thread's stack.
  std::vector<std::pair<Tree *, Tree *>> Stack{{Source, Target}};
  while (!Stack.empty()) {
    auto [This, That] = Stack.back();
    Stack.pop_back();
    Registry.assignShare(This);
    Registry.assignShare(That);
    if (This->share() == That->share()) {
      // this and that are structurally equivalent: preemptively assign
      // the pair and stop descending; the whole subtree is reused in
      // place.
      This->assignTree(That);
      continue;
    }
    if (This->tag() != That->tag()) {
      // Different constructors: every source subtree becomes available
      // for moves; every target subtree receives its share for Step 3.
      This->foreachTree(
          [this](Tree *T) { Registry.assignShareAndRegisterTree(T); });
      That->foreachSubtree([this](Tree *T) { Registry.assignShare(T); });
      continue;
    }
    // Same constructor: this may be reusable in place, and we descend
    // simultaneously into the kids.
    This->share()->registerAvailableTree(This);
    for (size_t I = This->arity(); I != 0; --I)
      Stack.emplace_back(This->kid(I - 1), That->kid(I - 1));
  }
}

//===----------------------------------------------------------------------===//
// Step 3: select reuse candidates
//===----------------------------------------------------------------------===//

bool TrueDiff::selectTree(Tree *That, bool Preferred) {
  // Preemptively assigned target kids can re-enter the queue (see
  // takeTree), and their own kids may never have received a share in
  // Step 2; assignShare is idempotent and fills the gap.
  SubtreeShare *Share = Registry.assignShare(That);
  Tree *Candidate = Preferred ? Share->takePreferred(That->literalHash())
                              : Share->takeAny();
  if (Candidate == nullptr)
    return false;
  takeTree(Candidate, That);
  return true;
}

void TrueDiff::takeTree(Tree *Source, Tree *That) {
  assert(Source->share() != nullptr && "available trees carry a share");

  // Assigning Source to That as a whole invalidates every assignment that
  // involves a node inside either tree. Mark both node sets first (cheap
  // session-unique stamps); the traversal cost matches the paper's
  // accounting for Step 3 (acquired trees are traversed once to
  // deregister their nodes).
  uint32_t SourceMark = ++MarkCounter;
  uint32_t ThatMark = ++MarkCounter;
  // A node's first mark of the session records it for the session clear
  // (marks are zero outside a session). Covered flags, set below, land
  // only on That's nodes, which this marks.
  auto Stamp = [&](Tree *T, uint32_t M) {
    if (T->mark() == 0)
      Marked.push_back(T);
    T->setMark(M);
  };
  Source->foreachTree([&](Tree *T) { Stamp(T, SourceMark); });
  That->foreachTree([&](Tree *T) { Stamp(T, ThatMark); });
  auto InSourceCount = [&](const Tree *T) { return T->mark() == SourceMark; };
  auto InThatCount = [&](const Tree *T) { return T->mark() == ThatMark; };

  // The acquired tree is consumed as a whole: none of its subtrees may be
  // reused elsewhere, and preemptive assignments of smaller subtrees are
  // undone -- we prioritize reusing the larger tree (Section 4.3).
  Source->share()->deregisterAvailableTree(Source);
  Source->foreachSubtree([&](Tree *Subtree) {
    if (Subtree->share() != nullptr)
      Subtree->share()->deregisterAvailableTree(Subtree);
    if (Subtree->assigned() != nullptr) {
      Tree *ThatNode = Subtree->assigned();
      Subtree->unassignTree();
      // The affected target subtree must look for another candidate --
      // unless it lives inside That, where the acquired tree already
      // covers it.
      if (!InThatCount(ThatNode))
        Queue.push(ThatNode);
    }
  });

  // Dually, target subtrees of That that were assigned to source trees
  // *outside* Source release their partners: those source trees become
  // available resources again. (Partners inside Source were just handled
  // above.) Every target descendant is also marked covered: a target node
  // re-enqueued by an earlier undo must not acquire a source tree of its
  // own once an ancestor reuses a tree wholesale -- Step 4 would never
  // visit it and its partner would leak.
  That->foreachSubtree([&](Tree *ThatSub) {
    ThatSub->setCovered(true);
    if (ThatSub->assigned() == nullptr)
      return;
    Tree *Partner = ThatSub->assigned();
    ThatSub->unassignTree();
    if (!InSourceCount(Partner)) {
      assert(Partner->share() != nullptr &&
             "assigned source nodes carry a share");
      Partner->share()->registerAvailableTree(Partner);
    }
  });

  Source->assignTree(That);
}

void TrueDiff::assignSubtrees(Tree *That) {
  if (!Opts.HeightPriority) {
    // Ablation mode: plain FIFO breadth-first processing.
    std::deque<Tree *> Fifo{That};
    auto Drain = [&]() {
      while (!Fifo.empty()) {
        Tree *Next = Fifo.front();
        Fifo.pop_front();
        if (Next->assigned() != nullptr || Next->covered())
          continue;
        if (Opts.PreferLiteralMatches && selectTree(Next, /*Preferred=*/true))
          continue;
        if (selectTree(Next, /*Preferred=*/false))
          continue;
        for (size_t I = 0, E = Next->arity(); I != E; ++I)
          Fifo.push_back(Next->kid(I));
      }
    };
    Drain();
    // takeTree pushes undone targets into Queue; drain them FIFO too.
    while (!Queue.empty()) {
      Fifo.push_back(Queue.top());
      Queue.pop();
      Drain();
    }
    return;
  }

  Queue.push(That);
  while (!Queue.empty()) {
    // Dequeue all subtrees of the current (largest) height. Deduplicate:
    // a target node can be enqueued by its parent and again by an
    // assignment undo.
    uint32_t Level = Queue.top()->height();
    std::vector<Tree *> Nexts;
    std::unordered_set<Tree *> SeenThisLevel;
    while (!Queue.empty() && Queue.top()->height() == Level) {
      Tree *Next = Queue.top();
      Queue.pop();
      if (Next->assigned() != nullptr || Next->covered())
        continue; // reused as a whole (itself or via an ancestor)
      if (SeenThisLevel.insert(Next).second)
        Nexts.push_back(Next);
    }

    // First try preferred (literally equivalent) candidates, then any
    // structurally equivalent candidate.
    std::vector<Tree *> Remaining;
    if (Opts.PreferLiteralMatches) {
      for (Tree *Next : Nexts)
        if (!selectTree(Next, /*Preferred=*/true))
          Remaining.push_back(Next);
    } else {
      Remaining = std::move(Nexts);
    }
    for (Tree *Next : Remaining) {
      if (selectTree(Next, /*Preferred=*/false))
        continue;
      // No reuse candidate: search for smaller reusable subtrees.
      for (size_t I = 0, E = Next->arity(); I != E; ++I)
        Queue.push(Next->kid(I));
    }
  }
}

//===----------------------------------------------------------------------===//
// Step 4: compute edit script
//===----------------------------------------------------------------------===//

std::vector<KidRef> TrueDiff::kidRefs(const Tree *T) const {
  const TagSignature &TagSig = Sig.signature(T->tag());
  std::vector<KidRef> Refs;
  Refs.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Refs.push_back(KidRef{TagSig.Kids[I].Link, T->kid(I)->uri()});
  return Refs;
}

std::vector<LitRef> TrueDiff::litRefs(TagId Tag,
                                      const std::vector<Literal> &Lits) const {
  const TagSignature &TagSig = Sig.signature(Tag);
  assert(Lits.size() == TagSig.Lits.size());
  std::vector<LitRef> Refs;
  Refs.reserve(Lits.size());
  for (size_t I = 0, E = Lits.size(); I != E; ++I)
    Refs.push_back(LitRef{TagSig.Lits[I].Link, Lits[I]});
  return Refs;
}

// Every Step-4 traversal keeps its nesting in an explicit stack and visits
// nodes in the order of the paper's recursive definition, so the edits
// come out in that order and no tree height can exhaust the thread's
// stack.

Tree *TrueDiff::updateLits(Tree *This, Tree *That, EditBuffer &Edits) {
  if (This->literalHash() == That->literalHash())
    return This;
  // Pre-order: a node's update precedes its kids'.
  detail::TraversalStack<std::pair<Tree *, Tree *>> Stack;
  Stack.push({This, That});
  while (!Stack.empty()) {
    auto [S, T] = Stack.pop();
    if (S->literalHash() == T->literalHash())
      continue;
    // Literals change somewhere in this subtree: the cached literal hashes
    // along the descent become stale.
    S->markDerivedDirty();
    if (S->lits() != T->lits())
      emitUpdate(S, T, Edits);
    // Structurally equivalent trees have identical shapes; descend to fix
    // literal mismatches further down.
    for (size_t I = S->arity(); I != 0; --I)
      Stack.push({S->kid(I - 1), T->kid(I - 1)});
  }
  return This;
}

void TrueDiff::emitUpdate(Tree *This, const Tree *That, EditBuffer &Edits) {
  Edits.emit(Edit::update(NodeRef{This->tag(), This->uri()},
                          litRefs(This->tag(), This->lits()),
                          litRefs(This->tag(), That->lits())));
  This->setLits(That->lits());
}

void TrueDiff::unloadUnassigned(Tree *This, EditBuffer &Edits) {
  // Pre-order: a node's unload precedes its kids'.
  detail::TraversalStack<Tree *> Stack;
  Stack.push(This);
  while (!Stack.empty()) {
    Tree *T = Stack.pop();
    // Assigned subtrees are kept: they stay unattached roots until they
    // are reattached at their new position.
    if (T->assigned() != nullptr)
      continue;
    Edits.emit(Edit::unload(NodeRef{T->tag(), T->uri()}, kidRefs(T),
                            litRefs(T->tag(), T->lits())));
    for (size_t I = T->arity(); I != 0; --I)
      Stack.push(T->kid(I - 1));
  }
}

Tree *TrueDiff::loadUnassigned(Tree *That, EditBuffer &Edits) {
  // Post-order: a node is loaded once its kids are, and finished kids wait
  // on Loaded until their parent is built from them, as in
  // TreeContext::deepCopy.
  struct Frame {
    Tree *That;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Enter = [&](Tree *T) {
    if (T->assigned() != nullptr)
      // Reuse the assigned source tree, adapting its literals if it was
      // only structurally equivalent.
      Loaded.push_back(updateLits(T->assigned(), T, Edits));
    else
      Stack.push_back({T, 0});
  };
  Enter(That);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextKid < Top.That->arity()) {
      Enter(Top.That->kid(Top.NextKid++));
      continue;
    }
    const Tree *T = Top.That;
    Stack.pop_back();
    size_t Arity = T->arity();
    Tree *NewNode = Ctx.make(T->tag(), Loaded.data() + Loaded.size() - Arity,
                             Arity, T->lits());
    Loaded.resize(Loaded.size() - Arity);
    // make() hashed the fresh node from its kids' cached digests; if a kid
    // is a reused tree with pending literal updates, those inputs were
    // stale, so the node must be rehashed with them.
    for (size_t I = 0; I != Arity; ++I)
      if (NewNode->kid(I)->derivedDirty()) {
        NewNode->markDerivedDirty();
        break;
      }
    Edits.emit(Edit::load(NodeRef{NewNode->tag(), NewNode->uri()},
                          kidRefs(NewNode), litRefs(T->tag(), T->lits())));
    Loaded.push_back(NewNode);
  }
  Tree *Root = Loaded.back();
  Loaded.pop_back();
  return Root;
}

Tree *TrueDiff::replaceTree(Tree *This, Tree *That, NodeRef Parent,
                            LinkId Link, EditBuffer &Edits) {
  Edits.emit(Edit::detach(NodeRef{This->tag(), This->uri()}, Link, Parent));
  unloadUnassigned(This, Edits);
  Tree *NewTree = loadUnassigned(That, Edits);
  Edits.emit(
      Edit::attach(NodeRef{NewTree->tag(), NewTree->uri()}, Link, Parent));
  return NewTree;
}

Tree *TrueDiff::computeEdits(Tree *Source, Tree *Target, NodeRef Parent,
                             LinkId Link, EditBuffer &Edits) {
  // The simultaneous traversal. A source node reused in place gets a
  // frame: its kids are diffed in order, each result going back into its
  // kid slot, and then its literals are updated.
  struct Frame {
    Tree *This;
    Tree *That;
    const TagSignature *TagSig;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  Tree *Result = nullptr;
  // Diffs This against That in slot Link of Parent. Returns the tree that
  // now fills the slot, or nullptr after pushing This's frame.
  auto Enter = [&](Tree *This, Tree *That, NodeRef Parent,
                   LinkId Link) -> Tree * {
    if (This->assigned() == That)
      return updateLits(This, That, Edits);
    if (This->assigned() == nullptr && That->assigned() == nullptr &&
        This->tag() == That->tag()) {
      // Reuse this node in place and continue the simultaneous traversal.
      // The node sits on a root-to-edit path (it may receive new kids or
      // literals), so its cached derived data is invalidated.
      This->markDerivedDirty();
      Stack.push_back({This, That, &Sig.signature(This->tag()), 0});
      return nullptr;
    }
    return replaceTree(This, That, Parent, Link, Edits);
  };
  auto Fill = [&](Tree *Done) {
    if (Stack.empty())
      Result = Done;
    else
      Stack.back().This->setKid(Stack.back().NextKid - 1, Done);
  };

  if (Tree *Done = Enter(Source, Target, Parent, Link))
    Fill(Done);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextKid < Top.This->arity()) {
      size_t I = Top.NextKid++;
      Tree *This = Top.This;
      Tree *That = Top.That;
      LinkId KidLink = Top.TagSig->Kids[I].Link;
      if (Tree *Done = Enter(This->kid(I), That->kid(I),
                             NodeRef{This->tag(), This->uri()}, KidLink))
        Fill(Done);
      continue;
    }
    Frame F = Top;
    Stack.pop_back();
    if (F.This->lits() != F.That->lits())
      emitUpdate(F.This, F.That, Edits);
    Fill(F.This);
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Main algorithm
//===----------------------------------------------------------------------===//

DiffResult TrueDiff::compareTo(Tree *Source, Tree *Target) {
  assert(Source != nullptr && Target != nullptr);
  assert(Source != Target && "cannot diff a tree against itself");

  // Fresh session state (Step 1 hashes are cached in the nodes already).
  Registry = SubtreeRegistry();
  // Size the intern table up-front: at most one share per registered node,
  // so the combined node count bounds the bucket demand and Step 2 never
  // rehashes the table mid-flight.
  Registry.reserve(static_cast<size_t>(Source->size() + Target->size()));
  assert(Queue.empty());

  assignShares(Source, Target);  // Step 2
  assignSubtrees(Target);        // Step 3

#ifdef TRUEDIFF_DEBUG_INVARIANTS
  // Nested assignments on either side leak resources in Step 4.
  std::function<void(Tree *, Tree *, const char *)> CheckNesting =
      [&](Tree *T, Tree *AssignedAncestor, const char *Side) {
        if (T->assigned() != nullptr && AssignedAncestor != nullptr)
          fprintf(stderr,
                  "NESTED ASSIGNMENT side=%s uri=%llu partner=%llu "
                  "ancestor=%llu ancestorPartner=%llu\n",
                  Side, (unsigned long long)T->uri(),
                  (unsigned long long)T->assigned()->uri(),
                  (unsigned long long)AssignedAncestor->uri(),
                  (unsigned long long)AssignedAncestor->assigned()->uri());
        Tree *Now = AssignedAncestor != nullptr
                        ? AssignedAncestor
                        : (T->assigned() != nullptr ? T : nullptr);
        for (size_t I = 0; I != T->arity(); ++I)
          CheckNesting(T->kid(I), Now, Side);
      };
  CheckNesting(Target, nullptr, "target");
  CheckNesting(Source, nullptr, "source");
#endif

  EditBuffer Edits;              // Step 4
  Tree *Patched =
      computeEdits(Source, Target, NodeRef{Sig.rootTag(), NullURI},
                   Sig.rootLink(), Edits);

  DiffResult Result;
  Result.Script = std::move(Edits).toEditScript();
  Result.Patched = Patched;

  // Reused nodes received new kids and literals; refresh the caches so
  // the patched tree is ready for the next diffing round. Incrementally,
  // only the root-to-edit paths Step 4 marked dirty need rehashing; the
  // resulting digests are identical to a full refresh either way.
  if (Opts.IncrementalRehash)
    Result.NodesRehashed = Patched->rehashDirtyPaths(Sig);
  else {
    Patched->refreshDerived(Sig);
    Result.NodesRehashed = Patched->size();
  }
  // Reset exactly the nodes this session stamped, not the whole source
  // and target trees: unloaded source nodes included, since no share
  // pointer may outlive the registry the next session replaces.
  for (Tree *T : Registry.sharedTrees())
    T->resetDiffState();
  for (Tree *T : Marked)
    T->resetDiffState();
  Marked.clear();
  return Result;
}
