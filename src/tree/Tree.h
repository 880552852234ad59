//===- tree/Tree.h - Mutable typed trees with hashes ------------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Diffable tree representation of the paper (Sections 4 and 5): a
/// mutable, typed tree whose nodes carry
///   - a URI and constructor tag,
///   - children and literals in signature order,
///   - cached structure and literal digests (Section 4.1; keyed
///     SipHash-2-4-128, see support/TreeHash.h),
///   - cached height and size, and
///   - the diffing state (share and assignment) of Sections 4.2-4.3.
///
/// Nodes are owned by a TreeContext arena. truediff moves nodes between the
/// source and the patched tree, so nodes cannot belong to a single tree
/// object; the arena is the C++ realisation of the paper's "mutable, yet
/// linearly typed resources". The arena hands out nodes from fixed slabs
/// of 64, and kid arrays and literal arrays from bump slabs, so a node's
/// address, its kids and its literals stay put for the context's
/// lifetime, building a node allocates nothing of its own, and a Tree is
/// trivially destructible: the context frees its slabs in bulk.
///
/// Derived data is computed one of two ways, with identical results.
/// TreeContext::make derives each node as it is built, hashing its two
/// preimages with the scalar sipHash128. Whole-tree builds (deepCopy,
/// CheckedBuilder, refreshDerived, rehashDirtyPaths) hand their nodes,
/// kids first, to one DeriveBatch per build. It derives a leaf without
/// literals at once from a per-build memo of leaf tags, and the other
/// nodes 512 at a time while they are still in cache, hashing the
/// preimages of independent nodes eight at a time (sipHash128x8).
/// deepCopy prefetches each source node's kids on its first visit, as
/// the source of a copy is usually cold.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TREE_TREE_H
#define TRUEDIFF_TREE_TREE_H

#include "support/Digest.h"
#include "support/Literal.h"
#include "support/TreeHash.h"
#include "tree/Ids.h"
#include "tree/Limits.h"
#include "tree/Signature.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace truediff {

class SubtreeShare;
class TreeContext;

namespace detail {

/// Small-buffer LIFO work stack for the hot-path traversals: the first 64
/// entries live in the object (on the caller's stack), deeper traversals
/// spill to the heap. Pop order is proper LIFO across the spill boundary
/// because entries only spill while the small buffer is full.
template <typename T> class TraversalStack {
public:
  void push(T V) {
    if (N < SmallSize)
      Small[N++] = V;
    else
      Spill.push_back(V);
  }

  T pop() {
    if (!Spill.empty()) {
      T V = Spill.back();
      Spill.pop_back();
      return V;
    }
    return Small[--N];
  }

  bool empty() const { return N == 0 && Spill.empty(); }

private:
  static constexpr size_t SmallSize = 64;
  T Small[SmallSize];
  size_t N = 0;
  std::vector<T> Spill;
};

} // namespace detail

/// A node's literals, in signature order.
using LitSpan = std::span<const Literal>;

/// A mutable typed tree node. Children and literals are stored in the
/// order fixed by the tag's signature, so link lookups are array accesses.
class Tree {
public:
  /// \name Identity and structure
  /// @{
  TagId tag() const { return Tag; }
  URI uri() const { return Uri; }

  size_t arity() const { return Arity; }
  Tree *kid(size_t I) const { return Kids[I]; }
  void setKid(size_t I, Tree *New) { Kids[I] = New; }

  size_t numLits() const { return NumLits; }
  const Literal &lit(size_t I) const { return Lits[I]; }
  LitSpan lits() const { return {Lits, NumLits}; }
  /// Overwrites the literals in place; the signature fixes their count,
  /// so \p New has numLits() of them.
  void setLits(LitSpan New) {
    assert(New.size() == NumLits && "literal count is fixed by the tag");
    std::copy(New.begin(), New.end(), Lits);
  }
  /// @}

  /// \name Cached derived data (valid after TreeContext::make or
  /// refreshDerived)
  /// @{

  /// Hash of the tree's shape: tag and kid structure hashes, ignoring
  /// literals. Trees with equal structure hashes are *structurally
  /// equivalent* reuse candidates (Section 4.1).
  const Digest &structureHash() const { return StructHash; }

  /// Hash of the tree's literals, ignoring tags. Among structurally
  /// equivalent candidates, trees with equal literal hashes are *preferred*
  /// (exact copies).
  const Digest &literalHash() const { return LitHash; }

  /// Height of the tree; a leaf has height 1. Drives the highest-first
  /// traversal of Section 4.3.
  uint32_t height() const { return Height; }

  /// Number of nodes in the tree.
  uint64_t size() const { return Size; }

  /// True iff this and \p Other are structurally AND literally equivalent,
  /// i.e. equal up to URIs.
  bool equalsModuloUris(const Tree &Other) const {
    return StructHash == Other.StructHash && LitHash == Other.LitHash;
  }
  /// @}

  /// \name Diffing state (Sections 4.2-4.3)
  /// @{
  SubtreeShare *share() const { return Share; }
  void setShare(SubtreeShare *S) { Share = S; }

  /// True while this node is registered as an available resource in its
  /// share. Stored in the node rather than a per-share hash set so that
  /// availability checks on the Step-3 hot path are one flag load instead
  /// of a hash lookup (see SubtreeShare).
  bool shareAvailable() const { return ShareAvailable; }
  void setShareAvailable(bool A) { ShareAvailable = A; }

  Tree *assigned() const { return Assigned; }

  /// True if an ancestor of this (target) node was acquired as a whole in
  /// Step 3, so this node must not acquire a source tree of its own.
  bool covered() const { return Covered; }
  void setCovered(bool C) { Covered = C; }

  /// Symmetrically assigns this tree and \p That to each other.
  void assignTree(Tree *That) {
    Assigned = That;
    That->Assigned = this;
  }

  /// Symmetrically clears the assignment of this tree (and its partner).
  void unassignTree() {
    if (Assigned != nullptr) {
      Assigned->Assigned = nullptr;
      Assigned = nullptr;
    }
  }
  /// @}

  /// \name Traversals
  /// @{

  /// Applies \p Fn to this node and every descendant, pre-order. Inlined
  /// template: these traversals sit on truediff's hot path. Iterative with
  /// an explicit stack -- a depth-MaxDepth chain that admission accepted
  /// must not overflow the call stack.
  template <typename Fn> void foreachTree(Fn &&F) {
    detail::TraversalStack<Tree *> Stack;
    Stack.push(this);
    drainPreorder(Stack, F);
  }

  /// Applies \p Fn to every proper descendant, pre-order.
  template <typename Fn> void foreachSubtree(Fn &&F) {
    detail::TraversalStack<Tree *> Stack;
    for (size_t I = Arity; I != 0; --I)
      if (Kids[I - 1] != nullptr)
        Stack.push(Kids[I - 1]);
    drainPreorder(Stack, F);
  }
  /// @}

  /// \name Diff-session marks (used by TrueDiff::takeTree)
  /// @{
  uint32_t mark() const { return Mark; }
  void setMark(uint32_t M) { Mark = M; }
  /// @}

  /// \name Derived-data dirtiness (the Step-1 digest cache)
  ///
  /// A node is *derived-dirty* when its cached hashes, height, or size may
  /// be stale, or when some descendant's may be. TrueDiff marks the
  /// root-to-edit paths it touches in Step 4; rehashDirtyPaths then
  /// recomputes exactly those paths, so the unchanged bulk of a persisted
  /// tree keeps its digests across diffing rounds (see
  /// DocumentStore's digest cache).
  /// @{
  bool derivedDirty() const { return DerivedDirty; }
  void markDerivedDirty() { DerivedDirty = true; }

  /// Recomputes derived data along dirty paths only, clearing the flags;
  /// clean subtrees are not even visited. Returns the number of nodes
  /// rehashed. Requires the dirtiness invariant above (every node with a
  /// stale descendant is itself marked), which TrueDiff maintains.
  uint64_t rehashDirtyPaths();
  /// @}

  /// Recomputes hashes, height, and size of this node and every
  /// descendant (and clears derived-dirty flags). Called on the patched
  /// tree after diffing, because reused nodes may have received new
  /// children or literals.
  void refreshDerived();

  /// Clears this node's share, assignment, covered flag, availability
  /// flag and mark: everything one diff session stamps. TrueDiff calls it
  /// on exactly the nodes its session stamped, so a share pointer never
  /// outlives the session that allocated it.
  void resetDiffState() {
    Share = nullptr;
    Assigned = nullptr;
    Covered = false;
    ShareAvailable = false;
    Mark = 0;
  }

private:
  friend class TreeContext;
  friend class DeriveBatch;

  Tree() = default;

  /// Pops and visits nodes preorder until \p Stack drains.
  template <typename Fn>
  static void drainPreorder(detail::TraversalStack<Tree *> &Stack, Fn &&F) {
    while (!Stack.empty()) {
      Tree *T = Stack.pop();
      F(T);
      for (size_t I = T->Arity; I != 0; --I)
        if (T->Kids[I - 1] != nullptr)
          Stack.push(T->Kids[I - 1]);
    }
  }

  /// Recomputes this node's caches from its (already consistent) kids.
  void computeDerived();

  /// Sets both digests from the kids' ones, each preimage hashed with the
  /// scalar sipHash128.
  void hashDigests(const DigestKey &Key);

  TagId Tag = InvalidSymbol;
  /// Length of Kids, fixed by the tag's signature.
  uint32_t Arity = 0;
  URI Uri = NullURI;
  /// The kid array, carved from the owning context's kid slab.
  Tree **Kids = nullptr;
  /// The literal array, carved from the owning context's literal slab.
  Literal *Lits = nullptr;
  /// Length of Lits, fixed by the tag's signature.
  uint32_t NumLits = 0;
  /// DeriveBatch's scratch: the node's level within its chunk from add()
  /// until its chunk is derived, and 0 at all other times.
  uint32_t DeriveLevel = 0;
  /// DeriveBatch's scratch: the next node of the same level.
  Tree *DeriveNext = nullptr;

  Digest StructHash;
  Digest LitHash;
  uint64_t Size = 0;
  uint32_t Height = 0;
  uint32_t Mark = 0;

  SubtreeShare *Share = nullptr;
  Tree *Assigned = nullptr;
  bool Covered = false;
  bool DerivedDirty = false;
  bool ShareAvailable = false;
};

static_assert(std::is_trivially_destructible_v<Tree>,
              "TreeContext frees its node slabs without running destructors");

/// The derive step of a whole-tree build. The build adds the nodes it
/// creates derive-dirty, every kid before its parent. add() takes each
/// node's height, size and level while its kids are still in cache, and
/// derives a leaf without literals on the spot: its structure digest
/// depends on its tag alone, which the batch hashes once per tag, and its
/// literal digest is one constant. Every Chunk other nodes, and at
/// finish(), the batch hashes their preimages level by level, eight at a
/// time (sipHash128x8). A node's derived data is valid only once its
/// chunk is.
///
/// Every digest is computed under the process key read at construction
/// (processDigestKey()), never copied from a source tree: the scrubber
/// relies on a copy re-deriving every node. The batch allocates nothing;
/// the leaf memo fills as leaves arrive.
class DeriveBatch {
public:
  /// Nodes derived together: enough that the levels of a typical chunk
  /// of an AST fill the kernel's eight lanes, few enough to stay in cache.
  static constexpr size_t Chunk = 512;
  /// Preimages of at most this many SipHash words (127 bytes) are batched;
  /// longer ones (long string literals, nodes with 8 or more kids) go to
  /// sipHash128.
  static constexpr size_t MaxBatchWords = 16;

  DeriveBatch();

  /// Adds \p T; each of its kids was added before it or is derived.
  void add(Tree *T);

  /// Derives the nodes added since the last full chunk.
  void finish();

private:
  /// Slots of the leaf memo, indexed by tag modulo the size: a signature
  /// interns its tags first, so their ids are small and distinct here.
  static constexpr size_t LeafMemoSize = 128;

  /// Up to SipLanes queued preimages of one word count.
  struct Lanes {
    Tree *Nodes[SipLanes];
    /// Bit L set: lane L is Nodes[L]'s literal preimage, else its
    /// structure preimage.
    unsigned LitLanes;
    unsigned Size;
  };

  /// The structure digest of every leaf tagged \p Tag.
  const Digest &leafStructure(TagId Tag);
  /// The literal digest of every leaf without literals.
  const Digest &emptyLiterals();
  /// Hashes the levels of the nodes added so far.
  void deriveLevels();
  void queue(Tree *T, bool Lit, size_t NumWords);
  /// Hashes \p B's preimages, \p NumWords words each, in one kernel call.
  void run(Lanes &B, size_t NumWords);
  /// Empties every batch at a level's end.
  void flush();

  const DigestKey Key;
  /// Nodes added and not yet derived.
  size_t NumAdded = 0;
  /// Highest level among them; Levels[1..MaxLevel] are their level
  /// lists, linked by Tree::DeriveNext.
  uint32_t MaxLevel = 0;
  Tree *Levels[Chunk + 1];
  /// The leaf memo: LeafTags[I] is InvalidSymbol or the tag whose leaf
  /// structure digest is LeafHashes[I].
  TagId LeafTags[LeafMemoSize] = {};
  Digest LeafHashes[LeafMemoSize];
  bool HaveEmptyLits = false;
  Digest EmptyLits;
  /// Batches[W - 1] holds preimages of W words.
  Lanes Batches[MaxBatchWords] = {};
  /// Bit W - 1 set: Batches[W - 1] is not empty.
  uint32_t Pending = 0;
  /// The kernel's input, transposed; lanes past a batch's size are stale.
  uint64_t Words[MaxBatchWords * SipLanes] = {};
};

/// A vestige with no behaviour: one TreeContext constructor accepts it and
/// ignores it. Every context hashes with the one keyed node digest
/// (support/TreeHash.h); the tag survives only because perfbench's
/// serving workload still constructs its generation context with
/// DigestPolicy::Fast128, and it goes with that call.
enum class DigestPolicy : uint8_t { Fast128 };

/// Arena that owns every node of a diffing session and hands out fresh
/// URIs. Source and target trees of one diff must carry disjoint URIs
/// (the paper's uniqueness-of-URIs requirement): build both in one
/// context, or build the target in its own context that continues the
/// source context's URI counter (continueUrisFrom), as a document
/// store's submit does.
class TreeContext {
public:
  explicit TreeContext(const SignatureTable &Sig) : Sig(Sig) {}
  /// Same; the DigestPolicy tag is ignored (see DigestPolicy).
  TreeContext(const SignatureTable &Sig, DigestPolicy) : TreeContext(Sig) {}
  ~TreeContext();

  TreeContext(const TreeContext &) = delete;
  TreeContext &operator=(const TreeContext &) = delete;

  /// \name Memory-budget accounting
  ///
  /// When a budget is attached, every node allocation charges an estimate
  /// of its heap footprint against it, and the whole charge is released
  /// when the context is destroyed. Nodes made before the budget is
  /// attached are charged when it is, without a check: attaching after a
  /// build installs already-accepted state that the budget must count but
  /// may not refuse.
  /// @{
  void attachBudget(MemoryBudget *B);
  MemoryBudget *budget() const { return Budget; }

  /// True when an attached budget is exhausted. Parsers poll this at each
  /// allocation and abandon the parse with ParseFail::OverBudget, so a
  /// request that would blow the budget is refused instead of OOM-killing
  /// the process.
  bool overBudget() const { return Budget != nullptr && Budget->over(); }

  /// Bytes this context has charged against its budget so far.
  size_t bytesCharged() const { return BytesCharged; }
  /// @}

  const SignatureTable &signatures() const { return Sig; }

  /// When a node's derived data (digests, height, size) is computed.
  enum class Derive : bool {
    /// At construction, from the kids' cached derived data.
    Now,
    /// Later: the node is born derived-dirty with no derived data. In-place
    /// script application, where a kid may itself still have an empty
    /// slot when the node is built, then marks its ancestors dirty and
    /// runs rehashDirtyPaths; CheckedBuilder hands it to a DeriveBatch.
    Deferred,
  };

  /// Creates a node with the given tag, children, and literals, assigning
  /// a fresh URI and computing all derived data. Asserts that children and
  /// literals match the tag's signature (arity, sorts, literal kinds).
  Tree *make(TagId Tag, const std::vector<Tree *> &Kids,
             std::vector<Literal> Lits);

  /// Same, with the \p Arity kids read from \p Kids and the literals
  /// copied from \p Lits: the form for builders that keep finished kids
  /// on a results stack.
  Tree *make(TagId Tag, Tree *const *Kids, size_t Arity, LitSpan Lits);

  /// Same, with the tag given by name.
  Tree *make(std::string_view TagName, const std::vector<Tree *> &Kids,
             std::vector<Literal> Lits);

  /// Creates a node with a caller-chosen URI, the \p Arity kids read
  /// from \p Kids, the literals moved out of \p Lits, and derived data
  /// computed when \p When says. The caller guarantees \p Uri is not
  /// carried by any live node of this context; the next fresh URI is
  /// bumped past it, so later make() calls stay unique. Used where
  /// historical URIs arrive out of allocation order (decoding snapshots,
  /// applying scripts) and by CheckedBuilder, which passes peekNextUri()
  /// for a fresh one.
  Tree *adoptWithUri(TagId Tag, URI Uri, Tree *const *Kids, size_t Arity,
                     std::span<Literal> Lits, Derive When = Derive::Now);

  /// Which URIs deepCopy gives the copied nodes.
  enum class CopyUris : bool {
    /// Fresh URIs from this context.
    Fresh,
    /// The source nodes' URIs, as adoptWithUri does: \p T's URIs must not
    /// be carried by any live node of this context (pass a fresh one).
    /// This is how a stored document is compacted into a new arena with
    /// its history still applicable.
    Preserve,
  };

  /// Deep-copies \p T into this context, re-deriving every node's
  /// digests through a DeriveBatch. With fresh URIs it is how the
  /// benchmarks rebuild trees so hashing time is measured (Section 6).
  Tree *deepCopy(const Tree *T, CopyUris Uris = CopyUris::Fresh);

  /// Test-only fault injection: flips one byte of \p T's cached
  /// structure hash, simulating a silent in-memory corruption (bit rot,
  /// stray write) that verification against a from-scratch rebuild must
  /// catch. Lives on TreeContext because it is the class entrusted with
  /// the derived-data invariant this deliberately breaks.
  static void corruptDerivedForTest(Tree *T);

  /// Next URI that will be handed out; also used by truediff to allocate
  /// URIs for loaded nodes.
  URI peekNextUri() const { return NextUri; }

  /// Moves this context's next fresh URI up to \p Other's, never back.
  /// A request arena continues its document arena's counter this way, so
  /// the target it builds shares no URI with the stored tree; the
  /// document arena then continues from the request arena, so nodes it
  /// loads later share none with the target either.
  void continueUrisFrom(const TreeContext &Other) {
    continueUrisFrom(Other.NextUri);
  }

  /// Moves this context's next fresh URI up to \p Next, never back: how a
  /// rebuilt document continues a counter recorded in a snapshot.
  void continueUrisFrom(URI Next) { NextUri = std::max(NextUri, Next); }

  /// Number of nodes allocated so far.
  size_t numNodes() const { return NumNodes; }

private:
  /// Nodes per node slab.
  static constexpr size_t NodeSlabSize = 64;
  /// Minimum kid pointers per kid slab; a wider node gets a slab of its
  /// own size.
  static constexpr size_t KidSlabSize = 1024;
  /// Minimum literals per literal slab.
  static constexpr size_t LitSlabSize = 256;

  /// The first half of the one node constructor every make variant and
  /// deepCopy funnel through: a node with \p Tag and \p Uri, the
  /// \p Arity kid pointers at \p Kids copied into the kid slab, and
  /// \p NumLits literal slots for the caller to fill.
  Tree *allocate(TagId Tag, URI Uri, Tree *const *Kids, size_t Arity,
                 size_t NumLits);

  /// The second half: checks the filled node against its signature,
  /// computes (or defers) its derived data, and charges the budget.
  Tree *finish(Tree *Node, Derive When);

  /// The next free node slot, opening a new slab when the last is full.
  Tree *allocNode();

  /// \p N contiguous kid-pointer slots from the kid slab.
  Tree **allocKids(size_t N);

  /// \p N contiguous literal slots from the literal slab.
  Literal *allocLits(size_t N);

  const SignatureTable &Sig;
  std::vector<std::unique_ptr<Tree[]>> NodeSlabs;
  size_t NumNodes = 0;
  std::vector<std::unique_ptr<Tree *[]>> KidSlabs;
  Tree **KidCursor = nullptr;
  size_t KidsLeft = 0;
  std::vector<std::unique_ptr<Literal[]>> LitSlabs;
  Literal *LitCursor = nullptr;
  size_t LitsLeft = 0;
  URI NextUri = 1;
  MemoryBudget *Budget = nullptr;
  size_t BytesCharged = 0;
};

/// True iff \p A and \p B have identical shapes, tags, and literals,
/// ignoring URIs. Unlike Tree::equalsModuloUris this walks the trees, so it
/// is usable in tests that deliberately corrupt cached hashes. Iterative.
bool treeEqualsModuloUris(const Tree *A, const Tree *B);

/// Compares \p Stored's cached derived data (digests, height, size) node
/// for node against \p Fresh, a from-scratch rebuild of the same tree, and
/// returns the first divergence in pre-order. Iterative: the integrity
/// scrubber runs it over every stored document.
std::optional<std::string> compareDerived(const Tree *Stored,
                                          const Tree *Fresh);

} // namespace truediff

#endif // TRUEDIFF_TREE_TREE_H
