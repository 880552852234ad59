//===- tree/Builder.h - Checked streaming tree construction -----*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one admission point for trees read from external input.
///
/// Admission is the policy every reader applies: the ParseLimits caps on
/// nesting depth and node count and the context's MemoryBudget, with one
/// set of typed failures and messages. The recursive-descent readers
/// (Python, JSON) poll it at each nesting level.
///
/// CheckedBuilder is how the s-expression reader and the binary tree
/// codec build their trees. The reader streams the tree in: a node's
/// header on the way down, its literals and close on the way up.
///
///   open(Tag[, Uri])  the header, before the node's kids;
///   kidCount(N)       the kid count, for input that states it;
///   litCount(N)       the literal count, for input that states it;
///   lit(L)            each literal, after the kids, exactly as many as
///                     the signature has (litCount or litSpecs());
///   close()           builds the node from its kids and literals.
///
/// The builder keeps the nesting in a heap stack of POD frames and the
/// finished kids on one results stack, whose top entries are copied
/// straight into the arena's kid slab when their parent closes (as
/// TreeContext::deepCopy does). So no reader keeps a loop of its own, and
/// no input depth can exhaust the thread's stack. A node's literals move
/// into the arena's literal slab when it closes.
///
/// Nodes are built derive-dirty and handed to a DeriveBatch, which
/// derives them in chunks, hashing independent nodes eight at a time;
/// the last chunk is derived when the root closes. Until then a built
/// node's digests, height and size may not be valid. A refused build
/// leaves its nodes unreachable.
///
/// Each node is checked once, in this order:
///   1. its nesting depth against ParseLimits::MaxDepth (open);
///   2. its tag has a signature (open);
///   3. its URI is unique within the tree, if a URI is given (open);
///   4. its kid count matches the signature (kidCount);
///   5. its literal count and each literal's kind match (litCount, lit);
///   6. the node count against ParseLimits::MaxNodes, then the
///      MemoryBudget, before the node is allocated (close);
///   7. its sort fits its parent's kid slot (close, once built).
/// The first refusal stops the build. failure() names the check, error()
/// words it, and a reader with its own message format may reword the
/// structural ones.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TREE_BUILDER_H
#define TRUEDIFF_TREE_BUILDER_H

#include "tree/Tree.h"

#include <string>
#include <vector>

namespace truediff {

/// The admission policy of every reader: ParseLimits plus the context's
/// MemoryBudget. Records the first refusal.
class Admission {
public:
  Admission(const TreeContext &Ctx, const ParseLimits &Limits)
      : Ctx(Ctx), Limits(Limits) {}

  /// False, recording ParseFail::TooDeep, when nesting level \p Depth
  /// (the root is level 1) is past ParseLimits::MaxDepth. Readers check
  /// on the way down, so hostile nesting stops after MaxDepth levels.
  bool depth(uint64_t Depth);

  /// False, recording ParseFail::TooLarge, when \p Nodes is past
  /// ParseLimits::MaxNodes, or ParseFail::OverBudget when the context's
  /// budget is exhausted.
  bool nodes(uint64_t Nodes);

  ParseFail fail() const { return Fail; }
  const std::string &message() const { return Message; }

private:
  bool refuse(ParseFail Why, std::string What);

  const TreeContext &Ctx;
  ParseLimits Limits;
  ParseFail Fail = ParseFail::None;
  std::string Message;
};

/// Streams one checked tree into a TreeContext (see the file comment).
class CheckedBuilder {
public:
  /// The check that refused the build.
  enum class Check : uint8_t {
    None,
    Admission, ///< depth, node count, or budget: see parseFail()
    UnknownTag,
    DuplicateUri,
    KidCount,
    LitCount,
    LitKind,
    KidSort,
  };

  /// \p Uris says what becomes of URIs given to open(): Fresh checks
  /// them for uniqueness and gives the nodes fresh URIs of \p Ctx;
  /// Preserve also gives them to the nodes (TreeContext::adoptWithUri),
  /// so \p Ctx must hold no live node carrying one of them.
  CheckedBuilder(TreeContext &Ctx, const ParseLimits &Limits,
                 TreeContext::CopyUris Uris = TreeContext::CopyUris::Fresh)
      : Ctx(Ctx), Sig(Ctx.signatures()), Adm(Ctx, Limits),
        KeepUris(Uris == TreeContext::CopyUris::Preserve) {}

  /// True while the next input is a node header: before the root, and
  /// while the innermost open node expects another kid.
  bool wantsNode() const {
    return Stack.empty() ? Done.empty()
                         : Stack.back().NextKid < Stack.back().Sig->Kids.size();
  }

  /// True once the root is built.
  bool done() const { return Stack.empty() && !Done.empty(); }
  Tree *root() const { return done() ? Done.front() : nullptr; }

  /// Check 1 on its own, for readers that must refuse before they read
  /// the next header. open() runs it too.
  bool admitLevel();

  /// Opens a node below the innermost open one (checks 1-2).
  bool open(TagId Tag);
  /// Same, with the URI the input gives the node (checks 1-3).
  bool open(TagId Tag, URI Uri);

  /// Check 4 for the innermost open node.
  bool kidCount(uint64_t N);

  /// The innermost open node's literal specs, in signature order.
  const std::vector<LitSpec> &litSpecs() const {
    return Stack.back().Sig->Lits;
  }

  /// Check 5's count for the innermost open node. Input that does not
  /// state its count reads litSpecs() instead.
  bool litCount(uint64_t N);

  /// Adds the innermost open node's next literal (check 5's kind).
  bool lit(Literal L);

  /// Builds the innermost open node, whose kids have all closed and whose
  /// literals are all given (checks 6-7). Returns the node, or nullptr.
  Tree *close();

  Check failure() const { return Failed; }
  /// The tag the refusal concerns: the node's own for UnknownTag, the
  /// parent's for KidSort.
  TagId failTag() const { return FailTag; }
  /// Admission's typed reason: ParseFail::Syntax for structural checks.
  ParseFail parseFail() const;
  /// The refusal in the binary codec's words (admission's own message
  /// for Check::Admission).
  std::string error() const;

private:
  struct Frame {
    TagId Tag;
    URI Uri;
    const TagSignature *Sig;
    size_t NextKid;
  };

  bool refuse(Check Why, TagId Tag = InvalidSymbol);

  /// Set of the URIs one tree carries: open addressing with linear probing
  /// over a flat power-of-two table, so checking a node's URI costs no
  /// allocation of its own.
  class UriSet {
  public:
    /// Adds \p Uri; false if it was already present.
    bool insert(URI Uri);

  private:
    void grow();

    /// NullURI marks an empty slot; whether NullURI itself was inserted
    /// is kept apart.
    std::vector<URI> Slots;
    size_t Count = 0;
    unsigned Shift = 64;
    bool HasNull = false;
  };

  TreeContext &Ctx;
  const SignatureTable &Sig;
  Admission Adm;
  const bool KeepUris;
  std::vector<Frame> Stack;
  /// Finished nodes whose parent is not built yet, in document order.
  std::vector<Tree *> Done;
  /// The innermost open node's literals so far.
  std::vector<Literal> Lits;
  /// Derives the built nodes (see the file comment).
  DeriveBatch Derive;
  UriSet Uris;
  uint64_t Made = 0;
  Check Failed = Check::None;
  TagId FailTag = InvalidSymbol;
};

} // namespace truediff

#endif // TRUEDIFF_TREE_BUILDER_H
