//===- tree/Signature.h - Tag signatures and subtyping ----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The signature environment Sigma of the paper (Section 3.3):
///
///   Sigma ::= e | Sigma, tag : sig
///   sig   ::= (<x1:T1, ..., xm:Tm>, <y1:B1, ..., yn:Bn>) -> T
///
/// Each tag has named child links with sorts, named literal links with base
/// types, and a result sort. The table also maintains the subsort relation
/// used by the T <: T' premises of the truechange type system. RootTag with
/// signature (<RootLink : Any>, <>) -> Root is pre-defined.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TREE_SIGNATURE_H
#define TRUEDIFF_TREE_SIGNATURE_H

#include "support/Interner.h"
#include "support/Literal.h"
#include "tree/Ids.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace truediff {

/// One child link x_i : T_i of a tag signature.
struct KidSpec {
  LinkId Link;
  SortId Sort;
};

/// One literal link y_j : B_j of a tag signature.
struct LitSpec {
  LinkId Link;
  LitKind Kind;
};

/// The signature of one constructor tag.
struct TagSignature {
  TagId Tag = InvalidSymbol;
  SortId Result = InvalidSymbol;
  std::vector<KidSpec> Kids;
  std::vector<LitSpec> Lits;

  /// Returns the index of child link \p Link or -1 if absent.
  int kidIndex(LinkId Link) const;

  /// Returns the index of literal link \p Link or -1 if absent.
  int litIndex(LinkId Link) const;
};

/// The signature environment Sigma: interns tags/links/sorts, stores tag
/// signatures, and answers subsort queries.
///
/// A SignatureTable is built once per language (expressions, Python, ...)
/// and shared by all trees and edit scripts of that language.
class SignatureTable {
public:
  SignatureTable();

  /// \name Sorts and subtyping
  /// @{

  /// Interns (and implicitly declares) sort \p Name.
  SortId sort(std::string_view Name);

  /// Declares Sub <: Super (in addition to reflexivity and T <: Any).
  void declareSubsort(SortId Sub, SortId Super);

  /// Declares Sub <: Super by name.
  void declareSubsort(std::string_view Sub, std::string_view Super) {
    declareSubsort(sort(Sub), sort(Super));
  }

  /// Reflexive-transitive subsort check with Any as top.
  bool isSubsort(SortId Sub, SortId Super) const;

  /// The top sort Any; every sort is a subsort of Any.
  SortId anySort() const { return Any; }

  /// The sort of the pre-defined root node.
  SortId rootSort() const { return Root; }
  /// @}

  /// \name Tags
  /// @{

  /// Defines a tag. Kid and literal links are given as (name, sort-name)
  /// and (name, kind) pairs. Asserts the tag was not defined before.
  TagId defineTag(std::string_view Name, std::string_view ResultSort,
                  std::vector<std::pair<std::string, std::string>> Kids,
                  std::vector<std::pair<std::string, LitKind>> Lits);

  /// Returns the signature of \p Tag; asserts it exists.
  const TagSignature &signature(TagId Tag) const;

  /// True if \p Tag has a signature.
  bool hasTag(TagId Tag) const { return Tags.count(Tag) != 0; }

  /// The signature of \p Tag, or nullptr if it has none: hasTag and
  /// signature in one lookup, for walks over untrusted trees.
  const TagSignature *findSignature(TagId Tag) const {
    auto It = Tags.find(Tag);
    return It == Tags.end() ? nullptr : &It->second;
  }

  /// The pre-defined RootTag with signature (<RootLink:Any>, <>) -> Root.
  TagId rootTag() const { return RootTagId; }

  /// The single link of RootTag.
  LinkId rootLink() const { return RootLinkId; }
  /// @}

  /// \name Symbol access
  /// @{
  Symbol intern(std::string_view Name) { return Symbols.intern(Name); }
  Symbol lookup(std::string_view Name) const { return Symbols.lookup(Name); }
  const std::string &name(Symbol Sym) const { return Symbols.name(Sym); }

  /// Interns a tag name; asserts nothing about it having a signature.
  TagId tag(std::string_view Name) { return Symbols.intern(Name); }

  /// Interns a link name.
  LinkId link(std::string_view Name) { return Symbols.intern(Name); }
  /// @}

private:
  Interner Symbols;
  SortId Any = InvalidSymbol;
  SortId Root = InvalidSymbol;
  TagId RootTagId = InvalidSymbol;
  LinkId RootLinkId = InvalidSymbol;
  std::unordered_map<TagId, TagSignature> Tags;
  /// Direct declared subsort edges Sub -> {Super, ...}.
  std::unordered_map<SortId, std::unordered_set<SortId>> SubsortEdges;
};

} // namespace truediff

#endif // TRUEDIFF_TREE_SIGNATURE_H
