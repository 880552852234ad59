//===- persist/BinaryCodec.h - Binary trees and edit scripts ----*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact binary encoding of typed trees and truechange edit scripts,
/// the payload format of the write-ahead log and snapshot files. The
/// textual forms (truechange/Serialize, tree/SExpr) stay the wire format
/// for humans and clients; the binary form exists because durability
/// writes sit on the submit path, where re-rendering and re-parsing text
/// would dominate the cost of small scripts.
///
/// Layout decisions:
///   - All integers are LEB128 varints; signed values are zigzag-coded.
///   - Every blob opens with a local symbol table (the tag and link names
///     it uses), and the body refers to symbols by local index. Blobs are
///     therefore self-contained: they do not depend on the order in which
///     a SignatureTable interned its symbols, only on the names -- the
///     same stability contract the textual formats have.
///   - Trees are encoded pre-order with explicit kid and literal counts,
///     and carry their URIs, so a decoded snapshot can adopt the exact
///     URIs the logged edit scripts refer to.
///
/// Decoders are total: corrupt or truncated input yields an error result,
/// never undefined behaviour, even though the CRC framing upstream makes
/// such input unlikely.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_PERSIST_BINARYCODEC_H
#define TRUEDIFF_PERSIST_BINARYCODEC_H

#include "tree/Tree.h"
#include "truechange/Edit.h"

#include <string>
#include <string_view>

namespace truediff {
namespace persist {

/// Serializes \p Script into a self-contained binary blob.
std::string encodeEditScript(const SignatureTable &Sig,
                             const EditScript &Script);

/// Result of decoding an edit script blob.
struct DecodeScriptResult {
  bool Ok = false;
  EditScript Script;
  std::string Error;
};

/// Decodes a blob produced by encodeEditScript. Tag and link names must
/// exist in \p Sig (scripts only make sense against the signature they
/// were produced for).
DecodeScriptResult decodeEditScript(const SignatureTable &Sig,
                                    std::string_view Blob);

/// Serializes \p T (with its URIs) into a self-contained binary blob.
std::string encodeTree(const SignatureTable &Sig, const Tree *T);

/// Result of decoding a tree blob.
struct DecodeTreeResult {
  Tree *Root = nullptr;
  std::string Error;
  /// Why the decode failed: ParseFail::Syntax for a malformed blob, or
  /// the admission cap that refused it.
  ParseFail Fail = ParseFail::None;
  bool ok() const { return Root != nullptr; }
};

/// Decodes a blob produced by encodeTree into \p Ctx, preserving the
/// encoded URIs via TreeContext::adoptWithUri. \p Ctx must not hold live
/// nodes with any of those URIs (pass a fresh context, as with
/// TreeContext::CopyUris::Preserve).
DecodeTreeResult decodeTree(const SignatureTable &Sig, TreeContext &Ctx,
                            std::string_view Blob);

/// As above with \p PreserveUris false: the encoded URIs are validated
/// but discarded and every node is allocated with a fresh URI of
/// \p Ctx, so the blob can be decoded into a context that
/// already holds live nodes. This is the mode for client-supplied trees
/// on the binary wire protocol, where the client's URIs must not collide
/// with a document's live URI space.
///
/// Either way the tree is built through CheckedBuilder (tree/Builder.h),
/// the admission point the s-expression reader shares: \p Limits caps
/// its depth and node count, and a memory budget attached to \p Ctx is
/// polled before every node.
DecodeTreeResult decodeTree(const SignatureTable &Sig, TreeContext &Ctx,
                            std::string_view Blob, bool PreserveUris,
                            const ParseLimits &Limits = {});

} // namespace persist
} // namespace truediff

#endif // TRUEDIFF_PERSIST_BINARYCODEC_H
