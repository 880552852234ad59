//===- lcsdiff/LcsDiff.cpp - Type-safe diffing without moves ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lcsdiff/LcsDiff.h"

#include <cassert>

using namespace truediff;
using namespace truediff::lcsdiff;

size_t LcsScript::numChanges() const {
  size_t Count = 0;
  for (const Op &O : Ops)
    Count += O.Kind != OpKind::Cpy;
  return Count;
}

std::string LcsScript::toString(const SignatureTable &Sig) const {
  std::string Out;
  for (const Op &O : Ops) {
    switch (O.Kind) {
    case OpKind::Cpy:
      Out += "Cpy";
      break;
    case OpKind::Ins:
      Out += "Ins(" + Sig.name(O.Tok.Tag) + ")";
      break;
    case OpKind::Del:
      Out += "Del(" + Sig.name(O.Tok.Tag) + ")";
      break;
    }
    Out += " ";
  }
  if (!Out.empty())
    Out.pop_back();
  return Out;
}

static void collectPreOrder(const Tree *T, std::vector<Token> &Out) {
  Out.push_back(Token{T->tag(), {T->lits().begin(), T->lits().end()}});
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    collectPreOrder(T->kid(I), Out);
}

std::vector<Token> truediff::lcsdiff::preOrderTokens(const Tree *T) {
  std::vector<Token> Out;
  Out.reserve(T->size());
  collectPreOrder(T, Out);
  return Out;
}

LcsScript truediff::lcsdiff::lcsDiff(const Tree *Src, const Tree *Dst,
                                     const LcsOptions &Opts) {
  std::vector<Token> A = preOrderTokens(Src);
  std::vector<Token> B = preOrderTokens(Dst);

  // Trim the common prefix and suffix; real edits are local, so this
  // keeps the quadratic LCS core small.
  size_t Prefix = 0;
  while (Prefix < A.size() && Prefix < B.size() && A[Prefix] == B[Prefix])
    ++Prefix;
  size_t Suffix = 0;
  while (Suffix < A.size() - Prefix && Suffix < B.size() - Prefix &&
         A[A.size() - 1 - Suffix] == B[B.size() - 1 - Suffix])
    ++Suffix;

  size_t N = A.size() - Prefix - Suffix;
  size_t M = B.size() - Prefix - Suffix;

  LcsScript Script;
  Script.Ops.reserve(A.size() + B.size() - Prefix - Suffix);
  for (size_t I = 0; I != Prefix; ++I)
    Script.Ops.push_back(Op{OpKind::Cpy, Token()});

  if (static_cast<uint64_t>(N) * static_cast<uint64_t>(M) >
      Opts.MaxDpProduct) {
    // Fallback: replace the middle wholesale.
    for (size_t I = 0; I != N; ++I)
      Script.Ops.push_back(Op{OpKind::Del, A[Prefix + I]});
    for (size_t J = 0; J != M; ++J)
      Script.Ops.push_back(Op{OpKind::Ins, B[Prefix + J]});
  } else if (N != 0 || M != 0) {
    // Exact LCS over the middle via dynamic programming.
    std::vector<uint32_t> Dp((N + 1) * (M + 1), 0);
    auto At = [&](size_t I, size_t J) -> uint32_t & {
      return Dp[I * (M + 1) + J];
    };
    for (size_t I = N; I-- > 0;)
      for (size_t J = M; J-- > 0;) {
        if (A[Prefix + I] == B[Prefix + J])
          At(I, J) = At(I + 1, J + 1) + 1;
        else
          At(I, J) = std::max(At(I + 1, J), At(I, J + 1));
      }
    size_t I = 0, J = 0;
    while (I < N && J < M) {
      if (A[Prefix + I] == B[Prefix + J]) {
        Script.Ops.push_back(Op{OpKind::Cpy, Token()});
        ++I;
        ++J;
      } else if (At(I + 1, J) >= At(I, J + 1)) {
        Script.Ops.push_back(Op{OpKind::Del, A[Prefix + I]});
        ++I;
      } else {
        Script.Ops.push_back(Op{OpKind::Ins, B[Prefix + J]});
        ++J;
      }
    }
    for (; I < N; ++I)
      Script.Ops.push_back(Op{OpKind::Del, A[Prefix + I]});
    for (; J < M; ++J)
      Script.Ops.push_back(Op{OpKind::Ins, B[Prefix + J]});
  }

  for (size_t I = 0; I != Suffix; ++I)
    Script.Ops.push_back(Op{OpKind::Cpy, Token()});
  return Script;
}

namespace {

/// Rebuilds a typed tree from a pre-order token sequence; arities come
/// from the signature.
Tree *buildFromTokens(TreeContext &Ctx, const std::vector<Token> &Tokens,
                      size_t &Pos) {
  if (Pos >= Tokens.size())
    return nullptr;
  const Token &Tok = Tokens[Pos++];
  if (!Ctx.signatures().hasTag(Tok.Tag))
    return nullptr;
  const TagSignature &TagSig = Ctx.signatures().signature(Tok.Tag);
  if (Tok.Lits.size() != TagSig.Lits.size())
    return nullptr;
  std::vector<Tree *> Kids;
  Kids.reserve(TagSig.Kids.size());
  for (size_t I = 0, E = TagSig.Kids.size(); I != E; ++I) {
    Tree *Kid = buildFromTokens(Ctx, Tokens, Pos);
    if (Kid == nullptr)
      return nullptr;
    SortId KidSort = Ctx.signatures().signature(Kid->tag()).Result;
    if (!Ctx.signatures().isSubsort(KidSort, TagSig.Kids[I].Sort))
      return nullptr;
    Kids.push_back(Kid);
  }
  return Ctx.make(Tok.Tag, std::move(Kids), Tok.Lits);
}

} // namespace

Tree *truediff::lcsdiff::applyLcs(TreeContext &Ctx, const Tree *Src,
                                  const LcsScript &Script) {
  std::vector<Token> Input = preOrderTokens(Src);
  std::vector<Token> Output;
  size_t In = 0;
  for (const Op &O : Script.Ops) {
    switch (O.Kind) {
    case OpKind::Cpy:
      if (In >= Input.size())
        return nullptr;
      Output.push_back(Input[In++]);
      break;
    case OpKind::Del:
      if (In >= Input.size() || !(Input[In] == O.Tok))
        return nullptr;
      ++In;
      break;
    case OpKind::Ins:
      Output.push_back(O.Tok);
      break;
    }
  }
  if (In != Input.size())
    return nullptr;
  size_t Pos = 0;
  Tree *Result = buildFromTokens(Ctx, Output, Pos);
  if (Result == nullptr || Pos != Output.size())
    return nullptr;
  return Result;
}
