//===- truechange/InitScript.cpp - Initializing edit scripts ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/InitScript.h"

using namespace truediff;

namespace {

/// The Load of \p T, whose kids are already loaded.
Edit loadEdit(const SignatureTable &Sig, const Tree *T) {
  const TagSignature &TagSig = Sig.signature(T->tag());
  std::vector<KidRef> Kids;
  Kids.reserve(T->arity());
  for (size_t I = 0, E = T->arity(); I != E; ++I)
    Kids.push_back(KidRef{TagSig.Kids[I].Link, T->kid(I)->uri()});
  std::vector<LitRef> Lits;
  Lits.reserve(T->numLits());
  for (size_t I = 0, E = T->numLits(); I != E; ++I)
    Lits.push_back(LitRef{TagSig.Lits[I].Link, T->lit(I)});
  return Edit::load(NodeRef{T->tag(), T->uri()}, std::move(Kids),
                    std::move(Lits));
}

} // namespace

EditScript truediff::buildInitializingScript(const SignatureTable &Sig,
                                             const Tree *T) {
  // Post-order, kids in signature order, with an explicit stack so any
  // depth admission accepted is safe.
  struct Frame {
    const Tree *Node;
    size_t NextKid;
  };
  std::vector<Edit> Edits;
  Edits.reserve(T->size() + 1);
  std::vector<Frame> Stack{{T, 0}};
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextKid < Top.Node->arity()) {
      Stack.push_back({Top.Node->kid(Top.NextKid++), 0});
      continue;
    }
    Edits.push_back(loadEdit(Sig, Top.Node));
    Stack.pop_back();
  }
  Edits.push_back(Edit::attach(NodeRef{T->tag(), T->uri()}, Sig.rootLink(),
                               NodeRef{Sig.rootTag(), NullURI}));
  return EditScript(std::move(Edits));
}
