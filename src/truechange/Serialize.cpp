//===- truechange/Serialize.cpp - Edit script text format ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/Serialize.h"

using namespace truediff;

std::string truediff::serializeEditScript(const SignatureTable &Sig,
                                          const EditScript &Script) {
  return Script.toString(Sig);
}
