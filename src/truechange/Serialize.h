//===- truechange/Serialize.h - Edit script text format ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textual form of truechange edit scripts: exactly the paper
/// notation EditScript::toString produces, one edit per line:
///
///   detach(Sub_2, "e1", Add_1)
///   load(Var_4, ["e1"->1, "e2"->2], ["name"->"a"])
///   update(Var_2, ["name"->"b"], ["name"->"c"])
///
/// It is an output format only -- what the service answers a textual
/// submit with, and what the corpus benchmark times. Everything that
/// stores or ships a script and reads it back (the WAL, replication,
/// binary frames) uses persist::encodeEditScript instead.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TRUECHANGE_SERIALIZE_H
#define TRUEDIFF_TRUECHANGE_SERIALIZE_H

#include "truechange/Edit.h"

#include <string>

namespace truediff {

/// Serializes \p Script; identical to Script.toString(Sig).
std::string serializeEditScript(const SignatureTable &Sig,
                                const EditScript &Script);

} // namespace truediff

#endif // TRUEDIFF_TRUECHANGE_SERIALIZE_H
