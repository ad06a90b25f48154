//===- ModelCodec.h - Models named by text, and their line codec ---*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Model` names its variables by interned `Symbol`s, which mean
/// nothing outside their `AstContext`. A model that crosses a process or
/// context boundary (a shard worker's witness, a counterexample in the
/// persistent verdict cache) is a `WireModel`: the same values, each
/// variable named by its text, tag and kind. This file holds the one
/// line codec both carriers spell it with:
///
///   model-int <tag> <name> <value>
///   model-array <tag> <name> <length> <elem>...
///
/// with tags `plain`, `o`, `r`, strict decimals (support/IntMath.h) and
/// nothing after the last value. A wire model maps back onto a query's
/// variables by (name, tag, kind); entries that name none of them are
/// dropped.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_MODELCODEC_H
#define RELAXC_SOLVER_MODELCODEC_H

#include "solver/Solver.h"

#include <string>
#include <string_view>
#include <vector>

namespace relax {

/// A logical variable named by text: base name + execution tag + kind.
struct WireVar {
  std::string Name;
  VarTag Tag = VarTag::Plain;
  VarKind Kind = VarKind::Int;
};

/// A model whose variables are named by text (see the file comment).
struct WireModel {
  struct IntEntry {
    WireVar Var;
    int64_t Value = 0;
  };
  struct ArrayEntry {
    WireVar Var;
    ArrayModelValue Value;
  };
  std::vector<IntEntry> Ints;
  std::vector<ArrayEntry> Arrays;
};

/// "plain" / "o" / "r", and back.
const char *varTagWord(VarTag T);
bool parseVarTagWord(std::string_view W, VarTag &Out);

/// "int" / "array", and back.
const char *varKindWord(VarKind K);
bool parseVarKindWord(std::string_view W, VarKind &Out);

/// Splits the next space-delimited token off \p Rest (empty at the end).
std::string_view nextWireToken(std::string_view &Rest);

/// Appends one `model-int` / `model-array` line per entry of \p M, each
/// ending in a newline.
void appendModelLines(std::string &Out, const WireModel &M);

/// True when \p Directive, a line's first token, starts a model line.
bool isModelDirective(std::string_view Directive);

/// Parses one model line into \p M: \p Directive is its first token,
/// \p Rest the remainder, \p Line the whole line (for diagnostics). A
/// malformed line is a diagnosed error, never a guess.
Status parseModelLine(std::string_view Directive, std::string_view Rest,
                      std::string_view Line, WireModel &M);

/// \p M with each variable named by its text in \p Syms.
WireModel wireModelOf(const Model &M, const Interner &Syms);

/// The entries of \p W that name a variable of \p Vars (by name, tag and
/// kind), keyed by that variable.
Model modelOfWire(const WireModel &W, const VarRefSet &Vars,
                  const Interner &Syms);

} // namespace relax

#endif // RELAXC_SOLVER_MODELCODEC_H
