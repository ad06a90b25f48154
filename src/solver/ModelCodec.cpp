//===- ModelCodec.cpp - Models named by text, and their line codec ------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/ModelCodec.h"

#include "support/IntMath.h"

#include <map>

using namespace relax;

const char *relax::varTagWord(VarTag T) {
  switch (T) {
  case VarTag::Plain:
    return "plain";
  case VarTag::Orig:
    return "o";
  case VarTag::Rel:
    return "r";
  }
  return "?";
}

bool relax::parseVarTagWord(std::string_view W, VarTag &Out) {
  if (W == "plain")
    Out = VarTag::Plain;
  else if (W == "o")
    Out = VarTag::Orig;
  else if (W == "r")
    Out = VarTag::Rel;
  else
    return false;
  return true;
}

const char *relax::varKindWord(VarKind K) {
  return K == VarKind::Int ? "int" : "array";
}

bool relax::parseVarKindWord(std::string_view W, VarKind &Out) {
  if (W == "int")
    Out = VarKind::Int;
  else if (W == "array")
    Out = VarKind::Array;
  else
    return false;
  return true;
}

std::string_view relax::nextWireToken(std::string_view &Rest) {
  size_t B = Rest.find_first_not_of(' ');
  if (B == std::string_view::npos) {
    Rest = std::string_view();
    return std::string_view();
  }
  size_t E = Rest.find(' ', B);
  std::string_view Tok = Rest.substr(B, E == std::string_view::npos
                                            ? std::string_view::npos
                                            : E - B);
  Rest = E == std::string_view::npos ? std::string_view() : Rest.substr(E + 1);
  return Tok;
}

void relax::appendModelLines(std::string &Out, const WireModel &M) {
  for (const WireModel::IntEntry &E : M.Ints)
    Out += std::string("model-int ") + varTagWord(E.Var.Tag) + " " +
           E.Var.Name + " " + std::to_string(E.Value) + "\n";
  for (const WireModel::ArrayEntry &E : M.Arrays) {
    Out += std::string("model-array ") + varTagWord(E.Var.Tag) + " " +
           E.Var.Name + " " + std::to_string(E.Value.Length);
    for (int64_t V : E.Value.Elems)
      Out += " " + std::to_string(V);
    Out += "\n";
  }
}

bool relax::isModelDirective(std::string_view Directive) {
  return Directive == "model-int" || Directive == "model-array";
}

Status relax::parseModelLine(std::string_view Directive, std::string_view Rest,
                             std::string_view Line, WireModel &M) {
  if (Directive == "model-int") {
    WireModel::IntEntry E;
    E.Var.Kind = VarKind::Int;
    if (!parseVarTagWord(nextWireToken(Rest), E.Var.Tag))
      return Status::error("bad model-int tag in '" + std::string(Line) + "'");
    E.Var.Name = std::string(nextWireToken(Rest));
    if (E.Var.Name.empty() || !parseDecimal(nextWireToken(Rest), E.Value) ||
        !nextWireToken(Rest).empty())
      return Status::error("bad model-int line '" + std::string(Line) + "'");
    M.Ints.push_back(std::move(E));
    return Status::success();
  }
  if (Directive != "model-array")
    return Status::error("not a model line: '" + std::string(Line) + "'");
  WireModel::ArrayEntry E;
  E.Var.Kind = VarKind::Array;
  if (!parseVarTagWord(nextWireToken(Rest), E.Var.Tag))
    return Status::error("bad model-array tag in '" + std::string(Line) + "'");
  E.Var.Name = std::string(nextWireToken(Rest));
  int64_t Len = 0;
  if (E.Var.Name.empty() || !parseDecimal(nextWireToken(Rest), Len) || Len < 0)
    return Status::error("bad model-array line '" + std::string(Line) + "'");
  E.Value.Length = Len;
  for (int64_t I = 0; I != Len; ++I) {
    int64_t V = 0;
    if (!parseDecimal(nextWireToken(Rest), V))
      return Status::error("model-array '" + E.Var.Name + "' is missing " +
                           "element " + std::to_string(I));
    E.Value.Elems.push_back(V);
  }
  if (!nextWireToken(Rest).empty())
    return Status::error("model-array '" + E.Var.Name + "' has more than " +
                         std::to_string(Len) + " elements");
  M.Arrays.push_back(std::move(E));
  return Status::success();
}

WireModel relax::wireModelOf(const Model &M, const Interner &Syms) {
  WireModel W;
  for (const auto &[V, Val] : M.Ints)
    W.Ints.push_back({{std::string(Syms.text(V.Name)), V.Tag, V.Kind}, Val});
  for (const auto &[V, Val] : M.Arrays)
    W.Arrays.push_back({{std::string(Syms.text(V.Name)), V.Tag, V.Kind}, Val});
  return W;
}

Model relax::modelOfWire(const WireModel &W, const VarRefSet &Vars,
                         const Interner &Syms) {
  std::map<std::pair<std::string_view, VarTag>, VarRef> ByName;
  for (const VarRef &V : Vars)
    ByName.emplace(std::make_pair(Syms.text(V.Name), V.Tag), V);
  Model M;
  for (const WireModel::IntEntry &E : W.Ints) {
    auto It = ByName.find({E.Var.Name, E.Var.Tag});
    if (It != ByName.end() && It->second.Kind == VarKind::Int)
      M.Ints[It->second] = E.Value;
  }
  for (const WireModel::ArrayEntry &E : W.Arrays) {
    auto It = ByName.find({E.Var.Name, E.Var.Tag});
    if (It != ByName.end() && It->second.Kind == VarKind::Array)
      M.Arrays[It->second] = E.Value;
  }
  return M;
}
