//===- VCGenBase.cpp - Shared core of the VC generators -----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/VCGenBase.h"

#include "logic/FormulaOps.h"

using namespace relax;

const char *relax::judgmentKindName(JudgmentKind K) {
  switch (K) {
  case JudgmentKind::Original:
    return "original";
  case JudgmentKind::Intermediate:
    return "intermediate";
  case JudgmentKind::Relaxed:
    return "relaxed";
  }
  return "?";
}

const BoolExpr *VCGenBase::maybeSimplify(const BoolExpr *B) {
  return Opts.Simplify ? Simp.simplify(B) : B;
}

void VCGenBase::emit(VCKind Kind, const BoolExpr *F, const char *Rule,
                     SourceLoc Loc, std::string Description) {
  VC V;
  V.Kind = Kind;
  V.Judgment = Judgment;
  V.Formula = maybeSimplify(F);
  V.Rule = Rule;
  V.Loc = Loc;
  V.Description = std::move(Description);
  V.Id = static_cast<uint32_t>(Out.VCs.size());
  V.Origin = CurStmt;
  V.SimplifyTraceId = V.Formula != F ? ++SimplifyTraces : 0;
  V.Proc = ProcName;
  Out.VCs.push_back(std::move(V));
}

const BoolExpr *VCGenBase::record(const char *Rule, const Stmt *S,
                                  const BoolExpr *Pre, const BoolExpr *Post) {
  DerivationStep Step;
  Step.Rule = Rule;
  Step.Judgment = Judgment;
  Step.Loc = S->loc();
  Step.S = S;
  Step.Pre = Pre;
  Step.Post = Post;
  Out.Derivation.push_back(std::move(Step));
  return Post;
}

namespace {

/// \p E as side \p Tag sees it: unchanged for the unary generators.
const Expr *onSide(AstContext &Ctx, const Expr *E, VarTag Tag) {
  return Tag == VarTag::Plain ? E : inject(Ctx, E, Tag);
}

} // namespace

const BoolExpr *VCGenBase::storeInBounds(const ArrayAssignStmt *A) {
  if (!Opts.CheckSafety)
    return nullptr;
  const ArrayExpr *Arr = Ctx.arrayRef(A->array(), VarTag::Plain);
  return Ctx.andExpr(Ctx.ge(A->index(), Ctx.intLit(0)),
                     Ctx.lt(A->index(), Ctx.arrayLen(Arr)));
}

std::vector<VarRef> VCGenBase::choiceVars(const ChoiceStmtBase *S,
                                          VarTag Tag) const {
  std::vector<VarRef> Vars;
  for (size_t I = 0, E = S->varCount(); I != E; ++I)
    Vars.push_back(VarRef{S->var(I), Tag,
                          Prog.kindOf(S->var(I)).value_or(VarKind::Int)});
  return Vars;
}

const BoolExpr *VCGenBase::renameFresh(const std::vector<VarRef> &Vars,
                                       const BoolExpr *Pre,
                                       std::vector<VarRef> &Fresh) {
  Subst Rename;
  std::vector<const BoolExpr *> LenLinks;
  for (const VarRef &V : Vars) {
    Symbol F = Ctx.freshSym(V.Name);
    Fresh.push_back(VarRef{F, V.Tag, V.Kind});
    if (V.Kind == VarKind::Int) {
      Rename.mapVar(V.Name, V.Tag, Ctx.var(F, V.Tag));
    } else {
      Rename.mapArray(V.Name, V.Tag, Ctx.arrayRef(F, V.Tag));
      LenLinks.push_back(Ctx.eq(Ctx.arrayLen(Ctx.arrayRef(V.Name, V.Tag)),
                                Ctx.arrayLen(Ctx.arrayRef(F, V.Tag))));
    }
  }
  return Ctx.conj({substitute(Ctx, Pre, Rename), Ctx.conj(LenLinks)});
}

const BoolExpr *VCGenBase::existsOver(const std::vector<VarRef> &Fresh,
                                      const BoolExpr *Body) {
  for (const VarRef &F : Fresh)
    Body = Ctx.exists(F.Name, F.Tag, F.Kind, Body);
  return Body;
}

const BoolExpr *VCGenBase::spWrite(const BoolExpr *Pre, Symbol X,
                                   const Expr *Index, const Expr *Value,
                                   VarTag Tag) {
  Symbol X0 = Ctx.freshSym(X);
  Subst Rename;
  if (!Index) {
    Rename.mapVar(X, Tag, Ctx.var(X0, Tag));
    const BoolExpr *Renamed = substitute(Ctx, Pre, Rename);
    const Expr *RHS = substitute(Ctx, onSide(Ctx, Value, Tag), Rename);
    return Ctx.exists(X0, Tag, VarKind::Int,
                      Ctx.andExpr(Renamed, Ctx.eq(Ctx.var(X, Tag), RHS)));
  }
  Rename.mapArray(X, Tag, Ctx.arrayRef(X0, Tag));
  const BoolExpr *Renamed = substitute(Ctx, Pre, Rename);
  const Expr *Idx = substitute(Ctx, onSide(Ctx, Index, Tag), Rename);
  const Expr *Val = substitute(Ctx, onSide(Ctx, Value, Tag), Rename);
  const ArrayExpr *NewVal = Ctx.arrayStore(Ctx.arrayRef(X0, Tag), Idx, Val);
  return Ctx.exists(
      X0, Tag, VarKind::Array,
      Ctx.andExpr(Renamed, Ctx.arrayEq(Ctx.arrayRef(X, Tag), NewVal)));
}
