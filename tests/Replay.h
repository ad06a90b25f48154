//===- Replay.h - Obligation queries and counterexample replay -*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the suites that replay a refutation's counterexample share: every
/// obligation of a program with its solver query, and the one-point
/// elimination that makes a query evaluable by `evalFormula`.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_TESTS_REPLAY_H
#define RELAXC_TESTS_REPLAY_H

#include "TestUtil.h"

#include "logic/FormulaOps.h"
#include "sema/Sema.h"
#include "support/Casting.h"
#include "vcgen/Discharge.h"

#include <utility>
#include <vector>

namespace relax {
namespace test {

/// Every obligation of both judgment passes of \p P, in report order,
/// paired with its solver query.
inline std::vector<std::pair<VC, const BoolExpr *>>
passQueries(ParsedProgram &P) {
  std::vector<std::pair<VC, const BoolExpr *>> Out;
  DiagnosticEngine Diags;
  std::optional<SemaInfo> Info = Sema(*P.Prog, Diags).run();
  EXPECT_TRUE(Info.has_value()) << Diags.render();
  if (!Info)
    return Out;
  for (JudgmentKind Pass : {JudgmentKind::Original, JudgmentKind::Relaxed}) {
    VCSet Set = Verifier::passVCs(*P.Ctx, *P.Prog, *Info, Pass, Diags,
                                  VCGenOptions());
    for (const VC &C : Set.VCs)
      Out.emplace_back(C, vcQuery(*P.Ctx, C));
  }
  return Out;
}

/// An e with `x == e` or `e == x` among the conjuncts of \p B (looking
/// through nested existentials that neither rebind x nor bind a
/// variable of e), x not free in e; null if there is none.
inline const Expr *definitionOf(const BoolExpr *B, const VarRef &X) {
  if (const auto *L = dyn_cast<LogicalExpr>(B)) {
    if (L->op() != LogicalOp::And)
      return nullptr;
    const Expr *D = definitionOf(L->lhs(), X);
    return D ? D : definitionOf(L->rhs(), X);
  }
  if (const auto *E = dyn_cast<ExistsExpr>(B)) {
    VarRef Bound{E->var(), E->tag(), E->varKind()};
    if (Bound == X)
      return nullptr;
    const Expr *D = definitionOf(E->body(), X);
    return D && !freeVars(D).count(Bound) ? D : nullptr;
  }
  const auto *C = dyn_cast<CmpExpr>(B);
  if (!C || C->op() != CmpOp::Eq)
    return nullptr;
  auto IsX = [&](const Expr *E) {
    const auto *V = dyn_cast<VarExpr>(E);
    return V && V->name() == X.Name && V->tag() == X.Tag;
  };
  if (IsX(C->lhs()) && !freeVars(C->rhs()).count(X))
    return C->rhs();
  if (IsX(C->rhs()) && !freeVars(C->lhs()).count(X))
    return C->lhs();
  return nullptr;
}

/// Rewrites every `exists x . B` whose body defines x (definitionOf) to
/// B[x := e]. The rewrite is an equivalence over Z, and it removes the
/// existentials havoc and relax freshening introduce, whose witnesses
/// may lie outside evalFormula's quantifier domain and whose nesting
/// makes its enumeration exponential.
inline const BoolExpr *eliminateOnePoint(AstContext &Ctx, const BoolExpr *B) {
  if (const auto *N = dyn_cast<NotExpr>(B))
    return Ctx.notExpr(eliminateOnePoint(Ctx, N->sub()));
  if (const auto *L = dyn_cast<LogicalExpr>(B))
    return Ctx.logical(L->op(), eliminateOnePoint(Ctx, L->lhs()),
                       eliminateOnePoint(Ctx, L->rhs()));
  const auto *E = dyn_cast<ExistsExpr>(B);
  if (!E)
    return B;
  const BoolExpr *Body = eliminateOnePoint(Ctx, E->body());
  if (E->varKind() == VarKind::Int)
    if (const Expr *D =
            definitionOf(Body, VarRef{E->var(), E->tag(), VarKind::Int})) {
      Subst S;
      S.mapVar(E->var(), E->tag(), D);
      return substitute(Ctx, Body, S);
    }
  return Ctx.exists(E->var(), E->tag(), E->varKind(), Body);
}

} // namespace test
} // namespace relax

#endif // RELAXC_TESTS_REPLAY_H
