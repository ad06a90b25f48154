//===- UnaryVCGen.cpp - Axiomatic original/intermediate semantics -------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/UnaryVCGen.h"

#include "logic/FormulaOps.h"
#include "sema/Sema.h"
#include "support/Casting.h"

#include <cassert>
#include <type_traits>

using namespace relax;

UnaryVCGen::UnaryVCGen(AstContext &Ctx, const Program &Prog, JudgmentKind J,
                       DiagnosticEngine &Diags, VCGenOptions Opts)
    : VCGenBase(Ctx, Prog, J, Diags, Opts) {
  assert(J != JudgmentKind::Relaxed &&
         "UnaryVCGen handles |-o and |-i only; use RelationalVCGen for |-r");
}

template <typename T>
void UnaryVCGen::emitSafety(const BoolExpr *Pre, const T *Program,
                            const char *Rule, SourceLoc Loc) {
  if (const BoolExpr *Safe = trapFree(Program))
    emitValidity(Ctx.implies(Pre, Safe), Rule, Loc,
                 std::string(std::is_base_of_v<Expr, T> ? "expression"
                                                        : "predicate") +
                     " evaluation cannot trap (division, array bounds)");
}

const BoolExpr *UnaryVCGen::genAssertLike(const BoolExpr *Pred, SourceLoc Loc,
                                          const BoolExpr *Pre,
                                          const char *Rule, const char *What) {
  emitSafety(Pre, Pred, Rule, Loc);
  emitValidity(Ctx.implies(Pre, Pred), Rule, Loc,
               std::string("the ") + What + " predicate holds");
  return maybeSimplify(Ctx.andExpr(Pre, Pred));
}

const BoolExpr *UnaryVCGen::genHavocLike(const ChoiceStmtBase *S,
                                         const BoolExpr *Pre,
                                         const char *Rule) {
  // Rename X to fresh X' in Pre, existentially quantify X', conjoin e.
  std::vector<VarRef> Fresh;
  const BoolExpr *Body =
      renameFresh(choiceVars(S, VarTag::Plain), Pre, Fresh);

  // The satisfiability premise of the havoc rule (Figure 7): some choice of
  // X must satisfy e. X' (the old values) stay free in the query.
  emitSat(Ctx.conj({Body, S->pred()}), Rule, S->loc(),
          "some assignment to the havoc/relax variables satisfies the "
          "predicate");

  const BoolExpr *Quantified = existsOver(Fresh, Body);
  emitSafety(Quantified, S->pred(), Rule, S->loc());
  return maybeSimplify(Ctx.andExpr(Quantified, S->pred()));
}

const BoolExpr *UnaryVCGen::genStmt(const Stmt *S, const BoolExpr *Pre) {
  CurStmt = S; // provenance: VCs emitted below originate from S
  switch (S->kind()) {
  case Stmt::Kind::Skip:
    return record("skip", S, Pre, Pre);

  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    emitSafety(Pre, A->value(), "assign", S->loc());
    return record("assign", S, Pre,
                  maybeSimplify(spWrite(Pre, A->var(), nullptr, A->value(),
                                        VarTag::Plain)));
  }

  case Stmt::Kind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(S);
    emitSafety(Pre, A->index(), "array-assign", S->loc());
    emitSafety(Pre, A->value(), "array-assign", S->loc());
    // The store itself must be in bounds.
    if (const BoolExpr *InBounds = storeInBounds(A))
      emitValidity(Ctx.implies(Pre, InBounds), "array-assign", S->loc(),
                   "array store index is in bounds");
    return record("array-assign", S, Pre,
                  maybeSimplify(spWrite(Pre, A->array(), A->index(),
                                        A->value(), VarTag::Plain)));
  }

  case Stmt::Kind::Havoc: {
    return record("havoc", S, Pre,
                  genHavocLike(cast<ChoiceStmtBase>(S), Pre, "havoc"));
  }

  case Stmt::Kind::Relax: {
    const auto *R = cast<RelaxStmt>(S);
    if (Judgment == JudgmentKind::Original) {
      // Figure 7: relax is an assert of its predicate; the original
      // execution must remain one of the allowed relaxed executions.
      return record("relax(assert)", S, Pre,
                    genAssertLike(R->pred(), S->loc(), Pre, "relax", "relax"));
    }
    // Figure 9: relax may apply any modification satisfying e.
    return record("relax(havoc)", S, Pre, genHavocLike(R, Pre, "relax"));
  }

  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    emitSafety(Pre, I->cond(), "if", S->loc());
    const BoolExpr *ThenPre = maybeSimplify(Ctx.andExpr(Pre, I->cond()));
    const BoolExpr *ElsePre =
        maybeSimplify(Ctx.andExpr(Pre, Ctx.notExpr(I->cond())));
    const BoolExpr *ThenPost = genStmt(I->thenStmt(), ThenPre);
    const BoolExpr *ElsePost = genStmt(I->elseStmt(), ElsePre);
    return record("if", S, Pre, maybeSimplify(Ctx.orExpr(ThenPost, ElsePost)));
  }

  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    const LoopAnnotations *Ann = W->annotations();
    const BoolExpr *Inv = Ann->Invariant;
    if (Judgment == JudgmentKind::Intermediate && Ann->IntermediateInvariant)
      Inv = Ann->IntermediateInvariant;
    if (!Inv) {
      Diags.warning(S->loc(),
                    std::string("while loop has no ") +
                        (Judgment == JudgmentKind::Intermediate
                             ? "intermediate invariant"
                             : "invariant") +
                        "; defaulting to 'true'");
      Inv = Ctx.trueExpr();
    }
    emitValidity(Ctx.implies(Pre, Inv), "while", S->loc(),
                 "the loop invariant holds on entry");
    emitSafety(Inv, W->cond(), "while", S->loc());
    const BoolExpr *BodyPre = maybeSimplify(Ctx.andExpr(Inv, W->cond()));

    // Termination variant (Section 6 extension): snapshot the variant in a
    // fresh variable before the body; it must be bounded below and must
    // strictly decrease. The snapshot rides along the single body SP so no
    // obligations are generated twice.
    const Expr *Variant = Ann->Variant;
    Symbol Snapshot;
    if (Variant) {
      emitSafety(BodyPre, Variant, "while:variant", S->loc());
      emitValidity(Ctx.implies(BodyPre, Ctx.ge(Variant, Ctx.intLit(0))),
                   "while:variant", S->loc(),
                   "the termination variant is bounded below while the "
                   "loop runs");
      Snapshot = Ctx.freshSym(Ctx.sym("variant"));
      BodyPre = maybeSimplify(Ctx.andExpr(
          BodyPre, Ctx.eq(Variant, Ctx.var(Snapshot, VarTag::Plain))));
    }

    const BoolExpr *BodyPost = genStmt(W->body(), BodyPre);
    CurStmt = S; // back out of the body: these VCs belong to the loop
    emitValidity(Ctx.implies(BodyPost, Inv), "while", S->loc(),
                 "the loop invariant is preserved by the body");
    if (Variant)
      emitValidity(
          Ctx.implies(BodyPost,
                      Ctx.lt(Variant, Ctx.var(Snapshot, VarTag::Plain))),
          "while:variant", S->loc(),
          "the termination variant strictly decreases across the body");
    return record("while", S, Pre,
                  maybeSimplify(Ctx.andExpr(Inv, Ctx.notExpr(W->cond()))));
  }

  case Stmt::Kind::Assume: {
    const auto *A = cast<AssumeStmt>(S);
    if (Judgment == JudgmentKind::Original) {
      // Figure 7: no obligation; the assumption lands in the postcondition
      // (the execution may dynamically fail with ba).
      emitSafety(Pre, A->pred(), "assume", S->loc());
      return record("assume", S, Pre,
                    maybeSimplify(Ctx.andExpr(Pre, A->pred())));
    }
    // Figure 9: the relaxed execution must not violate assumptions either,
    // so assume carries an assert-strength obligation (Lemma 4).
    return record("assume(assert)", S, Pre,
                  genAssertLike(A->pred(), S->loc(), Pre, "assume", "assume"));
  }

  case Stmt::Kind::Assert: {
    const auto *A = cast<AssertStmt>(S);
    return record("assert", S, Pre,
                  genAssertLike(A->pred(), S->loc(), Pre, "assert", "assert"));
  }

  case Stmt::Kind::Relate:
    // Figure 7: relate is a skip for the unary semantics.
    return record("relate(skip)", S, Pre, Pre);

  case Stmt::Kind::Call: {
    // Modular summary instantiation: assert the callee's requires, havoc
    // its effective modifies frame, assume its ensures. The callee's body
    // is verified once on its own; N call sites cost N instantiations,
    // not N re-traversals.
    const auto *C = cast<CallStmt>(S);
    const Procedure *Callee = Prog.procedure(C->callee());
    if (!Callee) {
      Diags.error(S->loc(), "call to undefined procedure");
      return Pre;
    }

    // The requires check instantiates parameters with the argument
    // expressions directly: both are evaluated in the pre-call state, and
    // keeping this obligation free of fresh symbols keeps its
    // counterexamples (and hence report bit-identity) independent of how
    // many fresh names earlier runs drew from the shared interner.
    Subst ParamToArgExpr;
    for (size_t I = 0, E = C->argCount(); I != E; ++I) {
      emitSafety(Pre, C->arg(I), "call", S->loc());
      if (I < Callee->params().size())
        ParamToArgExpr.mapVar(Callee->params()[I].Name, VarTag::Plain,
                              C->arg(I));
    }
    if (const BoolExpr *Req = Callee->requiresClause())
      emitValidity(Ctx.implies(Pre, substitute(Ctx, Req, ParamToArgExpr)),
                   "call", S->loc(),
                   "the callee's requires clause holds at the call site");

    // For the havoc/ensures part, snapshot arguments in fresh symbols so
    // the instantiated ensures refers to the values passed at the call,
    // not post-havoc globals. The snapshots are existentially quantified
    // into the postcondition below, so no fresh name escapes into later
    // obligations free.
    Subst ParamToArg;
    std::vector<Symbol> ArgSyms;
    std::vector<const BoolExpr *> Binds;
    for (size_t I = 0, E = C->argCount(); I != E; ++I) {
      Symbol A = Ctx.freshSym(I < Callee->params().size()
                                  ? Callee->params()[I].Name
                                  : Ctx.sym("arg"));
      ArgSyms.push_back(A);
      Binds.push_back(Ctx.eq(Ctx.var(A, VarTag::Plain), C->arg(I)));
      if (I < Callee->params().size())
        ParamToArg.mapVar(Callee->params()[I].Name, VarTag::Plain,
                          Ctx.var(A, VarTag::Plain));
    }
    const BoolExpr *Bound = Ctx.conj({Pre, Ctx.conj(Binds)});

    // Havoc the frame: rename its variables to fresh pre-call names,
    // existentially quantify those, keep array lengths invariant.
    std::vector<VarRef> Old;
    const BoolExpr *Quantified = existsOver(
        Old, renameFresh(effectiveModifies(Prog, *Callee), Bound, Old));

    const BoolExpr *Ens =
        Callee->ensuresClause()
            ? substitute(Ctx, Callee->ensuresClause(), ParamToArg)
            : Ctx.trueExpr();
    const BoolExpr *Post = Ctx.andExpr(Quantified, Ens);
    for (auto It = ArgSyms.rbegin(); It != ArgSyms.rend(); ++It)
      Post = Ctx.exists(*It, VarTag::Plain, VarKind::Int, Post);
    return record("call", S, Pre, maybeSimplify(Post));
  }

  case Stmt::Kind::Seq: {
    const auto *Q = cast<SeqStmt>(S);
    const BoolExpr *Mid = genStmt(Q->first(), Pre);
    return genStmt(Q->second(), Mid);
  }
  }
  return Pre;
}

void UnaryVCGen::genTriple(const BoolExpr *Pre, const Stmt *S,
                           const BoolExpr *Post) {
  const BoolExpr *SP = genStmt(S, Pre);
  CurStmt = nullptr; // a whole-triple obligation, not tied to one statement
  emitValidity(Ctx.implies(SP, Post), "consequence", S->loc(),
               "the postcondition follows from the strongest postcondition");
}
