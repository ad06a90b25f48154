//===- RelationalVCGen.cpp - Axiomatic relaxed semantics ----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/RelationalVCGen.h"

#include "sema/Sema.h"
#include "support/Casting.h"

#include <tuple>

using namespace relax;

namespace {

/// emitSafety's side for the lockstep rules: both executions.
constexpr VarTag BothSides = VarTag::Plain;

/// Each of \p Vars on the original side, then on the relaxed side.
template <typename VarList>
std::vector<VarRef> bothSides(const VarList &Vars) {
  std::vector<VarRef> Out;
  for (const VarRef &V : Vars)
    for (VarTag Tag : {VarTag::Orig, VarTag::Rel})
      Out.push_back(VarRef{V.Name, Tag, V.Kind});
  return Out;
}

} // namespace

RelationalVCGen::RelationalVCGen(AstContext &Ctx, const Program &Prog,
                                 DiagnosticEngine &Diags, VCGenOptions Opts)
    : VCGenBase(Ctx, Prog, JudgmentKind::Relaxed, Diags, Opts) {}

void RelationalVCGen::emitSafety(const BoolExpr *Pre, const BoolExpr *Safe,
                                 VarTag Side, const char *Rule,
                                 SourceLoc Loc) {
  if (!Safe)
    return;
  // The original side's safety is re-established here (it also follows from
  // the |-o pass); the relaxed side is the genuinely new obligation.
  if (Side == BothSides)
    emitValidity(Ctx.implies(Pre, bothTrue(Safe)), Rule, Loc,
                 "evaluation cannot trap in either execution");
  else
    emitValidity(Ctx.implies(Pre, inject(Ctx, Safe, Side)), Rule, Loc,
                 std::string("evaluation cannot trap in the ") +
                     (Side == VarTag::Orig ? "original" : "relaxed") +
                     " execution");
}

const BoolExpr *RelationalVCGen::bothTrue(const BoolExpr *B) {
  return Ctx.andExpr(inject(Ctx, B, VarTag::Orig),
                     inject(Ctx, B, VarTag::Rel));
}

const BoolExpr *RelationalVCGen::bothFalse(const BoolExpr *B) {
  return Ctx.andExpr(Ctx.notExpr(inject(Ctx, B, VarTag::Orig)),
                     Ctx.notExpr(inject(Ctx, B, VarTag::Rel)));
}

void RelationalVCGen::emitConvergence(const BoolExpr *Pre,
                                      const BoolExpr *Cond, const char *Rule,
                                      SourceLoc Loc) {
  emitValidity(
      Ctx.implies(Pre, Ctx.orExpr(bothTrue(Cond), bothFalse(Cond))), Rule,
      Loc,
      "control flow is convergent: both executions take the same branch "
      "(add a `diverge` annotation if they may not)");
}

const BoolExpr *RelationalVCGen::freshenSide(const ChoiceStmtBase *S,
                                             const BoolExpr *Pre,
                                             VarTag Tag) {
  std::vector<VarRef> Fresh;
  return existsOver(Fresh, renameFresh(choiceVars(S, Tag), Pre, Fresh));
}

const BoolExpr *RelationalVCGen::genAssertOrAssume(const BoolExpr *Pred,
                                                   SourceLoc Loc,
                                                   const BoolExpr *Pre,
                                                   const char *Rule) {
  const BoolExpr *InjO = inject(Ctx, Pred, VarTag::Orig);
  const BoolExpr *InjR = inject(Ctx, Pred, VarTag::Rel);
  // Relational transfer: assuming the original execution satisfied the
  // predicate (established by |-o for assert; assumed for assume), the
  // relation must establish it for the relaxed execution.
  emitValidity(Ctx.implies(Ctx.andExpr(Pre, InjO), InjR), Rule, Loc,
               "the predicate transfers from the original to the relaxed "
               "execution");
  if (const BoolExpr *Safe = trapFree(Pred))
    emitValidity(
        Ctx.implies(Ctx.conj({Pre, InjO, inject(Ctx, Safe, VarTag::Orig)}),
                    inject(Ctx, Safe, VarTag::Rel)),
        Rule, Loc, "relaxed-side evaluation cannot trap");
  return maybeSimplify(Ctx.conj({Pre, InjO, InjR}));
}

const BoolExpr *RelationalVCGen::genDiverge(const Stmt *S,
                                            const DivergeAnnotation *D,
                                            const BoolExpr *Pre) {
  const BoolExpr *Po = D->PreOrig ? D->PreOrig : Ctx.trueExpr();
  const BoolExpr *Pr = D->PreRel ? D->PreRel : Ctx.trueExpr();
  const BoolExpr *Qo = D->PostOrig ? D->PostOrig : Ctx.trueExpr();
  const BoolExpr *Qr = D->PostRel ? D->PostRel : Ctx.trueExpr();

  // no_rel(s): relate statements have no meaning without lockstep. The
  // check looks through calls: a callee running solo under |-o / |-i has
  // no lockstep partner either.
  if (containsRelate(S, Prog)) {
    Diags.error(S->loc(), "diverge rule applied to a statement containing "
                          "relate (no_rel violated)");
    return Ctx.falseExpr();
  }

  // P* |=o Po and P* |=r Pr (projection entailments, Section 3.1.2).
  emitValidity(Ctx.implies(Pre, inject(Ctx, Po, VarTag::Orig)), "diverge",
               S->loc(),
               "the original projection of the precondition implies the "
               "diverge pre_orig annotation");
  emitValidity(Ctx.implies(Pre, inject(Ctx, Pr, VarTag::Rel)), "diverge",
               S->loc(),
               "the relaxed projection of the precondition implies the "
               "diverge pre_rel annotation");

  // |-o {Po} s {Qo}: the original execution runs solo. |-i {Pr} s {Qr}:
  // the relaxed execution runs solo and must be inherently error free
  // (Lemma 4 powers Theorem 7 here).
  for (auto [J, P, Q] : {std::tuple(JudgmentKind::Original, Po, Qo),
                         std::tuple(JudgmentKind::Intermediate, Pr, Qr)}) {
    UnaryVCGen Sub(Ctx, Prog, J, Diags, Opts);
    Sub.setProcName(ProcName);
    Sub.genTriple(P, S, Q);
    VCSet SubSet = Sub.take();
    for (VC &V : SubSet.VCs)
      V.Rule = "diverge/" + V.Rule;
    for (DerivationStep &St : SubSet.Derivation)
      St.Rule = "diverge/" + St.Rule;
    Out.append(std::move(SubSet));
  }

  // Relational frame rule: a relational formula over variables the
  // statement does not modify survives the divergence.
  const BoolExpr *Frame = Ctx.trueExpr();
  if (D->Frame) {
    VarRefSet Mod = modifiedVars(S, Prog);
    VarRefSet FrameVars = freeVars(D->Frame);
    for (const VarRef &V : FrameVars) {
      // Frame variables are tagged; compare by name against the (Plain)
      // modified set.
      if (Mod.count(VarRef{V.Name, VarTag::Plain, V.Kind})) {
        Diags.error(S->loc(),
                    "diverge frame references a variable the statement "
                    "modifies");
        return Ctx.falseExpr();
      }
    }
    emitValidity(Ctx.implies(Pre, D->Frame), "diverge", S->loc(),
                 "the precondition establishes the frame");
    Frame = D->Frame;
  }

  // Automatic semantic frame: the statement modifies only mod(s), so the
  // precondition with those variables existentially rebound on *both*
  // sides persists across the divergence (the relational frame rule
  // applied to all of P* at once; it subsumes the explicit Frame, which
  // remains useful as a cheaper-to-instantiate hint for the solver).
  // Array lengths are execution-invariant, so length links are kept.
  std::vector<VarRef> Fresh;
  const BoolExpr *AutoFrame = existsOver(
      Fresh, renameFresh(bothSides(modifiedVars(S, Prog)), Pre, Fresh));

  return record("diverge", S, Pre,
                maybeSimplify(Ctx.conj({inject(Ctx, Qo, VarTag::Orig),
                                        inject(Ctx, Qr, VarTag::Rel), Frame,
                                        AutoFrame})));
}

const BoolExpr *RelationalVCGen::genStmtOneSided(const Stmt *S,
                                                 const BoolExpr *Pre,
                                                 VarTag Side) {
  CurStmt = S; // provenance: one-sided VCs originate from S too
  const char *RulePrefix =
      Side == VarTag::Orig ? "cases/orig" : "cases/rel";
  switch (S->kind()) {
  case Stmt::Kind::Skip:
    return Pre;

  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    emitSafety(Pre, trapFree(A->value()), Side, RulePrefix, S->loc());
    return maybeSimplify(spWrite(Pre, A->var(), nullptr, A->value(), Side));
  }

  case Stmt::Kind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(S);
    emitSafety(Pre, trapFree(A->index()), Side, RulePrefix, S->loc());
    emitSafety(Pre, trapFree(A->value()), Side, RulePrefix, S->loc());
    if (const BoolExpr *InBounds = storeInBounds(A))
      emitValidity(Ctx.implies(Pre, inject(Ctx, InBounds, Side)), RulePrefix,
                   S->loc(), "array store index is in bounds");
    return maybeSimplify(
        spWrite(Pre, A->array(), A->index(), A->value(), Side));
  }

  case Stmt::Kind::Havoc: {
    const auto *H = cast<HavocStmt>(S);
    emitSat(Ctx.andExpr(freshenSide(H, Pre, Side),
                        inject(Ctx, H->pred(), Side)),
            RulePrefix, S->loc(), "the havoc predicate is satisfiable");
    return maybeSimplify(Ctx.andExpr(freshenSide(H, Pre, Side),
                                     inject(Ctx, H->pred(), Side)));
  }

  case Stmt::Kind::Relax: {
    const auto *R = cast<RelaxStmt>(S);
    if (Side == VarTag::Orig)
      // The original semantics executes relax as an assert of e (proved by
      // the |-o pass); a successful original execution establishes e.
      return maybeSimplify(
          Ctx.andExpr(Pre, inject(Ctx, R->pred(), VarTag::Orig)));
    emitSat(Ctx.andExpr(freshenSide(R, Pre, VarTag::Rel),
                        inject(Ctx, R->pred(), VarTag::Rel)),
            RulePrefix, S->loc(), "the relaxation predicate is satisfiable");
    return maybeSimplify(Ctx.andExpr(freshenSide(R, Pre, VarTag::Rel),
                                     inject(Ctx, R->pred(), VarTag::Rel)));
  }

  case Stmt::Kind::Assert:
  case Stmt::Kind::Assume: {
    const BoolExpr *Pred = S->kind() == Stmt::Kind::Assert
                               ? cast<AssertStmt>(S)->pred()
                               : cast<AssumeStmt>(S)->pred();
    if (Side == VarTag::Orig)
      // Established (assert) or assumed (assume) by the original pass.
      return maybeSimplify(Ctx.andExpr(Pre, inject(Ctx, Pred, VarTag::Orig)));
    // The relaxed execution runs without an original counterpart, so both
    // assert and assume carry full obligations (as in |-i, Figure 9).
    emitSafety(Pre, trapFree(Pred), Side, RulePrefix, S->loc());
    emitValidity(Ctx.implies(Pre, inject(Ctx, Pred, VarTag::Rel)), RulePrefix,
                 S->loc(),
                 "the predicate holds for the relaxed execution in this "
                 "branch combination");
    return maybeSimplify(Ctx.andExpr(Pre, inject(Ctx, Pred, VarTag::Rel)));
  }

  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    emitSafety(Pre, trapFree(I->cond()), Side, RulePrefix, S->loc());
    const BoolExpr *B = inject(Ctx, I->cond(), Side);
    const BoolExpr *ThenPost = genStmtOneSided(
        I->thenStmt(), maybeSimplify(Ctx.andExpr(Pre, B)), Side);
    const BoolExpr *ElsePost = genStmtOneSided(
        I->elseStmt(), maybeSimplify(Ctx.andExpr(Pre, Ctx.notExpr(B))), Side);
    return maybeSimplify(Ctx.orExpr(ThenPost, ElsePost));
  }

  case Stmt::Kind::Seq: {
    const auto *Q = cast<SeqStmt>(S);
    const BoolExpr *Mid = genStmtOneSided(Q->first(), Pre, Side);
    return genStmtOneSided(Q->second(), Mid, Side);
  }

  case Stmt::Kind::Call:
    // Sema rejects this first; a one-sided summary instantiation would
    // need per-side contracts the language does not have.
    Diags.error(S->loc(),
                "'diverge cases' branches must not contain procedure calls");
    return Ctx.falseExpr();

  case Stmt::Kind::While:
  case Stmt::Kind::Relate:
    Diags.error(S->loc(), "loops and relate statements cannot appear inside "
                          "a 'diverge cases' region");
    return Ctx.falseExpr();
  }
  return Pre;
}

const BoolExpr *RelationalVCGen::genIfCases(const IfStmt *I,
                                            const BoolExpr *Pre) {
  emitSafety(Pre, trapFree(I->cond()), BothSides, "cases", I->loc());
  const BoolExpr *Bo = inject(Ctx, I->cond(), VarTag::Orig);
  const BoolExpr *Br = inject(Ctx, I->cond(), VarTag::Rel);

  std::vector<const BoolExpr *> CasePosts;
  struct Combo {
    bool OrigTaken;
    bool RelTaken;
  };
  for (Combo C : {Combo{true, true}, Combo{true, false}, Combo{false, true},
                  Combo{false, false}}) {
    const BoolExpr *CasePre = maybeSimplify(Ctx.conj(
        {Pre, C.OrigTaken ? Bo : Ctx.notExpr(Bo),
         C.RelTaken ? Br : Ctx.notExpr(Br)}));
    const Stmt *OrigStmt = C.OrigTaken ? I->thenStmt() : I->elseStmt();
    const Stmt *RelStmt = C.RelTaken ? I->thenStmt() : I->elseStmt();
    const BoolExpr *AfterOrig =
        genStmtOneSided(OrigStmt, CasePre, VarTag::Orig);
    const BoolExpr *AfterBoth =
        genStmtOneSided(RelStmt, AfterOrig, VarTag::Rel);
    CasePosts.push_back(AfterBoth);
  }
  return record("diverge-cases", I, Pre, maybeSimplify(Ctx.disj(CasePosts)));
}

const BoolExpr *RelationalVCGen::genStmt(const Stmt *S, const BoolExpr *Pre) {
  CurStmt = S; // provenance: VCs emitted below originate from S
  switch (S->kind()) {
  case Stmt::Kind::Skip:
    return record("skip", S, Pre, Pre);

  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    emitSafety(Pre, trapFree(A->value()), BothSides, "assign", S->loc());
    const BoolExpr *Post = Pre;
    // Both executions perform the assignment in lockstep; rename each
    // side's target and conjoin its defining equation.
    for (VarTag Tag : {VarTag::Orig, VarTag::Rel})
      Post = spWrite(Post, A->var(), nullptr, A->value(), Tag);
    return record("assign", S, Pre, maybeSimplify(Post));
  }

  case Stmt::Kind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(S);
    emitSafety(Pre, trapFree(A->index()), BothSides, "array-assign", S->loc());
    emitSafety(Pre, trapFree(A->value()), BothSides, "array-assign", S->loc());
    if (const BoolExpr *InBounds = storeInBounds(A))
      emitValidity(Ctx.implies(Pre, bothTrue(InBounds)), "array-assign",
                   S->loc(),
                   "array store index is in bounds in both executions");
    const BoolExpr *Post = Pre;
    for (VarTag Tag : {VarTag::Orig, VarTag::Rel})
      Post = spWrite(Post, A->array(), A->index(), A->value(), Tag);
    return record("array-assign", S, Pre, maybeSimplify(Post));
  }

  case Stmt::Kind::Havoc: {
    const auto *H = cast<HavocStmt>(S);
    // Both executions choose independently, each subject to e.
    emitSat(Ctx.andExpr(freshenSide(H, Pre, VarTag::Orig),
                        inject(Ctx, H->pred(), VarTag::Orig)),
            "havoc", S->loc(),
            "the original execution's havoc predicate is satisfiable");
    emitSat(Ctx.andExpr(freshenSide(H, Pre, VarTag::Rel),
                        inject(Ctx, H->pred(), VarTag::Rel)),
            "havoc", S->loc(),
            "the relaxed execution's havoc predicate is satisfiable");
    const BoolExpr *Fresh =
        freshenSide(H, freshenSide(H, Pre, VarTag::Orig), VarTag::Rel);
    return record("havoc", S, Pre,
                  maybeSimplify(Ctx.conj(
                      {Fresh, inject(Ctx, H->pred(), VarTag::Orig),
                       inject(Ctx, H->pred(), VarTag::Rel)})));
  }

  case Stmt::Kind::Relax: {
    const auto *R = cast<RelaxStmt>(S);
    // Figure 8 relax rule: only the relaxed side re-chooses X; the
    // original side keeps its values (relax is a no-op under ⇓o).
    emitSat(Ctx.andExpr(freshenSide(R, Pre, VarTag::Rel),
                        inject(Ctx, R->pred(), VarTag::Rel)),
            "relax", S->loc(),
            "the relaxation predicate is satisfiable for the relaxed "
            "execution");
    const BoolExpr *Fresh = freshenSide(R, Pre, VarTag::Rel);
    // <e . e>: the original execution satisfied e as an assert (so it is
    // available), and the relaxed execution's new values satisfy e.
    return record("relax", S, Pre,
                  maybeSimplify(Ctx.conj(
                      {Fresh, inject(Ctx, R->pred(), VarTag::Orig),
                       inject(Ctx, R->pred(), VarTag::Rel)})));
  }

  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    if (const DivergeAnnotation *D = I->diverge()) {
      if (D->CaseAnalysis)
        return genIfCases(I, Pre);
      return genDiverge(S, D, Pre);
    }
    emitSafety(Pre, trapFree(I->cond()), BothSides, "if", S->loc());
    emitConvergence(Pre, I->cond(), "if", S->loc());
    const BoolExpr *ThenPre = maybeSimplify(Ctx.andExpr(Pre, bothTrue(I->cond())));
    const BoolExpr *ElsePre =
        maybeSimplify(Ctx.andExpr(Pre, bothFalse(I->cond())));
    const BoolExpr *ThenPost = genStmt(I->thenStmt(), ThenPre);
    const BoolExpr *ElsePost = genStmt(I->elseStmt(), ElsePre);
    return record("if", S, Pre, maybeSimplify(Ctx.orExpr(ThenPost, ElsePost)));
  }

  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    if (const DivergeAnnotation *D = W->diverge())
      return genDiverge(S, D, Pre);
    const BoolExpr *Inv = W->annotations()->RelInvariant;
    if (!Inv) {
      Diags.warning(S->loc(), "while loop has no relational invariant; "
                              "defaulting to 'true'");
      Inv = Ctx.trueExpr();
    }
    emitValidity(Ctx.implies(Pre, Inv), "while", S->loc(),
                 "the relational loop invariant holds on entry");
    emitConvergence(Inv, W->cond(), "while", S->loc());
    emitSafety(Inv, trapFree(W->cond()), BothSides, "while", S->loc());
    const BoolExpr *BodyPre =
        maybeSimplify(Ctx.andExpr(Inv, bothTrue(W->cond())));

    // Relative termination (the paper's Section 6 anticipation): control
    // flow is convergent, so both executions take the same trip count. A
    // variant on the *original* side therefore bounds both executions: if
    // the original loop terminates, the relaxed loop terminates with it.
    const Expr *Variant = W->annotations()->Variant;
    Symbol Snapshot;
    if (Variant) {
      const Expr *VariantO = inject(Ctx, Variant, VarTag::Orig);
      emitValidity(Ctx.implies(BodyPre, Ctx.ge(VariantO, Ctx.intLit(0))),
                   "while:variant", S->loc(),
                   "the original execution's variant is bounded below");
      Snapshot = Ctx.freshSym(Ctx.sym("variant"));
      BodyPre = maybeSimplify(Ctx.andExpr(
          BodyPre, Ctx.eq(VariantO, Ctx.var(Snapshot, VarTag::Orig))));
    }

    const BoolExpr *BodyPost = genStmt(W->body(), BodyPre);
    CurStmt = S; // back out of the body: these VCs belong to the loop
    emitValidity(Ctx.implies(BodyPost, Inv), "while", S->loc(),
                 "the relational loop invariant is preserved by the body");
    if (Variant)
      emitValidity(
          Ctx.implies(BodyPost, Ctx.lt(inject(Ctx, Variant, VarTag::Orig),
                                       Ctx.var(Snapshot, VarTag::Orig))),
          "while:variant", S->loc(),
          "the original execution's variant strictly decreases (relative "
          "termination)");
    return record("while", S, Pre,
                  maybeSimplify(Ctx.andExpr(Inv, bothFalse(W->cond()))));
  }

  case Stmt::Kind::Assume: {
    const auto *A = cast<AssumeStmt>(S);
    return record("assume", S, Pre,
                  genAssertOrAssume(A->pred(), S->loc(), Pre, "assume"));
  }

  case Stmt::Kind::Assert: {
    const auto *A = cast<AssertStmt>(S);
    return record("assert", S, Pre,
                  genAssertOrAssume(A->pred(), S->loc(), Pre, "assert"));
  }

  case Stmt::Kind::Relate: {
    const auto *R = cast<RelateStmt>(S);
    emitValidity(Ctx.implies(Pre, R->pred()), "relate", S->loc(),
                 "the relate predicate holds for all lockstep pairs "
                 "reaching this point");
    return record("relate", S, Pre, maybeSimplify(Ctx.andExpr(Pre, R->pred())));
  }

  case Stmt::Kind::Call: {
    // Lockstep summary instantiation: both executions share control flow,
    // so they call the procedure together. Assert the callee's effective
    // relational precondition (its rrequires, or the default identity
    // relation over globals and parameters plus both-side requires), havoc
    // its effective frame on *both* sides, and assume its rensures. The
    // callee's body — verified once under its own |-r summary run — is
    // never re-traversed here.
    const auto *C = cast<CallStmt>(S);
    const Procedure *Callee = Prog.procedure(C->callee());
    if (!Callee) {
      Diags.error(S->loc(), "call to undefined procedure");
      return Pre;
    }
    // The relational-precondition check instantiates each parameter with
    // the call's argument expression, per tag — both evaluated in the
    // pre-call state. Substituting the expressions directly (rather than
    // going through the fresh snapshots below) keeps this obligation free
    // of fresh names, so its counterexamples are bit-identical however
    // many fresh symbols earlier runs drew from the shared interner.
    Subst ParamToArgExpr;
    for (size_t I = 0, E = C->argCount(); I != E; ++I) {
      emitSafety(Pre, trapFree(C->arg(I)), BothSides, "call", S->loc());
      if (I < Callee->params().size()) {
        Symbol P = Callee->params()[I].Name;
        ParamToArgExpr.mapVar(P, VarTag::Orig,
                              inject(Ctx, C->arg(I), VarTag::Orig));
        ParamToArgExpr.mapVar(P, VarTag::Rel,
                              inject(Ctx, C->arg(I), VarTag::Rel));
      }
    }
    const BoolExpr *RReq = effectiveRelRequires(Ctx, Prog, *Callee);
    emitValidity(
        Ctx.implies(Pre, substitute(Ctx, RReq, ParamToArgExpr)), "call",
        S->loc(),
        "the callee's relational precondition holds at the call site");

    // Snapshot the arguments for the havoc/rensures part: one fresh
    // symbol per parameter, used under both tags (lockstep — each side
    // passes its own evaluation of the same argument expression). The
    // snapshots are existentially quantified into the postcondition
    // below, so no fresh name escapes into later obligations free.
    Subst ParamToArg;
    std::vector<Symbol> ArgSyms;
    std::vector<const BoolExpr *> Binds;
    for (size_t I = 0, E = C->argCount(); I != E; ++I) {
      Symbol A = Ctx.freshSym(I < Callee->params().size()
                                  ? Callee->params()[I].Name
                                  : Ctx.sym("arg"));
      ArgSyms.push_back(A);
      Binds.push_back(Ctx.eq(Ctx.var(A, VarTag::Orig),
                             inject(Ctx, C->arg(I), VarTag::Orig)));
      Binds.push_back(Ctx.eq(Ctx.var(A, VarTag::Rel),
                             inject(Ctx, C->arg(I), VarTag::Rel)));
      if (I < Callee->params().size()) {
        Symbol P = Callee->params()[I].Name;
        ParamToArg.mapVar(P, VarTag::Orig, Ctx.var(A, VarTag::Orig));
        ParamToArg.mapVar(P, VarTag::Rel, Ctx.var(A, VarTag::Rel));
      }
    }
    const BoolExpr *Bound = maybeSimplify(Ctx.conj({Pre, Ctx.conj(Binds)}));

    // Havoc the callee's effective frame on both sides; array lengths are
    // execution-invariant, so length links are kept (as in freshenSide).
    std::vector<VarRef> Old;
    const BoolExpr *Havocked = existsOver(
        Old, renameFresh(bothSides(effectiveModifies(Prog, *Callee)), Bound,
                         Old));

    const BoolExpr *REns =
        Callee->relEnsuresClause()
            ? substitute(Ctx, Callee->relEnsuresClause(), ParamToArg)
            : Ctx.trueExpr();
    const BoolExpr *Post = Ctx.andExpr(Havocked, REns);
    // Close the argument snapshots: innermost binder first, both tags.
    for (auto It = ArgSyms.rbegin(), E = ArgSyms.rend(); It != E; ++It) {
      Post = Ctx.exists(*It, VarTag::Rel, VarKind::Int, Post);
      Post = Ctx.exists(*It, VarTag::Orig, VarKind::Int, Post);
    }
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

void RelationalVCGen::genTriple(const BoolExpr *Pre, const Stmt *S,
                                const BoolExpr *Post) {
  const BoolExpr *SP = genStmt(S, Pre);
  CurStmt = nullptr; // a whole-triple obligation, not tied to one statement
  emitValidity(Ctx.implies(SP, Post), "consequence", S->loc(),
               "the relational postcondition follows from the strongest "
               "postcondition");
}
