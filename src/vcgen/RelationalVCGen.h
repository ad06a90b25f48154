//===- RelationalVCGen.h - Axiomatic relaxed semantics --------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward VC generator for the axiomatic relaxed semantics |-r (Figure 8),
/// the relational Hoare logic relating lockstep pairs of original and
/// relaxed executions:
///
///  * `relax` re-chooses only the relaxed-side variables (the fresh
///    substitution touches X<r>, never X<o>) and conjoins <e . e>;
///  * `assert` / `assume` transfer validity from the original execution:
///    the obligation is P* /\ injo(e) ==> injr(e) — noninterference
///    relations make this immediate;
///  * `relate l : e*` requires e* and records it;
///  * `if` / `while` require *convergent* control flow
///    (P* ==> <b . b> \/ <!b . !b>) and consume relational invariants;
///  * statements annotated `diverge` use the diverge rule: the original
///    side is re-proved under |-o, the relaxed side under |-i, all
///    cross-execution relations are dropped except an explicitly framed
///    relational formula over unmodified variables.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_VCGEN_RELATIONALVCGEN_H
#define RELAXC_VCGEN_RELATIONALVCGEN_H

#include "vcgen/UnaryVCGen.h"

namespace relax {

/// Strongest-postcondition VC generator for |-r. Its VC set includes the
/// |-o and |-i sub-derivations that diverge rules spawn, stamped with this
/// run's procedure name.
class RelationalVCGen : public VCGenBase {
public:
  RelationalVCGen(AstContext &Ctx, const Program &Prog,
                  DiagnosticEngine &Diags, VCGenOptions Opts = VCGenOptions());

  /// Computes the relational sp(Pre*, S), appending obligations.
  const BoolExpr *genStmt(const Stmt *S, const BoolExpr *Pre);

  /// Generates the whole-triple obligations for {Pre*} S {Post*}.
  void genTriple(const BoolExpr *Pre, const Stmt *S, const BoolExpr *Post);

private:
  /// Emits "evaluation cannot trap" (\p Safe, from trapFree) under \p Pre
  /// for the \p Side execution, or for both when \p Side is Plain.
  void emitSafety(const BoolExpr *Pre, const BoolExpr *Safe, VarTag Side,
                  const char *Rule, SourceLoc Loc);

  /// <b . b> and <!b . !b>.
  const BoolExpr *bothTrue(const BoolExpr *B);
  const BoolExpr *bothFalse(const BoolExpr *B);
  /// The convergence side condition P* ==> <b.b> \/ <!b.!b>.
  void emitConvergence(const BoolExpr *Pre, const BoolExpr *Cond,
                       const char *Rule, SourceLoc Loc);

  /// Renames the statement's variable set on side \p Tag to fresh names and
  /// existentially quantifies them; conjoins length-invariance for arrays.
  const BoolExpr *freshenSide(const ChoiceStmtBase *S, const BoolExpr *Pre,
                              VarTag Tag);

  const BoolExpr *genDiverge(const Stmt *S, const DivergeAnnotation *D,
                             const BoolExpr *Pre);
  const BoolExpr *genAssertOrAssume(const BoolExpr *Pred, SourceLoc Loc,
                                    const BoolExpr *Pre, const char *Rule);

  /// `diverge cases` (supplementary-material control flow): case-splits on
  /// the four branch combinations of an `if` and composes one-sided
  /// strongest postconditions, preserving relational information across a
  /// divergent branch.
  const BoolExpr *genIfCases(const IfStmt *I, const BoolExpr *Pre);

  /// Relational SP where only the \p Side execution runs \p S (the other
  /// execution's state is untouched). S must be loop- and relate-free.
  const BoolExpr *genStmtOneSided(const Stmt *S, const BoolExpr *Pre,
                                  VarTag Side);
};

} // namespace relax

#endif // RELAXC_VCGEN_RELATIONALVCGEN_H
