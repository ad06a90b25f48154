//===- UnaryVCGen.h - Axiomatic original/intermediate semantics ----*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward (strongest-postcondition) verification-condition generator for
/// the two unary proof systems:
///
///  * the axiomatic original semantics |-o (Figure 7), where `relax`
///    behaves as `assert` and `assume` adds its predicate for free; and
///  * the axiomatic intermediate semantics |-i (Figure 9), where `relax`
///    behaves as `havoc` and `assume` carries a proof obligation — it
///    models the relaxed execution running solo after control-flow
///    divergence, which must not violate assertions *or* assumptions
///    (Lemma 4).
///
/// `while` loops consume the developer-supplied invariant annotations, the
/// information a Coq proof would supply interactively. The generator also
/// emits safety VCs ruling out the dynamic semantics' runtime traps
/// (division by zero, array bounds), so the progress theorems hold for the
/// implementation, not just the trap-free paper fragment.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_VCGEN_UNARYVCGEN_H
#define RELAXC_VCGEN_UNARYVCGEN_H

#include "vcgen/VCGenBase.h"

namespace relax {

/// Strongest-postcondition VC generator for |-o and |-i.
class UnaryVCGen : public VCGenBase {
public:
  /// \p J selects Original (Figure 7) or Intermediate (Figure 9) rules;
  /// Relaxed is invalid here.
  UnaryVCGen(AstContext &Ctx, const Program &Prog, JudgmentKind J,
             DiagnosticEngine &Diags, VCGenOptions Opts = VCGenOptions());

  /// Computes sp(Pre, S), appending obligations to the internal set.
  /// `call` statements instantiate the callee's summary: assert its
  /// requires, havoc its effective modifies frame, assume its ensures —
  /// the callee's body is never re-traversed here.
  const BoolExpr *genStmt(const Stmt *S, const BoolExpr *Pre);

  /// Generates the whole-triple obligations for {Pre} S {Post}.
  void genTriple(const BoolExpr *Pre, const Stmt *S, const BoolExpr *Post);

private:
  /// Emits "evaluating \p Program (a predicate or an expression) cannot
  /// trap" under \p Pre.
  template <typename T>
  void emitSafety(const BoolExpr *Pre, const T *Program, const char *Rule,
                  SourceLoc Loc);

  /// sp for `havoc (X) st (e)` and the intermediate `relax`:
  /// (exists X' . Pre[X'/X]) /\ e, plus the satisfiability premise.
  const BoolExpr *genHavocLike(const ChoiceStmtBase *S, const BoolExpr *Pre,
                               const char *Rule);
  /// sp for assert-like statements (assert, original relax, intermediate
  /// assume): obligation Pre ==> e, post Pre /\ e.
  const BoolExpr *genAssertLike(const BoolExpr *Pred, SourceLoc Loc,
                                const BoolExpr *Pre, const char *Rule,
                                const char *What);
};

} // namespace relax

#endif // RELAXC_VCGEN_UNARYVCGEN_H
