//===- VCGenBase.h - Shared core of the VC generators ---------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state and rule building blocks shared by the unary (|-o, |-i) and
/// relational (|-r) generators. The paper's relational rules are its
/// unary rules applied to each execution through injo/injr, so both
/// generators build their rules from the same pieces: one obligation
/// emitter, one derivation recorder, one trap-freedom test, one
/// fresh renaming for havocs and frames, and one write rule.
///
/// Every fresh symbol a rule draws comes from here (the loop-variant and
/// call-argument snapshots aside), in a fixed order: printed names such
/// as `x'7` are part of the persistent-cache keys.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_VCGEN_VCGENBASE_H
#define RELAXC_VCGEN_VCGENBASE_H

#include "ast/AstContext.h"
#include "logic/Simplify.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "vcgen/Safety.h"
#include "vcgen/VC.h"

#include <vector>

namespace relax {

/// Options shared by the VC generators.
struct VCGenOptions {
  /// Emit division/bounds safety obligations (on by default; off
  /// reproduces the paper's trap-free fragment exactly).
  bool CheckSafety = true;
  /// Run the simplifier on intermediate formulas.
  bool Simplify = true;
};

/// The common state and rule building blocks of the VC generators.
class VCGenBase {
public:
  /// Sets the display name stamped on emitted VCs' Proc field: the
  /// procedure whose summary this generator run verifies ("main" by
  /// default).
  void setProcName(std::string Name) { ProcName = std::move(Name); }

  /// Takes the accumulated VCs and derivation.
  VCSet take() { return std::move(Out); }

protected:
  VCGenBase(AstContext &Ctx, const Program &Prog, JudgmentKind J,
            DiagnosticEngine &Diags, VCGenOptions Opts)
      : Ctx(Ctx), Prog(Prog), Judgment(J), Diags(Diags), Opts(Opts),
        Simp(Ctx) {}

  AstContext &Ctx;
  const Program &Prog;
  /// The judgment stamped on emitted VCs and derivation steps.
  JudgmentKind Judgment;
  DiagnosticEngine &Diags;
  VCGenOptions Opts;
  Simplifier Simp;
  VCSet Out;
  std::string ProcName = "main";
  /// Provenance state: the statement whose rule is currently being
  /// applied (stamped on emitted VCs as their origin), and the running
  /// count of obligation-formula rewrites (the simplify trace).
  const Stmt *CurStmt = nullptr;
  uint32_t SimplifyTraces = 0;

  const BoolExpr *maybeSimplify(const BoolExpr *B);
  void emit(VCKind Kind, const BoolExpr *F, const char *Rule, SourceLoc Loc,
            std::string Description);
  void emitValidity(const BoolExpr *F, const char *Rule, SourceLoc Loc,
                    std::string Description) {
    emit(VCKind::Validity, F, Rule, Loc, std::move(Description));
  }
  void emitSat(const BoolExpr *F, const char *Rule, SourceLoc Loc,
               std::string Description) {
    emit(VCKind::Satisfiability, F, Rule, Loc, std::move(Description));
  }
  /// Records the derivation step {Pre} S {Post} and returns \p Post.
  const BoolExpr *record(const char *Rule, const Stmt *S, const BoolExpr *Pre,
                         const BoolExpr *Post);

  /// The condition under which evaluating a program predicate or
  /// expression cannot trap (division, array bounds), or null when
  /// safety checks are off or the evaluation cannot trap at all.
  template <typename T> const BoolExpr *trapFree(const T *Program) {
    if (!Opts.CheckSafety)
      return nullptr;
    const BoolExpr *Safe = safetyCondition(Ctx, Program);
    const auto *Lit = dyn_cast<BoolLitExpr>(Safe);
    return Lit && Lit->value() ? nullptr : Safe;
  }
  /// The bounds condition of \p A's store, or null with safety checks off.
  const BoolExpr *storeInBounds(const ArrayAssignStmt *A);

  /// \p S's variables on side \p Tag, with their declared kinds.
  std::vector<VarRef> choiceVars(const ChoiceStmtBase *S, VarTag Tag) const;

  /// Renames each of \p Vars in \p Pre to a fresh symbol of its tag and
  /// kind, drawn in order and appended to \p Fresh, and conjoins
  /// len(A) == len(A') for each array A: lengths are execution-invariant,
  /// so bounds facts in \p Pre survive the renaming.
  const BoolExpr *renameFresh(const std::vector<VarRef> &Vars,
                              const BoolExpr *Pre,
                              std::vector<VarRef> &Fresh);
  /// exists Fresh . Body, the first-drawn symbol innermost.
  const BoolExpr *existsOver(const std::vector<VarRef> &Fresh,
                             const BoolExpr *Body);

  /// sp of a write on side \p Tag (Plain for the unary generators):
  /// `X = Value` when \p Index is null, else `X[Index] = Value`. That is
  /// exists X0 . Pre[X0/X] /\ X == Value[X0/X] (or store(X0, ...)).
  const BoolExpr *spWrite(const BoolExpr *Pre, Symbol X, const Expr *Index,
                          const Expr *Value, VarTag Tag);
};

} // namespace relax

#endif // RELAXC_VCGEN_VCGENBASE_H
