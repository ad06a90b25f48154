//===- FormulaEval.h - Total formula evaluation --------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates expressions and formulas under a concrete Model using the
/// *logic* semantics (total functions: Euclidean division, division by zero
/// yields 0, out-of-range array reads yield 0). Quantifiers are evaluated
/// by bounded enumeration. Used by the bounded solver backend and by the
/// property tests that validate the simplifier and the Z3 translation.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_FORMULAEVAL_H
#define RELAXC_SOLVER_FORMULAEVAL_H

#include "solver/Solver.h"
#include "support/IntMath.h" // euclideanDiv / euclideanMod

namespace relax {

/// Evaluation options for quantifier enumeration.
struct FormulaEvalOptions {
  int64_t IntLo = -8;         ///< scalar quantifier domain lower bound
  int64_t IntHi = 8;          ///< scalar quantifier domain upper bound
  int64_t MaxArrayLen = 3;    ///< array quantifier length bound
  int64_t ArrayElemLo = -2;   ///< array quantifier element domain
  int64_t ArrayElemHi = 2;
};

/// A per-query budget on quantifier-body evaluations. The compiled
/// `FormulaProgram::Executor` charges one step for every enumeration of a
/// quantifier body; once `Steps` exceeds `MaxSteps` the budget is tripped,
/// every further charge fails fast, and the evaluation's boolean result is
/// meaningless — callers must check `Tripped` after each run and report
/// the query as undecided. Evaluation order is deterministic, so the trip
/// point is a pure function of (query, budget): the same query under the
/// same budget always gives up at the same step.
struct EvalBudget {
  uint64_t MaxSteps = 0; ///< 0 = unlimited (steps still counted for stats)
  uint64_t Steps = 0;    ///< quantifier-body evaluations consumed so far
  bool Tripped = false;

  /// Charges one step; returns false once the budget is exhausted.
  bool charge() {
    if (Tripped)
      return false;
    ++Steps;
    if (MaxSteps != 0 && Steps > MaxSteps)
      Tripped = true;
    return !Tripped;
  }
};

/// The bounded domain of one array variable: lengths 0..MaxLen ascending,
/// then element digits least-significant first over [ElemLo, ElemHi].
/// Every enumerator of array values (the quantifier evaluators, the
/// compiled Exists instruction, the bounded search, and the odometer the
/// tests check it against) shares this one definition — witness determinism and the
/// differential suites depend on them agreeing on the order.
struct ArrayDomain {
  int64_t MaxLen = 0;
  int64_t ElemLo = 0;
  int64_t ElemHi = -1;

  ArrayDomain() = default;
  ArrayDomain(int64_t MaxLen, int64_t ElemLo, int64_t ElemHi)
      : MaxLen(MaxLen), ElemLo(ElemLo), ElemHi(ElemHi) {}
  explicit ArrayDomain(const FormulaEvalOptions &Opts)
      : MaxLen(Opts.MaxArrayLen), ElemLo(Opts.ArrayElemLo),
        ElemHi(Opts.ArrayElemHi) {}

  /// Number of values. An empty element range admits only length 0.
  uint64_t size() const;
  /// Decodes the \p Index-th value in enumeration order.
  ArrayModelValue valueAt(uint64_t Index) const;
  /// Advances \p A to its successor in enumeration order (first value:
  /// the default-constructed length-0 array); false when exhausted.
  bool advance(ArrayModelValue &A) const;
};

/// Evaluates \p E under \p M. Unmapped variables default to 0 / empty.
int64_t evalExpr(const Expr *E, const Model &M);

/// Evaluates an array expression to a concrete array value.
ArrayModelValue evalArrayExpr(const ArrayExpr *A, const Model &M);

/// Evaluates \p B under \p M; quantifiers are decided over the bounded
/// domains of \p Opts (an under-approximation of the true Z semantics,
/// which is what makes the bounded backend incomplete).
bool evalFormula(const BoolExpr *B, const Model &M,
                 const FormulaEvalOptions &Opts = FormulaEvalOptions());

} // namespace relax

#endif // RELAXC_SOLVER_FORMULAEVAL_H
