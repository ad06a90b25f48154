//===- EnumerateSolver.h - The odometer test oracle ----------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generate-and-test odometer the bounded search replaced: every
/// assignment of the query's variables over the bounded domains, in
/// odometer order, each checked by the tree-walking evaluator. It shares
/// only the domain definitions with BoundedSolver (no compiled programs,
/// no pruning, no learning), which makes it the ground truth of the
/// differential suites and the candidate-count baseline of
/// bench/solver_ablation. It counts full models, not partial assignments,
/// and honors only the domains, MaxCandidates and ExhaustionMeansUnsat.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_TESTS_ENUMERATESOLVER_H
#define RELAXC_TESTS_ENUMERATESOLVER_H

#include "solver/BoundedSolver.h"

namespace relax::test {

class EnumerateSolver : public Solver {
public:
  explicit EnumerateSolver(BoundedSolverOptions Opts = BoundedSolverOptions())
      : Opts(Opts), Dom(Opts.MaxArrayLen, Opts.ArrayElemLo, Opts.ArrayElemHi) {
  }

  const char *name() const override { return "enumerate"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override {
    Model Ignored;
    return checkSatWithModel(Formulas, VarRefSet(), Ignored);
  }

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &ExtraVars, Model &ModelOut) override {
    ++Queries;
    ModelOut = Model();
    VarRefSet VarSet = ExtraVars;
    for (const BoolExpr *F : Formulas)
      collectFreeVars(F, VarSet);
    std::vector<VarRef> Vars(VarSet.begin(), VarSet.end());

    FormulaEvalOptions EvalOpts;
    EvalOpts.IntLo = Opts.IntLo;
    EvalOpts.IntHi = Opts.IntHi;
    EvalOpts.MaxArrayLen = Opts.MaxArrayLen;
    EvalOpts.ArrayElemLo = Opts.ArrayElemLo;
    EvalOpts.ArrayElemHi = Opts.ArrayElemHi;

    Model M;
    for (const VarRef &V : Vars) {
      if (V.Kind == VarKind::Int)
        M.Ints[V] = Opts.IntLo;
      else
        M.Arrays[V] = ArrayModelValue(); // length 0
    }
    for (uint64_t Evaluated = 0;; ++Evaluated) {
      if (Evaluated == Opts.MaxCandidates)
        return SatResult::Unknown;
      ++Candidates;
      bool AllHold = true;
      for (const BoolExpr *F : Formulas)
        if (!evalFormula(F, M, EvalOpts)) {
          AllHold = false;
          break;
        }
      if (AllHold) {
        ModelOut = M;
        return SatResult::Sat;
      }
      if (!advance(Vars, M))
        return Opts.ExhaustionMeansUnsat ? SatResult::Unsat
                                         : SatResult::Unknown;
    }
  }

  /// Cumulative full models evaluated across all queries.
  uint64_t candidatesEvaluated() const { return Candidates; }

private:
  BoundedSolverOptions Opts;
  ArrayDomain Dom;
  uint64_t Candidates = 0;

  /// Advances \p M to the next assignment, the first variable turning
  /// fastest; false once every variable has wrapped around.
  bool advance(const std::vector<VarRef> &Vars, Model &M) const {
    for (const VarRef &V : Vars) {
      if (V.Kind == VarKind::Int) {
        int64_t &Val = M.Ints[V];
        if (Val < Opts.IntHi) {
          ++Val;
          return true;
        }
        Val = Opts.IntLo; // carry
        continue;
      }
      if (Dom.advance(M.Arrays[V]))
        return true;
      M.Arrays[V] = ArrayModelValue(); // carry
    }
    return false;
  }
};

} // namespace relax::test

#endif // RELAXC_TESTS_ENUMERATESOLVER_H
