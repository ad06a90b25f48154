//===- BoundedSolver.h - Propagating small-domain backend ----------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pure-C++ decision procedure over small bounded domains. `Sat` answers
/// are definite (a concrete witness was found); `Unsat` answers mean "no
/// model in the bounded domain" and are therefore only approximate — they
/// are exact for formulas whose models, if any, must lie in the domain
/// (the case for the generated test workloads).
///
/// This backend exists (a) as the Z3 ablation baseline (experiment A1),
/// (b) as a differential-testing partner for the Z3 translation, and
/// (c) as a fallback when Z3 is unavailable.
///
/// The search backtracks over conjuncts: the query is split through
/// P ∧ Q, and through the negations ¬(P ∨ Q), ¬(P → Q), ¬¬P, which
/// conjoin under De Morgan; negation is tracked as a flag so no AST node
/// is built. Each conjunct is compiled once into a flat
/// `FormulaProgram`, variables are ordered so every conjunct is checked
/// the moment its last support variable is assigned, and a failing prefix
/// backtracks immediately — pruning whole subtrees of the assignment
/// space. With `Jobs > 1` the top variable's domain is chunked across a
/// worker pool; a replay of the per-chunk outcomes in domain order keeps
/// verdicts, witnesses, and budget behavior identical to the sequential
/// path. The generate-and-test odometer it replaced lives on as a test
/// oracle (tests/EnumerateSolver.h).
///
/// The search is conflict-driven: a failing conjunct records the assigned
/// support variables that fed the failing program as a *nogood*, unit
/// nogoods forbid values before any conjunct program runs (skipped values
/// are not counted as candidates), variable activity (VSIDS-style decay)
/// reorders undecided variables at Luby-scheduled restart points, and a
/// witness found under a restart-permuted order triggers a canonical
/// re-search so the reported model is always the one the non-learning
/// search returns. All learned state is local to one top-variable value,
/// which is what keeps the `Jobs` chunk replay bit-identical to the
/// sequential path. Every shipped configuration runs with learning and
/// restarts on; tests and benches switch them off for the reference
/// search. See the conflict-driven-search section of
/// `src/support/README.md` for the invariants.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_BOUNDEDSOLVER_H
#define RELAXC_SOLVER_BOUNDEDSOLVER_H

#include "solver/FormulaEval.h"
#include "solver/Solver.h"

namespace relax {

/// Configuration for the bounded search.
struct BoundedSolverOptions {
  int64_t IntLo = -6;
  int64_t IntHi = 6;
  int64_t MaxArrayLen = 3;
  int64_t ArrayElemLo = -2;
  int64_t ArrayElemHi = 2;
  /// Abort with Unknown after this many candidate assignments: every
  /// variable-value assignment the search attempts, partial assignments
  /// included.
  uint64_t MaxCandidates = 4'000'000;
  /// Per-query budget on quantifier-body evaluations inside conjunct
  /// checks (see EvalBudget in FormulaEval.h); 0 = unlimited. Candidate
  /// counting does not bound quantifier enumeration — this does, which is
  /// what makes quantified corpora safely dischargeable at full domains.
  /// Tripping reports Unknown at a deterministic point.
  uint64_t MaxQuantSteps = 0;
  /// When false, domain exhaustion reports Unknown instead of Unsat.
  bool ExhaustionMeansUnsat = true;
  /// Worker threads; the top variable's domain is chunked across them.
  /// Verdicts and witnesses are independent of Jobs.
  unsigned Jobs = 1;
  /// Nogood learning: record the support of each failing conjunct as a
  /// forbidden partial assignment and propagate it so the forbidden value
  /// is skipped (uncounted) before any conjunct program runs. Learned
  /// state never crosses a top-variable value boundary, so verdicts,
  /// witnesses, and budget trips are identical to the non-learning search.
  bool Learning = true;
  /// Activity-ordered restarts on a Luby schedule of conflict counts
  /// (Learning only). A witness found under a permuted order is
  /// re-derived in canonical order, so the reported model is unchanged.
  bool Restarts = true;
  /// Cap on stored nogoods per top-variable value; 0 = unlimited. When
  /// full, new conflicts stop being stored (trail-scoped forbids still
  /// apply) and restarts compact the store to the most active half.
  uint32_t MaxNogoods = 10'000;
};

/// The one text form of a bounded configuration: every field as
/// `key=value`, space-separated, in a fixed order (booleans as 0/1). The
/// shard wire carries it and the persistent-cache fingerprint embeds it,
/// so a field added to the struct reaches both by being added here.
std::string formatBoundedOptions(const BoundedSolverOptions &Opts);

/// Parses exactly what formatBoundedOptions prints: every key in order,
/// strict decimals, overflow an error, and `jobs` within 1..1024 (a
/// shard peer must not pick the worker's thread count).
Result<BoundedSolverOptions> parseBoundedOptions(std::string_view Text);

/// Counters for the conflict-driven search, cumulative across queries.
/// Sums are independent of `Jobs` for queries that exhaust their domain
/// or trip a budget; a Sat query counts whatever the chunks explored
/// (parallel chunks past the witness may have run, exactly as the
/// pre-learning candidate counter behaves).
struct BoundedSearchStats {
  uint64_t Conflicts = 0;        ///< conjunct checks that failed
  uint64_t LearnedNogoods = 0;   ///< nogoods recorded in the store
  uint64_t EvictedNogoods = 0;   ///< nogoods dropped by restart compaction
  uint64_t UnitPropagations = 0; ///< values skipped by a forbidding nogood
  uint64_t Backjumps = 0; ///< exhausted domains whose conflict cause
                          ///< excluded the parent variable (rest skipped)
  uint64_t Restarts = 0;         ///< restart epochs entered
  uint64_t MaxTrailDepth = 0;    ///< deepest assignment trail reached

  void merge(const BoundedSearchStats &O) {
    Conflicts += O.Conflicts;
    LearnedNogoods += O.LearnedNogoods;
    EvictedNogoods += O.EvictedNogoods;
    UnitPropagations += O.UnitPropagations;
    Backjumps += O.Backjumps;
    Restarts += O.Restarts;
    if (O.MaxTrailDepth > MaxTrailDepth)
      MaxTrailDepth = O.MaxTrailDepth;
  }
};

/// Bounded-domain solver (backtracking search).
class BoundedSolver : public Solver {
public:
  /// \p Ctx, when given, supplies the context-owned compiled-program memo
  /// so repeated queries over the same formulas skip recompilation. The
  /// solver must not outlive the context (programs cache node pointers).
  explicit BoundedSolver(BoundedSolverOptions Opts = BoundedSolverOptions(),
                         AstContext *Ctx = nullptr)
      : Opts(Opts), Ctx(Ctx) {}

  const char *name() const override { return "bounded"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override;

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override;

  /// Cumulative candidate assignments attempted across all queries — the
  /// ablation metric the search is built to shrink.
  uint64_t candidatesEvaluated() const { return Candidates; }

  /// Cumulative quantifier-body evaluations across all queries.
  uint64_t quantStepsEvaluated() const { return QuantSteps; }

  /// Cumulative conflict-driven-search counters.
  const BoundedSearchStats &searchStats() const { return SearchStats; }

  /// Why the most recent query stopped. Budget reasons accompany an
  /// Unknown verdict and let a portfolio report *which* per-query budget
  /// (candidates vs quantifier steps) caused the give-up.
  enum class StopReason : uint8_t {
    Decided,         ///< Sat witness found or domain exhausted
    CandidateBudget, ///< MaxCandidates tripped
    StepBudget,      ///< MaxQuantSteps tripped
    Deadline,        ///< the installed deadline expired mid-search
  };
  StopReason lastStop() const { return LastStop; }

  bool lastQueryDeadlined() const override {
    return LastStop == StopReason::Deadline;
  }

  uint64_t lastQueryBoundedConflicts() const override {
    return LastQueryConflicts;
  }

private:
  BoundedSolverOptions Opts;
  AstContext *Ctx;
  uint64_t Candidates = 0;
  uint64_t QuantSteps = 0;
  BoundedSearchStats SearchStats;
  uint64_t LastQueryConflicts = 0;
  StopReason LastStop = StopReason::Decided;

  SatResult search(const std::vector<const BoolExpr *> &Formulas,
                   const VarRefSet &Vars, Model *ModelOut);
};

} // namespace relax

#endif // RELAXC_SOLVER_BOUNDEDSOLVER_H
