//===- Portfolio.h - Tiered solver portfolio -----------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A composable chain of decision-procedure tiers. Each tier either
/// settles a query (Sat / Unsat, or Unknown from the final tier) or gives
/// up with a reason, handing the query to the next tier:
///
///   * `simplify` — the persistent simplifier; settles exactly the
///     queries it folds to ⊤ (Sat) or ⊥ (Unsat). The simplifier is
///     equivalence-preserving, so a constant verdict is exact. Builds
///     nodes through the AstContext and therefore must run on the thread
///     that owns the context (see firstWorkerTier()).
///   * `bounded` — the backtracking bounded search under per-query
///     candidate and quantifier-step budgets. Sat answers carry a real
///     witness and are exact; as a non-final tier, exhaustion and budget
///     trips both give up (bounded Unsat is only "no model in the
///     domain"). As the final tier it keeps the classic authoritative
///     exhaustion-means-Unsat convention.
///   * `z3` — the SMT backend. When Z3 is not built (or no backend
///     factory is supplied) the tier degrades to `bounded-full`: the
///     bounded search at the same domains with a relaxed (16x) step
///     budget and authoritative exhaustion.
///   * `shard` — the out-of-process tier: queries are serialized over
///     the wire to a pool of `--discharge-worker` subprocesses
///     (solver/ShardPool.h), each owning its own AstContext and solver
///     backends. The workers run the tail tier chain named by
///     `PortfolioOptions::ShardWorkerPipeline` under the same bounded
///     configuration, so a sharded verdict equals the in-process verdict
///     the replaced tier would have produced. Without a pool the tier
///     degrades to that in-process tail (so `--shards=0` and a pool-less
///     test config mean "same pipeline, no processes").
///
/// A non-final `bounded` tier is a rescue tier behind the decision tier
/// that follows it (`z3`, `bounded-full` or `shard`). A bounded search
/// can settle only by exhibiting a witness, so in front of a decision
/// tier it spends its whole budget on every valid obligation (an Unsat
/// query) for nothing. Every query therefore runs the decision tier
/// first and reaches the bounded tier only when that tier answers
/// Unknown; a bounded Sat still settles it. A query that asks for a model
/// (checkSatWithModel, or checkRange with one) gets the model of the
/// tier that settled it, so a failed obligation's counterexample comes
/// from the query that refuted it. The order cannot change a verdict: a
/// bounded Sat is a concrete witness, so it cannot exist for a query the
/// decision tier proves Unsat.
///
/// Tier ordering invariants (checked at construction): the chain is
/// non-empty, `simplify` may only appear first, no tier kind repeats,
/// and `shard` may only appear last (it owns the final verdict; any
/// tier after it could never run).
///
/// A PortfolioSolver is a `Solver`, so everything programmed against the
/// decision-procedure interface — the verifier's discharge path, the
/// proof checker's re-discharge and model sampling, the solver oracles —
/// runs the same tier chain and can never disagree on backend semantics.
/// Like the concrete backends it is not safe for concurrent use: the
/// parallel discharger builds one portfolio per worker.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_PORTFOLIO_H
#define RELAXC_SOLVER_PORTFOLIO_H

#include "logic/Simplify.h"
#include "solver/BoundedSolver.h"

#include <functional>
#include <memory>

namespace relax {

class DischargePool;

/// One tier of the portfolio.
enum class TierKind : uint8_t { Simplify, Bounded, Smt, Shard };

/// Returns "simplify" / "bounded" / "z3" / "shard".
const char *tierKindName(TierKind K);

/// Parses a `--pipeline=` spec such as "simplify,bounded,z3" and checks
/// the tier-ordering invariants.
Result<std::vector<TierKind>> parsePipelineSpec(std::string_view Spec);

/// Renders a tier chain as "simplify,bounded,z3".
std::string formatPipeline(const std::vector<TierKind> &Tiers);

/// Configuration of a portfolio.
struct PortfolioOptions {
  std::vector<TierKind> Tiers = {TierKind::Simplify, TierKind::Bounded,
                                 TierKind::Smt};
  /// Domains and per-query budgets of the `bounded` tier. Defaults add a
  /// quantifier-step budget (unlike a standalone BoundedSolver) so
  /// quantified queries give up instead of enumerating unbounded, and
  /// shrink the candidate budget so a hopeless search gives up quickly —
  /// as a non-final tier its job is to find a witness the decision tier
  /// could not, not to exhaust huge assignment spaces.
  BoundedSolverOptions Bounded = []() {
    BoundedSolverOptions B;
    B.MaxCandidates = 100'000;
    B.MaxQuantSteps = 200'000;
    return B;
  }();
  /// Budget multipliers for the `bounded-full` final-tier fallback
  /// (applied to the corresponding `Bounded` budgets).
  uint64_t FinalBoundedStepFactor = 16;
  /// Worker-process pool backing the `shard` tier. Not owned; many
  /// portfolios (one per scheduler worker) share one pool. Null degrades
  /// the shard tier to the in-process ShardWorkerPipeline tail.
  DischargePool *Pool = nullptr;
  /// The tail tier chain shard workers run ("z3" or "bounded"),
  /// configured per request so every worker — and the pool-less
  /// degradation — answers from identical solver settings.
  std::string ShardWorkerPipeline = "z3";
};

/// The bounded configuration's part of a cache fingerprint: its text
/// form (formatBoundedOptions) with `Jobs` normalized, since the parallel
/// search partitions work but — by the replay aggregator's construction —
/// never changes a verdict or witness. Every other field takes part.
std::string boundedOptionsFingerprint(const BoundedSolverOptions &Opts);

/// One-line fingerprint of every knob that can change a portfolio
/// verdict, for the persistent verdict cache's on-disk keys: the
/// effective tier chain (a trailing `shard` tier is replaced by its
/// ShardWorkerPipeline tail, because sharded and in-process verdicts are
/// identical by construction), the bounded configuration, the final-tier
/// budget factor, and whether an SMT backend actually backs the `z3`
/// tier (\p HaveSmtBackend — the bounded-full degradation is a different
/// decision procedure, so its verdicts must not be served to a real-Z3
/// run or vice versa).
std::string portfolioConfigFingerprint(const PortfolioOptions &Opts,
                                       bool HaveSmtBackend);

/// Per-run portfolio statistics, mergeable across workers.
struct PortfolioStats {
  struct TierStat {
    uint64_t Settled = 0;     ///< queries this tier answered definitively
    uint64_t GaveUp = 0;      ///< queries it escalated (or ended Unknown)
    uint64_t BudgetTrips = 0; ///< give-ups caused by a per-query budget
  };
  std::vector<TierStat> Tiers; ///< parallel to the pipeline
  uint64_t Queries = 0;
  uint64_t Escalations = 0; ///< tier hand-offs (non-final give-ups)

  void merge(const PortfolioStats &O);
};

/// The tiered portfolio backend.
class PortfolioSolver : public Solver {
public:
  using BackendFactory = std::function<std::unique_ptr<Solver>()>;

  /// \p SmtFactory supplies the `z3` tier's backend; pass nullptr to
  /// degrade that tier to bounded-at-full-domain. The portfolio must not
  /// outlive \p Ctx (the bounded tiers cache compiled programs there).
  PortfolioSolver(AstContext &Ctx, PortfolioOptions Opts,
                  BackendFactory SmtFactory = nullptr);

  const char *name() const override { return "portfolio"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override;

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override;

  /// Runs only tiers [\p From, \p To) — the scheduler's staging interface.
  /// Returns the first settling tier's verdict, or Unknown when every
  /// tier in the range gave up (query unsettled if To < tierCount()).
  /// \p Vars/\p ModelOut as in checkSatWithModel; a null \p ModelOut
  /// skips model extraction. A non-final bounded tier runs behind its
  /// successor when both are in range (see the file comment);
  /// `checkRange(I, I + 1)` runs tier I alone.
  Result<SatResult> checkRange(size_t From, size_t To,
                               const std::vector<const BoolExpr *> &Formulas,
                               const VarRefSet *Vars, Model *ModelOut);

  /// True when the last checkSat/checkRange call settled its query.
  bool lastSettled() const { return LastSettled; }

  size_t tierCount() const { return Opts.Tiers.size(); }
  TierKind tier(size_t I) const { return Opts.Tiers[I]; }

  /// Index of the first tier that may run on a discharge worker thread.
  /// Tiers before it (the simplify prefix) build nodes through the
  /// AstContext and must run on the thread that owns it.
  size_t firstWorkerTier() const;

  /// Display name of the tier that settled the last query ("simplify",
  /// "bounded", "z3", "bounded-full"), or the portfolio name when
  /// nothing settled.
  const char *settledBy() const override { return LastSettledBy; }

  /// Human-readable give-up trail of the last query, e.g.
  /// "simplify: did not fold to a constant; z3: returned unknown;
  /// bounded: quantifier-step budget tripped".
  std::string giveUpTrail() const override { return LastTrail; }

  const PortfolioStats &stats() const { return Stats; }

  /// Cumulative bounded-tier work counters (all bounded tiers summed).
  uint64_t boundedCandidates() const;
  uint64_t boundedQuantSteps() const;

  /// Cumulative conflict-driven-search counters, summed across every
  /// bounded tier (including a shard tier's in-process fallback).
  BoundedSearchStats boundedSearchStats() const;

  /// True when the last query settled as a deadline gave-up (settledBy()
  /// reports "deadline"); such verdicts are never cached.
  bool lastQueryDeadlined() const override { return LastDeadlined; }

  /// Bounded-search conflicts attributable to the last checkSat /
  /// checkRange call (snapshot delta over boundedSearchStats().Conflicts;
  /// shard-settled queries report 0 — their conflicts happened out of
  /// process).
  uint64_t lastQueryBoundedConflicts() const override {
    return LastConflicts;
  }

private:
  AstContext &Ctx;
  PortfolioOptions Opts;
  Simplifier Simp;
  /// Backend per tier; null for the simplify tier.
  std::vector<std::unique_ptr<Solver>> Backends;
  /// Non-null where the tier's backend is a BoundedSolver (for counters
  /// and stop reasons).
  std::vector<BoundedSolver *> BoundedTier;
  /// Display name per tier ("z3" vs "bounded-full" depends on what the
  /// Smt tier degraded to).
  std::vector<const char *> TierNames;
  PortfolioStats Stats;

  /// In-process fallback tail for a pool-backed shard tier: the solver
  /// the workers themselves run (same ShardWorkerPipeline, same bounded
  /// configuration), built alongside the ShardSolver. When the pool is
  /// degraded — or one round trip fails past its sound retry — the shard
  /// tier answers from this tail instead of erroring out. Because worker
  /// verdicts are pure functions of the request and the tail is the very
  /// solver the request configures, the fallback verdict is identical to
  /// what a healthy worker would have said: degradation is invisible in
  /// the report (only SettledBy, which is excluded from pins, changes).
  std::unique_ptr<Solver> ShardFallback;
  BoundedSolver *ShardFallbackBounded = nullptr;
  const char *ShardFallbackName = nullptr;
  std::string ShardFallbackSettledBy;

  bool LastSettled = false;
  const char *LastSettledBy = "portfolio";
  std::string LastTrail;
  bool LastDeadlined = false;
  uint64_t LastConflicts = 0;

  Result<SatResult> runSimplifyTier(size_t I,
                                    const std::vector<const BoolExpr *> &F,
                                    Model *ModelOut, bool &Settled);
  Result<SatResult> checkRangeImpl(size_t From, size_t To,
                                   const std::vector<const BoolExpr *> &F,
                                   const VarRefSet *Vars, Model *ModelOut);
};

} // namespace relax

#endif // RELAXC_SOLVER_PORTFOLIO_H
