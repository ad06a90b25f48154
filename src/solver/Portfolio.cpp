//===- Portfolio.cpp - Tiered solver portfolio --------------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/Portfolio.h"

#include "solver/ShardPool.h"
#include "support/Casting.h"

#include <cassert>
#include <optional>

using namespace relax;

const char *relax::tierKindName(TierKind K) {
  switch (K) {
  case TierKind::Simplify:
    return "simplify";
  case TierKind::Bounded:
    return "bounded";
  case TierKind::Smt:
    return "z3";
  case TierKind::Shard:
    return "shard";
  }
  return "?";
}

Result<std::vector<TierKind>> relax::parsePipelineSpec(std::string_view Spec) {
  std::vector<TierKind> Tiers;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string_view Name = Spec.substr(
        Pos, Comma == std::string_view::npos ? Spec.size() - Pos
                                             : Comma - Pos);
    if (Name == "simplify")
      Tiers.push_back(TierKind::Simplify);
    else if (Name == "bounded")
      Tiers.push_back(TierKind::Bounded);
    else if (Name == "z3")
      Tiers.push_back(TierKind::Smt);
    else if (Name == "shard")
      Tiers.push_back(TierKind::Shard);
    else
      return Result<std::vector<TierKind>>::error(
          "unknown pipeline tier '" + std::string(Name) +
          "' (valid tiers: simplify, bounded, z3, shard)");
    if (Comma == std::string_view::npos)
      break;
    Pos = Comma + 1;
  }
  if (Tiers.empty())
    return Result<std::vector<TierKind>>::error("empty pipeline spec");
  for (size_t I = 0; I != Tiers.size(); ++I) {
    if (Tiers[I] == TierKind::Simplify && I != 0)
      return Result<std::vector<TierKind>>::error(
          "the simplify tier must come first in the pipeline (it runs on "
          "the preparing thread, before any escalation)");
    if (Tiers[I] == TierKind::Shard && I + 1 != Tiers.size())
      return Result<std::vector<TierKind>>::error(
          "the shard tier must come last in the pipeline (it hands the "
          "final verdict to the worker pool, so no tier after it could "
          "ever run)");
    for (size_t J = I + 1; J != Tiers.size(); ++J)
      if (Tiers[I] == Tiers[J])
        return Result<std::vector<TierKind>>::error(
            std::string("duplicate pipeline tier '") +
            tierKindName(Tiers[I]) + "'");
  }
  return Tiers;
}

std::string relax::formatPipeline(const std::vector<TierKind> &Tiers) {
  std::string Out;
  for (TierKind K : Tiers) {
    if (!Out.empty())
      Out += ",";
    Out += tierKindName(K);
  }
  return Out;
}

std::string relax::boundedOptionsFingerprint(const BoundedSolverOptions &O) {
  BoundedSolverOptions Key = O;
  Key.Jobs = 1;
  return "bounded=[" + formatBoundedOptions(Key) + "]";
}

std::string relax::portfolioConfigFingerprint(const PortfolioOptions &Opts,
                                              bool HaveSmtBackend) {
  // The effective chain: a trailing shard tier answers with exactly the
  // verdict its ShardWorkerPipeline tail would produce in process, so
  // --shards=N and --shards=0 runs of one logical pipeline share keys.
  std::vector<TierKind> Effective = Opts.Tiers;
  if (!Effective.empty() && Effective.back() == TierKind::Shard) {
    Effective.pop_back();
    if (Result<std::vector<TierKind>> Tail =
            parsePipelineSpec(Opts.ShardWorkerPipeline))
      for (TierKind K : *Tail)
        Effective.push_back(K);
    else // unparseable tail: keep the literal spelling distinct
      Effective.push_back(TierKind::Shard);
  }
  std::string Out = "pipeline=" + formatPipeline(Effective);
  Out += " " + boundedOptionsFingerprint(Opts.Bounded);
  Out += " final-step-factor=" + std::to_string(Opts.FinalBoundedStepFactor);
  Out += std::string(" smt=") + (HaveSmtBackend ? "z3" : "bounded-full");
  return Out;
}

void PortfolioStats::merge(const PortfolioStats &O) {
  if (Tiers.size() < O.Tiers.size())
    Tiers.resize(O.Tiers.size());
  for (size_t I = 0; I != O.Tiers.size(); ++I) {
    Tiers[I].Settled += O.Tiers[I].Settled;
    Tiers[I].GaveUp += O.Tiers[I].GaveUp;
    Tiers[I].BudgetTrips += O.Tiers[I].BudgetTrips;
  }
  Queries += O.Queries;
  Escalations += O.Escalations;
  Contexts.merge(O.Contexts);
}

PortfolioSolver::PortfolioSolver(AstContext &Ctx, PortfolioOptions Opts,
                                 BackendFactory SmtFactory)
    : Ctx(Ctx), Opts(std::move(Opts)), Simp(Ctx) {
  assert(!this->Opts.Tiers.empty() && "portfolio needs at least one tier");
  size_t N = this->Opts.Tiers.size();
  Stats.Tiers.resize(N);
  Backends.resize(N);
  BoundedTier.resize(N, nullptr);
  TierNames.resize(N);
  struct Tier {
    std::unique_ptr<Solver> S;
    BoundedSolver *B = nullptr; ///< S itself when S is a bounded search
    const char *Name = nullptr;
  };
  // A bounded search at the configured domains, its budgets multiplied
  // by Scale. Authoritative exhaustion answers Unsat; otherwise an
  // exhausted domain only means "no model in the domain" and escalates.
  auto MakeBounded = [&](bool Authoritative, uint64_t Scale,
                         const char *Name) {
    BoundedSolverOptions B = this->Opts.Bounded;
    B.ExhaustionMeansUnsat = Authoritative;
    B.MaxQuantSteps *= Scale; // 0 stays unlimited
    B.MaxCandidates *= Scale;
    Tier T;
    auto S = std::make_unique<BoundedSolver>(B, &Ctx);
    T.B = S.get();
    T.S = std::move(S);
    T.Name = Name;
    return T;
  };
  // The `z3` tier: the real backend when a factory exists, otherwise
  // bounded-at-full-domain (relaxed budgets, authoritative exhaustion).
  auto MakeSmt = [&] {
    if (!SmtFactory)
      return MakeBounded(true, this->Opts.FinalBoundedStepFactor,
                         "bounded-full");
    Tier T;
    T.S = SmtFactory();
    T.Name = T.S->name();
    return T;
  };
  // The in-process tail the shard workers run: exactly what a worker
  // process builds from ShardWorkerPipeline and the request's bounded
  // configuration. Used for the tier itself when there is no pool, and
  // as the runtime fallback when there is one.
  auto MakeShardTail = [&] {
    return this->Opts.ShardWorkerPipeline == "bounded"
               ? MakeBounded(true, 1, "bounded")
               : MakeSmt();
  };
  auto Install = [&](size_t I, Tier T) {
    BoundedTier[I] = T.B;
    Backends[I] = std::move(T.S);
    TierNames[I] = T.Name;
  };

  for (size_t I = 0; I != N; ++I) {
    TierKind K = this->Opts.Tiers[I];
    bool Last = I + 1 == N;
    switch (K) {
    case TierKind::Simplify:
      assert(I == 0 && "simplify tier must come first");
      TierNames[I] = "simplify";
      break;
    case TierKind::Bounded:
      // As a non-final tier, exhaustion escalates: bounded Unsat only
      // means "no model in the domain". As the final tier it keeps the
      // classic authoritative convention.
      Install(I, MakeBounded(Last, 1, "bounded"));
      break;
    case TierKind::Smt:
      Install(I, MakeSmt());
      break;
    case TierKind::Shard:
      assert(Last && "shard tier must come last");
      if (this->Opts.Pool) {
        Backends[I] = std::make_unique<ShardSolver>(
            *this->Opts.Pool, Ctx.symbols(), this->Opts.ShardWorkerPipeline,
            this->Opts.Bounded, this->Opts.FinalBoundedStepFactor);
        TierNames[I] = "shard";
        // Graceful degradation target: when the pool is unhealthy the
        // tier answers from this identical in-process tail at runtime.
        Tier T = MakeShardTail();
        ShardFallback = std::move(T.S);
        ShardFallbackBounded = T.B;
        ShardFallbackName = T.Name;
        ShardFallbackSettledBy = std::string("shard-degraded:") + T.Name;
      } else {
        // Pool-less degradation to the in-process tail the workers would
        // run (so `--shards=0` and a pool-less test config mean "same
        // pipeline, no processes").
        Install(I, MakeShardTail());
      }
      break;
    }
  }
}

size_t PortfolioSolver::firstWorkerTier() const {
  size_t I = 0;
  while (I != Opts.Tiers.size() && Opts.Tiers[I] == TierKind::Simplify)
    ++I;
  return I;
}

Result<SatResult>
PortfolioSolver::runSimplifyTier(size_t I,
                                 const std::vector<const BoolExpr *> &F,
                                 Model *ModelOut, bool &Settled) {
  const BoolExpr *Conj = F.size() == 1 ? F[0] : Ctx.conj(F);
  const BoolExpr *S = Simp.simplify(Conj);
  const auto *Lit = dyn_cast<BoolLitExpr>(S);
  if (!Lit) {
    Settled = false;
    return SatResult::Unknown;
  }
  Settled = true;
  if (ModelOut) {
    // A constant query constrains nothing; on Sat any assignment (the
    // defaults) is a model.
    ModelOut->Ints.clear();
    ModelOut->Arrays.clear();
  }
  return Lit->value() ? SatResult::Sat : SatResult::Unsat;
}

Result<SatResult>
PortfolioSolver::checkRange(size_t From, size_t To,
                            const std::vector<const BoolExpr *> &Formulas,
                            const VarRefSet *Vars, Model *ModelOut) {
  // Snapshot-delta so --explain can attribute conflicts to the obligation
  // this call served, whichever bounded tiers it touched. Shard-settled
  // queries contribute 0 (out-of-process search, counters remote).
  uint64_t Before = boundedSearchStats().Conflicts;
  Result<SatResult> R = checkRangeImpl(From, To, Formulas, Vars, ModelOut);
  LastConflicts = boundedSearchStats().Conflicts - Before;
  return R;
}

Result<SatResult>
PortfolioSolver::checkRangeImpl(size_t From, size_t To,
                                const std::vector<const BoolExpr *> &Formulas,
                                const VarRefSet *Vars, Model *ModelOut) {
  size_t N = Opts.Tiers.size();
  assert(From <= To && To <= N);
  LastSettled = false;
  LastSettledBy = "portfolio";
  LastDeadlined = false;
  // The trail covers one checkRange call; the scheduler concatenates
  // stage trails itself. Queries are counted once per logical query.
  LastTrail.clear();
  if (From == 0)
    ++Stats.Queries;

  auto AppendTrail = [&](size_t I, const std::string &Why) {
    if (!LastTrail.empty())
      LastTrail += "; ";
    LastTrail += std::string(TierNames[I]) + ": " + Why;
  };

  // A non-final bounded tier whose successor is in range runs behind that
  // successor, as a rescue (see the file comment): positions Rescue and
  // Rescue + 1 swap tiers.
  size_t Rescue = N;
  for (size_t I = From; I + 1 < To; ++I)
    if (Opts.Tiers[I] == TierKind::Bounded)
      Rescue = I;
  // The final tier's Unknown or error: the verdict, unless a rescue tier
  // still to run finds a witness.
  std::optional<Result<SatResult>> Final;
  const char *FinalBy = nullptr;
  bool FinalDeadlined = false;

  for (size_t Pos = From; Pos != To; ++Pos) {
    size_t I = Pos == Rescue ? Pos + 1 : Pos == Rescue + 1 ? Rescue : Pos;
    // A give-up hands the query on unless this is the last tier the
    // whole chain runs.
    bool EndsChain = Pos + 1 == To && To == N;
    // Deadline gate at every tier boundary: an expired deadline settles
    // the query as a gave-up with reason "deadline" — never a hang, and
    // never an answer a tier did not actually compute.
    if (QueryDeadline.expired()) {
      AppendTrail(I, "deadline expired before this tier ran");
      LastSettled = true;
      LastSettledBy = "deadline";
      LastDeadlined = true;
      return SatResult::Unknown;
    }
    if (Opts.Tiers[I] == TierKind::Simplify) {
      bool Settled = false;
      Result<SatResult> R = runSimplifyTier(I, Formulas, ModelOut, Settled);
      if (Settled) {
        ++Stats.Tiers[I].Settled;
        LastSettled = true;
        LastSettledBy = TierNames[I];
        return R;
      }
      ++Stats.Tiers[I].GaveUp;
      if (!EndsChain)
        ++Stats.Escalations;
      AppendTrail(I, "did not fold to a constant");
      continue;
    }

    // Route the pool-backed shard tier to its in-process fallback tail
    // when the pool has degraded (every worker dead). Both sides compute
    // the same pure function of the request, so the switch is invisible
    // in the verdict — only SettledBy records it.
    bool IsShard = Opts.Tiers[I] == TierKind::Shard && Opts.Pool != nullptr &&
                   ShardFallback != nullptr;
    bool UsedFallback = false;
    Solver *Active = Backends[I].get();
    if (IsShard && Opts.Pool->degraded()) {
      Active = ShardFallback.get();
      UsedFallback = true;
      Opts.Pool->noteFallback();
      AppendTrail(I, std::string("pool degraded; answering with the "
                                 "in-process ") +
                         ShardFallbackName + " tail");
    }

    Active->setDeadline(QueryDeadline);
    Result<SatResult> R =
        ModelOut && Vars ? Active->checkSatWithModel(Formulas, *Vars, *ModelOut)
                         : Active->checkSat(Formulas);
    if (!R.ok() && IsShard && !UsedFallback) {
      // The round trip failed past the pool's single sound retry:
      // degrade this query (and, if the pool is now fully dead, all
      // later ones) to the in-process tail instead of erroring out.
      AppendTrail(I, "error: " + R.message() + "; degrading to the "
                                               "in-process " +
                         ShardFallbackName + " tail");
      Opts.Pool->noteFallback();
      Active = ShardFallback.get();
      UsedFallback = true;
      Active->setDeadline(QueryDeadline);
      R = ModelOut && Vars
              ? Active->checkSatWithModel(Formulas, *Vars, *ModelOut)
              : Active->checkSat(Formulas);
    }
    if (!R.ok()) {
      AppendTrail(I, "error: " + R.message());
      if (I + 1 == N)
        Final = R; // nothing after the final tier but a rescue
      else
        ++Stats.Tiers[I].GaveUp;
      if (EndsChain)
        break;
      ++Stats.Escalations;
      continue;
    }
    if (*R != SatResult::Unknown) {
      ++Stats.Tiers[I].Settled;
      LastSettled = true;
      // The shard tier reports which worker-side tier settled
      // ("shard:z3"); the worker's own give-up trail is appended so
      // --explain shows the full escalation path across the process
      // boundary. A fallback-settled query reports "shard-degraded:<tail>".
      if (UsedFallback) {
        LastSettledBy = ShardFallbackSettledBy.c_str();
      } else if (Opts.Tiers[I] == TierKind::Shard) {
        LastSettledBy = Active->settledBy();
        if (std::string WTrail = Active->giveUpTrail(); !WTrail.empty())
          AppendTrail(I, "worker trail: " + WTrail);
      } else {
        LastSettledBy = TierNames[I];
      }
      return *R;
    }

    // Unknown: compose the give-up reason.
    bool TierDeadlined = Active->lastQueryDeadlined();
    std::string Why = "returned unknown";
    bool BudgetTrip = false;
    const BoundedSolver *BS = UsedFallback ? ShardFallbackBounded
                                           : BoundedTier[I];
    if (BS) {
      switch (BS->lastStop()) {
      case BoundedSolver::StopReason::CandidateBudget:
        Why = "candidate budget (" +
              std::to_string(Opts.Bounded.MaxCandidates) + ") tripped";
        BudgetTrip = true;
        break;
      case BoundedSolver::StopReason::StepBudget:
        Why = "quantifier-step budget tripped";
        BudgetTrip = true;
        break;
      case BoundedSolver::StopReason::Decided:
        Why = "domain exhausted without a model";
        break;
      case BoundedSolver::StopReason::Deadline:
        Why = "deadline reached";
        break;
      }
    }
    if (TierDeadlined)
      Why = "deadline reached";
    if (Opts.Tiers[I] == TierKind::Shard && !UsedFallback)
      if (std::string WTrail = Active->giveUpTrail(); !WTrail.empty())
        Why = "worker trail: " + WTrail;
    ++Stats.Tiers[I].GaveUp;
    if (BudgetTrip)
      ++Stats.Tiers[I].BudgetTrips;
    AppendTrail(I, Why);
    // The final tier's Unknown is the portfolio's verdict. A deadline
    // gave-up reports "deadline" so it is never cached or pinned; a
    // rescue cut short by the deadline makes the verdict one too.
    if (I + 1 == N) {
      Final = SatResult::Unknown;
      FinalBy = UsedFallback ? ShardFallbackSettledBy.c_str()
                : Opts.Tiers[I] == TierKind::Shard ? Active->settledBy()
                                                   : TierNames[I];
    }
    FinalDeadlined |= TierDeadlined;
    if (EndsChain)
      break;
    ++Stats.Escalations;
  }
  if (!Final)
    return SatResult::Unknown; // unsettled within [From, To)
  if (Final->ok()) {
    LastSettled = true;
    LastSettledBy = FinalDeadlined ? "deadline" : FinalBy;
    LastDeadlined = FinalDeadlined;
  }
  return *Final;
}

Result<SatResult>
PortfolioSolver::checkSat(const std::vector<const BoolExpr *> &Formulas) {
  ++Queries;
  return checkRange(0, tierCount(), Formulas, nullptr, nullptr);
}

Result<SatResult>
PortfolioSolver::checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                                   const VarRefSet &Vars, Model &ModelOut) {
  ++Queries;
  return checkRange(0, tierCount(), Formulas, &Vars, &ModelOut);
}

uint64_t PortfolioSolver::boundedCandidates() const {
  uint64_t N = 0;
  for (const BoundedSolver *B : BoundedTier)
    if (B)
      N += B->candidatesEvaluated();
  if (ShardFallbackBounded)
    N += ShardFallbackBounded->candidatesEvaluated();
  return N;
}

uint64_t PortfolioSolver::boundedQuantSteps() const {
  uint64_t N = 0;
  for (const BoundedSolver *B : BoundedTier)
    if (B)
      N += B->quantStepsEvaluated();
  if (ShardFallbackBounded)
    N += ShardFallbackBounded->quantStepsEvaluated();
  return N;
}

PortfolioStats PortfolioSolver::stats() const {
  PortfolioStats S = Stats;
  for (const std::unique_ptr<Solver> &B : Backends)
    if (B)
      S.Contexts.merge(B->contextStats());
  if (ShardFallback)
    S.Contexts.merge(ShardFallback->contextStats());
  return S;
}

BoundedSearchStats PortfolioSolver::boundedSearchStats() const {
  BoundedSearchStats S;
  for (const BoundedSolver *B : BoundedTier)
    if (B)
      S.merge(B->searchStats());
  if (ShardFallbackBounded)
    S.merge(ShardFallbackBounded->searchStats());
  return S;
}
