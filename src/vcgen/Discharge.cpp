//===- Discharge.cpp - Obligation discharge subsystem -------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/Discharge.h"

#include "ast/Printer.h"
#include "support/PersistentCache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

using namespace relax;

const char *relax::vcStatusName(VCStatus S) {
  switch (S) {
  case VCStatus::Proved:
    return "proved";
  case VCStatus::Failed:
    return "failed";
  case VCStatus::Unknown:
    return "unknown";
  case VCStatus::SolverError:
    return "error";
  }
  return "?";
}

const BoolExpr *relax::vcQuery(AstContext &Ctx, const VC &C) {
  return C.Kind == VCKind::Validity ? Ctx.notExpr(C.Formula) : C.Formula;
}

void DischargeStats::merge(const DischargeStats &O) {
  Portfolio.merge(O.Portfolio);
  SharedCacheHits += O.SharedCacheHits;
  SharedCacheMisses += O.SharedCacheMisses;
  BoundedCandidates += O.BoundedCandidates;
  BoundedQuantSteps += O.BoundedQuantSteps;
  Search.merge(O.Search);
  EscalatedObligations += O.EscalatedObligations;
  StolenTasks += O.StolenTasks;
}

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Re-queries a solver with model extraction; parameterized so portfolio
/// workers can skip the simplify prefix (which builds nodes and must not
/// run on a worker thread).
using ModelQueryFn = std::function<Result<SatResult>(
    const std::vector<const BoolExpr *> &, const VarRefSet &, Model &)>;

/// Maps a sat verdict \p R for \p Out's condition onto a discharge
/// status and detail. Out.Condition must already be set. \p ModelQuery
/// supplies the counterexample for a failed validity obligation.
void applyVerdict(VCOutcome &Out, const Result<SatResult> &R,
                  const Interner &Syms, const ModelQueryFn &ModelQuery,
                  const std::vector<const BoolExpr *> &Formulas) {
  if (!R.ok()) {
    Out.Status = VCStatus::SolverError;
    Out.Detail = R.message();
    return;
  }
  if (Out.Condition.Kind == VCKind::Validity) {
    switch (*R) {
    case SatResult::Unsat:
      Out.Status = VCStatus::Proved;
      break;
    case SatResult::Sat: {
      Out.Status = VCStatus::Failed;
      // Re-query with model extraction so the report shows a concrete
      // witness state (pair) falsifying the obligation.
      Model Counterexample;
      Result<SatResult> WithModel =
          ModelQuery(Formulas, freeVars(Out.Condition.Formula),
                     Counterexample);
      if (WithModel.ok() && *WithModel == SatResult::Sat)
        Out.Detail = "counterexample: " + formatModel(Syms, Counterexample);
      else
        Out.Detail = "counterexample exists";
      break;
    }
    case SatResult::Unknown:
      Out.Status = VCStatus::Unknown;
      Out.Detail = "solver returned unknown";
      break;
    }
    return;
  }
  switch (*R) {
  case SatResult::Sat:
    Out.Status = VCStatus::Proved;
    break;
  case SatResult::Unsat:
    Out.Status = VCStatus::Failed;
    Out.Detail = "the choice predicate admits no assignment";
    break;
  case SatResult::Unknown:
    Out.Status = VCStatus::Unknown;
    Out.Detail = "solver returned unknown";
    break;
  }
}

/// The counterexample re-query on \p S; a portfolio runs its tiers from
/// \p From on. A model query runs the portfolio's bounded tier in front
/// of the decision tier, so the counterexample is the search's canonical
/// witness whenever it finds one.
ModelQueryFn modelQueryOn(Solver &S, size_t From = 0) {
  // A portfolio re-runs its tier chain for the model; pause its stats so
  // the re-query does not double-count queries / per-tier settlements.
  if (auto *P = dynamic_cast<PortfolioSolver *>(&S))
    return [P, From](const std::vector<const BoolExpr *> &F,
                     const VarRefSet &Vars, Model &M) {
      PortfolioSolver::ScopedStatsPause Pause(*P);
      return P->checkRange(From, P->tierCount(), F, &Vars, &M);
    };
  return [&S](const std::vector<const BoolExpr *> &F, const VarRefSet &Vars,
              Model &M) { return S.checkSatWithModel(F, Vars, M); };
}

void appendTrail(std::string &Trail, const std::string &More) {
  if (More.empty())
    return;
  if (!Trail.empty())
    Trail += "; ";
  Trail += More;
}

/// Rewrites an Unknown outcome's detail when the solver gave up on the
/// query deadline, so reports (and the driver's give-up summary) name the
/// reason. Safe after applyVerdict: Unknown means no counterexample
/// re-query ran, so the solver's last-query state is still this query's.
void noteDeadline(VCOutcome &Out, const Solver &S) {
  if (Out.Status == VCStatus::Unknown && S.lastQueryDeadlined())
    Out.Detail = "gave up: deadline expired";
}

} // namespace

//===----------------------------------------------------------------------===//
// SharedSolverCache and the persistent tier
//===----------------------------------------------------------------------===//

namespace {

const char *cacheTagWord(VarTag T) {
  switch (T) {
  case VarTag::Plain:
    return "plain";
  case VarTag::Orig:
    return "o";
  case VarTag::Rel:
    return "r";
  }
  return "?";
}

} // namespace

std::string
relax::persistentCacheKey(const std::string &Fingerprint,
                          const std::vector<const BoolExpr *> &Query,
                          const Interner &Syms) {
  std::string Key = "config " + Fingerprint + "\n";
  // Kind declarations first (the portable analogue of the shard wire
  // format's var lines), sorted for canonicity.
  VarRefSet Free;
  for (const BoolExpr *F : Query)
    collectFreeVars(F, Free);
  std::vector<std::string> VarLines;
  for (const VarRef &V : Free)
    VarLines.push_back(std::string("var ") +
                       (V.Kind == VarKind::Int ? "int" : "array") + " " +
                       cacheTagWord(V.Tag) + " " +
                       std::string(Syms.text(V.Name)));
  std::sort(VarLines.begin(), VarLines.end());
  for (const std::string &L : VarLines)
    Key += L + "\n";
  // Printed formulas, sorted lexicographically: the canonical order must
  // not depend on structural hashes (nominal) or pointers (per-process).
  Printer P(Syms);
  std::vector<std::string> Formulas;
  for (const BoolExpr *F : Query)
    Formulas.push_back(P.print(F));
  std::sort(Formulas.begin(), Formulas.end());
  for (const std::string &F : Formulas)
    Key += "formula " + F + "\n";
  return Key;
}

std::optional<SatResult>
SharedSolverCache::lookup(const std::vector<const BoolExpr *> &Query) {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<const BoolExpr *> Canonical =
      SolverResultCache::canonicalize(Query);
  if (std::optional<SatResult> R = Cache.lookupCanonical(Canonical))
    return R;
  if (!Persist)
    return std::nullopt;
  std::optional<SatResult> R =
      Persist->lookup(persistentCacheKey(Persist->fingerprint(), Query,
                                         *Syms));
  // Pull a disk hit into the memory tier so this run's duplicates skip
  // the key build (and so the stats keep counting them as memory hits).
  if (R)
    Cache.insertCanonical(std::move(Canonical), *R);
  return R;
}

void SharedSolverCache::insert(const std::vector<const BoolExpr *> &Query,
                               SatResult R) {
  std::lock_guard<std::mutex> Lock(M);
  Cache.insert(Query, R);
  // Callers only insert final non-deadline verdicts (the discipline this
  // cache documents), so forwarding is safe; the persistent tier drops
  // Unknown itself and checks verify-sampled recomputations here.
  if (Persist)
    Persist->insert(persistentCacheKey(Persist->fingerprint(), Query, *Syms),
                    R);
}

void SharedSolverCache::attachPersistent(PersistentCache *P,
                                         const Interner *S) {
  std::lock_guard<std::mutex> Lock(M);
  Persist = P;
  Syms = S;
}

namespace {

/// dischargeVC, except that a portfolio \p S runs its tiers from \p From
/// on: a discharge worker skips the simplify prefix the submitting thread
/// already ran.
VCOutcome dischargeFrom(const VC &Condition, const BoolExpr *Query, Solver &S,
                        size_t From, const Interner &Syms,
                        SharedSolverCache *Shared) {
  VCOutcome Out;
  Out.Condition = Condition;

  auto Start = Clock::now();
  std::vector<const BoolExpr *> Formulas{Query};

  Result<SatResult> R = SatResult::Unknown;
  bool FromCache = false;
  if (Shared) {
    if (std::optional<SatResult> Cached = Shared->lookup(Formulas)) {
      R = *Cached;
      FromCache = true;
    }
  }
  if (!FromCache) {
    auto *P = dynamic_cast<PortfolioSolver *>(&S);
    R = P ? P->checkRange(From, P->tierCount(), Formulas, nullptr, nullptr)
          : S.checkSat(Formulas);
    // Deadline gave-ups are time-dependent, never cacheable: a later run
    // of the same query with time left must not be served "unknown".
    if (Shared && R.ok() && !S.lastQueryDeadlined())
      Shared->insert(Formulas, *R);
  }

  if (FromCache)
    Out.SettledBy = "cache";
  else if (R.ok()) {
    Out.SettledBy = S.settledBy();
    Out.Trail = S.giveUpTrail();
  }
  // Captured before applyVerdict: a failed validity obligation re-queries
  // for a counterexample model, which would overwrite the per-query
  // conflict delta with the re-query's.
  if (!FromCache)
    Out.BoundedConflicts = S.lastQueryBoundedConflicts();
  applyVerdict(Out, R, Syms, modelQueryOn(S, From), Formulas);
  if (!FromCache)
    noteDeadline(Out, S);
  Out.Millis = millisSince(Start);
  return Out;
}

} // namespace

VCOutcome relax::dischargeVC(const VC &Condition, const BoolExpr *Query,
                             Solver &S, const Interner &Syms,
                             SharedSolverCache *Shared) {
  return dischargeFrom(Condition, Query, S, 0, Syms, Shared);
}

//===----------------------------------------------------------------------===//
// DischargeScheduler
//===----------------------------------------------------------------------===//

DischargeScheduler::DischargeScheduler(AstContext &Ctx, Config Cfg)
    : Ctx(Ctx), Cfg(std::move(Cfg)) {
  if (this->Cfg.Portfolio)
    MainPortfolio = std::make_unique<PortfolioSolver>(
        Ctx, *this->Cfg.Portfolio, this->Cfg.SmtFactory);
  if (this->Cfg.PCache)
    Shared.attachPersistent(this->Cfg.PCache, &Ctx.symbols());
}

DischargeScheduler::~DischargeScheduler() = default;

Deadline DischargeScheduler::perVcDeadline() const {
  Deadline D = Cfg.Global;
  if (Cfg.VcTimeoutMs >= 0)
    D = Deadline::earliest(D, Deadline::inMs(Cfg.VcTimeoutMs));
  return D;
}

DischargeStats DischargeScheduler::stats() const {
  DischargeStats S;
  auto AddPortfolio = [&S](const PortfolioSolver &P) {
    S.Portfolio.merge(P.stats());
    S.BoundedCandidates += P.boundedCandidates();
    S.BoundedQuantSteps += P.boundedQuantSteps();
    S.Search.merge(P.boundedSearchStats());
  };
  if (MainPortfolio) {
    AddPortfolio(*MainPortfolio);
    for (const std::unique_ptr<Solver> &W : Workers)
      AddPortfolio(static_cast<const PortfolioSolver &>(*W));
  }
  S.SharedCacheHits = Shared.hitCount();
  S.SharedCacheMisses = Shared.missCount();
  S.StolenTasks = StolenTasks;
  return S;
}

void DischargeScheduler::discharge(VCSet Set, JudgmentReport &Report,
                                   Solver &Fallback) {
  Report.Derivation = std::move(Set.Derivation);
  std::vector<VC> &VCs = Set.VCs;
  if (VCs.empty())
    return;

  // Pre-build every query formula on this thread: node construction goes
  // through the (single-threaded) hash-consing factories.
  std::vector<const BoolExpr *> Queries;
  Queries.reserve(VCs.size());
  for (const VC &C : VCs)
    Queries.push_back(vcQuery(Ctx, C));

  std::vector<VCOutcome> Outcomes(VCs.size());

  unsigned Jobs = Cfg.Jobs;
  if (!portfolioMode() && !Cfg.SolverFactory)
    Jobs = 1;
  if (Jobs > VCs.size())
    Jobs = static_cast<unsigned>(VCs.size());

  if (Jobs > 1) {
    dischargeParallel(VCs, Queries, Outcomes);
  } else if (portfolioMode()) {
    dischargeSequentialPortfolio(VCs, Queries, Outcomes);
  } else {
    // The classic single-backend sequential path, kept cache-free so a
    // driver's CachingSolver wrapper observes every query — unless a
    // persistent cache is armed, which must front every configuration.
    SharedSolverCache *SharedOrNull = Cfg.PCache ? &Shared : nullptr;
    for (size_t I = 0; I != VCs.size(); ++I) {
      Fallback.setDeadline(perVcDeadline());
      Outcomes[I] = dischargeVC(VCs[I], Queries[I], Fallback, Ctx.symbols(),
                                SharedOrNull);
    }
  }

  // VC order, not completion order: reports are deterministic.
  for (VCOutcome &Out : Outcomes) {
    Report.TotalMillis += Out.Millis;
    Report.Outcomes.push_back(std::move(Out));
  }
}

void DischargeScheduler::dischargeSequentialPortfolio(
    std::vector<VC> &VCs, const std::vector<const BoolExpr *> &Qs,
    std::vector<VCOutcome> &Outcomes) {
  for (size_t I = 0; I != VCs.size(); ++I) {
    MainPortfolio->setDeadline(perVcDeadline());
    Outcomes[I] =
        dischargeVC(VCs[I], Qs[I], *MainPortfolio, Ctx.symbols(), &Shared);
  }
}

void DischargeScheduler::dischargeParallel(
    std::vector<VC> &VCs, const std::vector<const BoolExpr *> &Qs,
    std::vector<VCOutcome> &Outcomes) {
  const Interner &Syms = Ctx.symbols();
  size_t N = VCs.size();

  // Tiers [0, FW), the simplify prefix, run here at prepare time; the
  // workers run the rest.
  size_t FW = portfolioMode() ? MainPortfolio->firstWorkerTier() : 0;

  std::vector<std::string> Trails(N);
  std::vector<size_t> Pending;
  Pending.reserve(N);

  if (portfolioMode() && FW > 0) {
    // Prepare stage on this thread: the simplify tier builds nodes, so it
    // cannot run on a worker. Cache first, mirroring the sequential path.
    for (size_t I = 0; I != N; ++I) {
      auto Start = Clock::now();
      std::vector<const BoolExpr *> F{Qs[I]};
      Outcomes[I].Condition = VCs[I];
      if (std::optional<SatResult> Cached = Shared.lookup(F)) {
        Outcomes[I].SettledBy = "cache";
        applyVerdict(Outcomes[I], Result<SatResult>(*Cached), Syms,
                     modelQueryOn(*MainPortfolio), F);
        Outcomes[I].Millis += millisSince(Start);
        continue;
      }
      MainPortfolio->setDeadline(perVcDeadline());
      Result<SatResult> R =
          MainPortfolio->checkRange(0, FW, F, nullptr, nullptr);
      if (MainPortfolio->lastSettled() || !R.ok()) {
        Outcomes[I].SettledBy = MainPortfolio->settledBy();
        Outcomes[I].Trail = MainPortfolio->giveUpTrail();
        if (R.ok() && !MainPortfolio->lastQueryDeadlined())
          Shared.insert(F, *R);
        applyVerdict(Outcomes[I], R, Syms, modelQueryOn(*MainPortfolio), F);
        noteDeadline(Outcomes[I], *MainPortfolio);
        Outcomes[I].Millis += millisSince(Start);
        continue;
      }
      Trails[I] = MainPortfolio->giveUpTrail();
      Outcomes[I].Millis += millisSince(Start);
      Pending.push_back(I);
    }
  } else {
    for (size_t I = 0; I != N; ++I)
      Pending.push_back(I);
  }
  if (Pending.empty())
    return;

  unsigned Jobs =
      static_cast<unsigned>(std::min<size_t>(Cfg.Jobs, Pending.size()));
  // One backend per worker slot for the scheduler's lifetime: the second
  // judgment pass reuses the first pass's backends (and their Z3
  // contexts) instead of building its own.
  while (Workers.size() < Jobs)
    Workers.push_back(portfolioMode()
                          ? std::make_unique<PortfolioSolver>(
                                Ctx, *Cfg.Portfolio, Cfg.SmtFactory)
                          : Cfg.SolverFactory());

  // Per-worker deques, round-robin seeded. Owners pop the front; thieves
  // pop the back, so a steal grabs the work its owner would reach last.
  struct WorkerDeque {
    std::mutex M;
    std::deque<size_t> Q;
  };
  std::vector<WorkerDeque> Deques(Jobs);
  for (size_t K = 0; K != Pending.size(); ++K)
    Deques[K % Jobs].Q.push_back(Pending[K]);
  std::atomic<uint64_t> Steals{0};

  auto PopOwn = [&](unsigned W, size_t &I) {
    std::lock_guard<std::mutex> L(Deques[W].M);
    if (Deques[W].Q.empty())
      return false;
    I = Deques[W].Q.front();
    Deques[W].Q.pop_front();
    return true;
  };
  auto StealFrom = [&](unsigned W, size_t &I) {
    for (unsigned D = 1; D != Jobs; ++D) {
      WorkerDeque &V = Deques[(W + D) % Jobs];
      std::lock_guard<std::mutex> L(V.M);
      if (!V.Q.empty()) {
        I = V.Q.back();
        V.Q.pop_back();
        return true;
      }
    }
    return false;
  };

  // Every task is seeded before the fan-out, so a worker that finds no
  // task of its own and none to steal is done.
  auto WorkerFn = [&](unsigned W) {
    Solver &S = *Workers[W];
    size_t I;
    while (true) {
      if (!PopOwn(W, I)) {
        if (!StealFrom(W, I))
          break;
        Steals.fetch_add(1);
      }
      double PrepareMillis = Outcomes[I].Millis;
      S.setDeadline(perVcDeadline());
      Outcomes[I] = dischargeFrom(VCs[I], Qs[I], S, FW, Syms, &Shared);
      Outcomes[I].Millis += PrepareMillis;
      std::string Trail = std::move(Trails[I]);
      appendTrail(Trail, Outcomes[I].Trail);
      Outcomes[I].Trail = std::move(Trail);
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Jobs - 1);
  for (unsigned W = 1; W != Jobs; ++W)
    Pool.emplace_back(WorkerFn, W);
  WorkerFn(0);
  for (std::thread &T : Pool)
    T.join();

  StolenTasks += Steals.load();
}
