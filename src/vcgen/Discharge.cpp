//===- Discharge.cpp - Obligation discharge subsystem -------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/Discharge.h"

#include "ast/Printer.h"
#include "solver/ModelCodec.h"
#include "support/PersistentCache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_set>

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
  PassSlots.insert(PassSlots.end(), O.PassSlots.begin(), O.PassSlots.end());
}

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Maps a verdict \p R for \p Out's condition onto a discharge status
/// and detail. Out.Condition must already be set. A failed validity
/// obligation shows \p Witness, the model of its `sat`, as its
/// counterexample.
void applyVerdict(VCOutcome &Out, const Result<SatResult> &R,
                  const std::optional<Model> &Witness, const Interner &Syms) {
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
    case SatResult::Sat:
      assert(Witness && "a refutation carries the model of its sat");
      Out.Status = VCStatus::Failed;
      Out.Detail = "counterexample: " + formatModel(Syms, *Witness);
      break;
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

void appendTrail(std::string &Trail, const std::string &More) {
  if (More.empty())
    return;
  if (!Trail.empty())
    Trail += "; ";
  Trail += More;
}

} // namespace

//===----------------------------------------------------------------------===//
// SharedSolverCache and the persistent tier
//===----------------------------------------------------------------------===//

namespace {

VarRefSet freeVarsOf(const std::vector<const BoolExpr *> &Query) {
  VarRefSet Free;
  for (const BoolExpr *F : Query)
    collectFreeVars(F, Free);
  return Free;
}

} // namespace

std::string
relax::persistentCacheKey(const std::string &Fingerprint,
                          const std::vector<const BoolExpr *> &Query,
                          const Interner &Syms) {
  std::string Key = "config " + Fingerprint + "\n";
  // Kind declarations first (the portable analogue of the shard wire
  // format's var lines), sorted for canonicity.
  std::vector<std::string> VarLines;
  for (const VarRef &V : freeVarsOf(Query))
    VarLines.push_back(PersistentCache::keyVarLine(
        {std::string(Syms.text(V.Name)), V.Tag, V.Kind}));
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

std::optional<CachedVerdict>
SharedSolverCache::lookup(const std::vector<const BoolExpr *> &Query,
                          bool WantWitness) {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<const BoolExpr *> Canonical =
      SolverResultCache::canonicalize(Query);
  if (std::optional<CachedVerdict> V =
          Cache.lookupCanonical(Canonical, WantWitness))
    return V;
  if (!Persist)
    return std::nullopt;
  std::optional<PersistentCache::Entry> E = Persist->lookup(
      persistentCacheKey(Persist->fingerprint(), Query, *Syms), WantWitness);
  if (!E)
    return std::nullopt;
  CachedVerdict V{E->R, std::nullopt};
  if (E->Witness)
    V.Witness = modelOfWire(*E->Witness, freeVarsOf(Query), *Syms);
  // Pull a disk hit into the memory tier so this run's duplicates skip
  // the key build (and so the stats keep counting them as memory hits).
  Cache.insertCanonical(std::move(Canonical), V);
  return V;
}

std::optional<Model>
SharedSolverCache::insert(const std::vector<const BoolExpr *> &Query,
                          CachedVerdict V) {
  std::lock_guard<std::mutex> Lock(M);
  // Callers only insert final non-deadline verdicts (the discipline this
  // cache documents), so forwarding is safe; the persistent tier drops
  // Unknown itself and checks verify-sampled recomputations here.
  if (Persist) {
    std::optional<WireModel> Stored = Persist->insert(
        persistentCacheKey(Persist->fingerprint(), Query, *Syms), V.R,
        V.Witness ? std::optional<WireModel>(wireModelOf(*V.Witness, *Syms))
                  : std::nullopt);
    if (Stored)
      V.Witness = modelOfWire(*Stored, freeVarsOf(Query), *Syms);
  }
  return Cache.insert(Query, std::move(V)).Witness;
}

void SharedSolverCache::attachPersistent(PersistentCache *P,
                                         const Interner *S) {
  std::lock_guard<std::mutex> Lock(M);
  Persist = P;
  Syms = S;
}

namespace {

/// Settles \p Out, whose Condition is set, from \p Shared (when \p Lookup)
/// or else by running \p S on \p Query: a portfolio runs its tiers
/// [From, To), any other solver runs whole. Returns false, with only
/// Out.Trail set, when those tiers hand the query on to tiers after \p To.
/// A validity obligation's query asks for the model of a `sat` answer,
/// its counterexample. A computed final verdict enters \p Shared with
/// that model, so no cache hit ever queries a backend.
bool settle(VCOutcome &Out, const BoolExpr *Query, Solver &S, size_t From,
            size_t To, const Interner &Syms, SharedSolverCache *Shared,
            bool Lookup) {
  std::vector<const BoolExpr *> Formulas{Query};
  bool Validity = Out.Condition.Kind == VCKind::Validity;
  if (Shared && Lookup)
    if (std::optional<CachedVerdict> Hit = Shared->lookup(Formulas, Validity)) {
      Out.SettledBy = "cache";
      applyVerdict(Out, Hit->R, Hit->Witness, Syms);
      return true;
    }

  VarRefSet Vars;
  if (Validity)
    Vars = freeVars(Out.Condition.Formula);
  Model M;
  Model *Want = Validity ? &M : nullptr;
  auto *P = dynamic_cast<PortfolioSolver *>(&S);
  Result<SatResult> R = P      ? P->checkRange(From, To, Formulas, &Vars, Want)
                        : Want ? S.checkSatWithModel(Formulas, Vars, M)
                               : S.checkSat(Formulas);
  if (R.ok())
    Out.Trail = S.giveUpTrail();
  if (P && To != P->tierCount() && R.ok() && !P->lastSettled())
    return false;
  if (R.ok())
    Out.SettledBy = S.settledBy();
  Out.BoundedConflicts = S.lastQueryBoundedConflicts();
  std::optional<Model> Witness;
  if (Validity && R.ok() && *R == SatResult::Sat)
    Witness = std::move(M);
  // Deadline gave-ups are time-dependent, never cacheable: a later run
  // of the same query with time left must not be served "unknown".
  bool Deadlined = S.lastQueryDeadlined();
  if (Shared && R.ok() && !Deadlined)
    Witness = Shared->insert(Formulas, CachedVerdict{*R, std::move(Witness)});
  applyVerdict(Out, R, Witness, Syms);
  if (Out.Status == VCStatus::Unknown && Deadlined)
    Out.Detail = "gave up: deadline expired";
  return true;
}

/// dischargeVC, except that a portfolio \p S runs its tiers from \p From
/// on: a slot skips the simplify prefix the prepare stage already ran,
/// and the shared-cache lookup when that stage made it (\p Lookup false).
VCOutcome dischargeFrom(const VC &Condition, const BoolExpr *Query, Solver &S,
                        size_t From, const Interner &Syms,
                        SharedSolverCache *Shared, bool Lookup) {
  VCOutcome Out;
  Out.Condition = Condition;
  auto Start = Clock::now();
  auto *P = dynamic_cast<PortfolioSolver *>(&S);
  settle(Out, Query, S, From, P ? P->tierCount() : 0, Syms, Shared, Lookup);
  Out.Millis = millisSince(Start);
  return Out;
}

} // namespace

VCOutcome relax::dischargeVC(const VC &Condition, const BoolExpr *Query,
                             Solver &S, const Interner &Syms,
                             SharedSolverCache *Shared) {
  return dischargeFrom(Condition, Query, S, 0, Syms, Shared, true);
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
  Deadline D = Cfg.GlobalDeadline;
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
  if (MainPortfolio)
    AddPortfolio(*MainPortfolio);
  for (const std::unique_ptr<PortfolioSolver> &W : Workers)
    AddPortfolio(*W);
  S.SharedCacheHits = Shared.hitCount();
  S.SharedCacheMisses = Shared.missCount();
  S.StolenTasks = StolenTasks;
  S.PassSlots = PassSlots;
  return S;
}

void DischargeScheduler::discharge(VCSet Set, JudgmentReport &Report,
                                   Solver &Caller) {
  auto PassStart = Clock::now();
  Report.Derivation = std::move(Set.Derivation);
  const std::vector<VC> &VCs = Set.VCs;
  const Interner &Syms = Ctx.symbols();
  size_t N = VCs.size();
  Solver &Main = MainPortfolio ? *MainPortfolio : Caller;
  // Tiers [0, FW), the simplify prefix, run in the prepare stage; the
  // slots run the rest.
  size_t FW = MainPortfolio ? MainPortfolio->firstWorkerTier() : 0;

  // The prepare stage (see the file comment). An obligation is looked up
  // in the shared cache once: here, unless it repeats the query of one
  // still pending. Then its slot looks it up, after (at one job) the
  // first occurrence has settled, so the repeat reaches no backend.
  std::vector<const BoolExpr *> Qs;
  Qs.reserve(N);
  std::vector<VCOutcome> Outcomes(N);
  std::vector<size_t> Pending;
  std::vector<bool> LookedUp(N, false);
  std::unordered_set<const BoolExpr *> PendingQs;
  for (size_t I = 0; I != N; ++I) {
    Qs.push_back(vcQuery(Ctx, VCs[I]));
    if (FW == 0) {
      Pending.push_back(I);
      continue;
    }
    auto Start = Clock::now();
    VCOutcome &Out = Outcomes[I];
    Out.Condition = VCs[I];
    MainPortfolio->setDeadline(perVcDeadline());
    LookedUp[I] = !PendingQs.count(Qs[I]);
    if (!settle(Out, Qs[I], *MainPortfolio, 0, FW, Syms, &Shared,
                LookedUp[I])) {
      Pending.push_back(I);
      PendingQs.insert(Qs[I]);
    }
    Out.Millis = millisSince(Start);
  }

  // The work-stealing stage. Slot k starts only when more than
  // k * ObligationsPerSlot obligations are pending, so a pass of P runs
  // on ceil(P / ObligationsPerSlot) slots, capped by Jobs (and none when
  // nothing is pending). One portfolio per extra slot for the
  // scheduler's lifetime: the second judgment pass reuses the first
  // pass's (and their Z3 contexts) instead of building its own.
  size_t Cap = MainPortfolio ? std::max(Cfg.Jobs, 1u) : 1;
  unsigned Slots = static_cast<unsigned>(std::min<size_t>(
      Cap, (Pending.size() + ObligationsPerSlot - 1) / ObligationsPerSlot));
  PassSlots.push_back(Slots);
  while (Workers.size() + 1 < Slots)
    Workers.push_back(std::make_unique<PortfolioSolver>(Ctx, *Cfg.Portfolio,
                                                        Cfg.SmtFactory));

  // Per-slot deques, round-robin seeded. Owners pop the front; thieves
  // pop the back, so a steal grabs the work its owner would reach last.
  struct SlotDeque {
    std::mutex M;
    std::deque<size_t> Q;
  };
  std::vector<SlotDeque> Deques(Slots);
  for (size_t K = 0; K != Pending.size(); ++K)
    Deques[K % Slots].Q.push_back(Pending[K]);
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
    for (unsigned D = 1; D != Slots; ++D) {
      SlotDeque &V = Deques[(W + D) % Slots];
      std::lock_guard<std::mutex> L(V.M);
      if (!V.Q.empty()) {
        I = V.Q.back();
        V.Q.pop_back();
        return true;
      }
    }
    return false;
  };

  // Every task is seeded before the fan-out, so a slot that finds no
  // task of its own and none to steal is done.
  auto SlotFn = [&](unsigned W) {
    Solver &S = W == 0 ? Main : *Workers[W - 1];
    size_t I;
    while (true) {
      if (!PopOwn(W, I)) {
        if (!StealFrom(W, I))
          break;
        Steals.fetch_add(1);
      }
      VCOutcome &Out = Outcomes[I];
      S.setDeadline(perVcDeadline());
      VCOutcome Done =
          dischargeFrom(VCs[I], Qs[I], S, FW, Syms, &Shared, !LookedUp[I]);
      Done.Millis += Out.Millis;
      appendTrail(Out.Trail, Done.Trail);
      Done.Trail = std::move(Out.Trail);
      Out = std::move(Done);
    }
  };

  std::vector<std::thread> Pool;
  for (unsigned W = 1; W < Slots; ++W)
    Pool.emplace_back(SlotFn, W);
  if (Slots != 0)
    SlotFn(0);
  for (std::thread &T : Pool)
    T.join();
  StolenTasks += Steals.load();

  // VC order, not completion order: reports are deterministic.
  for (VCOutcome &Out : Outcomes)
    Report.Outcomes.push_back(std::move(Out));
  Report.TotalMillis = millisSince(PassStart);
}
