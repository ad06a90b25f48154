//===- Discharge.h - Obligation discharge subsystem ----------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared obligation-discharge subsystem: the per-VC verdict mapping
/// (`dischargeVC`), the mutex-guarded verified result cache shared across
/// workers and judgment passes, and the work-stealing scheduler that
/// distributes obligations over a worker pool.
///
/// Both the `Verifier` and the `ProofChecker`'s re-discharge path go
/// through `dischargeVC`, so the checker and the verifier can never
/// disagree on how a VC maps to a solver query or how a sat verdict maps
/// to a discharge status — whatever backend (including a tiered
/// `PortfolioSolver`) either of them runs.
///
/// ## Scheduling model
///
/// Every discharge runs one path in two stages. The prepare stage runs on
/// the submitting thread, because hash-consed node construction is not
/// thread-safe. It builds every query (validity VCs are negated), and
/// when the tier chain starts with `simplify` it also looks each query up
/// in the shared cache and runs the simplify prefix on it. It never
/// queries a backend past that prefix. Each obligation is looked up once:
/// a repeat of a query still pending is looked up by its slot instead, so
/// (at one job) it finds the verdict of its first occurrence. The
/// work-stealing stage then runs the remaining obligations through the
/// rest of the chain, one solver per slot. `Jobs` caps the slots; within
/// the cap, slot k starts only when the pass has more than
/// k * `ObligationsPerSlot` obligations pending after the prepare stage,
/// so a pass with P pending runs on min(Jobs, ceil(P / ObligationsPerSlot))
/// slots and builds no backend that its share of the work cannot repay
/// (a Z3 context: a process's first takes 4–6 ms to build on the main
/// thread, on the huge pages `main` reserves (support/HugePageHeap.h),
/// and 9–11 ms without them; 1–2 ms a later one, up to 1.5 ms to tear
/// one down, and ≈17 MB while it lives). Slot k >= 1 builds its
/// context on its own thread, in a glibc thread arena the huge pages do
/// not reach, so it still pays the unadvised cost (≈20 ms each for the
/// three built side by side at K = 32 copies and four jobs):
/// ObligationsPerSlot stays 16.
/// Slots are seeded round-robin, pull obligation indices from their own
/// deques, and steal from a victim's deque when their own runs dry.
/// Slot 0 runs on the submitting thread with the main solver: the
/// scheduler's portfolio, or the caller's solver (alone, on one slot)
/// when no portfolio is configured. A one-slot pass
/// spawns no thread, which is the `Jobs = 1` path whatever the cap. An
/// obligation makes one backend query. A validity obligation's query
/// asks for the model of a `sat` answer, which is its counterexample and
/// enters the shared cache with the verdict, so a cache hit never
/// queries a backend: at one job the backend sees each query the cache
/// has not seen once, in VC order. Each slot's solver lives as long as
/// the scheduler, so both judgment passes share it (and its Z3 context).
/// `TotalMillis` is the pass's wall time; each outcome's `Millis` its
/// own.
///
/// ## The verdict-identity rule
///
/// Scheduling must never change a verdict. This holds by construction:
/// each obligation's outcome is a pure function of its own query (every
/// tier is deterministic, and per-query budgets make give-ups
/// deterministic too), outcomes are stored by obligation index and
/// emitted in VC order, and the shared cache only ever stores final
/// verdicts — a hit returns exactly the verdict recomputation would. A
/// hit on a refutation returns the counterexample of the computation
/// that filled the entry (in this run, or in the run that wrote the
/// persistent cache), so a duplicate refutation within one run prints
/// the counterexample of its first occurrence, and a warm run prints
/// what the cold run printed. Z3's models depend on its history, so
/// which occurrence computes can move a counterexample under `Jobs > 1`,
/// never a verdict. The other observable difference between schedules
/// is *who* settled an obligation (`VCOutcome::SettledBy` may say "cache"
/// on one run and a tier name on another), which is why that field is
/// informational and excluded from the differential pins.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_VCGEN_DISCHARGE_H
#define RELAXC_VCGEN_DISCHARGE_H

#include "solver/CachingSolver.h"
#include "solver/Portfolio.h"
#include "vcgen/VC.h"

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace relax {

class PersistentCache;

/// Discharge status of one VC.
enum class VCStatus : uint8_t {
  Proved,
  Failed,      ///< solver found a counterexample / found the premise unsat
  Unknown,     ///< solver gave up
  SolverError, ///< backend error (timeout conversion, translation, ...)
};

/// Returns "proved" / "failed" / "unknown" / "error".
const char *vcStatusName(VCStatus S);

/// One VC with its discharge result.
struct VCOutcome {
  VC Condition;
  VCStatus Status = VCStatus::Unknown;
  std::string Detail;
  double Millis = 0;
  /// Which component settled the query: a backend name, a portfolio tier
  /// name ("simplify", "bounded", "z3", "bounded-full"), or "cache" for
  /// shared-cache hits. Informational: which duplicate of a query
  /// computes vs hits the cache depends on worker timing, so this field
  /// is excluded from the determinism pins (unlike Status and Detail).
  std::string SettledBy;
  /// Give-up trail of the portfolio tiers that escalated (informational,
  /// empty for a non-portfolio solver and on cache hits).
  std::string Trail;
  /// Bounded-search conflicts this obligation's query hit (informational,
  /// like SettledBy: 0 on cache hits and shard-settled queries, whose
  /// search ran elsewhere). Shown by --explain.
  uint64_t BoundedConflicts = 0;
};

/// All VCs of one judgment pass.
struct JudgmentReport {
  JudgmentKind Judgment = JudgmentKind::Original;
  std::vector<VCOutcome> Outcomes;
  std::vector<DerivationStep> Derivation;
  /// Wall time of the pass's discharge (under `Jobs > 1`, less than the
  /// sum of the outcomes' Millis).
  double TotalMillis = 0;

  size_t count(VCStatus S) const {
    size_t N = 0;
    for (const VCOutcome &O : Outcomes)
      N += O.Status == S ? 1 : 0;
    return N;
  }
  bool allProved() const { return count(VCStatus::Proved) == Outcomes.size(); }
};

/// A mutex-guarded SolverResultCache shared by the discharge workers, so
/// a side condition settled by one worker is a cache hit for every other.
/// Owned by the scheduler so duplicates across the |-o and |-r passes hit
/// too. Only final verdicts are inserted (after the full tier chain), so
/// a hit always equals recomputation; a failed validity obligation's
/// entry carries its counterexample, so its hit needs no backend either.
///
/// When a PersistentCache is attached it fronts the on-disk store: an
/// in-memory miss falls through to a portable-key lookup (pulling hits
/// back into the memory tier, the witness mapped onto the query's free
/// variables), and every final verdict is persisted alongside the memory
/// insert. Callers are unchanged — the never-cache-deadline discipline
/// they already apply covers the disk tier too.
class SharedSolverCache {
public:
  /// With \p WantWitness (a validity obligation's query), a `sat` that
  /// carries no counterexample is a miss.
  std::optional<CachedVerdict>
  lookup(const std::vector<const BoolExpr *> &Query, bool WantWitness);
  /// Returns the witness the entry carries afterwards: an entry that
  /// already has one (a racing duplicate's, or the persistent tier's)
  /// keeps it, so every report of a query prints one counterexample.
  std::optional<Model> insert(const std::vector<const BoolExpr *> &Query,
                              CachedVerdict V);
  uint64_t hitCount() const {
    std::lock_guard<std::mutex> Lock(M);
    return Cache.hitCount();
  }
  uint64_t missCount() const {
    std::lock_guard<std::mutex> Lock(M);
    return Cache.missCount();
  }

  /// Fronts this cache with \p P (keys built against its fingerprint,
  /// printed via \p Syms). Call before discharging begins.
  void attachPersistent(PersistentCache *P, const Interner *Syms);

private:
  mutable std::mutex M;
  SolverResultCache Cache;
  PersistentCache *Persist = nullptr;
  const Interner *Syms = nullptr;
};

/// Builds the process-portable on-disk cache key for \p Query: the
/// config fingerprint line, the free variables' kind declarations
/// (sorted), and each formula's printed `.rlx` serialization (sorted) —
/// the same serialization the shard wire protocol proved total. Symbol
/// ids and structural hashes are declaration-order nominal and must
/// never leak into the key. Pure reads of \p Syms, so it is safe on
/// discharge worker threads.
std::string persistentCacheKey(const std::string &Fingerprint,
                               const std::vector<const BoolExpr *> &Query,
                               const Interner &Syms);

/// Builds the solver query for one VC: validity obligations are negated
/// (`unsat` means proved — the conventional phrasing of a proof
/// obligation), satisfiability premises pass through. Builds nodes, so it
/// must run on the thread that owns the AstContext.
const BoolExpr *vcQuery(AstContext &Ctx, const VC &C);

/// Discharges one VC whose solver query \p Query was pre-built. The one
/// shared verdict mapping: the scheduler's slots and the proof checker's
/// re-discharge both call this, so they produce identical verdicts and
/// diagnostics. Slots must not touch the AstContext: \p Syms is only
/// read, and freeVars/formatModel are pure.
VCOutcome dischargeVC(const VC &Condition, const BoolExpr *Query, Solver &S,
                      const Interner &Syms, SharedSolverCache *Shared);

/// Aggregated statistics of one scheduler's lifetime (`--solver-stats`).
struct DischargeStats {
  PortfolioStats Portfolio; ///< merged across every slot's portfolio
  uint64_t SharedCacheHits = 0;
  uint64_t SharedCacheMisses = 0;
  uint64_t BoundedCandidates = 0; ///< bounded-tier candidate assignments
  uint64_t BoundedQuantSteps = 0; ///< bounded-tier quantifier-body evals
  BoundedSearchStats Search; ///< bounded conflict-driven-search counters
  /// Always 0: the scheduler has had one stage since the bounded tier
  /// moved behind the decision tier. Kept for existing stats readers.
  uint64_t EscalatedObligations = 0;
  uint64_t StolenTasks = 0; ///< obligations run by a non-owner worker
  /// The slots each discharge pass started, in pass order (0 for a pass
  /// with nothing pending past the prepare stage).
  std::vector<unsigned> PassSlots;

  void merge(const DischargeStats &O);
};

/// The obligations one discharge slot must have in prospect before the
/// scheduler starts it: slot k of a pass starts only when more than
/// k * ObligationsPerSlot obligations are pending. Measured on a 4-vCPU
/// host (the `b_table` of BENCH_e2e.json; summary in ROADMAP.md). A
/// pass of up to 16 pending obligations, which is every pass of the case
/// studies and their mutants, gains less from a second slot than that
/// slot's Z3 context costs: at four jobs, 16 took a quarter less CPU and
/// a ninth less wall than 8 on those 15 programs, as much as one job.
/// The K-copy programs' larger passes ran up to 10 ms slower than at 8,
/// and 20 and 24 lost more on them.
inline constexpr size_t ObligationsPerSlot = 16;

/// The work-stealing obligation scheduler (see the file comment). One
/// instance serves both judgment passes of a verification run, sharing
/// its result cache and accumulating its statistics across them.
class DischargeScheduler {
public:
  struct Config {
    /// The most discharge slots a pass may start (see the file comment
    /// for how many it does start); <= 1 runs on the submitting thread
    /// only. Without a Portfolio there is one slot: the caller's solver.
    unsigned Jobs = 1;
    /// Tier chain every slot runs; nullopt = the caller's solver alone.
    std::optional<PortfolioOptions> Portfolio;
    /// Final-tier SMT backend factory of the portfolio (null degrades the
    /// z3 tier to bounded-at-full-domain).
    PortfolioSolver::BackendFactory SmtFactory;
    /// Global deadline for the whole run (`--timeout-ms`); unarmed means
    /// none. Obligations reached after expiry settle immediately as
    /// gave-ups with reason "deadline" — the scheduler drains
    /// cooperatively, it never abandons outcomes or hangs.
    Deadline GlobalDeadline;
    /// Per-VC timeout in milliseconds (`--vc-timeout-ms`); < 0 disables.
    /// Each obligation (re)arms `earliest(GlobalDeadline, now +
    /// VcTimeoutMs)` when a discharge stage picks it up.
    int64_t VcTimeoutMs = -1;
    /// On-disk verdict cache (`--cache-dir=`) fronting the shared result
    /// cache; not owned, may be null. The caller loads and flushes it.
    PersistentCache *PCache = nullptr;
  };

  DischargeScheduler(AstContext &Ctx, Config Cfg);
  ~DischargeScheduler();

  /// Discharges \p Set into \p Report, outcomes in VC order (see the file
  /// comment). \p Caller is the main solver when no portfolio is
  /// configured; with one, it is not consulted.
  void discharge(VCSet Set, JudgmentReport &Report, Solver &Caller);

  /// Statistics accumulated so far.
  DischargeStats stats() const;

private:
  AstContext &Ctx;
  Config Cfg;
  SharedSolverCache Shared;
  /// The main solver when a portfolio is configured: it runs the prepare
  /// stage and slot 0.
  std::unique_ptr<PortfolioSolver> MainPortfolio;
  /// The portfolios of slots 1 and up, built on first need and kept for
  /// every later pass; stats() reads them live.
  std::vector<std::unique_ptr<PortfolioSolver>> Workers;
  uint64_t StolenTasks = 0;
  std::vector<unsigned> PassSlots;

  /// The deadline one obligation runs under right now: the global
  /// deadline capped by a freshly armed per-VC timeout.
  Deadline perVcDeadline() const;
};

} // namespace relax

#endif // RELAXC_VCGEN_DISCHARGE_H
