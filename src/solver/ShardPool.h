//===- ShardPool.h - Out-of-process discharge shards ---------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded discharge tier: a pool of worker *processes* (the driver's
/// hidden `--discharge-worker` mode), each owning its own AstContext and
/// solver backends, plus the `Solver` adapter that routes a query to the
/// pool and the wire structs both ends share.
///
/// ## Why processes
///
/// Every in-process tier shares the one AstContext and (with Z3) the one
/// z3 context, so discharge throughput caps out at what a single address
/// space can do no matter how many scheduler threads run. Relational
/// acceptability VCs are independent of each other, which makes the
/// workload embarrassingly shardable: each worker process rebuilds the
/// obligation from its serialized form in a private context and answers
/// the verdict.
///
/// ## Wire format
///
/// One request/response per frame (support/Subprocess.h framing). The
/// payload is line-based text; formulas ride in the `.rlx` concrete
/// syntax — the same printer/parser pair the golden round-trip tests pin
/// — together with the free variables' kind declarations, so the worker
/// can re-parse them into its own context. Serialization is *total* for
/// generated VC formulas: element reads over `store(...)` and freshened
/// names (`x'1`) print and re-parse (pinned by shard_tests). The bounded
/// configuration rides as its one text form (formatBoundedOptions), and
/// every number is parsed strictly: a malformed value is an error, never
/// a clamped guess.
///
/// ## Determinism
///
/// A worker's verdict is a pure function of the request: the tail tiers
/// it runs are the deterministic in-process tiers, configured entirely by
/// the request (tier spec, domains, budgets). Which worker serves a query
/// therefore cannot change the answer, and the scheduler's by-index merge
/// keeps reports bit-identical to in-process discharge.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_SHARDPOOL_H
#define RELAXC_SOLVER_SHARDPOOL_H

#include "solver/BoundedSolver.h"
#include "solver/ModelCodec.h"
#include "support/Subprocess.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace relax {

/// One discharge request: the tail tier chain the worker should run, its
/// bounded-tier configuration, the query formulas (printed), the free
/// variables' kind declarations (for re-parsing), and — when the caller
/// wants a witness — the variables to extract from the model.
struct ShardRequest {
  std::string Pipeline = "z3"; ///< tail tiers, e.g. "z3" or "bounded"
  BoundedSolverOptions Bounded;
  uint64_t FinalBoundedStepFactor = 16;
  bool WantModel = false;
  /// Kind declarations for every free base name in Formulas.
  std::vector<std::pair<std::string, VarKind>> Vars;
  std::vector<std::string> Formulas;
  std::vector<WireVar> ModelVars; ///< only meaningful with WantModel
};

/// One verdict: either a diagnosed error or a sat result with the
/// worker-side settling-tier name, give-up trail, and requested model.
struct ShardResponse {
  bool IsError = false;
  std::string Error;
  SatResult Verdict = SatResult::Unknown;
  std::string SettledBy;
  std::string Trail;
  WireModel Model; ///< its lines are the model codec's (ModelCodec.h)
};

/// Wire codecs. Parsers return diagnosed errors on any malformed payload
/// (never crash, never accept silently) — fuzzed in shard_tests.
std::string serializeShardRequest(const ShardRequest &R);
Result<ShardRequest> parseShardRequest(std::string_view Payload);
std::string serializeShardResponse(const ShardResponse &R);
Result<ShardResponse> parseShardResponse(std::string_view Payload);

/// Health state of one pool worker slot (see the health model below).
enum class WorkerHealth : uint8_t { Healthy, Quarantined, Dead };

/// Aggregated pool statistics: what the driver's `--solver-stats` lines
/// and the chaos pins read.
struct PoolStats {
  uint64_t Requests = 0; ///< discharge() calls (not per-attempt)
  uint64_t Attempts = 0; ///< slot borrows, including the sound retries
  uint64_t Respawns = 0; ///< worker process respawns
  uint64_t Failures = 0;    ///< failed round-trip attempts
  uint64_t Quarantines = 0; ///< circuit-breaker trips across all slots
  uint64_t DegradedFallbacks = 0; ///< queries answered by the fallback
  bool Degraded = false;          ///< every slot is Dead
  std::vector<uint64_t> PerWorker; ///< requests served per shard
  std::vector<WorkerHealth> PerWorkerHealth;
};

/// What the portfolio's shard tier dispatches to: the interface of
/// ShardPool below, whose retry/health/degradation contract it carries.
class DischargePool {
public:
  using WorkerHealth = ::relax::WorkerHealth;
  using Stats = PoolStats;

  virtual ~DischargePool() = default;

  virtual unsigned shardCount() const = 0;

  /// Serializes \p R, round-trips it on any free healthy (or probe-due)
  /// worker, and parses the response. A dead worker is respawned with
  /// backoff (bounded by MaxRespawnsPerWorker) and the request retried on
  /// failure exactly once — the single sound retry: worker answers are
  /// pure functions of the request, so a retry cannot change a verdict,
  /// and a request that failed twice is reported as an error rather than
  /// guessed at. \p TimeoutMs, when >= 0, caps the response read below
  /// RoundTripTimeoutMs (the discharge deadline plumbs through here).
  virtual Result<ShardResponse> discharge(const ShardRequest &R,
                                          int TimeoutMs = -1) = 0;

  /// Sticky: true once every slot has died for good. The portfolio checks
  /// this to route shard-tier queries straight to the in-process tail.
  virtual bool degraded() const = 0;

  /// Called by the portfolio each time a shard-tier query is answered by
  /// the in-process fallback instead of the pool (shown in --solver-stats).
  virtual void noteFallback() = 0;

  virtual PoolStats stats() const = 0;
};

/// Pool configuration: the workers, and the knobs of the health machine
/// documented on ShardPool.
struct ShardPoolOptions {
  unsigned Shards = 2;
  /// The worker executable — normally currentExecutablePath() of the
  /// relaxc driver itself.
  std::string WorkerExe;
  std::vector<std::string> WorkerArgs = {"--discharge-worker"};
  /// Per-round-trip read timeout; a hung worker is diagnosed, not waited
  /// on forever.
  int RoundTripTimeoutMs = 600'000;
  /// Lifetime respawn budget per worker slot; an exhausted slot with no
  /// live process transitions to Dead.
  unsigned MaxRespawnsPerWorker = 3;
  /// Exponential respawn backoff: respawn K of a slot sleeps
  /// min(Base << (K-1), Max) ms minus a deterministic jitter (hashed from
  /// JitterSeed, the slot index, and K — no wall-clock randomness), so
  /// all slots crashing at once do not respawn in lockstep. Base 0
  /// disables the sleep (tests use this to keep chaos runs fast).
  unsigned RespawnBackoffBaseMs = 25;
  unsigned RespawnBackoffMaxMs = 1000;
  uint64_t JitterSeed = 0x5eed;
  /// Consecutive round-trip failures that trip a slot's circuit breaker
  /// into Quarantined.
  unsigned CircuitBreakerThreshold = 2;
  /// Quarantine length: quarantine K of a slot lasts
  /// min(Base << (K-1), Max) ms, after which one borrower probes it.
  unsigned QuarantineBaseMs = 100;
  unsigned QuarantineMaxMs = 2000;
};

/// A fixed pool of discharge worker processes. Thread-safe: scheduler
/// workers borrow one subprocess each for the duration of a round trip,
/// blocking when all are busy. A slot's process and pipes are touched
/// either by its borrower, which holds it Busy, or under the pool lock
/// while it is free.
///
/// ## Health model (per slot)
///
///     Healthy --(CircuitBreakerThreshold consecutive failures)--> Quarantined
///     Quarantined --(quarantine elapses; one probe request)--> Healthy | back
///     any --(respawn budget exhausted && process gone)--> Dead  (terminal)
///
/// A successful round trip resets the consecutive-failure count and
/// returns the slot to Healthy. When every slot is Dead the pool is
/// *degraded* (sticky): discharge() fails fast and the portfolio's shard
/// tier switches to its in-process fallback tail — same verdicts, no pool.
class ShardPool final : public DischargePool {
public:
  /// Creates the pool and spawns the workers. A worker that cannot be
  /// started at creation is left for on-demand respawn (it costs one unit
  /// of that slot's respawn budget later) — under fault injection or fork
  /// pressure a partially-started pool must degrade, not abort the run.
  static Result<std::unique_ptr<ShardPool>> create(ShardPoolOptions Opts);
  ~ShardPool() override;

  unsigned shardCount() const override {
    return static_cast<unsigned>(Slots.size());
  }
  Result<ShardResponse> discharge(const ShardRequest &R,
                                  int TimeoutMs = -1) override;
  bool degraded() const override;
  void noteFallback() override;
  PoolStats stats() const override;

  /// Test hook: SIGKILLs worker \p I without a state change — the next
  /// borrower finds the corpse and respawns it. The chaos suite uses
  /// this to kill workers between requests; it must not race an
  /// in-flight borrow of the same slot.
  void terminateWorker(unsigned I);

private:
  struct Slot {
    Subprocess Proc; ///< not running until spawned, and after a kill
    bool Busy = false;
    unsigned Respawns = 0;
    uint64_t Served = 0;
    unsigned ConsecutiveFailures = 0;
    unsigned Quarantines = 0;
    WorkerHealth Health = WorkerHealth::Healthy;
    /// When Quarantined: the earliest time a probe may borrow the slot.
    std::chrono::steady_clock::time_point ProbeAt{};
  };

  explicit ShardPool(ShardPoolOptions O) : Opts(std::move(O)) {}

  /// Spawns \p S's worker process; draws the WorkerSpawn fault site.
  Status spawnWorker(Slot &S);

  /// Records a failed attempt on \p S under the lock: bumps the
  /// consecutive-failure count and advances the health state machine.
  void noteFailureLocked(Slot &S);

  ShardPoolOptions Opts;
  mutable std::mutex M;
  std::condition_variable FreeCV;
  std::vector<std::unique_ptr<Slot>> Slots;
  uint64_t Requests = 0;
  uint64_t Attempts = 0;
  uint64_t Respawns = 0;
  uint64_t Failures = 0;
  uint64_t QuarantinesTotal = 0;
  uint64_t DegradedFallbacks = 0;
  bool DegradedFlag = false;
};

/// The `Solver` face of a pool: serializes each query (formulas, free
/// variables, tail-tier config), round-trips it, and surfaces the
/// worker's verdict/trail. One ShardSolver per portfolio instance; many
/// may share one pool.
class ShardSolver : public Solver {
public:
  ShardSolver(DischargePool &Pool, const Interner &Syms,
              std::string WorkerPipeline, BoundedSolverOptions Bounded,
              uint64_t FinalBoundedStepFactor)
      : Pool(Pool), Syms(Syms), WorkerPipeline(std::move(WorkerPipeline)),
        Bounded(Bounded), FinalBoundedStepFactor(FinalBoundedStepFactor) {}

  const char *name() const override { return "shard"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override;

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override;

  /// "shard:<worker settling tier>", e.g. "shard:z3"; "deadline" when the
  /// query deadline expired before the round trip could run.
  const char *settledBy() const override { return LastSettledBy.c_str(); }

  /// The worker-side give-up trail of the last query.
  std::string giveUpTrail() const override { return LastTrail; }

  bool lastQueryDeadlined() const override {
    return LastSettledBy == "deadline";
  }

private:
  DischargePool &Pool;
  const Interner &Syms;
  std::string WorkerPipeline;
  BoundedSolverOptions Bounded;
  uint64_t FinalBoundedStepFactor;
  std::string LastSettledBy = "shard";
  std::string LastTrail;

  Result<SatResult> roundTrip(const std::vector<const BoolExpr *> &Formulas,
                              const VarRefSet *Vars, Model *ModelOut);
};

} // namespace relax

#endif // RELAXC_SOLVER_SHARDPOOL_H
