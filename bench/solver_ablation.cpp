//===- solver_ablation.cpp - A1: decision-procedure ablation -------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment A1: the repro-band note says "native Z3 API works but the
/// symbolic framework is tedious" — this ablation quantifies the backend
/// choices the framework makes:
///
///   * Z3 vs the bounded-enumeration backend on a VC corpus small enough
///     for both (the bounded backend is orders of magnitude slower and
///     answers Unknown beyond its domain — the `undecided` counter);
///   * the effect of the result cache (repeated side conditions);
///   * the effect of the formula simplifier on solver time.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "solver/BoundedSolver.h"
#include "solver/Portfolio.h"
#include "solver/ShardPool.h"
#include "solver/Z3Solver.h"
#include "support/PersistentCache.h"
#include "vcgen/Verifier.h"

#include <benchmark/benchmark.h>

#include <unistd.h>

using namespace relax;
using namespace relax::bench;

namespace {

/// A corpus of small verifiable programs whose VC models fit in the
/// bounded backend's domain.
const char *SmallCorpus[] = {
    "int x; requires (x >= 0 && x <= 3); ensures (x <= 4); { x = x + 1; }",
    "int x, y; requires (x >= 0 && x <= 2 && y >= 0 && y <= 2); "
    "ensures (x + y <= 4); { skip; }",
    "int x; requires (x >= 1 && x <= 2); { relax (x) st (x >= 1 && x <= 2); "
    "assert x >= 1; }",
    "int x; requires (x == 1); { havoc (x) st (x >= 0 && x <= 2); "
    "assert x <= 2; }",
};

template <typename MakeSolver>
void dischargeCorpus(benchmark::State &State, MakeSolver Make,
                     bool Simplify) {
  size_t Undecided = 0, Total = 0;
  for (auto _ : State) {
    Undecided = 0;
    Total = 0;
    for (const char *Source : SmallCorpus) {
      Loaded L = loadSource(Source);
      if (!L.Prog) {
        State.SkipWithError(L.skipReason());
        return;
      }
      auto Solver = Make(*L.Ctx);
      DiagnosticEngine Diags;
      Verifier V(*L.Ctx, *L.Prog, *Solver, Diags);
      Verifier::Options Opts;
      Opts.GenOpts.Simplify = Simplify;
      VerifyReport R = V.run(Opts);
      benchmark::DoNotOptimize(R);
      Total += R.totalVCs();
      Undecided += R.Original.count(VCStatus::Unknown) +
                   R.Original.count(VCStatus::SolverError) +
                   R.Relaxed.count(VCStatus::Unknown) +
                   R.Relaxed.count(VCStatus::SolverError);
    }
  }
  State.counters["vcs"] = static_cast<double>(Total);
  State.counters["undecided"] = static_cast<double>(Undecided);
}

void BM_Solver_Z3(benchmark::State &State) {
  dischargeCorpus(
      State,
      [](AstContext &Ctx) { return std::make_unique<Z3Solver>(Ctx.symbols()); },
      /*Simplify=*/true);
}

/// Discharges the A1 corpus on the bounded backend with the given engine,
/// recording the candidate-assignment counter next to the timings — the
/// metric the search engine exists to shrink.
void dischargeBoundedCorpus(benchmark::State &State,
                            BoundedSolverOptions::Engine Eng,
                            bool Learning = true) {
  size_t Undecided = 0, Total = 0;
  uint64_t Cands = 0, Conflicts = 0;
  for (auto _ : State) {
    Undecided = 0;
    Total = 0;
    Cands = 0;
    Conflicts = 0;
    for (const char *Source : SmallCorpus) {
      Loaded L = loadSource(Source);
      if (!L.Prog) {
        State.SkipWithError(L.skipReason());
        return;
      }
      BoundedSolverOptions O;
      O.Eng = Eng;
      O.Learning = Learning;
      O.Restarts = Learning;
      BoundedSolver Solver(O, L.Ctx.get());
      DiagnosticEngine Diags;
      Verifier V(*L.Ctx, *L.Prog, Solver, Diags);
      Verifier::Options Opts;
      Opts.GenOpts.Simplify = true;
      VerifyReport R = V.run(Opts);
      benchmark::DoNotOptimize(R);
      Total += R.totalVCs();
      Undecided += R.Original.count(VCStatus::Unknown) +
                   R.Original.count(VCStatus::SolverError) +
                   R.Relaxed.count(VCStatus::Unknown) +
                   R.Relaxed.count(VCStatus::SolverError);
      Cands += Solver.candidatesEvaluated();
      Conflicts += Solver.searchStats().Conflicts;
    }
  }
  State.counters["vcs"] = static_cast<double>(Total);
  State.counters["undecided"] = static_cast<double>(Undecided);
  State.counters["candidates"] = static_cast<double>(Cands);
  State.counters["conflicts"] = static_cast<double>(Conflicts);
}

void BM_Solver_Bounded(benchmark::State &State) {
  dischargeBoundedCorpus(State, BoundedSolverOptions::Engine::Search);
}

/// The conflict-driven-machinery ablation on the same corpus: learning
/// and restarts off, everything else identical. Verdict identity with
/// the learning row is pinned by the differential suites; this row
/// measures what the machinery costs (or saves) end to end.
void BM_Solver_Bounded_NoLearning(benchmark::State &State) {
  dischargeBoundedCorpus(State, BoundedSolverOptions::Engine::Search,
                         /*Learning=*/false);
}

void BM_Solver_Bounded_Enumerate(benchmark::State &State) {
  dischargeBoundedCorpus(State, BoundedSolverOptions::Engine::Enumerate);
}

/// The pruning ablation the search engine is built for: a K-variable
/// query whose conjuncts each constrain one variable, with a
/// contradiction on the first. The odometer enumerates 13^K full models;
/// the search engine refutes the query at depth 0 in 13 assignments.
/// Counters record both engines' candidate counts per run.
void BM_Solver_Bounded_PruningAblation(benchmark::State &State) {
  AstContext Ctx;
  std::vector<const BoolExpr *> Parts;
  for (int64_t I = 0; I != State.range(0); ++I) {
    std::string V = "v" + std::to_string(I);
    Parts.push_back(Ctx.ge(Ctx.var(V), Ctx.intLit(0)));
  }
  Parts.push_back(Ctx.eq(Ctx.var("v0"), Ctx.intLit(1)));
  Parts.push_back(Ctx.eq(Ctx.var("v0"), Ctx.intLit(2)));
  const BoolExpr *F = Ctx.conj(Parts);

  uint64_t SearchCands = 0, EnumCands = 0;
  for (auto _ : State) {
    BoundedSolver Search(BoundedSolverOptions(), &Ctx);
    auto RS = Search.checkSat({F});
    BoundedSolverOptions EO;
    EO.Eng = BoundedSolverOptions::Engine::Enumerate;
    BoundedSolver Enum(EO, &Ctx);
    auto RE = Enum.checkSat({F});
    if (!RS.ok() || !RE.ok() || *RS != *RE) {
      State.SkipWithError("engines disagree");
      return;
    }
    SearchCands = Search.candidatesEvaluated();
    EnumCands = Enum.candidatesEvaluated();
  }
  State.counters["candidates_search"] = static_cast<double>(SearchCands);
  State.counters["candidates_enumerate"] = static_cast<double>(EnumCands);
}

/// The tiered portfolio on a VC corpus: per-tier settled / gave-up /
/// budget-trip counters next to the end-to-end time. \p Sources selects
/// the corpus; \p BoundedSteps the budgeted tier's quantifier-step
/// budget. With Z3 built the chain is simplify → budgeted bounded → z3;
/// without, the Smt tier degrades to bounded-at-full-domain. Either way
/// the budgeted bounded tier runs behind the final tier, only on its
/// unknowns (see solver/Portfolio.h).
/// \p Pool, when given, replaces the final tier with the out-of-process
/// shard tier (workers run the z3 tail) and fans obligations out over
/// \p Jobs scheduler workers so several shards stay busy at once.
template <typename SourceLoader>
void dischargePortfolio(benchmark::State &State, SourceLoader Load,
                        size_t NumSources, uint64_t BoundedSteps,
                        ShardPool *Pool = nullptr, unsigned Jobs = 1,
                        bool Learning = true) {
  DischargeStats Stats;
  size_t Undecided = 0, Total = 0;
  for (auto _ : State) {
    Stats = DischargeStats();
    Undecided = 0;
    Total = 0;
    for (size_t S = 0; S != NumSources; ++S) {
      Loaded L = Load(S);
      if (!L.Prog) {
        State.SkipWithError(L.skipReason());
        return;
      }
      PortfolioOptions PO; // simplify,bounded,z3
      PO.Bounded.MaxQuantSteps = BoundedSteps;
      PO.Bounded.Learning = Learning;
      PO.Bounded.Restarts = Learning;
      if (Pool) {
        PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Shard};
        PO.Pool = Pool;
        PO.ShardWorkerPipeline = "z3";
      }
      BoundedSolver Dummy; // portfolio mode never consults the ctor solver
      DiagnosticEngine Diags;
      Verifier V(*L.Ctx, *L.Prog, Dummy, Diags);
      Verifier::Options Opts;
      Opts.Portfolio = PO;
      Opts.Jobs = Jobs;
#if RELAXC_HAVE_Z3
      AstContext *Ctx = L.Ctx.get();
      Opts.SmtFactory = [Ctx] {
        return std::make_unique<Z3Solver>(Ctx->symbols());
      };
#endif
      Opts.StatsOut = &Stats;
      VerifyReport R = V.run(Opts);
      benchmark::DoNotOptimize(R);
      Total += R.totalVCs();
      Undecided += R.Original.count(VCStatus::Unknown) +
                   R.Original.count(VCStatus::SolverError) +
                   R.Relaxed.count(VCStatus::Unknown) +
                   R.Relaxed.count(VCStatus::SolverError);
    }
  }
  State.counters["vcs"] = static_cast<double>(Total);
  State.counters["undecided"] = static_cast<double>(Undecided);
  for (size_t T = 0; T != Stats.Portfolio.Tiers.size(); ++T) {
    std::string Key = "tier" + std::to_string(T);
    State.counters[Key + "_settled"] =
        static_cast<double>(Stats.Portfolio.Tiers[T].Settled);
    State.counters[Key + "_gaveup"] =
        static_cast<double>(Stats.Portfolio.Tiers[T].GaveUp);
  }
  State.counters["budget_trips"] = static_cast<double>(
      Stats.Portfolio.Tiers.size() > 1
          ? Stats.Portfolio.Tiers[1].BudgetTrips
          : 0);
  State.counters["escalations"] =
      static_cast<double>(Stats.Portfolio.Escalations);
  State.counters["cache_hits"] = static_cast<double>(Stats.SharedCacheHits);
  State.counters["bounded_candidates"] =
      static_cast<double>(Stats.BoundedCandidates);
  State.counters["quant_steps"] =
      static_cast<double>(Stats.BoundedQuantSteps);
  State.counters["conflicts"] =
      static_cast<double>(Stats.Search.Conflicts);
  State.counters["learned_nogoods"] =
      static_cast<double>(Stats.Search.LearnedNogoods);
  State.counters["unit_propagations"] =
      static_cast<double>(Stats.Search.UnitPropagations);
  State.counters["backjumps"] =
      static_cast<double>(Stats.Search.Backjumps);
  State.counters["restarts"] =
      static_cast<double>(Stats.Search.Restarts);
}

void BM_Solver_Portfolio(benchmark::State &State) {
  dischargePortfolio(
      State, [](size_t I) { return loadSource(SmallCorpus[I]); },
      sizeof(SmallCorpus) / sizeof(SmallCorpus[0]),
      /*BoundedSteps=*/200'000);
}

/// The quantified corpus that used to be Z3-only: water.rlx's relational
/// VCs carry existentials from havoc/relax freshening, which unbudgeted
/// bounded enumeration cannot attempt safely at full domains. The step
/// budget makes the bounded search give up deterministically
/// (budget_trips counts how often). With Z3 built, Z3 settles every
/// obligation before the bounded tier would run, so the search counters
/// read 0; the search work shows in builds without Z3.
void BM_Solver_Portfolio_QuantifiedWater(benchmark::State &State) {
  dischargePortfolio(
      State, [](size_t) { return loadExample("water.rlx"); }, 1,
      /*BoundedSteps=*/10'000);
}

/// Water with the conflict-driven machinery off: without Z3 the blind
/// scan burns far more candidates (9.6M vs 138k) and trips the budget on
/// more obligations (12 vs 7; see candidates/budget_trips vs the
/// learning row); with Z3 the two rows do the same work.
void BM_Solver_Portfolio_QuantifiedWater_NoLearning(
    benchmark::State &State) {
  dischargePortfolio(
      State, [](size_t) { return loadExample("water.rlx"); }, 1,
      /*BoundedSteps=*/10'000, /*Pool=*/nullptr, /*Jobs=*/1,
      /*Learning=*/false);
}

/// The sharded discharge tier: the same corpora with the final tier moved
/// to a pool of --discharge-worker subprocesses (each owning its own
/// AstContext and solver backends) behind the work-stealing scheduler.
/// On a single-vCPU box this measures the serialization + pipe round-trip
/// overhead the tier pays for escaping single-process scaling; verdict
/// identity with the in-process rows is pinned by shard/property tests.
std::unique_ptr<ShardPool> makeBenchPool(benchmark::State &State,
                                         unsigned Shards) {
#ifdef RELAXC_DRIVER_PATH
  ShardPoolOptions SO;
  SO.Shards = Shards;
  SO.WorkerExe = RELAXC_DRIVER_PATH;
  auto R = ShardPool::create(std::move(SO));
  if (R.ok())
    return std::move(*R);
  State.SkipWithError(R.message().c_str());
#else
  State.SkipWithError("RELAXC_DRIVER_PATH not configured");
#endif
  return nullptr;
}

void BM_Solver_Shard(benchmark::State &State) {
  auto Pool = makeBenchPool(State, 4);
  if (!Pool)
    return;
  dischargePortfolio(
      State, [](size_t I) { return loadSource(SmallCorpus[I]); },
      sizeof(SmallCorpus) / sizeof(SmallCorpus[0]),
      /*BoundedSteps=*/200'000, Pool.get(), /*Jobs=*/4);
  State.counters["shard_requests"] =
      static_cast<double>(Pool->stats().Requests);
}

void BM_Solver_Shard_QuantifiedWater(benchmark::State &State) {
  auto Pool = makeBenchPool(State, 4);
  if (!Pool)
    return;
  dischargePortfolio(
      State, [](size_t) { return loadExample("water.rlx"); }, 1,
      /*BoundedSteps=*/10'000, Pool.get(), /*Jobs=*/4);
  State.counters["shard_requests"] =
      static_cast<double>(Pool->stats().Requests);
}

void BM_Solver_Z3_NoSimplify(benchmark::State &State) {
  dischargeCorpus(
      State,
      [](AstContext &Ctx) { return std::make_unique<Z3Solver>(Ctx.symbols()); },
      /*Simplify=*/false);
}

/// End-to-end verification (generation + cached discharge) of a program
/// with K independent relax-assert knobs: the workload whose repeated side
/// conditions and growing formulas the hash-consing layer, the verified
/// result cache, and the persistent solver context are built for. The
/// largest configuration is the suite's headline number.
std::string knobProgram(int64_t K) {
  std::string Decls, Body, Requires;
  for (int64_t I = 0; I != K; ++I) {
    std::string V = "x" + std::to_string(I);
    Decls += "int " + V + ";\n";
    Requires += (I ? " && " : "") + V + " == 0";
    Body += "  " + V + " = " + V + " + 1;\n";
    Body += "  relax (" + V + ") st (" + V + " >= 0);\n";
    Body += "  assert " + V + " >= 0;\n";
  }
  return Decls + "requires (" + Requires + ");\n{\n" + Body + "}\n";
}

void BM_Solver_Z3_KnobScaling(benchmark::State &State) {
  Loaded L = loadSource(knobProgram(State.range(0)));
  if (!L.Prog) {
    State.SkipWithError(L.skipReason());
    return;
  }
  uint64_t Hits = 0, Backend = 0;
  for (auto _ : State) {
    Z3Solver Z3(L.Ctx->symbols());
    DiagnosticEngine Diags;
    Verifier V(*L.Ctx, *L.Prog, Z3, Diags);
    DischargeStats Stats;
    Verifier::Options VO;
    VO.StatsOut = &Stats;
    VerifyReport R = V.run(VO);
    benchmark::DoNotOptimize(R);
    Hits = Stats.SharedCacheHits;
    Backend = Z3.queryCount();
  }
  State.counters["cache_hits"] = static_cast<double>(Hits);
  State.counters["backend_queries"] = static_cast<double>(Backend);
}

/// Cache effectiveness on a real workload: swish's VC set contains
/// repeated convergence/safety side conditions, which the scheduler's
/// shared cache answers in front of the backend.
void BM_Solver_Z3_CacheOnSwish(benchmark::State &State) {
  Loaded L = loadExample("swish.rlx");
  if (!L.Prog) {
    State.SkipWithError(L.skipReason());
    return;
  }
  uint64_t Hits = 0, Misses = 0;
  for (auto _ : State) {
    Z3Solver Backend(L.Ctx->symbols());
    DiagnosticEngine Diags;
    Verifier V(*L.Ctx, *L.Prog, Backend, Diags);
    DischargeStats Stats;
    Verifier::Options VO;
    VO.StatsOut = &Stats;
    VerifyReport R = V.run(VO);
    benchmark::DoNotOptimize(R);
    Hits = Stats.SharedCacheHits;
    Misses = Backend.queryCount();
  }
  State.counters["cache_hits"] = static_cast<double>(Hits);
  State.counters["backend_queries"] = static_cast<double>(Misses);
}

/// The persistent verdict cache (--cache-dir=) on swish: one seeding run
/// fills the on-disk cache, then every timed iteration parses the program
/// into a fresh AstContext (matching the real scenario — one driver
/// process per verify, each generating VCs from a fresh Interner so the
/// freshened primed names, and hence the printed cache keys, are
/// reproduced exactly), reloads the cache, and re-verifies: the whole
/// discharge pipeline is replaced by key construction plus map lookups.
/// The cold twin pays full discharge on the same per-iteration pipeline,
/// so the pair brackets the win and the overhead.
struct BenchCacheDir {
  std::string Path;
  BenchCacheDir() {
    char Name[] = "/tmp/relaxc_bench_cache_XXXXXX";
    if (char *P = ::mkdtemp(Name))
      Path = P;
  }
  ~BenchCacheDir() {
    if (Path.empty())
      return;
    ::unlink((Path + "/verdicts.rlxcache").c_str());
    ::rmdir(Path.c_str());
  }
};

void runWithPersistentCache(Loaded &L, PersistentCache &P) {
  PortfolioOptions PO;
  BoundedSolver Dummy; // portfolio mode never consults the ctor solver
  DiagnosticEngine Diags;
  Verifier V(*L.Ctx, *L.Prog, Dummy, Diags);
  Verifier::Options Opts;
  Opts.Portfolio = PO;
  Opts.PCache = &P;
#if RELAXC_HAVE_Z3
  AstContext *Ctx = L.Ctx.get();
  Opts.SmtFactory = [Ctx] {
    return std::make_unique<Z3Solver>(Ctx->symbols());
  };
#endif
  VerifyReport R = V.run(Opts);
  benchmark::DoNotOptimize(R);
}

void BM_Solver_PersistentCache_WarmOnSwish(benchmark::State &State) {
  BenchCacheDir Dir;
  std::string FP =
      portfolioConfigFingerprint(PortfolioOptions(), RELAXC_HAVE_Z3 != 0);
  { // seed: one cold run, flushed to disk
    Loaded L = loadExample("swish.rlx");
    if (!L.Prog) {
      State.SkipWithError(L.skipReason());
      return;
    }
    PersistentCache Seed(Dir.Path, FP);
    Seed.load();
    runWithPersistentCache(L, Seed);
    if (Status S = Seed.flush(); !S.ok()) {
      State.SkipWithError(S.message().c_str());
      return;
    }
  }
  uint64_t Hits = 0, Loaded_ = 0, Appended = 0;
  for (auto _ : State) {
    Loaded L = loadExample("swish.rlx");
    if (!L.Prog) {
      State.SkipWithError(L.skipReason());
      return;
    }
    PersistentCache P(Dir.Path, FP);
    P.load();
    runWithPersistentCache(L, P);
    Hits = P.stats().Hits;
    Loaded_ = P.stats().Loaded;
    Appended = P.stats().Appended;
  }
  State.counters["cache_hits"] = static_cast<double>(Hits);
  State.counters["entries_loaded"] = static_cast<double>(Loaded_);
  State.counters["appended"] = static_cast<double>(Appended);
}

void BM_Solver_PersistentCache_ColdOnSwish(benchmark::State &State) {
  BenchCacheDir Dir; // stays empty: every iteration misses and discharges
  std::string FP =
      portfolioConfigFingerprint(PortfolioOptions(), RELAXC_HAVE_Z3 != 0);
  uint64_t Appended = 0;
  for (auto _ : State) {
    Loaded L = loadExample("swish.rlx");
    if (!L.Prog) {
      State.SkipWithError(L.skipReason());
      return;
    }
    PersistentCache P(Dir.Path, FP);
    P.load();
    runWithPersistentCache(L, P);
    Appended = P.stats().Appended; // never flushed, so the next load is cold
  }
  State.counters["verdicts_appended"] = static_cast<double>(Appended);
}

} // namespace

BENCHMARK(BM_Solver_Z3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Bounded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Bounded_NoLearning)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Bounded_Enumerate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Bounded_PruningAblation)
    ->Arg(3)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_Portfolio)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Portfolio_QuantifiedWater)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Portfolio_QuantifiedWater_NoLearning)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Shard)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Shard_QuantifiedWater)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Z3_NoSimplify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Z3_KnobScaling)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_Z3_CacheOnSwish)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_PersistentCache_ColdOnSwish)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Solver_PersistentCache_WarmOnSwish)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
