//===- Traced.cpp - The per-layer traced run -------------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run calls each layer's public entry point from the harness,
/// on the workload's own inputs and configuration, and wraps every call
/// in a span. One pass over the workload's input list does, per program:
///
///  1. the traced pipeline — parse, sema, per-procedure VC generation,
///     DischargeScheduler::discharge, renderReport — composed as
///     Verifier::run composes them (serve: fronted by a persistent cache
///     and flushed, as the daemon does);
///  2. the same verification untraced (Verifier::run; serve: the daemon's
///     runVerifyJob), whose time against (1) is the tracing overhead;
///  3. the CLI on the same file and flags (driver overhead = CLI wall
///     minus (2));
///  4. each portfolio tier alone on every obligation query
///     (PortfolioSolver::checkRange(i, i+1));
///  5. every query round-tripped through a 2-worker ShardPool;
///  6. the persistent cache: per-query keys looked up, inserted, flushed,
///     and the pass's file loaded back;
///  7. the request through runVerifyJob in process and through a daemon.
///
/// Every verdict of (1), (2), (3) and (7) must equal the expected one.
/// Metrics are per verify unless the guide says otherwise; each is the
/// median over passes. Spans are kept in memory and written out as
/// Chrome trace-event JSON when the run ends.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "parser/Parser.h"
#include "solver/Z3Solver.h"
#include "vcgen/Verifier.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

using namespace relax;

namespace vb {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// In-memory span recorder for the harness's own thread.
class Tracer {
public:
  struct Span {
    uint32_t Id, Parent, Request;
    const char *Name;
    double StartUs, EndUs;
  };

  uint32_t open(const char *Name) {
    uint32_t Id = static_cast<uint32_t>(Spans.size()) + 1;
    Spans.push_back({Id, Stack.empty() ? 0 : Stack.back(), Request, Name,
                     nowUs(), 0});
    Stack.push_back(Id);
    return Id;
  }
  /// Closes span \p Id (the innermost open one); returns its length in ms.
  double close(uint32_t Id) {
    Span &S = Spans[Id - 1];
    S.EndUs = nowUs();
    Stack.pop_back();
    return (S.EndUs - S.StartUs) / 1e3;
  }
  void setRequest(uint32_t R) { Request = R; }

  /// Writes the spans as Chrome trace-event JSON.
  void write(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                    "\"parent\":%u,\"request\":%u}}",
                    I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs,
                    S.Id, S.Parent, S.Request);
      Out << Buf;
    }
    Out << "]}\n";
  }

private:
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
  uint32_t Request = 0;
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }
};

/// A span over one scope; close() ends it early and returns its length.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name) : T(T), Id(T.open(Name)) {}
  ~Scoped() { close(); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  double close() {
    if (!Ms)
      Ms = T.close(Id);
    return *Ms;
  }

private:
  Tracer &T;
  uint32_t Id;
  std::optional<double> Ms;
};

/// The CLI's portfolio for a workload (flag defaults: 200000 bounded
/// steps, learning and restarts on, 10000 nogoods), with the final tier
/// moved onto \p Pool when the workload shards.
PortfolioOptions portfolioFor(const WorkloadSpec &W, DischargePool *Pool) {
  PortfolioOptions PO;
  PO.Tiers = *parsePipelineSpec(W.Pipeline.empty() ? "simplify,bounded,z3"
                                                   : W.Pipeline);
  PO.Bounded.MaxQuantSteps = 200'000;
  PO.Bounded.Jobs = 1;
  PO.Bounded.Learning = true;
  PO.Bounded.Restarts = true;
  PO.Bounded.MaxNogoods = 10'000;
  if (W.Shards > 0) {
    PO.Tiers.back() = TierKind::Shard;
    PO.Pool = Pool;
    PO.ShardWorkerPipeline = "z3";
  }
  return PO;
}

/// One program through the traced pipeline; keeps the context alive for
/// the per-query probes.
struct TracedVerify {
  int Exit = 2;
  double Ms = 0;
  std::unique_ptr<AstContext> Ctx;
  std::optional<relax::Program> Prog;
  std::vector<const BoolExpr *> Queries;
};

/// Per-pass sums, keyed by metric name (finalized in finishPass).
using Acc = std::map<std::string, double>;

TracedVerify tracedVerify(Tracer &T, Acc &A, const WorkloadSpec &W,
                          const Program &P, DischargePool *Pool,
                          PersistentCache *PC) {
  TracedVerify Out;
  auto Start = Clock::now();
  Out.Ctx = std::make_unique<AstContext>();
  AstContext &Ctx = *Out.Ctx;
  SourceManager SM;
  SM.setBuffer(P.Name + ".rlx", P.Source);
  DiagnosticEngine Diags;
  {
    Scoped S(T, "parser.parse");
    Parser Ps(Ctx, SM, Diags);
    Out.Prog = Ps.parseProgram();
    A["parser.parse_ms"] += S.close();
  }
  if (!Out.Prog)
    return Out;
  const relax::Program &Prog = *Out.Prog;

  // Z3 contexts made anywhere in the request count as z3 init, including
  // the scheduler workers' (hence the lock).
  std::mutex InitM;
  double InitMs = 0;
  auto MakeZ3 = [&] {
    auto T0 = Clock::now();
    auto Z = std::make_unique<Z3Solver>(Ctx.symbols());
    std::lock_guard<std::mutex> L(InitM);
    InitMs += msSince(T0);
    return Z;
  };
  std::unique_ptr<Solver> Backend;
  {
    Scoped S(T, "solver.z3.init");
    Backend = MakeZ3();
  }
  CachingSolver Cached(*Backend);
  DischargeScheduler::Config Cfg;
  Cfg.Jobs = W.Jobs;
  Cfg.PCache = PC;
  size_t SmtTier = 0;
  if (!W.Pipeline.empty()) {
    Cfg.Portfolio = portfolioFor(W, Pool);
    Cfg.SmtFactory = [&] { return std::unique_ptr<Solver>(MakeZ3()); };
    SmtTier = Cfg.Portfolio->Tiers.size() - 1;
  }
  uint64_t PoolRequests0 = Pool ? Pool->stats().Requests : 0;
  DischargeScheduler Sched(Ctx, Cfg);

  VerifyReport Report;
  std::optional<SemaInfo> Info;
  {
    Scoped S(T, "sema.check");
    Info = Sema(Prog, Diags).run();
    A["sema.check_ms"] += S.close();
  }
  double DischargeMs = 0;
  if (Info) {
    Report.SemaOk = true;
    unsigned ErrorsBefore = Diags.errorCount();
    auto Pre = [&](const Procedure &Pr) {
      return Pr.requiresClause() ? Pr.requiresClause() : Ctx.trueExpr();
    };
    auto Post = [&](const Procedure &Pr) {
      return Pr.ensuresClause() ? Pr.ensuresClause() : Ctx.trueExpr();
    };
    VCSet OSet;
    for (const Procedure &Pr : Prog.procedures()) {
      Scoped S(T, "vcgen.gen");
      UnaryVCGen Gen(Ctx, Prog, JudgmentKind::Original, Diags, VCGenOptions());
      Gen.setProcName(procDisplayName(Pr, Ctx.symbols()));
      Gen.genTriple(Pre(Pr), Pr.body(), Post(Pr));
      OSet.append(Gen.take());
      A["vcgen.gen_ms"] += S.close();
    }
    Report.Original.Judgment = JudgmentKind::Original;
    {
      Scoped S(T, "discharge.wall");
      Sched.discharge(std::move(OSet), Report.Original, Cached);
      DischargeMs += S.close();
    }
    VCSet RSet;
    for (const Procedure &Pr : Prog.procedures()) {
      Scoped S(T, "vcgen.gen");
      std::string Name = procDisplayName(Pr, Ctx.symbols());
      if (Info->needsIntermediate(Pr)) {
        UnaryVCGen IGen(Ctx, Prog, JudgmentKind::Intermediate, Diags,
                        VCGenOptions());
        IGen.setProcName(Name);
        IGen.genTriple(Pre(Pr), Pr.body(), Post(Pr));
        RSet.append(IGen.take());
      }
      RelationalVCGen Gen(Ctx, Prog, Diags, VCGenOptions());
      Gen.setProcName(Name);
      Gen.genTriple(effectiveRelRequires(Ctx, Prog, Pr), Pr.body(),
                    Pr.relEnsuresClause() ? Pr.relEnsuresClause()
                                          : Ctx.trueExpr());
      RSet.append(Gen.take());
      A["vcgen.gen_ms"] += S.close();
    }
    Report.Relaxed.Judgment = JudgmentKind::Relaxed;
    {
      Scoped S(T, "discharge.wall");
      Sched.discharge(std::move(RSet), Report.Relaxed, Cached);
      DischargeMs += S.close();
    }
    Report.GenErrors = Diags.errorCount() > ErrorsBefore;
  }
  if (PC) {
    Scoped S(T, "serve.cache_flush");
    (void)PC->flush();
  }
  {
    Scoped S(T, "report.render");
    std::string Text = renderReport(Report, Ctx.symbols(), false);
    A["report.render_ms"] += S.close();
  }
  Out.Exit = exitStatusOf(Report);
  Out.Ms = msSince(Start);

  DischargeStats St = Sched.stats();
  double Busy = 0;
  for (const JudgmentReport *J : {&Report.Original, &Report.Relaxed})
    for (const VCOutcome &O : J->Outcomes)
      Busy += O.Millis;
  A["vcgen.vcs"] += double(Report.totalVCs());
  A["discharge.wall_ms"] += DischargeMs;
  A["eff.busy"] += Busy;
  A["eff.capacity"] += double(std::max(1u, W.Jobs)) * DischargeMs;
  A["discharge.steals"] += double(St.StolenTasks);
  A["discharge.escalated"] += double(St.EscalatedObligations);
  A["discharge.shared_cache_hits"] += double(St.SharedCacheHits);
  A["solver.z3.init_ms"] += InitMs;
  if (W.Shards > 0)
    A["solver.z3.queries"] += double(Pool->stats().Requests - PoolRequests0);
  else if (Cfg.Portfolio)
    A["solver.z3.queries"] += double(St.Portfolio.Tiers[SmtTier].Settled +
                                     St.Portfolio.Tiers[SmtTier].GaveUp);
  else
    A["solver.z3.queries"] +=
        double(Cached.missCount() + Cached.modelPassThroughCount());

  for (const JudgmentReport *J : {&Report.Original, &Report.Relaxed})
    for (const VCOutcome &O : J->Outcomes)
      Out.Queries.push_back(vcQuery(Ctx, O.Condition));
  return Out;
}

/// The untraced in-process equivalent of one CLI request (the driver's
/// runVerify, minus printing).
int untracedVerify(const WorkloadSpec &W, const Program &P,
                   DischargePool *Pool, double &Ms) {
  auto T0 = Clock::now();
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer(P.Name + ".rlx", P.Source);
  DiagnosticEngine Diags;
  Parser Ps(Ctx, SM, Diags);
  std::optional<relax::Program> Prog = Ps.parseProgram();
  if (!Prog)
    return 2;
  Z3Solver Backend(Ctx.symbols());
  CachingSolver Cached(Backend);
  Verifier V(Ctx, *Prog, Cached, Diags);
  Verifier::Options VO;
  VO.Jobs = W.Jobs;
  if (!W.Pipeline.empty()) {
    VO.Portfolio = portfolioFor(W, Pool);
    VO.SmtFactory = [&Ctx] { return std::make_unique<Z3Solver>(Ctx.symbols()); };
  }
  VerifyReport R = V.run(VO);
  std::string Text = renderReport(R, Ctx.symbols(), false);
  Ms = msSince(T0);
  return exitStatusOf(R);
}

/// Resources one pass shares across its programs.
struct Pass {
  std::string Dir;
  std::unique_ptr<ShardPool> Pool;
  std::unique_ptr<Daemon> Server;
  std::unique_ptr<WireClient> Client;
  std::string Fingerprint;
  std::unique_ptr<PersistentCache> ProbeCache;  ///< step 6
  std::unique_ptr<PersistentCache> JobCache;    ///< step 7, in process
  std::unique_ptr<PersistentCache> TracedCache; ///< step 1, serve only
};

class TracedRun {
public:
  TracedRun(const RunContext &RC, const WorkloadSpec &W, RunResult &R)
      : RC(RC), W(W), R(R) {}

  /// Runs one pass over \p List; returns its metrics, or nullopt after
  /// a set-up failure (recorded in R.Errors).
  std::optional<std::map<std::string, double>>
  pass(const std::vector<const Program *> &List, unsigned Index);

  Tracer T;

private:
  const RunContext &RC;
  const WorkloadSpec &W;
  RunResult &R;
  uint32_t NextRequest = 1;

  void check(const char *Stage, const Program &P, int Exit) {
    Outcome O = classify(Exit, P.Expected);
    R.Requests.add(O);
    if (O != Outcome::Ok && R.Errors.size() < 8)
      R.Errors.push_back(std::string(Stage) + ": exit " +
                         std::to_string(Exit) + " on " + P.Name +
                         ", expected " + std::to_string(P.Expected));
  }

  void program(Pass &S, Acc &A, const Program &P);
};

void TracedRun::program(Pass &S, Acc &A, const Program &P) {
  T.setRequest(NextRequest++);
  Scoped Request(T, "request");
  VerifyWireRequest Wire = wireRequest(W, P);

  // 1. Traced pipeline.
  TracedVerify TV = tracedVerify(T, A, W, P, S.Pool.get(), S.TracedCache.get());
  check("traced pipeline", P, TV.Exit);

  // 2 and 7 (in process). For serve the untraced run is the daemon's own
  // job; otherwise it is the CLI's path in process.
  double UntracedMs = 0, JobMs = 0;
  {
    Scoped Sp(T, "server.job");
    VerifyWireResponse Resp = runVerifyJob(Wire, S.JobCache.get());
    (void)S.JobCache->flush();
    JobMs = Sp.close();
    check("runVerifyJob", P, Resp.IsError ? -1 : Resp.ExitStatus);
  }
  if (W.Serve) {
    UntracedMs = JobMs;
  } else {
    Scoped Sp(T, "untraced");
    check("untraced", P, untracedVerify(W, P, S.Pool.get(), UntracedMs));
  }
  A["trace.overhead_ms"] += TV.Ms - UntracedMs;
  A["server.job_ms"] += JobMs;

  // 3. The CLI on the same input and configuration.
  {
    Scoped Sp(T, "driver.cli");
    std::vector<std::string> Extra;
    if (W.Serve)
      Extra.push_back("--cache-dir=" + S.Dir + "/cli-cache");
    ChildRun C = runChild(cliArgv(RC, W, P, Extra), RequestLimitMs);
    check("cli", P, C.Exit);
    if (C.Leftover)
      R.Errors.push_back("a process of `relaxc verify " + P.Name +
                         "` outlived it");
    A["driver.overhead_ms"] += C.WallMs - UntracedMs;
  }

  // 7 (wire). The same request through the pass's daemon.
  {
    Scoped Sp(T, "server.request");
    int Exit = S.Client->verify(Wire);
    A["server.wire_ms"] += Sp.close() - JobMs;
    check("daemon", P, Exit);
  }

  if (!TV.Prog)
    return;
  AstContext &Ctx = *TV.Ctx;

  // 4. Each tier alone on every query.
  std::vector<std::optional<SatResult>> Z3Verdict(TV.Queries.size());
  std::vector<double> Z3Ms(TV.Queries.size());
  {
    Scoped Sp(T, "probe.tiers");
    PortfolioOptions PO = portfolioFor(WorkloadSpec(), nullptr);
    PortfolioSolver Probe(Ctx, PO, [&Ctx] {
      return std::make_unique<Z3Solver>(Ctx.symbols());
    });
    static const char *const Names[] = {"simplify", "bounded", "z3"};
    for (size_t Q = 0; Q < TV.Queries.size(); ++Q) {
      for (size_t I = 0; I < 3; ++I) {
        auto T0 = Clock::now();
        Result<SatResult> Res =
            Probe.checkRange(I, I + 1, {TV.Queries[Q]}, nullptr, nullptr);
        double Ms = msSince(T0);
        A[std::string("solver.") + Names[I] + ".ms"] += Ms;
        A[std::string("settled.") + Names[I]] += Probe.lastSettled();
        if (I == 2) {
          Z3Ms[Q] = Ms;
          if (Res.ok() && Probe.lastSettled())
            Z3Verdict[Q] = *Res;
        }
      }
    }
    A["solver.bounded.candidates"] += double(Probe.boundedCandidates());
    A["solver.bounded.budget_trips"] += double(Probe.stats().Tiers[1].BudgetTrips);
    A["queries"] += double(TV.Queries.size());
  }

  // 5. Shard round trips of the same queries.
  {
    Scoped Sp(T, "probe.shard");
    PortfolioOptions PO = portfolioFor(WorkloadSpec(), nullptr);
    ShardSolver SS(*S.Pool, Ctx.symbols(), "z3", PO.Bounded,
                   PO.FinalBoundedStepFactor);
    for (size_t Q = 0; Q < TV.Queries.size(); ++Q) {
      auto T0 = Clock::now();
      (void)SS.checkSat({TV.Queries[Q]});
      double Ms = msSince(T0);
      A["shard.roundtrip_ms"] += Ms;
      A["shard.wire_ms"] += Ms - Z3Ms[Q];
    }
  }

  // 6. The persistent cache on this request's query keys.
  {
    Scoped Sp(T, "probe.cache");
    for (size_t Q = 0; Q < TV.Queries.size(); ++Q) {
      std::string Key =
          persistentCacheKey(S.Fingerprint, {TV.Queries[Q]}, Ctx.symbols());
      if (!S.ProbeCache->lookup(Key) && Z3Verdict[Q])
        S.ProbeCache->insert(Key, *Z3Verdict[Q]);
    }
    auto T0 = Clock::now();
    (void)S.ProbeCache->flush();
    A["cache.flush_ms"] += msSince(T0);
  }
}

std::optional<std::map<std::string, double>>
TracedRun::pass(const std::vector<const Program *> &List, unsigned Index) {
  Pass S;
  S.Dir = RC.Work + "/pass-" + std::to_string(Index);
  std::error_code EC;
  std::filesystem::create_directories(S.Dir, EC);
  VerifyWireRequest Probe = wireRequest(W, *List.front());
  S.Fingerprint = verifyJobFingerprint(Probe);
  // load() also arms the header write of the first flush.
  S.ProbeCache =
      std::make_unique<PersistentCache>(S.Dir + "/probe-cache", S.Fingerprint);
  S.ProbeCache->load();
  S.JobCache =
      std::make_unique<PersistentCache>(S.Dir + "/job-cache", S.Fingerprint);
  S.JobCache->load();
  if (W.Serve) {
    S.TracedCache = std::make_unique<PersistentCache>(S.Dir + "/traced-cache",
                                                      S.Fingerprint);
    S.TracedCache->load();
  }
  Acc A;
  {
    Scoped Sp(T, "shard.spawn");
    ShardPoolOptions SO;
    SO.Shards = 2;
    SO.WorkerExe = RC.Relaxc;
    Result<std::unique_ptr<ShardPool>> P = ShardPool::create(std::move(SO));
    if (!P.ok()) {
      R.Errors.push_back("shard pool: " + P.message());
      return std::nullopt;
    }
    S.Pool = std::move(*P);
    A["shard.spawn_ms"] = Sp.close();
  }
  Result<std::unique_ptr<Daemon>> D =
      Daemon::start(RC.Relaxc, S.Dir + "/d.sock", S.Dir + "/daemon-cache");
  if (!D.ok()) {
    R.Errors.push_back("daemon: " + D.message());
    return std::nullopt;
  }
  S.Server = std::move(*D);
  S.Client = std::make_unique<WireClient>(S.Server->address());

  for (const Program *P : List) {
    if (interrupted())
      return std::nullopt;
    program(S, A, *P);
  }
  {
    PersistentCache Reload(S.Dir + "/probe-cache", S.Fingerprint);
    auto T0 = Clock::now();
    Reload.load();
    A["cache.load_ms"] = msSince(T0);
  }
  PersistentCacheStats CS = S.ProbeCache->stats();
  PoolStats PS = S.Pool->stats();

  // Finalize: per verify, except where a denominator is named.
  double N = double(List.size()), Q = std::max(1.0, A["queries"]);
  std::map<std::string, double> M;
  for (const char *K :
       {"driver.overhead_ms", "parser.parse_ms", "sema.check_ms",
        "vcgen.gen_ms", "vcgen.vcs", "discharge.wall_ms", "discharge.steals",
        "discharge.escalated", "discharge.shared_cache_hits", "solver.simplify.ms",
        "solver.bounded.ms", "solver.z3.ms", "solver.bounded.candidates",
        "solver.bounded.budget_trips", "solver.z3.init_ms", "solver.z3.queries",
        "cache.flush_ms", "server.job_ms", "server.wire_ms", "report.render_ms",
        "trace.overhead_ms"})
    M[K] = A[K] / N;
  M["discharge.parallel_eff"] =
      A["eff.capacity"] > 0 ? A["eff.busy"] / A["eff.capacity"] : 0;
  for (const char *Tier : {"simplify", "bounded", "z3"})
    M[std::string("solver.") + Tier + ".settled_frac"] =
        A[std::string("settled.") + Tier] / Q;
  M["shard.spawn_ms"] = A["shard.spawn_ms"];
  M["shard.roundtrip_ms"] = A["shard.roundtrip_ms"] / Q;
  M["shard.wire_ms"] = A["shard.wire_ms"] / Q;
  M["shard.failures"] = double(PS.Failures);
  M["cache.load_ms"] = A["cache.load_ms"];
  double Lookups = double(CS.Hits + CS.Misses);
  M["cache.hit_frac"] = Lookups > 0 ? double(CS.Hits) / Lookups : 0;
  M["cache.appended"] = double(CS.Appended) / N;
  M["server.refusals"] = double(S.Client->Refusals);
  if (!S.Server->stop())
    R.Errors.push_back("the pass's daemon died during the pass");
  return M;
}

/// The metric names and units the traced run reports, in guide order.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"driver.overhead_ms", "ms"},
    {"parser.parse_ms", "ms"},
    {"sema.check_ms", "ms"},
    {"vcgen.gen_ms", "ms"},
    {"vcgen.vcs", "count"},
    {"discharge.wall_ms", "ms"},
    {"discharge.parallel_eff", "fraction"},
    {"discharge.steals", "count"},
    {"discharge.escalated", "count"},
    {"discharge.shared_cache_hits", "count"},
    {"solver.simplify.ms", "ms"},
    {"solver.bounded.ms", "ms"},
    {"solver.z3.ms", "ms"},
    {"solver.simplify.settled_frac", "fraction"},
    {"solver.bounded.settled_frac", "fraction"},
    {"solver.z3.settled_frac", "fraction"},
    {"solver.bounded.candidates", "count"},
    {"solver.bounded.budget_trips", "count"},
    {"solver.z3.init_ms", "ms"},
    {"solver.z3.queries", "count"},
    {"shard.spawn_ms", "ms"},
    {"shard.roundtrip_ms", "ms"},
    {"shard.wire_ms", "ms"},
    {"shard.failures", "count"},
    {"cache.load_ms", "ms"},
    {"cache.flush_ms", "ms"},
    {"cache.hit_frac", "fraction"},
    {"cache.appended", "count"},
    {"server.job_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.refusals", "count"},
    {"report.render_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

} // namespace

/// Requests of the serve workload's traced list (1 in 4 generated).
constexpr size_t ServeTracedRequests = 60;

size_t tracedGenerated(const WorkloadSpec &W) {
  return W.Serve ? ServeTracedRequests / 4 : 0;
}

RunResult runTraced(const RunContext &RC, const WorkloadSpec &W,
                    Inputs &In) {
  RunResult R;
  // The workload's inputs: one seeded round of the corpus, or the first
  // requests of the serve stream.
  std::vector<const Program *> List;
  SplitMix64 Rng(RC.Seed);
  if (W.Serve) {
    ServeSequence Seq(RC.Seed, In.Corpus.size());
    while (List.size() < ServeTracedRequests) {
      ServeReq Q = Seq.next();
      List.push_back(Q.Generated ? &In.Generated[Q.Index]
                                 : &In.Corpus[Q.Index]);
    }
  } else {
    for (size_t I : shuffledRound(In.Corpus.size(), Rng))
      List.push_back(&In.Corpus[I]);
  }

  TracedRun Run(RC, W, R);
  std::map<std::string, std::vector<double>> PerPass;
  auto T0 = Clock::now();
  double LastPassS = 0;
  for (unsigned K = 0;; ++K) {
    auto P0 = Clock::now();
    std::optional<std::map<std::string, double>> M = Run.pass(List, K);
    if (!M)
      break;
    for (auto &[Name, V] : *M)
      PerPass[Name].push_back(V);
    LastPassS = msSince(P0) / 1e3;
    double El = msSince(T0) / 1e3;
    if (El >= RC.Seconds || El + LastPassS > 120)
      break;
  }
  if (interrupted())
    R.Errors.push_back("interrupted");
  if (PerPass.empty()) {
    R.Errors.push_back("no traced pass completed");
    return R;
  }
  for (const auto &[Name, Unit] : LayerMetrics)
    R.Metrics.push_back({Name, median(PerPass[Name]), Unit});
  R.Notes.push_back("traced passes " +
                    std::to_string(PerPass.begin()->second.size()) +
                    " of " + std::to_string(List.size()) + " programs");

  std::error_code EC;
  std::filesystem::create_directories(".bench_trace", EC);
  std::string Path = ".bench_trace/" + W.Name + "-seed" +
                     std::to_string(RC.Seed) + ".json";
  Run.T.write(Path);
  R.Notes.push_back("spans written to " + Path);
  return R;
}

} // namespace vb
