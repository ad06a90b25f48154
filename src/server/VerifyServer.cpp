//===- VerifyServer.cpp - Verification as a service ---------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "server/VerifyServer.h"

#include "parser/Parser.h"
#include "solver/BoundedSolver.h"
#include "solver/Z3Solver.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

#include <poll.h>

using namespace relax;

//===----------------------------------------------------------------------===//
// Shard-request serving (moved verbatim from the driver so the daemon,
// the pipe worker, and the socket worker answer identically)
//===----------------------------------------------------------------------===//

ShardResponse relax::serveShardRequest(ShardWorkerState &W,
                                       std::string_view Payload) {
  ShardResponse Resp;
  auto Fail = [&](std::string Msg) {
    Resp = ShardResponse();
    Resp.IsError = true;
    Resp.Error = std::move(Msg);
    return Resp;
  };

  Result<ShardRequest> Req = parseShardRequest(Payload);
  if (!Req.ok())
    return Fail("bad request: " + Req.message());
  if (FaultRegistry::shouldFail(FaultSite::SolverCall))
    return Fail("injected solver-call fault");
  Result<std::vector<TierKind>> Tiers = parsePipelineSpec(Req->Pipeline);
  if (!Tiers.ok())
    return Fail("bad worker pipeline: " + Tiers.message());
  for (TierKind K : *Tiers)
    if (K == TierKind::Shard)
      return Fail("a discharge worker cannot itself run a shard tier");

  // The configuration key is the request's own serialization with the
  // per-query parts stripped: any future field added to the bounded
  // wire line automatically participates in config-change detection.
  ShardRequest KeyReq;
  KeyReq.Pipeline = Req->Pipeline;
  KeyReq.Bounded = Req->Bounded;
  KeyReq.FinalBoundedStepFactor = Req->FinalBoundedStepFactor;
  std::string Key = serializeShardRequest(KeyReq);
  if (!W.Ctx || W.ConfigKey != Key) {
    W.Port.reset();
    W.Ctx = std::make_unique<AstContext>();
    PortfolioOptions PO;
    PO.Tiers = *Tiers;
    PO.Bounded = Req->Bounded;
    PO.FinalBoundedStepFactor = Req->FinalBoundedStepFactor;
    PortfolioSolver::BackendFactory Smt;
    if (RELAXC_HAVE_Z3) {
      AstContext *C = W.Ctx.get();
      Smt = [C] { return std::make_unique<Z3Solver>(C->symbols()); };
    }
    W.Port = std::make_unique<PortfolioSolver>(*W.Ctx, PO, Smt);
    W.ConfigKey = Key;
  }

  std::unordered_map<Symbol, VarKind> Kinds;
  for (const auto &[Name, Kind] : Req->Vars)
    Kinds[W.Ctx->sym(Name)] = Kind;

  std::vector<const BoolExpr *> Formulas;
  for (const std::string &Text : Req->Formulas) {
    SourceManager SM;
    SM.setBuffer("<shard-request>", Text);
    DiagnosticEngine Diags;
    Diags.setFileName("<shard-request>");
    Parser P(*W.Ctx, SM, Diags);
    const BoolExpr *F = P.parseStandaloneFormula(Kinds);
    if (!F || Diags.hasErrors())
      return Fail("formula parse error in '" + Text + "': " + Diags.render());
    Formulas.push_back(F);
  }

  Model Mod;
  Result<SatResult> R = SatResult::Unknown;
  if (Req->WantModel) {
    VarRefSet Vars;
    for (const WireVar &V : Req->ModelVars)
      Vars.insert(VarRef{W.Ctx->sym(V.Name), V.Tag, V.Kind});
    R = W.Port->checkSatWithModel(Formulas, Vars, Mod);
  } else {
    R = W.Port->checkSat(Formulas);
  }
  if (!R.ok())
    return Fail(R.message());

  Resp.Verdict = *R;
  Resp.SettledBy = W.Port->settledBy();
  Resp.Trail = W.Port->giveUpTrail();
  if (Req->WantModel && *R == SatResult::Sat) {
    for (const auto &[V, Val] : Mod.Ints)
      Resp.Ints.push_back(
          {{std::string(W.Ctx->text(V.Name)), V.Tag, V.Kind}, Val});
    for (const auto &[V, Val] : Mod.Arrays)
      Resp.Arrays.push_back(
          {{std::string(W.Ctx->text(V.Name)), V.Tag, V.Kind}, Val});
  }
  return Resp;
}

bool relax::isShardRequestPayload(std::string_view Payload) {
  return Payload.rfind("relax-shard-request", 0) == 0;
}

bool relax::isVerifyRequestPayload(std::string_view Payload) {
  return Payload.rfind("relax-verify-request", 0) == 0;
}

//===----------------------------------------------------------------------===//
// The verify wire codec
//===----------------------------------------------------------------------===//

namespace {

const char *VerifyRequestMagic = "relax-verify-request 1";
const char *VerifyResponseMagic = "relax-verify-response 1";

void putLine(std::string &Out, const std::string &S) {
  Out += S;
  Out += '\n';
}

/// `<tag> <len>\n<len bytes>\n` — the blob form for fields that may hold
/// anything (file names with spaces, whole programs, rendered reports).
void putBlob(std::string &Out, const char *Tag, std::string_view Bytes) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Bytes.size());
  Out += '\n';
  Out.append(Bytes.data(), Bytes.size());
  Out += '\n';
}

/// Cursor over a payload: lines for the fixed fields, counted blobs for
/// the free-form ones. Every malformation is a diagnosed parse error.
struct WireCursor {
  std::string_view S;
  size_t Pos = 0;

  bool line(std::string_view &Out) {
    if (Pos > S.size())
      return false;
    size_t Nl = S.find('\n', Pos);
    if (Nl == std::string_view::npos)
      return false;
    Out = S.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  }

  Status blob(const char *Tag, std::string &Out) {
    std::string_view L;
    if (!line(L))
      return Status::error(std::string("missing '") + Tag + "' field");
    size_t TagLen = std::strlen(Tag);
    if (L.compare(0, TagLen, Tag) != 0 || L.size() <= TagLen ||
        L[TagLen] != ' ')
      return Status::error(std::string("expected '") + Tag +
                           " <len>', got '" + std::string(L) + "'");
    uint64_t N = 0;
    for (size_t I = TagLen + 1; I != L.size(); ++I) {
      if (L[I] < '0' || L[I] > '9')
        return Status::error(std::string("bad '") + Tag + "' length");
      N = N * 10 + static_cast<uint64_t>(L[I] - '0');
      if (N > MaxFramePayload)
        return Status::error(std::string("'") + Tag + "' length too large");
    }
    if (Pos + N + 1 > S.size())
      return Status::error(std::string("truncated '") + Tag + "' bytes");
    Out.assign(S.data() + Pos, N);
    Pos += N;
    if (S[Pos] != '\n')
      return Status::error(std::string("'") + Tag +
                           "' bytes not newline-terminated");
    ++Pos;
    return Status::success();
  }
};

bool parseWireUnsigned(std::string_view V, uint64_t &Out) {
  if (V.empty())
    return false;
  Out = 0;
  for (char C : V) {
    if (C < '0' || C > '9')
      return false;
    if (Out > UINT64_MAX / 10)
      return false;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

/// `<key> <value>` with exact key match; -1 is the only allowed negative.
Status takeKeyed(WireCursor &C, const char *Key, std::string_view &Value) {
  std::string_view L;
  if (!C.line(L))
    return Status::error(std::string("missing '") + Key + "' field");
  size_t KeyLen = std::strlen(Key);
  if (L.compare(0, KeyLen, Key) != 0 || L.size() <= KeyLen ||
      L[KeyLen] != ' ')
    return Status::error(std::string("expected '") + Key + " <value>', got '" +
                         std::string(L) + "'");
  Value = L.substr(KeyLen + 1);
  return Status::success();
}

Status takeUnsigned(WireCursor &C, const char *Key, uint64_t &Out) {
  std::string_view V;
  if (Status S = takeKeyed(C, Key, V); !S.ok())
    return S;
  if (!parseWireUnsigned(V, Out))
    return Status::error(std::string("bad '") + Key + "' value '" +
                         std::string(V) + "'");
  return Status::success();
}

Status takeMs(WireCursor &C, const char *Key, int64_t &Out) {
  std::string_view V;
  if (Status S = takeKeyed(C, Key, V); !S.ok())
    return S;
  if (V == "-1") {
    Out = -1;
    return Status::success();
  }
  uint64_t N = 0;
  if (!parseWireUnsigned(V, N) || N > uint64_t(INT64_MAX))
    return Status::error(std::string("bad '") + Key + "' value '" +
                         std::string(V) + "'");
  Out = static_cast<int64_t>(N);
  return Status::success();
}

Status takeOnOff(WireCursor &C, const char *Key, bool &Out) {
  std::string_view V;
  if (Status S = takeKeyed(C, Key, V); !S.ok())
    return S;
  if (V != "on" && V != "off")
    return Status::error(std::string("bad '") + Key + "' value '" +
                         std::string(V) + "' (expected on or off)");
  Out = V == "on";
  return Status::success();
}

} // namespace

std::string relax::serializeVerifyRequest(const VerifyWireRequest &R) {
  std::string Out;
  putLine(Out, VerifyRequestMagic);
  putLine(Out, "solver " + R.SolverName);
  putLine(Out, "pipeline " + (R.Pipeline.empty() ? "-" : R.Pipeline));
  putLine(Out, "bounded-steps " + std::to_string(R.BoundedSteps));
  putLine(Out, std::string("learning ") + (R.BoundedLearning ? "on" : "off"));
  putLine(Out, std::string("restarts ") + (R.BoundedRestarts ? "on" : "off"));
  putLine(Out, "max-nogoods " + std::to_string(R.BoundedMaxNogoods));
  putLine(Out, "jobs " + std::to_string(R.Jobs));
  putLine(Out, "solver-jobs " + std::to_string(R.SolverJobs));
  putLine(Out, "timeout-ms " + std::to_string(R.TimeoutMs));
  putLine(Out, "vc-timeout-ms " + std::to_string(R.VcTimeoutMs));
  std::string Flags;
  auto AddFlag = [&](bool On, const char *Name) {
    if (!On)
      return;
    if (!Flags.empty())
      Flags += ' ';
    Flags += Name;
  };
  AddFlag(R.NoSafety, "no-safety");
  AddFlag(R.OriginalOnly, "original-only");
  AddFlag(R.Verbose, "verbose");
  AddFlag(R.SolverStats, "solver-stats");
  putLine(Out, "flags " + (Flags.empty() ? std::string("-") : Flags));
  putBlob(Out, "file", R.FileName);
  putBlob(Out, "source", R.Source);
  return Out;
}

Result<VerifyWireRequest> relax::parseVerifyRequest(std::string_view Payload) {
  using RR = Result<VerifyWireRequest>;
  auto Bad = [](const std::string &Msg) {
    return RR::error("bad verify request: " + Msg);
  };
  WireCursor C{Payload};
  std::string_view L;
  if (!C.line(L) || L != VerifyRequestMagic)
    return Bad("bad magic (stream is not speaking the verify protocol)");
  VerifyWireRequest R;
  std::string_view V;
  if (Status S = takeKeyed(C, "solver", V); !S.ok())
    return Bad(S.message());
  R.SolverName = std::string(V);
  if (Status S = takeKeyed(C, "pipeline", V); !S.ok())
    return Bad(S.message());
  R.Pipeline = V == "-" ? std::string() : std::string(V);
  if (Status S = takeUnsigned(C, "bounded-steps", R.BoundedSteps); !S.ok())
    return Bad(S.message());
  if (Status S = takeOnOff(C, "learning", R.BoundedLearning); !S.ok())
    return Bad(S.message());
  if (Status S = takeOnOff(C, "restarts", R.BoundedRestarts); !S.ok())
    return Bad(S.message());
  if (Status S = takeUnsigned(C, "max-nogoods", R.BoundedMaxNogoods); !S.ok())
    return Bad(S.message());
  uint64_t N = 0;
  if (Status S = takeUnsigned(C, "jobs", N); !S.ok() || N > 1024)
    return Bad(S.ok() ? "bad 'jobs' value (> 1024)" : S.message());
  R.Jobs = static_cast<unsigned>(N);
  if (Status S = takeUnsigned(C, "solver-jobs", N); !S.ok() || N > 1024)
    return Bad(S.ok() ? "bad 'solver-jobs' value (> 1024)" : S.message());
  R.SolverJobs = static_cast<unsigned>(N);
  if (Status S = takeMs(C, "timeout-ms", R.TimeoutMs); !S.ok())
    return Bad(S.message());
  if (Status S = takeMs(C, "vc-timeout-ms", R.VcTimeoutMs); !S.ok())
    return Bad(S.message());
  if (Status S = takeKeyed(C, "flags", V); !S.ok())
    return Bad(S.message());
  if (V != "-") {
    size_t Pos = 0;
    while (Pos < V.size()) {
      size_t Sp = V.find(' ', Pos);
      std::string_view F = V.substr(Pos, Sp == std::string_view::npos
                                             ? std::string_view::npos
                                             : Sp - Pos);
      if (F == "no-safety")
        R.NoSafety = true;
      else if (F == "original-only")
        R.OriginalOnly = true;
      else if (F == "verbose")
        R.Verbose = true;
      else if (F == "solver-stats")
        R.SolverStats = true;
      else
        return Bad("unknown flag '" + std::string(F) + "'");
      Pos = Sp == std::string_view::npos ? V.size() : Sp + 1;
    }
  }
  if (Status S = C.blob("file", R.FileName); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("source", R.Source); !S.ok())
    return Bad(S.message());
  return RR(std::move(R));
}

std::string relax::serializeVerifyResponse(const VerifyWireResponse &R) {
  std::string Out;
  putLine(Out, VerifyResponseMagic);
  std::string StatusLine = "status " + std::to_string(R.ExitStatus) + " ";
  StatusLine += R.IsError ? (R.Retryable ? "retryable-error" : "error") : "ok";
  putLine(Out, StatusLine);
  putBlob(Out, "error", R.Error);
  putBlob(Out, "diagnostics", R.Diagnostics);
  putBlob(Out, "report", R.Report);
  return Out;
}

Result<VerifyWireResponse>
relax::parseVerifyResponse(std::string_view Payload) {
  using RR = Result<VerifyWireResponse>;
  auto Bad = [](const std::string &Msg) {
    return RR::error("bad verify response: " + Msg);
  };
  WireCursor C{Payload};
  std::string_view L;
  if (!C.line(L) || L != VerifyResponseMagic)
    return Bad("bad magic (stream is not speaking the verify protocol)");
  VerifyWireResponse R;
  std::string_view V;
  if (Status S = takeKeyed(C, "status", V); !S.ok())
    return Bad(S.message());
  size_t Sp = V.find(' ');
  if (Sp == std::string_view::npos)
    return Bad("bad 'status' line '" + std::string(V) + "'");
  uint64_t N = 0;
  if (!parseWireUnsigned(V.substr(0, Sp), N) || N > 3)
    return Bad("bad exit status '" + std::string(V.substr(0, Sp)) + "'");
  R.ExitStatus = static_cast<int>(N);
  std::string_view Kind = V.substr(Sp + 1);
  if (Kind == "ok") {
    R.IsError = false;
  } else if (Kind == "error") {
    R.IsError = true;
  } else if (Kind == "retryable-error") {
    R.IsError = true;
    R.Retryable = true;
  } else {
    return Bad("bad status kind '" + std::string(Kind) + "'");
  }
  if (Status S = C.blob("error", R.Error); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("diagnostics", R.Diagnostics); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("report", R.Report); !S.ok())
    return Bad(S.message());
  return RR(std::move(R));
}

//===----------------------------------------------------------------------===//
// Stats renderers (the session appends them to its report)
//===----------------------------------------------------------------------===//

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min(static_cast<size_t>(N), sizeof(Buf) - 1));
}

/// The `--solver-stats` block of a run over the tier chain \p Tiers.
std::string renderSolverStats(const std::vector<TierKind> &Tiers,
                              const DischargeStats &S,
                              const PersistentCache *PCache) {
  auto U = [](uint64_t N) { return static_cast<unsigned long long>(N); };
  std::string Out;
  Out += "solver stats:\n";
  appendf(Out, "  pipeline: %s\n", formatPipeline(Tiers).c_str());
  for (size_t I = 0; I != Tiers.size() && I != S.Portfolio.Tiers.size(); ++I) {
    const PortfolioStats::TierStat &T = S.Portfolio.Tiers[I];
    const char *Name = tierKindName(Tiers[I]);
    bool Degraded = Tiers[I] == TierKind::Smt && !RELAXC_HAVE_Z3;
    appendf(Out,
            "  tier %zu %s%s: settled %llu, gave up %llu"
            " (%llu budget trips)\n",
            I, Name, Degraded ? " (bounded-full fallback)" : "",
            U(T.Settled), U(T.GaveUp), U(T.BudgetTrips));
  }
  appendf(Out, "  queries: %llu, tier escalations: %llu\n",
          U(S.Portfolio.Queries), U(S.Portfolio.Escalations));
  appendf(Out, "  shared result cache: %llu hits, %llu misses\n",
          U(S.SharedCacheHits), U(S.SharedCacheMisses));
  if (PCache) {
    PersistentCacheStats PS = PCache->stats();
    appendf(Out,
            "  persistent cache: %llu entries loaded, %llu hits, "
            "%llu appended, %llu verify-sampled (%llu verified)\n",
            U(PS.Loaded), U(PS.Hits), U(PS.Appended), U(PS.VerifySampled),
            U(PS.VerifiedHits));
    if (PS.LoadCorrupt)
      appendf(Out, "  persistent cache recovered cold: %s\n",
              PS.LoadDetail.c_str());
  }
  appendf(Out,
          "  bounded work: %llu candidate assignments, %llu "
          "quantifier-body evaluations\n",
          U(S.BoundedCandidates), U(S.BoundedQuantSteps));
  appendf(Out,
          "  bounded search: %llu conflicts, %llu learned nogoods "
          "(%llu evicted), %llu unit propagations, %llu backjumps, "
          "%llu restarts, max trail depth %llu\n",
          U(S.Search.Conflicts), U(S.Search.LearnedNogoods),
          U(S.Search.EvictedNogoods), U(S.Search.UnitPropagations),
          U(S.Search.Backjumps), U(S.Search.Restarts),
          U(S.Search.MaxTrailDepth));
  appendf(Out, "  scheduler: %llu stolen tasks\n", U(S.StolenTasks));
  return Out;
}

/// The `--solver-stats` per-procedure obligation counts: how many
/// obligations each procedure's summaries contributed to each pass.
std::string renderProcObligations(const VerifyReport &Report) {
  std::vector<std::string> Order;
  std::map<std::string, std::pair<size_t, size_t>> Counts;
  auto Tally = [&](const JudgmentReport &J, bool Relaxed) {
    for (const VCOutcome &O : J.Outcomes) {
      std::string Name =
          O.Condition.Proc.empty() ? std::string("main") : O.Condition.Proc;
      auto [It, New] = Counts.try_emplace(Name, 0, 0);
      if (New)
        Order.push_back(Name);
      ++(Relaxed ? It->second.second : It->second.first);
    }
  };
  Tally(Report.Original, false);
  Tally(Report.Relaxed, true);
  std::string Out;
  Out += "  obligations by procedure:\n";
  for (const std::string &Name : Order)
    appendf(Out, "    %s: %zu |-o, %zu |-r\n", Name.c_str(),
            Counts[Name].first, Counts[Name].second);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The verify session
//===----------------------------------------------------------------------===//

namespace {

/// The bounded configuration of a request. The portfolio's `bounded` tier
/// and the oracle solver `makeVerifyBackend` builds both run it, so the
/// oracle gets the tier's candidate and quantifier-step budgets.
BoundedSolverOptions boundedOptionsFor(const VerifyWireRequest &R) {
  BoundedSolverOptions BO = PortfolioOptions().Bounded;
  BO.MaxQuantSteps = R.BoundedSteps;
  BO.Jobs = R.SolverJobs == 0 ? 1 : R.SolverJobs;
  BO.Learning = R.BoundedLearning;
  BO.Restarts = R.BoundedRestarts;
  BO.MaxNogoods = static_cast<uint32_t>(R.BoundedMaxNogoods);
  return BO;
}

/// The portfolio of a request: its pipeline, or without one the single
/// tier its solver names. Fails only when the spec does not parse.
Result<PortfolioOptions> portfolioOptionsFor(const VerifyWireRequest &R) {
  Result<std::vector<TierKind>> Tiers =
      parsePipelineSpec(R.Pipeline.empty() ? R.SolverName : R.Pipeline);
  if (!Tiers.ok())
    return Result<PortfolioOptions>::error(Tiers.message());
  PortfolioOptions PO;
  PO.Tiers = *Tiers;
  PO.Bounded = boundedOptionsFor(R);
  return PO;
}

} // namespace

std::unique_ptr<Solver> relax::makeVerifyBackend(const VerifyWireRequest &R,
                                                 AstContext &Ctx) {
  if (R.SolverName == "bounded")
    return std::make_unique<BoundedSolver>(boundedOptionsFor(R), &Ctx);
  return std::make_unique<Z3Solver>(Ctx.symbols());
}

std::string relax::verifyJobFingerprint(const VerifyWireRequest &R) {
  Result<PortfolioOptions> PO = portfolioOptionsFor(R);
  return PO.ok() ? portfolioConfigFingerprint(*PO, RELAXC_HAVE_Z3 != 0)
                 : std::string();
}

VerifyJobResult relax::runVerifyJob(const VerifyWireRequest &Req,
                                    PersistentCache *PCache,
                                    DischargePool *Pool) {
  VerifyJobResult Job;
  auto Usage = [&](std::string Msg) {
    Job.IsError = true;
    Job.ExitStatus = 2;
    Job.Error = std::move(Msg);
    return std::move(Job);
  };

  if (!isKnownSolverName(Req.SolverName))
    return Usage("unknown solver '" + Req.SolverName + "' (valid choices: " +
                 knownSolverNamesForDiagnostics() + ")");
  // Without Z3 the z3 tier degrades to the bounded search at full
  // domain, whose verdicts are only as strong as the domain. A pipeline
  // opts into that; the default configuration must not.
  if (!RELAXC_HAVE_Z3 && Req.Pipeline.empty() && Req.SolverName == "z3")
    return Usage("--solver=z3 needs a relaxc built with Z3; use "
                 "--solver=bounded, or name a --pipeline= whose z3 tier "
                 "degrades to the bounded search");
  Result<PortfolioOptions> Port = portfolioOptionsFor(Req);
  if (!Port.ok())
    return Usage(Port.message());
  // A pool only chooses where the final tier runs: the chain ends in a
  // `shard` tier whose workers run the tier it replaced, under the same
  // configuration — so the verdicts, and the fingerprint, are those of
  // the pool-less run.
  if (Pool) {
    if (Port->Tiers.back() == TierKind::Simplify)
      return Usage("a worker pool needs a final bounded or z3 tier to move "
                   "out of process (the pipeline ends in 'simplify')");
    Port->ShardWorkerPipeline =
        Port->Tiers.back() == TierKind::Bounded ? "bounded" : "z3";
    Port->Tiers.back() = TierKind::Shard;
    Port->Pool = Pool;
  }

  // One fresh AstContext per session — see the file comment in
  // VerifyServer.h for why warm contexts would break report identity.
  auto CtxOwner = std::make_unique<AstContext>();
  AstContext &Ctx = *CtxOwner;
  SourceManager SM;
  SM.setBuffer(Req.FileName, Req.Source);
  DiagnosticEngine Diags;
  Diags.setFileName(Req.FileName);
  Parser P(Ctx, SM, Diags);
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog) {
    Job.ExitStatus = 2;
    Job.Diagnostics = Diags.render();
    return Job;
  }

  // The portfolio runs every obligation; the Verifier's own solver is
  // never consulted.
  BoundedSolver Unused;
  Verifier V(Ctx, *Prog, Unused, Diags);
  Verifier::Options VO;
  VO.GenOpts.CheckSafety = !Req.NoSafety;
  VO.RunRelaxed = !Req.OriginalOnly;
  VO.Jobs = Req.Jobs == 0 ? 1 : Req.Jobs;
  // Armed right before the run, so parsing and pool creation do not eat
  // into the budget; an expired run answers status 3, never hangs.
  if (Req.TimeoutMs >= 0)
    VO.GlobalDeadline = Deadline::inMs(Req.TimeoutMs);
  VO.VcTimeoutMs = Req.VcTimeoutMs;
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  VO.Portfolio = std::move(*Port);
  if (RELAXC_HAVE_Z3)
    VO.SmtFactory = [&Ctx] {
      return std::make_unique<Z3Solver>(Ctx.symbols());
    };
  VO.PCache = PCache;

  Job.Verdicts = V.run(VO);
  if (Diags.hasErrors())
    Job.Diagnostics = Diags.render();
  Job.Report = renderReport(Job.Verdicts, Ctx.symbols(), Req.Verbose);
  if (Req.SolverStats) {
    Job.Report += renderSolverStats(VO.Portfolio->Tiers, Stats, PCache);
    Job.Report += renderProcObligations(Job.Verdicts);
  }
  Job.ExitStatus = Job.Verdicts.exitStatus();
  Job.Ctx = std::move(CtxOwner);
  return Job;
}

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<VerifyServer>>
VerifyServer::create(VerifyServerOptions O) {
  using R = Result<std::unique_ptr<VerifyServer>>;
  if (O.MaxConnections == 0)
    return R::error("the server needs at least one connection slot");
  Result<SocketListener> L = SocketListener::bind(O.Address, O.AcceptBacklog);
  if (!L.ok())
    return R::error(L.message());
  std::unique_ptr<VerifyServer> S(new VerifyServer());
  S->Opts = std::move(O);
  S->Listener = std::move(*L);
  return R(std::move(S));
}

VerifyServer::~VerifyServer() {
  requestStop();
  std::unique_lock<std::mutex> L(M);
  DrainCV.wait(L, [&] { return Active == 0; });
}

PersistentCache *VerifyServer::cacheFor(const std::string &Fingerprint) {
  if (Fingerprint.empty())
    return nullptr;
  std::lock_guard<std::mutex> L(CacheM);
  auto It = Caches.find(Fingerprint);
  if (It != Caches.end())
    return It->second.get();
  // With a CacheDir this is the CLI's on-disk cache (same keys, same
  // file), loaded once and flushed after each request; without one it is
  // a purely in-memory warm store — load()/flush() are simply skipped.
  auto C = std::make_unique<PersistentCache>(Opts.CacheDir, Fingerprint,
                                             /*VerifyPpm=*/0);
  if (!Opts.CacheDir.empty())
    C->load();
  PersistentCache *Raw = C.get();
  Caches.emplace(Fingerprint, std::move(C));
  return Raw;
}

VerifyWireResponse VerifyServer::handleVerify(std::string_view Payload) {
  VerifyWireResponse Refusal;
  Refusal.IsError = true;
  Refusal.ExitStatus = 2;
  Result<VerifyWireRequest> Req = parseVerifyRequest(Payload);
  if (!Req.ok()) {
    Refusal.Error = Req.message();
    return Refusal;
  }
  // The daemon's two input checks. A shard tier can only come last, and
  // a served request may not name one: the daemon is already the far
  // side of one.
  Result<std::vector<TierKind>> Tiers = parsePipelineSpec(Req->Pipeline);
  if (Tiers.ok() && Tiers->back() == TierKind::Shard) {
    Refusal.Error = "a served verify request cannot run a shard tier (the "
                    "daemon is already the far side of one)";
    return Refusal;
  }
  // Clamp the request deadline to the server's cap so one client cannot
  // pin a handler thread forever.
  if (Opts.MaxRequestTimeoutMs >= 0 &&
      (Req->TimeoutMs < 0 || Req->TimeoutMs > Opts.MaxRequestTimeoutMs))
    Req->TimeoutMs = Opts.MaxRequestTimeoutMs;
  PersistentCache *PC = cacheFor(verifyJobFingerprint(*Req));
  VerifyWireResponse Resp = runVerifyJob(*Req, PC);
  if (PC && !Opts.CacheDir.empty()) {
    if (Status S = PC->flush(); !S.ok())
      std::fprintf(stderr,
                   "relaxc: warning: persistent cache not saved: %s\n",
                   S.message().c_str());
  }
  return Resp;
}

void VerifyServer::serveConnection(std::shared_ptr<Transport> Conn) {
  // Shard-serving context, warm across the frames of this connection —
  // one remote-pool slot maps to one connection, so this is the daemon's
  // counterpart of a pipe worker's per-process warm state.
  ShardWorkerState Shard;
  for (;;) {
    if (Stopping.load())
      break;
    // Idle wait: a connected client may sit quiet between requests
    // indefinitely. Only once the first byte of a frame arrives does the
    // whole-frame deadline arm — the anti-slow-loris bound.
    pollfd P{Conn->recvFd(), POLLIN, 0};
    int R = ::poll(&P, 1, 250);
    if (R < 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    FrameRead F = Conn->recv(Opts.FrameReadTimeoutMs < 0
                                 ? Deadline::never()
                                 : Deadline::inMs(Opts.FrameReadTimeoutMs));
    if (F.eof())
      break;
    if (!F.ok()) {
      // Diagnose and drop the connection: after a framing error the
      // stream position is unrecoverable, but the daemon keeps serving
      // everyone else.
      VerifyWireResponse E;
      E.IsError = true;
      E.Error = "frame error: " + F.Message;
      (void)Conn->send(serializeVerifyResponse(E));
      break;
    }
    std::string Out;
    if (isShardRequestPayload(F.Payload)) {
      Out = serializeShardResponse(serveShardRequest(Shard, F.Payload));
    } else if (isVerifyRequestPayload(F.Payload)) {
      Out = serializeVerifyResponse(handleVerify(F.Payload));
    } else {
      VerifyWireResponse E;
      E.IsError = true;
      E.ExitStatus = 2;
      E.Error = "unrecognized request magic";
      Out = serializeVerifyResponse(E);
    }
    if (!Conn->send(Out).ok())
      break;
  }
  {
    std::lock_guard<std::mutex> L(M);
    --Active;
  }
  DrainCV.notify_all();
}

int VerifyServer::run() {
  while (!Stopping.load()) {
    Result<std::unique_ptr<Transport>> C = Listener.accept(Deadline::inMs(250));
    if (!C.ok())
      continue; // timeout tick (Stopping check) or a transient accept error
    {
      std::lock_guard<std::mutex> L(M);
      if (Active >= Opts.MaxConnections) {
        // Backpressure: refuse loudly and retryably rather than queueing
        // without bound. The kernel backlog is the only queue.
        VerifyWireResponse Busy;
        Busy.IsError = true;
        Busy.Retryable = true;
        Busy.Error = "server at capacity (" +
                     std::to_string(Opts.MaxConnections) +
                     " connections); retry";
        (void)(*C)->send(serializeVerifyResponse(Busy));
        continue; // transport destructor closes the connection
      }
      ++Active;
    }
    std::shared_ptr<Transport> Conn(std::move(*C));
    std::thread([this, Conn] { serveConnection(Conn); }).detach();
  }
  std::unique_lock<std::mutex> L(M);
  DrainCV.wait(L, [&] { return Active == 0; });
  return 0;
}
