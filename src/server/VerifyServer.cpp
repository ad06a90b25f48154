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
#include "support/IntMath.h"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include <poll.h>

using namespace relax;

//===----------------------------------------------------------------------===//
// Flags
//===----------------------------------------------------------------------===//

bool FlagArg::spells(std::string_view FlagName, bool Valued) {
  size_t N = FlagName.size();
  if (!Valued)
    return Arg == FlagName;
  if (Arg.substr(0, N) != FlagName || Arg.substr(N, 1) != "=")
    return false;
  Name = FlagName;
  Value = Arg.substr(N + 1);
  return true;
}

Status FlagArg::text(std::string &Out) const {
  Out = Value;
  return Status::success();
}

Status FlagArg::nonEmpty(std::string &Out, const char *Expected) const {
  return Value.empty() ? bad(Expected) : text(Out);
}

Status FlagArg::choice(std::string &Out, const char *What,
                       const std::vector<const char *> &Choices) const {
  std::string Valid;
  for (const char *C : Choices) {
    if (Value == C)
      return text(Out);
    Valid += Valid.empty() ? C : std::string(", ") + C;
  }
  return Status::error(std::string("unknown ") + What + " '" +
                       std::string(Value) + "' for " + std::string(Name) +
                       "= (valid choices: " + Valid + ")");
}

Status FlagArg::on(bool &Out) const {
  Out = true;
  return Status::success();
}

Status FlagArg::bad(const char *Expected) const {
  return Status::error("bad " + std::string(Name) + " value '" +
                       std::string(Value) + "' (expected " + Expected + ")");
}

Status FlagArg::unknown(const char *Mode) const {
  return Status::error(std::string("unknown ") + Mode + "option '" +
                       std::string(Arg) + "'");
}

const std::vector<Flag<VerifyWireRequest>> &relax::verifyFlags() {
  using R = VerifyWireRequest;
  static const std::string JobsHelp =
      "parallel VC discharge for `verify`:\neach pass runs on at most <n> slots\n"
      "(default 1), and starts slot k only\nwhen more than k*" +
      std::to_string(ObligationsPerSlot) + " of its obligations\nare pending";
  static const std::vector<Flag<R>> Flags = {
      {"--solver", "<z3|bounded>",
       "`verify` without --pipeline= runs this\none tier as its pipeline; "
       "`run` and\n`monitor` use it as their oracle solver\n(default z3)",
       [](const FlagArg &A, R &O) {
         return A.choice(O.SolverName, "solver", knownSolverNames());
       }},
      {"--pipeline", "<tier,...>",
       "tiered portfolio discharge for `verify`\n(tiers: simplify, bounded, "
       "z3; e.g.\n--pipeline=simplify,bounded,z3). A\nbounded tier before "
       "z3 runs behind it:\nit rescues z3's unknowns",
       [](const FlagArg &A, R &O) {
         Result<std::vector<TierKind>> Tiers = parsePipelineSpec(A.value());
         if (!Tiers.ok())
           return Tiers.status();
         O.Pipeline = formatPipeline(*Tiers);
         return Status::success();
       }},
      {"--bounded-steps", "<n>",
       "per-query quantifier-step budget of the\nbounded search, as a "
       "pipeline tier and\nas --solver=bounded (default 200000;\n0 = "
       "unlimited)",
       [](const FlagArg &A, R &O) {
         return A.decimal(O.BoundedSteps,
                          "a decimal step count; 0 = unlimited");
       }},
      {"--jobs", "<n>", JobsHelp.c_str(),
       [](const FlagArg &A, R &O) {
         return A.decimal(O.Jobs, "a decimal worker count <= 1024", 1024);
       }},
      {"--timeout-ms", "<n>",
       "global wall-clock budget for `verify`;\nobligations past it settle "
       "as gave-ups\nwith reason 'deadline' (exit code 3)",
       [](const FlagArg &A, R &O) {
         return A.decimal(O.TimeoutMs, "a decimal millisecond count");
       }},
      {"--vc-timeout-ms", "<n>", "per-obligation wall-clock budget",
       [](const FlagArg &A, R &O) {
         return A.decimal(O.VcTimeoutMs, "a decimal millisecond count");
       }},
      {"--no-safety", nullptr, "skip division/bounds trap obligations",
       [](const FlagArg &A, R &O) { return A.on(O.NoSafety); }},
      {"--original-only", nullptr, "verify only the |-o judgment",
       [](const FlagArg &A, R &O) { return A.on(O.OriginalOnly); }},
      {"--verbose", nullptr, "print every VC, not just failures",
       [](const FlagArg &A, R &O) { return A.on(O.Verbose); }},
      {"--solver-stats", nullptr,
       "print per-tier settled/escalated counts,\ncache/work counters, "
       "per-pass wall times,\nand per-procedure obligation counts "
       "after\n`verify`",
       [](const FlagArg &A, R &O) { return A.on(O.SolverStats); }},
  };
  return Flags;
}

Status relax::parseVerifyFlag(std::string_view Arg, VerifyWireRequest &R) {
  FlagArg A(Arg);
  const Flag<VerifyWireRequest> *F = A.find(verifyFlags());
  return F ? F->Set(A, R) : A.unknown("");
}

//===----------------------------------------------------------------------===//
// The verify wire codec
//===----------------------------------------------------------------------===//

namespace {

const char *VerifyRequestMagic = "relax-verify-request 3";
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

  /// Whether the next line is a flag (`--...`).
  bool atFlag() const { return Pos < S.size() && S.substr(Pos, 2) == "--"; }

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

} // namespace

std::string relax::serializeVerifyRequest(const VerifyWireRequest &R) {
  const VerifyWireRequest Default;
  std::string Out;
  putLine(Out, VerifyRequestMagic);
  // A knob at its default is left out; a negative timeout means none.
  auto Put = [&](bool Set, const std::string &Flag) {
    if (Set)
      putLine(Out, Flag);
  };
  Put(R.SolverName != Default.SolverName, "--solver=" + R.SolverName);
  Put(!R.Pipeline.empty(), "--pipeline=" + R.Pipeline);
  Put(R.BoundedSteps != Default.BoundedSteps,
      "--bounded-steps=" + std::to_string(R.BoundedSteps));
  Put(R.Jobs != Default.Jobs, "--jobs=" + std::to_string(R.Jobs));
  Put(R.TimeoutMs >= 0, "--timeout-ms=" + std::to_string(R.TimeoutMs));
  Put(R.VcTimeoutMs >= 0, "--vc-timeout-ms=" + std::to_string(R.VcTimeoutMs));
  Put(R.NoSafety, "--no-safety");
  Put(R.OriginalOnly, "--original-only");
  Put(R.Verbose, "--verbose");
  Put(R.SolverStats, "--solver-stats");
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
  // One CLI flag a line, checked as the CLI checks it.
  while (C.atFlag() && C.line(L))
    if (Status S = parseVerifyFlag(L, R); !S.ok())
      return Bad(S.message());
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
  if (!C.line(L) || L.rfind("status ", 0) != 0)
    return Bad("missing 'status' line");
  std::string_view V = L.substr(std::strlen("status "));
  size_t Sp = V.find(' ');
  if (Sp == std::string_view::npos)
    return Bad("bad 'status' line '" + std::string(L) + "'");
  uint64_t N = 0;
  if (!parseDecimal(V.substr(0, Sp), N) || N > 3)
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

/// The `--solver-stats` block of a run over the tier chain \p Tiers. The
/// per-pass wall times live here, not in the report body, so a report is
/// a deterministic function of the program and its configuration.
std::string renderSolverStats(const std::vector<TierKind> &Tiers,
                              const DischargeStats &S,
                              const PersistentCache *PCache,
                              const VerifyReport &Report) {
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
  // The passes run |-o first, then |-r (absent under --original-only).
  appendf(Out, "  scheduler: %llu stolen tasks", U(S.StolenTasks));
  const char *Passes[] = {"|-o", "|-r"};
  for (size_t I = 0; I != S.PassSlots.size() && I != 2; ++I)
    appendf(Out, "%s %s %u", I ? "," : ", slots", Passes[I], S.PassSlots[I]);
  Out += "\n";
  const SolverContextStats &C = S.Portfolio.Contexts;
  appendf(Out, "  z3 contexts: %llu built in %.1f ms, %llu leased\n",
          U(C.Built), C.BuildMillis, U(C.Leased));
  appendf(Out, "  pass times: |-o %.1f ms, |-r %.1f ms\n",
          Report.Original.TotalMillis, Report.Relaxed.TotalMillis);
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

/// The bounded configuration of a request: the portfolio's defaults with
/// the request's quantifier-step budget. The portfolio's `bounded` tier
/// and the oracle solver `makeVerifyBackend` builds both run it, so the
/// oracle gets the tier's candidate and quantifier-step budgets.
BoundedSolverOptions boundedOptionsFor(const VerifyWireRequest &R) {
  BoundedSolverOptions BO = PortfolioOptions().Bounded;
  BO.MaxQuantSteps = R.BoundedSteps;
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
                                    DischargePool *Pool,
                                    Z3ContextPool *Contexts) {
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
  // VerifyServer.h for why a warm AstContext would break report
  // identity (a warm Z3 context does not).
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
    VO.SmtFactory = [&Ctx, Contexts] {
      return std::make_unique<Z3Solver>(Ctx.symbols(), Z3SolverOptions(),
                                        Contexts);
    };
  VO.PCache = PCache;

  Job.Verdicts = V.run(VO);
  if (Diags.hasErrors())
    Job.Diagnostics = Diags.render();
  Job.Report = renderReport(Job.Verdicts, Ctx.symbols(), Req.Verbose);
  if (Req.SolverStats) {
    Job.Report +=
        renderSolverStats(VO.Portfolio->Tiers, Stats, PCache, Job.Verdicts);
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
  Result<SocketListener> L = SocketListener::bind(O.Address);
  if (!L.ok())
    return R::error(L.message());
  std::unique_ptr<VerifyServer> S(new VerifyServer());
  S->Opts = std::move(O);
  S->Listener = std::move(*L);
  S->Contexts = std::make_unique<Z3ContextPool>(S->Opts.MaxConnections);
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
  // a served request may not name one: the daemon runs no worker pool.
  Result<std::vector<TierKind>> Tiers = parsePipelineSpec(Req->Pipeline);
  if (Tiers.ok() && Tiers->back() == TierKind::Shard) {
    Refusal.Error = "a served verify request cannot run a shard tier (the "
                    "daemon runs no worker pool)";
    return Refusal;
  }
  // Clamp the request deadline to the server's cap so one client cannot
  // pin a handler thread forever.
  if (Opts.MaxRequestTimeoutMs >= 0 &&
      (Req->TimeoutMs < 0 || Req->TimeoutMs > Opts.MaxRequestTimeoutMs))
    Req->TimeoutMs = Opts.MaxRequestTimeoutMs;
  PersistentCache *PC = cacheFor(verifyJobFingerprint(*Req));
  VerifyWireResponse Resp = runVerifyJob(*Req, PC, nullptr, Contexts.get());
  if (PC && !Opts.CacheDir.empty()) {
    if (Status S = PC->flush(); !S.ok())
      std::fprintf(stderr,
                   "relaxc: warning: persistent cache not saved: %s\n",
                   S.message().c_str());
  }
  return Resp;
}

void VerifyServer::serveConnection(std::shared_ptr<Transport> Conn) {
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
    // Every frame is a verify request; anything else fails its parse and
    // is refused with status 2 on a connection that stays open.
    if (!Conn->send(serializeVerifyResponse(handleVerify(F.Payload))).ok())
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
