//===- main.cpp - The relaxc command-line tool --------------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// relaxc <command> <file.rlx> [options]
///
/// Commands:
///   verify    run sema + |-o + |-r and report the verification verdict
///   run       execute one dynamic semantics with a chosen oracle
///   monitor   run original/relaxed pairs and check the paper's theorems
///   dump-vcs  print every generated verification condition
///   print     parse and pretty-print (round-trip check)
///
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "eval/PairRunner.h"
#include "parser/Parser.h"
#include "server/VerifyServer.h"
#include "solver/Portfolio.h"
#include "solver/ShardPool.h"
#include "solver/Z3Solver.h"
#include "support/FaultInjection.h"
#include "support/HugePageHeap.h"
#include "support/IntMath.h"
#include "support/PersistentCache.h"
#include "support/Subprocess.h"
#include "support/Transport.h"
#include "vcgen/Verifier.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <signal.h>
#include <unistd.h>

using namespace relax;

namespace {

struct CliOptions {
  std::string Command;
  /// The input file (FileName) and every verify knob, exactly as the
  /// verify session runs them and `--connect=` ships them. `run`,
  /// `monitor` and `dump-vcs` read the knobs they share with `verify`
  /// (the solver, --no-safety) from here too.
  VerifyWireRequest Verify;
  std::string OracleName = "solver";
  std::string Semantics = "relaxed";
  /// Obligation id ("o:3" / "r:5") to explain after a verify run.
  std::string Explain;
  uint64_t Seed = 1;
  unsigned Runs = 16;
  /// Worker processes of the sharded discharge tier (0 = in-process).
  unsigned Shards = 0;
  /// Daemon address for client mode (`--connect=<addr>`): ship the file
  /// to a `--serve` daemon instead of verifying locally.
  std::string Connect;
  /// This executable's path — respawned as the shard workers.
  std::string ExePath;
  size_t ArrayLen = 8;
  /// Directory of the persistent verdict cache ("" = off).
  std::string CacheDir;
  /// Verify-on-hit sampling rate in parts per million (0 = off).
  uint64_t CacheVerifyPpm = 0;
  bool CacheVerifySet = false; ///< --cache-verify= was passed explicitly
  bool SmtLib = false;
};

/// The CLI's flags besides the verify knobs (`verifyFlags()`).
const std::vector<Flag<CliOptions>> &cliFlags() {
  using C = CliOptions;
  static const std::vector<Flag<C>> Flags = {
      {"--explain", "<o:N|r:N|proc:name>",
       "after `verify`, print obligation N of\nthe |-o / |-r pass "
       "(provenance, formula,\nand which tier settled it), or list "
       "every\nobligation of one procedure's summaries",
       [](const FlagArg &A, C &O) { return A.text(O.Explain); }},
      {"--oracle", "<solver|random|identity>",
       "havoc/relax resolution strategy of `run`\n(default solver)",
       [](const FlagArg &A, C &O) {
         return A.choice(O.OracleName, "oracle",
                         {"solver", "random", "identity"});
       }},
      {"--semantics", "<original|relaxed>", "for `run` (default relaxed)",
       [](const FlagArg &A, C &O) {
         return A.choice(O.Semantics, "semantics", {"original", "relaxed"});
       }},
      {"--seed", "<n>", "oracle randomness seed (default 1)",
       [](const FlagArg &A, C &O) {
         return A.decimal(O.Seed, "a decimal seed");
       }},
      {"--runs", "<n>", "pair runs for `monitor` (default 16)",
       [](const FlagArg &A, C &O) {
         return A.decimal(O.Runs, "a decimal run count");
       }},
      {"--array-len", "<n>", "initial array length (default 8)",
       [](const FlagArg &A, C &O) {
         return A.decimal(O.ArrayLen, "a decimal length", UINT32_MAX);
       }},
      {"--shards", "<n>",
       "discharge escalated obligations on <n> worker\nprocesses: the "
       "pipeline's final tier becomes a\n`shard` tier backed by a pool of "
       "subprocesses,\neach with its own AST and solver contexts\n"
       "(verdicts are identical to --shards=0)",
       [](const FlagArg &A, C &O) {
         return A.decimal(O.Shards,
                          "a decimal worker count <= 256; 0 = in-process",
                          256);
       }},
      {"--connect", "<addr>",
       "verify via a `relaxc --serve=<addr>` daemon:\nship the file, print "
       "the served report,\nexit with the served status",
       [](const FlagArg &A, C &O) {
         return A.nonEmpty(O.Connect, "unix:<path> or host:port");
       }},
      {"--cache-dir", "<dir>",
       "persistent verdict cache for `verify`: settled\nobligations are "
       "reused across runs (content-\naddressed by printed formula, var "
       "kinds, and\npipeline config; deadline and gave-up\nverdicts are "
       "never stored); a refutation keeps\nits counterexample, so a warm "
       "run prints what\nthe cold run printed",
       [](const FlagArg &A, C &O) {
         return A.nonEmpty(O.CacheDir, "a directory path");
       }},
      {"--cache-verify", "<ppm>",
       "re-discharge a deterministic sample of cache\nhits (parts per "
       "million of lookups) and\nhard-fail on any divergence; "
       "requires\n--cache-dir=",
       [](const FlagArg &A, C &O) {
         O.CacheVerifySet = true;
         return A.decimal(O.CacheVerifyPpm,
                          "a parts-per-million rate <= 1000000", 1'000'000);
       }},
      {"--smtlib", nullptr, "dump-vcs: emit SMT-LIB 2 scripts",
       [](const FlagArg &A, C &O) { return A.on(O.SmtLib); }},
  };
  return Flags;
}

/// The daemon's flags (`relaxc --serve=<addr> [flags]`).
const std::vector<Flag<VerifyServerOptions>> &serveFlags() {
  using S = VerifyServerOptions;
  static const std::vector<Flag<S>> Flags = {
      {"--cache-dir", "<dir>",
       "the persistent verdict cache of every request,\nshared with "
       "`verify --cache-dir=<dir>` runs\n(default: in memory only)",
       [](const FlagArg &A, S &O) {
         return A.nonEmpty(O.CacheDir, "a directory path");
       }},
      {"--serve-threads", "<n>",
       "concurrent connections, 1..1024 (default 8);\na connection past "
       "them is refused retryably",
       [](const FlagArg &A, S &O) {
         return A.decimal(O.MaxConnections, "1..1024", 1024, /*Min=*/1);
       }},
      {"--serve-frame-timeout-ms", "<n>",
       "whole-frame read budget once a request's\nfirst byte arrives "
       "(default 30000)",
       [](const FlagArg &A, S &O) {
         return A.decimal(O.FrameReadTimeoutMs,
                          "a decimal millisecond count <= 2147483647");
       }},
      {"--serve-max-request-ms", "<n>",
       "cap on every request's --timeout-ms=; a\nrequest without one gets "
       "the cap (default none)",
       [](const FlagArg &A, S &O) {
         return A.decimal(O.MaxRequestTimeoutMs,
                          "a decimal millisecond count");
       }},
  };
  return Flags;
}

/// One usage section: each flag of \p Flags and its help text.
template <typename T>
void printFlags(const char *Title, const std::vector<Flag<T>> &Flags) {
  const std::string Indent = "\n" + std::string(28, ' ');
  std::fprintf(stderr, "\n%s:\n", Title);
  for (const Flag<T> &F : Flags) {
    std::string Line = std::string("  ") + F.Name;
    if (F.Metavar)
      Line += std::string("=") + F.Metavar;
    Line += Line.size() < 28 ? std::string(28 - Line.size(), ' ') : Indent;
    for (const char *C = F.Help; *C; ++C)
      Line += *C == '\n' ? Indent : std::string(1, *C);
    std::fprintf(stderr, "%s\n", Line.c_str());
  }
}

void printUsage() {
  std::fprintf(
      stderr,
      "usage: relaxc <verify|run|monitor|dump-vcs|print> <file.rlx> "
      "[options]\n"
      "       relaxc --serve=<addr> [daemon options]\n"
      "\n"
      "--serve=<addr> runs the verification daemon on unix:<path> or\n"
      "host:port; it serves `verify --connect=<addr>` clients.\n"
      "--discharge-worker is the worker process behind --shards=.\n");
  printFlags("verify options (--connect= ships them to the daemon)",
             verifyFlags());
  printFlags("options", cliFlags());
  printFlags("daemon options", serveFlags());
  std::fprintf(
      stderr,
      "\n"
      "verify exit codes: 0 verified; 1 at least one obligation refuted;\n"
      "2 usage/parse/static error; 3 not verified but nothing refuted\n"
      "(solver gave up or errored)\n");
}

/// Prints a failed \p S as relaxc's error line; true when it failed.
bool reportError(const Status &S) {
  if (!S.ok())
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
  return !S.ok();
}

/// `--faults=<spec>`: hidden, and every mode's — deterministic fault
/// injection for the chaos suite (support/FaultInjection.h), exported as
/// RELAXC_FAULTS so shard workers inherit it.
Status armFaults(std::string_view Spec) {
  std::string Text(Spec);
  if (Status S = FaultRegistry::instance().arm(Text); !S.ok())
    return S;
  ::setenv("RELAXC_FAULTS", Text.c_str(), 1);
  return Status::success();
}

/// Parses the flags Argv[First..] of one mode: `--faults=`, else \p Set,
/// the mode's own flags. Diagnoses the first bad one.
template <typename SetFn>
bool parseFlags(int Argc, char **Argv, int First, SetFn Set) {
  for (int I = First; I < Argc; ++I) {
    FlagArg A(Argv[I]);
    if (reportError(A.spells("--faults", /*Valued=*/true)
                        ? armFaults(A.value())
                        : Set(A)))
      return false;
  }
  return true;
}

/// The CLI grammar's checks that span flags.
Status checkCliOptions(const CliOptions &Opts) {
  if (Opts.CacheVerifySet && Opts.CacheDir.empty())
    return Status::error("--cache-verify= requires --cache-dir= (there is no "
                         "cache to audit without one)");
  if (Opts.Connect.empty())
    return Status::success();
  if (Opts.Command != "verify")
    return Status::error("--connect= only applies to `verify`");
  if (Opts.Shards > 0)
    return Status::error("--connect= ships the whole job to the daemon, "
                         "which runs no worker pool; drop --shards=");
  if (!Opts.CacheDir.empty())
    return Status::error("--cache-dir= does not combine with --connect= (the "
                         "cache lives in the daemon; pass it to --serve=)");
  if (!Opts.Explain.empty())
    return Status::error("--explain= is not available over --connect=");
  return Status::success();
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.Verify.FileName = Argv[2];
  return parseFlags(Argc, Argv, 3,
                    [&](FlagArg &A) {
                      const Flag<CliOptions> *F = A.find(cliFlags());
                      return F ? F->Set(A, Opts)
                               : parseVerifyFlag(A.arg(), Opts.Verify);
                    }) &&
         !reportError(checkCliOptions(Opts));
}

std::unique_ptr<Oracle> makeOracle(const CliOptions &Opts, AstContext &Ctx,
                                   Solver &S) {
  if (Opts.OracleName == "identity")
    return std::make_unique<IdentityOracle>();
  if (Opts.OracleName == "random") {
    RandomSearchOracle::Options O;
    O.Seed = Opts.Seed;
    return std::make_unique<RandomSearchOracle>(O);
  }
  SolverOracle::Options O;
  O.Seed = Opts.Seed;
  return std::make_unique<SolverOracle>(Ctx, S, O);
}

void printOutcome(const Interner &Syms, const char *Title, const Outcome &O) {
  std::printf("%s: %s", Title, outcomeKindName(O.Kind));
  if (O.ok())
    std::printf(", final state %s, %zu observation(s)\n",
                formatState(Syms, O.FinalState).c_str(),
                O.Observations.size());
  else
    std::printf(" at line %u: %s\n", O.ErrorLoc.Line, O.Reason.c_str());
}

/// The `--solver-stats` lines of the worker pool: requests served per
/// worker, respawns, and health.
void printPoolStats(const ShardPool &Pool) {
  PoolStats PS = Pool.stats();
  std::printf("  shard pool: %u workers, %llu requests, %llu respawns; served",
              Pool.shardCount(), static_cast<unsigned long long>(PS.Requests),
              static_cast<unsigned long long>(PS.Respawns));
  for (uint64_t N : PS.PerWorker)
    std::printf(" %llu", static_cast<unsigned long long>(N));
  std::printf("\n");
  if (PS.Failures > 0 || PS.Quarantines > 0)
    std::printf("  shard health: %llu failed attempt(s), %llu "
                "quarantine(s)\n",
                static_cast<unsigned long long>(PS.Failures),
                static_cast<unsigned long long>(PS.Quarantines));
  if (PS.Degraded || PS.DegradedFallbacks > 0)
    std::printf("  shard pool degraded: %llu request(s) answered by "
                "the in-process tail\n",
                static_cast<unsigned long long>(PS.DegradedFallbacks));
}

/// Lists every obligation of one procedure's summary verifications
/// (`--explain=proc:<name>`). Returns false (usage-error discipline) when
/// the name is empty or names no obligation of this run.
bool printExplainProc(const VerifyReport &Report, const std::string &Name) {
  if (Name.empty()) {
    std::fprintf(stderr, "relaxc: error: bad --explain filter: empty "
                         "procedure name (expected proc:<name>)\n");
    return false;
  }
  size_t Shown = 0;
  auto DumpPass = [&](const JudgmentReport &Pass, char Prefix) {
    for (const VCOutcome &O : Pass.Outcomes) {
      if (O.Condition.Proc != Name)
        continue;
      ++Shown;
      std::printf("  [%s] %c:%u %s (%s)", vcStatusName(O.Status), Prefix,
                  O.Condition.Id, O.Condition.Rule.c_str(),
                  judgmentKindName(O.Condition.Judgment));
      if (O.Condition.Loc.isValid())
        std::printf(" at line %u", O.Condition.Loc.Line);
      std::printf(": %s\n", O.Condition.Description.c_str());
    }
  };
  std::printf("== obligations of procedure '%s' ==\n", Name.c_str());
  DumpPass(Report.Original, 'o');
  DumpPass(Report.Relaxed, 'r');
  if (Shown == 0) {
    std::fprintf(stderr,
                 "relaxc: error: no obligations for procedure '%s' in "
                 "this run\n",
                 Name.c_str());
    return false;
  }
  std::printf("  %zu obligation(s)\n", Shown);
  return true;
}

/// Prints one obligation's provenance and how it was settled
/// (`--explain=<o:N|r:N>`), or a per-procedure listing for
/// `--explain=proc:<name>`. Returns false when the id does not parse or
/// name an obligation of this run.
bool printExplain(const VerifyReport &Report, const std::string &Id,
                  const AstContext &Ctx) {
  if (Id.rfind("proc:", 0) == 0)
    return printExplainProc(Report, Id.substr(5));
  const JudgmentReport *Pass = nullptr;
  const char *PassName = nullptr;
  uint64_t N = 0;
  if (Id.size() > 2 && Id[1] == ':' && (Id[0] == 'o' || Id[0] == 'r') &&
      parseDecimal(Id.c_str() + 2, N)) {
    Pass = Id[0] == 'o' ? &Report.Original : &Report.Relaxed;
    PassName = Id[0] == 'o' ? "|-o" : "|-r";
  }
  if (!Pass) {
    std::fprintf(stderr,
                 "relaxc: error: bad --explain id '%s' (expected o:<n>, "
                 "r:<n>, or proc:<name>)\n",
                 Id.c_str());
    return false;
  }
  const VCOutcome *Found = nullptr;
  for (const VCOutcome &O : Pass->Outcomes)
    if (O.Condition.Id == N) {
      Found = &O;
      break;
    }
  if (!Found) {
    std::fprintf(stderr,
                 "relaxc: error: no obligation %s in the %s pass "
                 "(%zu obligations)\n",
                 Id.c_str(), PassName, Pass->Outcomes.size());
    return false;
  }
  const VC &C = Found->Condition;
  Printer P(Ctx.symbols());
  std::printf("== obligation %s ==\n", Id.c_str());
  std::printf("  judgment:    %s (%s pass)\n", judgmentKindName(C.Judgment),
              PassName);
  std::printf("  rule:        %s (%s obligation)\n", C.Rule.c_str(),
              C.Kind == VCKind::Validity ? "validity" : "satisfiability");
  if (!C.Proc.empty())
    std::printf("  procedure:   %s\n", C.Proc.c_str());
  if (C.Loc.isValid())
    std::printf("  source:      line %u\n", C.Loc.Line);
  std::printf("  description: %s\n", C.Description.c_str());
  if (C.Origin)
    std::printf("  origin statement:\n%s",
                P.print(C.Origin, /*Indent=*/4).c_str());
  else
    std::printf("  origin statement: (whole-triple obligation)\n");
  if (C.SimplifyTraceId)
    std::printf("  simplify trace: rewrite #%u of this generator run\n",
                C.SimplifyTraceId);
  else
    std::printf("  simplify trace: formula emitted verbatim\n");
  std::printf("  formula:     %s\n", P.print(C.Formula).c_str());
  std::printf("  status:      %s", vcStatusName(Found->Status));
  if (!Found->SettledBy.empty())
    std::printf(" — settled by %s", Found->SettledBy.c_str());
  std::printf(" (%.2f ms)\n", Found->Millis);
  if (!Found->Detail.empty())
    std::printf("  detail:      %s\n", Found->Detail.c_str());
  if (!Found->Trail.empty())
    std::printf("  escalation trail: %s\n", Found->Trail.c_str());
  std::printf("  bounded conflicts: %llu\n",
              static_cast<unsigned long long>(Found->BoundedConflicts));
  return true;
}

//===----------------------------------------------------------------------===//
// The hidden --discharge-worker mode: one shard of the out-of-process
// discharge tier. Reads length-prefixed requests (wire format in
// solver/ShardPool.h) from stdin, rebuilds each query in its own
// AstContext through the ordinary parser, and writes the verdict frame
// to stdout. Any framing error is answered with a diagnosed error frame
// (never a hang or crash) and ends the worker, since the stream position
// is unrecoverable.
//===----------------------------------------------------------------------===//

/// Persistent across the requests of one worker process: the context's
/// hash-cons tables, compiled formula programs, and Z3 term memos
/// amortize over the obligations one shard serves. Rebuilt when a
/// request changes the solver configuration. Safe to keep warm — shard
/// queries never run VC generation, so the verify session's fresh-context
/// rule (server/VerifyServer.h) does not apply to this state.
struct ShardWorkerState {
  std::string ConfigKey;
  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<PortfolioSolver> Port;
};

/// Answers one shard discharge request (every malformed payload becomes
/// a diagnosed error response, never a crash).
ShardResponse serveShardRequest(ShardWorkerState &W,
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
  if (Req->WantModel && *R == SatResult::Sat)
    Resp.Model = wireModelOf(Mod, W.Ctx->symbols());
  return Resp;
}

/// Serves shard requests on stdin/stdout until the pool closes the pipe:
/// exit 0 on a clean EOF, 2 after a framing error or a failed response
/// write.
int runDischargeWorker() {
  ShardWorkerState W;
  PipeTransport Stdio(/*ReadFd=*/0, /*WriteFd=*/1, /*OwnsFds=*/false);
  for (;;) {
    FrameRead F = Stdio.recvMs(-1);
    if (F.eof())
      return 0;
    if (!F.ok()) {
      // Truncated or garbage input: answer with a diagnosed error frame
      // (best effort) and give up the channel — continuing could
      // mis-pair requests with responses.
      ShardResponse Resp;
      Resp.IsError = true;
      Resp.Error = "frame error: " + F.Message;
      (void)Stdio.send(serializeShardResponse(Resp));
      std::fprintf(stderr, "relaxc: discharge worker: %s\n",
                   F.Message.c_str());
      return 2;
    }
    // Chaos-suite crash site: die instead of answering, alternating
    // between vanishing silently and dying mid-frame (garbage partial
    // header bytes on the channel) — the two shapes a real worker crash
    // has from the pool's point of view. Parity of the draw index (how
    // many requests this worker saw) picks the shape; firedCount is
    // always 1 here because a worker dies on its first fire.
    if (FaultRegistry::shouldFail(FaultSite::WorkerExit)) {
      if (FaultRegistry::instance().drawCount(FaultSite::WorkerExit) % 2 == 1)
        (void)!::write(STDOUT_FILENO, "RLXF\xff\xff", 6);
      ::_exit(3);
    }
    ShardResponse Resp = serveShardRequest(W, F.Payload);
    if (FaultRegistry::shouldFail(FaultSite::ResponseDelay))
      std::this_thread::sleep_for(std::chrono::milliseconds(
          FaultRegistry::instance().delayMs()));
    if (!Stdio.send(serializeShardResponse(Resp)).ok())
      return 2; // the pool went away mid-response
  }
}

/// The daemon SIGTERM and SIGINT stop while it serves.
std::atomic<VerifyServer *> ServingDaemon{nullptr};

void stopServing(int) {
  if (VerifyServer *S = ServingDaemon.load())
    S->requestStop();
}

/// `--serve=<addr>` (as the first argument): the verification daemon.
/// SIGTERM and SIGINT drain it: requests in flight get their responses,
/// then it exits 0 and removes its Unix socket.
int runServe(VerifyServerOptions SO) {
  Result<std::unique_ptr<VerifyServer>> S = VerifyServer::create(std::move(SO));
  if (!S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
  ServingDaemon.store(S->get());
  struct sigaction Stop = {};
  Stop.sa_handler = stopServing;
  Stop.sa_flags = SA_RESTART;
  sigemptyset(&Stop.sa_mask);
  ::sigaction(SIGTERM, &Stop, nullptr);
  ::sigaction(SIGINT, &Stop, nullptr);
  // Readiness line: scripts poll for it and read the resolved address
  // (TCP port 0 becomes the real ephemeral port here).
  std::printf("relaxc: serving on %s\n", (*S)->boundAddress().c_str());
  std::fflush(stdout);
  int RC = (*S)->run();
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  ServingDaemon.store(nullptr);
  return RC;
}

/// `verify <file> --connect=<addr>`: the thin client. Ships the file's
/// bytes plus the configuration, prints the daemon's streams, and exits
/// with its status. A capacity refusal (retryable) is retried with
/// backoff.
int runConnectVerify(const CliOptions &Opts) {
  const std::string Wire = serializeVerifyRequest(Opts.Verify);

  for (int Attempt = 0;; ++Attempt) {
    Result<std::unique_ptr<Transport>> C =
        connectSocket(Opts.Connect, /*TimeoutMs=*/10'000);
    if (!C.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", C.message().c_str());
      return 2;
    }
    // A daemon at capacity writes its retryable refusal and closes
    // without reading the request, so this send can hit EPIPE with the
    // refusal still buffered on our side. Fall through to the read
    // instead of bailing on a send failure.
    std::string SendError;
    if (Status S = (*C)->send(Wire); !S.ok())
      SendError = S.message();
    // The daemon enforces the request deadline; the client waits it out
    // (plus slack for queueing) rather than racing it with its own.
    FrameRead F = (*C)->recvMs(-1);
    if (!F.ok()) {
      if (!SendError.empty() && Attempt < 40) {
        // The daemon closed before reading the request, so nothing was
        // processed and retrying is sound.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (!SendError.empty()) {
        std::fprintf(stderr, "relaxc: error: request to '%s' failed: %s\n",
                     Opts.Connect.c_str(), SendError.c_str());
        return 2;
      }
      std::fprintf(stderr,
                   "relaxc: error: no response from '%s': %s\n",
                   Opts.Connect.c_str(),
                   F.eof() ? "connection closed" : F.Message.c_str());
      return 2;
    }
    Result<VerifyWireResponse> R = parseVerifyResponse(F.Payload);
    if (!R.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", R.message().c_str());
      return 2;
    }
    if (R->IsError && R->Retryable && Attempt < 40) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (R->IsError) {
      std::fprintf(stderr, "relaxc: error: %s: %s\n", Opts.Connect.c_str(),
                   R->Error.c_str());
      return R->ExitStatus;
    }
    std::fputs(R->Diagnostics.c_str(), stderr);
    std::fputs(R->Report.c_str(), stdout);
    return R->ExitStatus;
  }
}

/// `verify <file>`: runs the verify session, with the worker pool of
/// --shards= and the --cache-dir= cache around it, and prints what the
/// session returns.
int runVerify(const CliOptions &Opts) {
  std::unique_ptr<ShardPool> Pool; // must outlive the session
  if (Opts.Shards > 0) {
    ShardPoolOptions SO;
    SO.Shards = Opts.Shards;
    SO.WorkerExe = Opts.ExePath;
    Result<std::unique_ptr<ShardPool>> PR = ShardPool::create(std::move(SO));
    if (!PR.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", PR.message().c_str());
      return 2;
    }
    Pool = std::move(*PR);
  }

  // --cache-dir=: the persistent verdict cache, fronting the scheduler's
  // shared result cache. Keys embed the configuration's fingerprint, so
  // differently configured runs never share entries.
  std::unique_ptr<PersistentCache> PCache;
  if (!Opts.CacheDir.empty()) {
    PCache = std::make_unique<PersistentCache>(
        Opts.CacheDir, verifyJobFingerprint(Opts.Verify), Opts.CacheVerifyPpm);
    PCache->load();
  }

  VerifyJobResult Job = runVerifyJob(Opts.Verify, PCache.get(), Pool.get());
  if (Job.IsError) {
    std::fprintf(stderr, "relaxc: error: %s\n", Job.Error.c_str());
    return Job.ExitStatus;
  }
  // A cache that cannot be saved costs the next run solver time, never
  // this run its verdict.
  if (PCache)
    if (Status S = PCache->flush(); !S.ok())
      std::fprintf(stderr, "relaxc: warning: persistent cache not saved: "
                   "%s\n", S.message().c_str());
  std::fputs(Job.Diagnostics.c_str(), stderr);
  std::fputs(Job.Report.c_str(), stdout);
  if (Opts.Verify.SolverStats && Pool)
    printPoolStats(*Pool);
  if (Job.Ctx && !Opts.Explain.empty() &&
      !printExplain(Job.Verdicts, Opts.Explain, *Job.Ctx))
    return 2;
  return Job.ExitStatus;
}

int runExecute(const CliOptions &Opts, AstContext &Ctx, Program &Prog,
               DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  std::unique_ptr<Solver> Backend = makeVerifyBackend(Opts.Verify, Ctx);
  std::unique_ptr<Oracle> O = makeOracle(Opts, Ctx, *Backend);
  Interp I(Prog, Ctx.symbols(), *O);
  State Init = Interp::zeroState(Prog, Opts.ArrayLen);
  SemanticsMode Mode = Opts.Semantics == "original" ? SemanticsMode::Original
                                                    : SemanticsMode::Relaxed;
  Outcome Out = I.run(Mode, Init);
  printOutcome(Ctx.symbols(), semanticsModeName(Mode), Out);
  return Out.ok() ? 0 : 1;
}

int runMonitor(const CliOptions &Opts, AstContext &Ctx, Program &Prog,
               DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  std::unique_ptr<Solver> Backend = makeVerifyBackend(Opts.Verify, Ctx);

  RelateMap Gamma(Info->relateMap().begin(), Info->relateMap().end());
  PairRunner Runner(Prog, Ctx.symbols(), Gamma);

  unsigned CompatOk = 0, CompatBad = 0, OrigErr = 0, RelErr = 0, Stuck = 0;
  for (unsigned RunIdx = 0; RunIdx != Opts.Runs; ++RunIdx) {
    SolverOracle::Options OO;
    OO.Seed = Opts.Seed + RunIdx;
    SolverOracle OrigOracle(Ctx, *Backend, OO);
    SolverOracle::Options RO;
    RO.Seed = Opts.Seed + 7919 * (RunIdx + 1);
    SolverOracle RelOracle(Ctx, *Backend, RO);
    Result<State> Init = randomInitialState(Ctx, Prog, *Backend,
                                            Opts.Seed + 31 * RunIdx,
                                            Opts.ArrayLen);
    if (!Init.ok()) {
      std::fprintf(stderr, "run %u: %s\n", RunIdx, Init.message().c_str());
      ++Stuck;
      continue;
    }
    PairOutcome P = Runner.run(*Init, OrigOracle, RelOracle);
    if (P.Orig.Kind == OutcomeKind::Stuck ||
        P.Rel.Kind == OutcomeKind::Stuck) {
      ++Stuck;
      continue;
    }
    OrigErr += P.origErred() ? 1 : 0;
    RelErr += P.relErred() ? 1 : 0;
    if (P.Orig.ok() && P.Rel.ok()) {
      if (P.Compat.Compatible)
        ++CompatOk;
      else {
        ++CompatBad;
        std::printf("run %u: INCOMPATIBLE — %s\n", RunIdx,
                    P.Compat.Reason.c_str());
      }
    }
  }
  std::printf("monitor: %u runs, %u compatible pairs, %u incompatible, "
              "%u original errors, %u relaxed errors, %u stuck\n",
              Opts.Runs, CompatOk, CompatBad, OrigErr, RelErr, Stuck);
  return CompatBad == 0 ? 0 : 1;
}

int runDumpVCs(const CliOptions &Opts, AstContext &Ctx, Program &Prog,
               DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  VCGenOptions GO;
  GO.CheckSafety = !Opts.Verify.NoSafety;
  Printer P(Ctx.symbols());
  // The Verifier's own passes, so dumped ids match `--explain`.
  VCSet OSet =
      Verifier::passVCs(Ctx, Prog, *Info, JudgmentKind::Original, Diags, GO);
  VCSet RSet =
      Verifier::passVCs(Ctx, Prog, *Info, JudgmentKind::Relaxed, Diags, GO);

  Z3Solver SmtPrinter(Ctx.symbols());
  auto Dump = [&](const char *Title, const VCSet &Set) -> Status {
    std::printf("== %s: %zu VCs ==\n", Title, Set.VCs.size());
    for (const VC &C : Set.VCs) {
      // Validity VCs are emitted negated, so `unsat` means proved — the
      // conventional SMT-LIB phrasing of a proof obligation. A build
      // without Z3 has no printer: that is an error, not an empty dump.
      Result<std::string> Script = std::string();
      if (Opts.SmtLib)
        Script = SmtPrinter.toSmtLib(
            {C.Kind == VCKind::Validity ? Ctx.notExpr(C.Formula) : C.Formula});
      if (!Script.ok())
        return Script.status();
      std::string ProcPrefix =
          !C.Proc.empty() && C.Proc != "main" ? C.Proc + ": " : "";
      std::printf("[%s/%s] %s%s (line %u): %s\n  %s\n",
                  judgmentKindName(C.Judgment),
                  C.Kind == VCKind::Validity ? "valid" : "sat",
                  ProcPrefix.c_str(), C.Rule.c_str(), C.Loc.Line,
                  C.Description.c_str(), P.print(C.Formula).c_str());
      if (Opts.SmtLib)
        std::printf("  ; SMT-LIB (%s expected)\n%s\n",
                    C.Kind == VCKind::Validity ? "unsat" : "sat",
                    Script->c_str());
    }
    return Status::success();
  };
  Status S = Dump("|-o", OSet);
  return reportError(S.ok() ? Dump("|-r", RSet) : S) ? 2 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // First, before anything allocates: the first Z3 context's tables land
  // on huge pages (support/HugePageHeap.h).
  reserveHugePageHeap();
  // A peer vanishing mid-write (a dead shard worker, a closed pool) must
  // surface as a diagnosed EPIPE from the framing layer, not kill the
  // process. The pool ignores SIGPIPE again at creation (belt and
  // braces); this covers the worker side and every other write path.
  ::signal(SIGPIPE, SIG_IGN);
  if (reportError(FaultRegistry::instance().armFromEnvironment()))
    return 2;

  // The two modes without a file, dispatched before the regular grammar:
  // the verification daemon, `relaxc --serve=<addr> [daemon flags]`, and
  // the hidden worker of the sharded discharge tier, which takes only
  // --faults= (tests arm workers through the pool's WorkerArgs).
  FlagArg Mode(Argc >= 2 ? Argv[1] : "");
  if (Mode.spells("--serve", /*Valued=*/true)) {
    VerifyServerOptions SO;
    if (reportError(Mode.nonEmpty(SO.Address, "unix:<path> or host:port")) ||
        !parseFlags(Argc, Argv, 2, [&](FlagArg &A) {
          const Flag<VerifyServerOptions> *F = A.find(serveFlags());
          return F ? F->Set(A, SO) : A.unknown("--serve ");
        }))
      return 2;
    return runServe(std::move(SO));
  }
  if (Mode.spells("--discharge-worker", /*Valued=*/false)) {
    if (!parseFlags(Argc, Argv, 2, [](FlagArg &A) {
          return A.unknown("--discharge-worker ");
        }))
      return 2;
    return runDischargeWorker();
  }

  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    printUsage();
    return 2;
  }
  Opts.ExePath = currentExecutablePath(Argv[0]);

  SourceManager SM;
  if (reportError(SM.loadFile(Opts.Verify.FileName)))
    return 2;
  // `verify` parses inside the session — in the daemon for a --connect=
  // client — so each run parses its program exactly once.
  if (Opts.Command == "verify") {
    Opts.Verify.Source = SM.buffer();
    return Opts.Connect.empty() ? runVerify(Opts) : runConnectVerify(Opts);
  }

  DiagnosticEngine Diags;
  Diags.setFileName(Opts.Verify.FileName);
  AstContext Ctx;
  Parser P(Ctx, SM, Diags);
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 2;
  }

  if (Opts.Command == "run")
    return runExecute(Opts, Ctx, *Prog, Diags);
  if (Opts.Command == "monitor")
    return runMonitor(Opts, Ctx, *Prog, Diags);
  if (Opts.Command == "dump-vcs")
    return runDumpVCs(Opts, Ctx, *Prog, Diags);
  if (Opts.Command == "print") {
    Printer Pr(Ctx.symbols());
    std::printf("%s", Pr.print(*Prog).c_str());
    return 0;
  }
  printUsage();
  return 2;
}
