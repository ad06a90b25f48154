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
#include "solver/RemotePool.h"
#include "solver/ShardPool.h"
#include "solver/Z3Solver.h"
#include "support/FaultInjection.h"
#include "support/PersistentCache.h"
#include "support/Subprocess.h"
#include "support/Transport.h"
#include "vcgen/Verifier.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
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
  /// Remote discharge worker endpoints (`--remote-workers=host:port,...`);
  /// empty = none. Mutually exclusive with --shards=.
  std::string RemoteWorkers;
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
  /// Hidden fault-injection spec (see support/FaultInjection.h); also
  /// exported as RELAXC_FAULTS so shard workers inherit it.
  std::string Faults;
  bool SmtLib = false;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: relaxc <verify|run|monitor|dump-vcs|print> <file.rlx> "
      "[options]\n"
      "\n"
      "options:\n"
      "  --solver=<z3|bounded>     `verify` without --pipeline= runs this\n"
      "                            one tier as its pipeline; `run` and\n"
      "                            `monitor` use it as their oracle solver\n"
      "                            (default z3)\n"
      "  --pipeline=<tier,...>     tiered portfolio discharge for `verify`\n"
      "                            (tiers: simplify, bounded, z3; e.g.\n"
      "                            --pipeline=simplify,bounded,z3). A\n"
      "                            bounded tier before z3 runs behind it:\n"
      "                            it rescues z3's unknowns and supplies\n"
      "                            failed obligations' counterexamples\n"
      "  --bounded-steps=<n>       per-query quantifier-step budget of the\n"
      "                            bounded search, as a pipeline tier and\n"
      "                            as --solver=bounded (default 200000;\n"
      "                            0 = unlimited)\n"
      "  --bounded-learning=<on|off>\n"
      "                            conflict-driven nogood learning in the\n"
      "                            bounded search (default on; verdicts\n"
      "                            are identical either way)\n"
      "  --bounded-restarts=<on|off>\n"
      "                            Luby restarts with activity-based\n"
      "                            variable ordering (default on; implies\n"
      "                            nothing unless learning is on)\n"
      "  --bounded-max-nogoods=<n> learned-nogood store cap of the bounded\n"
      "                            search (default 10000; 0 = unlimited)\n"
      "  --explain=<o:N|r:N|proc:name>\n"
      "                            after `verify`, print obligation N of\n"
      "                            the |-o / |-r pass (provenance, formula,\n"
      "                            and which tier settled it), or list every\n"
      "                            obligation of one procedure's summaries\n"
      "  --solver-stats            print per-tier settled/escalated counts,\n"
      "                            cache/work counters, and per-procedure\n"
      "                            obligation counts after `verify`\n"
      "  --oracle=<solver|random|identity>\n"
      "                            havoc/relax resolution strategy\n"
      "  --semantics=<original|relaxed>   for `run` (default relaxed)\n"
      "  --seed=<n>                oracle randomness seed (default 1)\n"
      "  --runs=<n>                pair runs for `monitor` (default 16)\n"
      "  --array-len=<n>           initial array length (default 8)\n"
      "  --timeout-ms=<n>          global wall-clock budget for `verify`;\n"
      "                            obligations past it settle as gave-ups\n"
      "                            with reason 'deadline' (exit code 3)\n"
      "  --vc-timeout-ms=<n>       per-obligation wall-clock budget\n"
      "  --jobs=<n>                parallel VC discharge workers for "
      "`verify` (default 1)\n"
      "  --solver-jobs=<n>         parallel search workers inside the "
      "bounded backend (default 1)\n"
      "  --shards=<n>              discharge escalated obligations on <n> "
      "worker\n"
      "                            processes: the pipeline's final tier "
      "becomes a\n"
      "                            `shard` tier backed by a pool of "
      "subprocesses,\n"
      "                            each with its own AST and solver "
      "contexts\n"
      "                            (verdicts are identical to --shards=0)\n"
      "  --remote-workers=<addr,...>\n"
      "                            like --shards=, but the workers are "
      "remote:\n"
      "                            one socket endpoint (host:port or\n"
      "                            unix:/path) per worker, each running\n"
      "                            `relaxc --discharge-worker "
      "--listen=<addr>`\n"
      "                            or a `--serve` daemon (verdicts are\n"
      "                            identical to the in-process chain)\n"
      "  --connect=<addr>          verify via a `relaxc --serve=<addr>` "
      "daemon:\n"
      "                            ship the file, print the served "
      "report,\n"
      "                            exit with the served status\n"
      "  --serve=<addr>            (as the first argument) run the "
      "verification\n"
      "                            daemon on unix:/path or host:port; "
      "serves\n"
      "                            --connect= clients and shard requests\n"
      "  --cache-dir=<dir>         persistent verdict cache for `verify`: "
      "settled\n"
      "                            obligations are reused across runs "
      "(content-\n"
      "                            addressed by printed formula, var kinds, "
      "and\n"
      "                            pipeline config; deadline and gave-up\n"
      "                            verdicts are never stored)\n"
      "  --cache-verify=<ppm>      re-discharge a deterministic sample of "
      "cache\n"
      "                            hits (parts per million of lookups) and\n"
      "                            hard-fail on any divergence; requires\n"
      "                            --cache-dir=\n"
      "  --no-safety               skip division/bounds trap obligations\n"
      "  --original-only           verify only the |-o judgment\n"
      "  --smtlib                  dump-vcs: emit SMT-LIB 2 scripts\n"
      "  --verbose                 print every VC, not just failures\n"
      "\n"
      "verify exit codes: 0 verified; 1 at least one obligation refuted;\n"
      "2 usage/parse/static error; 3 not verified but nothing refuted\n"
      "(solver gave up or errored)\n");
}

/// Strict decimal parse: the whole string must be digits. strtoull alone
/// maps garbage to 0, which for budget flags silently means "unlimited" —
/// the exact failure the flag exists to prevent.
bool parseUnsigned(const char *V, uint64_t &Out) {
  // strtoull alone is too forgiving for a flag value: it skips leading
  // whitespace, accepts (and silently negates) a minus sign, and wraps on
  // overflow. A decimal flag must be digits from the first character on.
  if (*V < '0' || *V > '9')
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(V, &End, 10);
  return *End == '\0' && errno != ERANGE;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.Verify.FileName = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Value("--solver=")) {
      if (!isKnownSolverName(V)) {
        std::fprintf(stderr,
                     "relaxc: error: unknown solver '%s' for --solver= "
                     "(valid choices: %s)\n",
                     V, knownSolverNamesForDiagnostics().c_str());
        return false;
      }
      Opts.Verify.SolverName = V;
    } else if (const char *V = Value("--pipeline=")) {
      Result<std::vector<TierKind>> Tiers = parsePipelineSpec(V);
      if (!Tiers.ok()) {
        std::fprintf(stderr, "relaxc: error: %s\n",
                     Tiers.message().c_str());
        return false;
      }
      Opts.Verify.Pipeline = formatPipeline(*Tiers);
    } else if (const char *V = Value("--bounded-steps=")) {
      if (!parseUnsigned(V, Opts.Verify.BoundedSteps)) {
        std::fprintf(stderr,
                     "relaxc: error: bad --bounded-steps value '%s' "
                     "(expected a decimal step count; 0 = unlimited)\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--bounded-learning=")) {
      if (std::strcmp(V, "on") != 0 && std::strcmp(V, "off") != 0) {
        std::fprintf(stderr,
                     "relaxc: error: bad --bounded-learning value '%s' "
                     "(expected on or off)\n",
                     V);
        return false;
      }
      Opts.Verify.BoundedLearning = std::strcmp(V, "on") == 0;
    } else if (const char *V = Value("--bounded-restarts=")) {
      if (std::strcmp(V, "on") != 0 && std::strcmp(V, "off") != 0) {
        std::fprintf(stderr,
                     "relaxc: error: bad --bounded-restarts value '%s' "
                     "(expected on or off)\n",
                     V);
        return false;
      }
      Opts.Verify.BoundedRestarts = std::strcmp(V, "on") == 0;
    } else if (const char *V = Value("--bounded-max-nogoods=")) {
      if (!parseUnsigned(V, Opts.Verify.BoundedMaxNogoods) ||
          Opts.Verify.BoundedMaxNogoods > UINT32_MAX) {
        std::fprintf(stderr,
                     "relaxc: error: bad --bounded-max-nogoods value '%s' "
                     "(expected a decimal nogood count; 0 = unlimited)\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--explain="))
      Opts.Explain = V;
    else if (A == "--solver-stats")
      Opts.Verify.SolverStats = true;
    else if (const char *V = Value("--oracle="))
      Opts.OracleName = V;
    else if (const char *V = Value("--semantics="))
      Opts.Semantics = V;
    else if (const char *V = Value("--seed=")) {
      // Strict, like every other numeric flag: bare strtoull mapped
      // --seed=garbage to 0 and --seed=12abc to 12, silently changing
      // which runs a reported failure reproduces.
      if (!parseUnsigned(V, Opts.Seed)) {
        std::fprintf(stderr,
                     "relaxc: error: bad --seed value '%s' (expected a "
                     "decimal seed)\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--runs=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > UINT32_MAX) {
        std::fprintf(stderr,
                     "relaxc: error: bad --runs value '%s' (expected a "
                     "decimal run count)\n",
                     V);
        return false;
      }
      Opts.Runs = static_cast<unsigned>(N);
    } else if (const char *V = Value("--array-len=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > UINT32_MAX) {
        std::fprintf(stderr,
                     "relaxc: error: bad --array-len value '%s' (expected a "
                     "decimal length)\n",
                     V);
        return false;
      }
      Opts.ArrayLen = static_cast<size_t>(N);
    } else if (const char *V = Value("--jobs=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > 1024) {
        std::fprintf(stderr,
                     "relaxc: error: bad --jobs value '%s' (expected a "
                     "decimal worker count <= 1024)\n",
                     V);
        return false;
      }
      Opts.Verify.Jobs = static_cast<unsigned>(N);
    } else if (const char *V = Value("--solver-jobs=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > 1024) {
        std::fprintf(stderr,
                     "relaxc: error: bad --solver-jobs value '%s' (expected "
                     "a decimal worker count <= 1024)\n",
                     V);
        return false;
      }
      Opts.Verify.SolverJobs = static_cast<unsigned>(N);
    } else if (const char *V = Value("--cache-dir=")) {
      if (*V == '\0') {
        std::fprintf(stderr,
                     "relaxc: error: bad --cache-dir value (expected a "
                     "directory path)\n");
        return false;
      }
      Opts.CacheDir = V;
    } else if (const char *V = Value("--cache-verify=")) {
      if (!parseUnsigned(V, Opts.CacheVerifyPpm) ||
          Opts.CacheVerifyPpm > 1'000'000) {
        std::fprintf(stderr,
                     "relaxc: error: bad --cache-verify value '%s' "
                     "(expected a parts-per-million rate <= 1000000)\n",
                     V);
        return false;
      }
      Opts.CacheVerifySet = true;
    } else if (const char *V = Value("--shards=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > 256) {
        std::fprintf(stderr,
                     "relaxc: error: bad --shards value '%s' (expected a "
                     "decimal worker count <= 256; 0 = in-process)\n",
                     V);
        return false;
      }
      Opts.Shards = static_cast<unsigned>(N);
    } else if (const char *V = Value("--remote-workers=")) {
      if (*V == '\0') {
        std::fprintf(stderr,
                     "relaxc: error: bad --remote-workers value (expected a "
                     "comma-separated endpoint list)\n");
        return false;
      }
      Opts.RemoteWorkers = V;
    } else if (const char *V = Value("--connect=")) {
      if (*V == '\0') {
        std::fprintf(stderr, "relaxc: error: bad --connect value (expected "
                             "unix:<path> or host:port)\n");
        return false;
      }
      Opts.Connect = V;
    } else if (const char *V = Value("--timeout-ms=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > uint64_t(INT64_MAX)) {
        std::fprintf(stderr,
                     "relaxc: error: bad --timeout-ms value '%s' (expected "
                     "a decimal millisecond count)\n",
                     V);
        return false;
      }
      Opts.Verify.TimeoutMs = static_cast<int64_t>(N);
    } else if (const char *V = Value("--vc-timeout-ms=")) {
      uint64_t N = 0;
      if (!parseUnsigned(V, N) || N > uint64_t(INT64_MAX)) {
        std::fprintf(stderr,
                     "relaxc: error: bad --vc-timeout-ms value '%s' "
                     "(expected a decimal millisecond count)\n",
                     V);
        return false;
      }
      Opts.Verify.VcTimeoutMs = static_cast<int64_t>(N);
    } else if (const char *V = Value("--faults=")) {
      // Hidden: deterministic fault injection for the chaos suite.
      Opts.Faults = V;
    }
    else if (A == "--verbose")
      Opts.Verify.Verbose = true;
    else if (A == "--no-safety")
      Opts.Verify.NoSafety = true;
    else if (A == "--original-only")
      Opts.Verify.OriginalOnly = true;
    else if (A == "--smtlib")
      Opts.SmtLib = true;
    else {
      std::fprintf(stderr, "relaxc: error: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  if (Opts.CacheVerifySet && Opts.CacheDir.empty()) {
    std::fprintf(stderr,
                 "relaxc: error: --cache-verify= requires --cache-dir= "
                 "(there is no cache to audit without one)\n");
    return false;
  }
  if (Opts.Shards > 0 && !Opts.RemoteWorkers.empty()) {
    std::fprintf(stderr,
                 "relaxc: error: --shards= and --remote-workers= are "
                 "mutually exclusive (one pool per run)\n");
    return false;
  }
  if (!Opts.Connect.empty()) {
    if (Opts.Command != "verify") {
      std::fprintf(stderr, "relaxc: error: --connect= only applies to "
                           "`verify`\n");
      return false;
    }
    if (Opts.Shards > 0 || !Opts.RemoteWorkers.empty()) {
      std::fprintf(stderr,
                   "relaxc: error: --connect= ships the whole job to the "
                   "daemon; pool flags belong to the daemon's side\n");
      return false;
    }
    if (!Opts.CacheDir.empty()) {
      std::fprintf(stderr,
                   "relaxc: error: --cache-dir= does not combine with "
                   "--connect= (the cache lives in the daemon; pass it to "
                   "--serve=)\n");
      return false;
    }
    if (!Opts.Explain.empty()) {
      std::fprintf(stderr, "relaxc: error: --explain= is not available "
                           "over --connect=\n");
      return false;
    }
  }
  return true;
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

/// The `--solver-stats` lines of a worker pool: requests served per
/// worker, respawns, and health.
void printPoolStats(const DischargePool &Pool, const char *Label) {
  PoolStats PS = Pool.stats();
  std::printf("  %s: %u workers, %llu requests, %llu respawns; served", Label,
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
      parseUnsigned(Id.c_str() + 2, N)) {
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
// solver/ShardPool.h) from stdin, or with --listen=<addr> from accepted
// socket connections, rebuilds each query in its own AstContext through
// the ordinary parser (serveShardRequest, server/VerifyServer.h), and
// writes the verdict frame back. Any framing error is answered with a
// diagnosed error frame (never a hang or crash) and ends the channel,
// since the stream position is unrecoverable: a pipe worker exits 2, a
// socket worker drops only that connection and keeps listening.
//===----------------------------------------------------------------------===//

/// Serves shard requests on one channel until the pool closes it.
/// Returns true on a clean EOF; false after a framing error or a failed
/// response write. \p CrashFd is the fd the pool reads from, where the
/// worker-exit fault site leaves its garbage partial header.
bool serveWorkerChannel(Transport &T, ShardWorkerState &W, int CrashFd) {
  for (;;) {
    FrameRead F = T.recvMs(-1);
    if (F.eof())
      return true;
    if (!F.ok()) {
      // Truncated or garbage input: answer with a diagnosed error frame
      // (best effort) and give up the channel — continuing could
      // mis-pair requests with responses.
      ShardResponse Resp;
      Resp.IsError = true;
      Resp.Error = "frame error: " + F.Message;
      (void)T.send(serializeShardResponse(Resp));
      std::fprintf(stderr, "relaxc: discharge worker: %s\n",
                   F.Message.c_str());
      return false;
    }
    // Chaos-suite crash site: die instead of answering, alternating
    // between vanishing silently and dying mid-frame (garbage partial
    // header bytes on the channel) — the two shapes a real worker crash
    // has from the pool's point of view. Parity of the draw index (how
    // many requests this worker saw) picks the shape; firedCount is
    // always 1 here because a worker dies on its first fire.
    if (FaultRegistry::shouldFail(FaultSite::WorkerExit)) {
      if (FaultRegistry::instance().drawCount(FaultSite::WorkerExit) % 2 == 1)
        (void)!::write(CrashFd, "RLXF\xff\xff", 6);
      ::_exit(3);
    }
    ShardResponse Resp = serveShardRequest(W, F.Payload);
    if (FaultRegistry::shouldFail(FaultSite::ResponseDelay))
      std::this_thread::sleep_for(std::chrono::milliseconds(
          FaultRegistry::instance().delayMs()));
    if (!T.send(serializeShardResponse(Resp)).ok())
      return false; // the pool went away mid-response
  }
}

/// Runs the worker on stdin/stdout (exit 0 on clean EOF, 2 otherwise),
/// or with \p ListenAddr on socket connections, served sequentially (one
/// remote-pool slot holds one connection at a time). The solver context
/// stays warm across connections, so a reconnecting pool keeps its
/// amortized state.
int runDischargeWorker(const std::string &ListenAddr) {
  ShardWorkerState W;
  if (ListenAddr.empty()) {
    PipeTransport Stdio(/*ReadFd=*/0, /*WriteFd=*/1, /*OwnsFds=*/false);
    return serveWorkerChannel(Stdio, W, /*CrashFd=*/1) ? 0 : 2;
  }
  Result<SocketListener> L = SocketListener::bind(ListenAddr);
  if (!L.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", L.message().c_str());
    return 2;
  }
  // Readiness line on stdout: scripts poll for it (and, with an
  // ephemeral TCP port, read the resolved address from it).
  std::printf("relaxc: discharge worker listening on %s\n",
              L->address().c_str());
  std::fflush(stdout);
  for (;;) {
    Result<std::unique_ptr<Transport>> C = L->accept();
    if (C.ok()) // else a transient accept error
      (void)serveWorkerChannel(**C, W, (*C)->recvFd());
  }
}

/// `--serve=<addr>` (as the first argument): the verification daemon.
/// Remaining arguments are daemon-scoped flags, parsed strictly here —
/// the regular CLI grammar (command + file) does not apply.
int runServe(int Argc, char **Argv) {
  VerifyServerOptions SO;
  SO.Address = Argv[1] + std::strlen("--serve=");
  if (SO.Address.empty()) {
    std::fprintf(stderr, "relaxc: error: bad --serve value (expected "
                         "unix:<path> or host:port)\n");
    return 2;
  }
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    uint64_t N = 0;
    if (const char *V = Value("--faults=")) {
      if (Status S = FaultRegistry::instance().arm(V); !S.ok()) {
        std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
        return 2;
      }
    } else if (const char *V = Value("--cache-dir=")) {
      SO.CacheDir = V;
    } else if (const char *V = Value("--serve-threads=")) {
      if (!parseUnsigned(V, N) || N == 0 || N > 1024) {
        std::fprintf(stderr, "relaxc: error: bad --serve-threads value "
                             "'%s' (expected 1..1024)\n", V);
        return 2;
      }
      SO.MaxConnections = static_cast<unsigned>(N);
    } else if (const char *V = Value("--serve-queue=")) {
      if (!parseUnsigned(V, N) || N == 0 || N > 4096) {
        std::fprintf(stderr, "relaxc: error: bad --serve-queue value "
                             "'%s' (expected 1..4096)\n", V);
        return 2;
      }
      SO.AcceptBacklog = static_cast<int>(N);
    } else if (const char *V = Value("--serve-frame-timeout-ms=")) {
      if (!parseUnsigned(V, N) || N > uint64_t(INT32_MAX)) {
        std::fprintf(stderr, "relaxc: error: bad --serve-frame-timeout-ms "
                             "value '%s'\n", V);
        return 2;
      }
      SO.FrameReadTimeoutMs = static_cast<int>(N);
    } else if (const char *V = Value("--serve-max-request-ms=")) {
      if (!parseUnsigned(V, N) || N > uint64_t(INT64_MAX)) {
        std::fprintf(stderr, "relaxc: error: bad --serve-max-request-ms "
                             "value '%s'\n", V);
        return 2;
      }
      SO.MaxRequestTimeoutMs = static_cast<int64_t>(N);
    } else {
      std::fprintf(stderr, "relaxc: error: unknown --serve option '%s'\n",
                   A.c_str());
      return 2;
    }
  }
  Result<std::unique_ptr<VerifyServer>> S = VerifyServer::create(std::move(SO));
  if (!S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
  // Readiness line: scripts poll for it and read the resolved address
  // (TCP port 0 becomes the real ephemeral port here).
  std::printf("relaxc: serving on %s\n", (*S)->boundAddress().c_str());
  std::fflush(stdout);
  return (*S)->run();
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
/// --shards= / --remote-workers= and the --cache-dir= cache around it,
/// and prints what the session returns.
int runVerify(const CliOptions &Opts) {
  std::unique_ptr<DischargePool> Pool; // must outlive the session
  const char *PoolLabel = "shard pool";
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
  } else if (!Opts.RemoteWorkers.empty()) {
    RemotePoolOptions RO;
    for (size_t Pos = 0; Pos <= Opts.RemoteWorkers.size();) {
      size_t Comma = Opts.RemoteWorkers.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = Opts.RemoteWorkers.size();
      RO.Endpoints.push_back(Opts.RemoteWorkers.substr(Pos, Comma - Pos));
      Pos = Comma + 1;
    }
    Result<std::unique_ptr<RemotePool>> PR = RemotePool::create(std::move(RO));
    if (!PR.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", PR.message().c_str());
      return 2;
    }
    Pool = std::move(*PR);
    PoolLabel = "remote pool";
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
    printPoolStats(*Pool, PoolLabel);
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
  auto Dump = [&](const char *Title, const VCSet &Set) {
    std::printf("== %s: %zu VCs ==\n", Title, Set.VCs.size());
    for (const VC &C : Set.VCs) {
      std::string ProcPrefix =
          !C.Proc.empty() && C.Proc != "main" ? C.Proc + ": " : "";
      std::printf("[%s/%s] %s%s (line %u): %s\n  %s\n",
                  judgmentKindName(C.Judgment),
                  C.Kind == VCKind::Validity ? "valid" : "sat",
                  ProcPrefix.c_str(), C.Rule.c_str(), C.Loc.Line,
                  C.Description.c_str(), P.print(C.Formula).c_str());
      if (Opts.SmtLib) {
        // Validity VCs are emitted negated, so `unsat` means proved —
        // the conventional SMT-LIB phrasing of a proof obligation.
        std::vector<const BoolExpr *> Query = {
            C.Kind == VCKind::Validity ? Ctx.notExpr(C.Formula) : C.Formula};
        Result<std::string> Script = SmtPrinter.toSmtLib(Query);
        if (Script.ok())
          std::printf("  ; SMT-LIB (%s expected)\n%s\n",
                      C.Kind == VCKind::Validity ? "unsat" : "sat",
                      Script->c_str());
      }
    }
  };
  Dump("|-o", OSet);
  Dump("|-r", RSet);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // A peer vanishing mid-write (a dead shard worker, a closed pool) must
  // surface as a diagnosed EPIPE from the framing layer, not kill the
  // process. The pool ignores SIGPIPE again at creation (belt and
  // braces); this covers the worker side and every other write path.
  ::signal(SIGPIPE, SIG_IGN);
  if (Status S = FaultRegistry::instance().armFromEnvironment(); !S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }

  // The verification daemon: `relaxc --serve=<addr> [daemon flags]`.
  // Dispatched before the regular grammar — a daemon has no file.
  if (Argc >= 2 && std::strncmp(Argv[1], "--serve=", 8) == 0)
    return runServe(Argc, Argv);

  // The hidden worker mode of the sharded discharge tier: no file, no
  // command — just the frame loop over stdin/stdout (or, with
  // --listen=<addr>, over accepted socket connections). Workers accept
  // --faults= directly so tests can arm them via pool WorkerArgs without
  // touching the parent's environment.
  if (Argc >= 2 && std::strcmp(Argv[1], "--discharge-worker") == 0) {
    std::string ListenAddr;
    for (int I = 2; I < Argc; ++I) {
      if (std::strncmp(Argv[I], "--faults=", 9) == 0) {
        if (Status S = FaultRegistry::instance().arm(Argv[I] + 9); !S.ok()) {
          std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
          return 2;
        }
      } else if (std::strncmp(Argv[I], "--listen=", 9) == 0) {
        ListenAddr = Argv[I] + 9;
      }
    }
    return runDischargeWorker(ListenAddr);
  }

  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    printUsage();
    return 2;
  }
  if (!Opts.Faults.empty()) {
    if (Status S = FaultRegistry::instance().arm(Opts.Faults); !S.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
      return 2;
    }
    // Shard workers (respawns of this executable) inherit the spec.
    ::setenv("RELAXC_FAULTS", Opts.Faults.c_str(), 1);
  }
  Opts.ExePath = currentExecutablePath(Argv[0]);

  SourceManager SM;
  if (Status S = SM.loadFile(Opts.Verify.FileName); !S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
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
