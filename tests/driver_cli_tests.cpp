//===- driver_cli_tests.cpp - Driver exit codes and --explain paths ------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Runs the real relaxc binary (built alongside the tests) through the
// Subprocess layer and pins its observable CLI contract:
//
//  * verify exit codes: 0 verified, 1 refuted, 2 usage/parse/static
//    error, 3 not-verified-but-nothing-refuted (solver gave up);
//  * --explain= rejection paths: malformed specs and out-of-range ids
//    are diagnosed on stderr and exit 2;
//  * --shards= validation, and the worker mode's argument check;
//  * deadlines: an expired --timeout-ms / --vc-timeout-ms budget exits 3
//    with "deadline" in the report, never hangs, and so does a budget of
//    a few milliseconds on a query Z3 cannot settle;
//  * fault injection: a fully dead worker pool degrades to the
//    in-process tail ("shard pool degraded" under --solver-stats) with
//    the fault-free exit code, and a bad --faults= spec exits 2;
//  * --solver=<tier> prints what --pipeline=<tier> prints and shares
//    its cache; a build without Z3 refuses --solver=z3 without a
//    pipeline;
//  * dump-vcs lists exactly the obligations `verify --verbose` reports,
//    in the same order, and --smtlib emits one script per obligation.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "server/VerifyServer.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <poll.h>
#include <regex>
#include <sstream>
#include <unistd.h>

using namespace relax;

namespace {

struct RunResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, merged
  bool Overran = false; ///< killed when the read deadline expired
};

/// Runs the driver with \p Args, returning its exit code and merged
/// output. A driver still running when \p D expires is killed and
/// reported as Overran, so a wedged driver fails its test instead of
/// hanging the suite.
RunResult runDriver(const std::vector<std::string> &Args,
                    Deadline D = Deadline::never()) {
  RunResult R;
  Subprocess P;
  Status S = P.spawn(relax::test::driverPath(), Args, /*MergeStderr=*/true);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
  if (!S.ok())
    return R;
  P.closeStdin();
  char Buf[4096];
  for (;;) {
    pollfd Fd{P.readFd(), POLLIN, 0};
    if (::poll(&Fd, 1, D.clampTimeoutMs(-1)) == 0) {
      P.terminate();
      R.Overran = true;
      return R;
    }
    ssize_t N = ::read(P.readFd(), Buf, sizeof(Buf));
    if (N <= 0)
      break;
    R.Output.append(Buf, static_cast<size_t>(N));
  }
  R.Exit = P.waitForExit();
  return R;
}

/// Writes \p Source to a temp .rlx file; unlinked on destruction.
struct TempProgram {
  std::string Path;
  explicit TempProgram(const std::string &Source) {
    char Name[] = "/tmp/relaxc_cli_XXXXXX";
    int Fd = ::mkstemp(Name);
    EXPECT_GE(Fd, 0);
    if (Fd < 0)
      return;
    ssize_t Ignored = ::write(Fd, Source.data(), Source.size());
    (void)Ignored;
    ::close(Fd);
    Path = Name;
  }
  ~TempProgram() {
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
};

// A Z3-free pipeline keeps every pin green in both build configurations.
const char *BoundedPipeline = "--pipeline=simplify,bounded";

TEST(DriverExitCodes, VerifiedIsZero) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("VERIFIED"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, RefutedIsOne) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 1; }\n");
  RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("failed"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("counterexample"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, GaveUpOnlyIsThree) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The relaxed pass freshens the relax into an existential; a one-step
  // quantifier budget forces a deterministic give-up, and nothing in the
  // program is refutable — so the failure class is "solver too weak".
  TempProgram P("int x;\nrequires (x >= 0);\n"
                "{ relax (x) st (x >= 0); assert x >= 0; }\n");
  RunResult R = runDriver(
      {"verify", P.Path, "--pipeline=bounded", "--bounded-steps=1"});
  EXPECT_EQ(R.Exit, 3) << R.Output;
  EXPECT_NE(R.Output.find("undecided"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("NOT VERIFIED"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, StaticErrorIsTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  { // parse error
    TempProgram P("int x; { this is not rlx }\n");
    EXPECT_EQ(runDriver({"verify", P.Path, BoundedPipeline}).Exit, 2);
  }
  { // sema error (relate label reuse)
    TempProgram P("int x;\n{ relate l : x<o> == x<r>; "
                  "relate l : x<o> == x<r>; }\n");
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("duplicate relate label"), std::string::npos)
        << R.Output;
  }
}

TEST(DriverExplain, MalformedSpecIsRejected) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 0; }\n");
  for (const char *Bad : {"--explain=q:1", "--explain=o:abc", "--explain=o:",
                          "--explain=5", "--explain=r5"}) {
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --explain id"), std::string::npos)
        << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("expected o:<n>, r:<n>, or proc:<name>"),
              std::string::npos)
        << Bad << "\n" << R.Output;
  }
}

TEST(DriverExplain, OutOfRangeIdIsRejected) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 0; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=o:999"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("no obligation o:999"), std::string::npos)
      << R.Output;
  RunResult R2 =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=r:999"});
  EXPECT_EQ(R2.Exit, 2) << R2.Output;
  EXPECT_NE(R2.Output.find("no obligation r:999"), std::string::npos)
      << R2.Output;
}

TEST(DriverExplain, ValidIdPrintsProvenanceAndKeepsVerifyExitCode) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 1; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=o:0"});
  // The refuted exit code survives a successful --explain.
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("== obligation o:0 =="), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("judgment:"), std::string::npos) << R.Output;
}

// A small module for the per-procedure driver surfaces: f is summarized
// once, main instantiates it.
const char *ModularSource = "int x;\n"
                            "proc f() modifies (x)\n"
                            "  requires (x >= 0 && x <= 2); ensures (x >= 1);\n"
                            "{ x = x + 1; }\n"
                            "proc main() requires (x == 0); { call f(); }\n";

TEST(DriverExplain, ProcFilterListsObligationsAndKeepsExitCode) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:f"});
  // The verify exit code survives a successful filter, whatever the
  // bounded tier settled.
  EXPECT_TRUE(R.Exit == 0 || R.Exit == 3) << R.Output;
  EXPECT_NE(R.Output.find("obligations of procedure 'f'"), std::string::npos)
      << R.Output;
  // Every listed obligation belongs to f; the consequence rule is f's
  // summary check.
  EXPECT_NE(R.Output.find("consequence"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("call ("), std::string::npos)
      << "main's call-site obligation leaked into proc:f\n"
      << R.Output;
}

TEST(DriverExplain, UnknownProcFilterIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:nope"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("no obligations for procedure 'nope'"),
            std::string::npos)
      << R.Output;
}

TEST(DriverExplain, EmptyProcFilterIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("bad --explain filter"), std::string::npos)
      << R.Output;
}

TEST(DriverSolverStats, ReportsPerProcedureObligationCounts) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--solver-stats"});
  EXPECT_NE(R.Output.find("obligations by procedure:"), std::string::npos)
      << R.Output;
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("f: [1-9][0-9]* \\|-o, [0-9]+ \\|-r")))
      << R.Output;
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("main: [1-9][0-9]* \\|-o, [1-9][0-9]* \\|-r")))
      << R.Output;
}

TEST(DriverDeadlines, ExpiredGlobalDeadlineIsExitThree) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // --timeout-ms=0 is already expired: a program that verifies with time
  // on the clock must instead settle everything as deadline gave-ups —
  // complete report, "deadline" named, exit code 3, never a hang.
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--timeout-ms=0"});
  EXPECT_EQ(R.Exit, 3) << R.Output;
  EXPECT_NE(R.Output.find("deadline"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("NOT VERIFIED"), std::string::npos) << R.Output;

  // The per-VC flag behaves identically when it can never be met.
  RunResult R2 =
      runDriver({"verify", P.Path, BoundedPipeline, "--vc-timeout-ms=0"});
  EXPECT_EQ(R2.Exit, 3) << R2.Output;
  EXPECT_NE(R2.Output.find("deadline"), std::string::npos) << R2.Output;

  // And with a generous budget the same program still verifies.
  RunResult R3 =
      runDriver({"verify", P.Path, BoundedPipeline, "--timeout-ms=60000"});
  EXPECT_EQ(R3.Exit, 0) << R3.Output;
}

TEST(DriverDeadlines, ShortDeadlinesStopZ3) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  // Z3 neither refutes nor proves this within its 30-s default timeout.
  // Building the Z3 context on the first query can eat a deadline of a
  // few milliseconds; the query must then settle as a deadline gave-up,
  // because Z3 reads the 0-ms timeout left over as none and runs on.
  TempProgram P("int x, y, z;\nrequires (x > 1 && y > 1 && z > 1);\n"
                "{ assert x * x * x + y * y * y != z * z * z; }\n");
  for (const char *Flag :
       {"--vc-timeout-ms=1", "--vc-timeout-ms=5", "--vc-timeout-ms=8",
        "--vc-timeout-ms=12", "--timeout-ms=5"}) {
    RunResult R = runDriver({"verify", P.Path, Flag}, Deadline::inMs(10'000));
    EXPECT_FALSE(R.Overran) << Flag << ": still running after 10 s";
    EXPECT_EQ(R.Exit, 3) << Flag << "\n" << R.Output;
    EXPECT_NE(R.Output.find("deadline"), std::string::npos)
        << Flag << "\n" << R.Output;
  }
}

TEST(DriverDeadlines, BadTimeoutValuesAreExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--timeout-ms=abc", "--timeout-ms=",
                          "--vc-timeout-ms=-5", "--vc-timeout-ms=x"}) {
    RunResult R = runDriver({"verify", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
  }
}

TEST(DriverFaults, DegradedPoolIsReportedAndVerdictUnchanged) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Workers die on every request (the --faults spec reaches them via the
  // RELAXC_FAULTS environment the driver exports): the shard tier must
  // degrade to its in-process tail, say so in --solver-stats, and keep
  // the fault-free exit code.
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult Clean = runDriver({"verify", P.Path,
                               "--pipeline=simplify,bounded,shard",
                               "--shards=1", "--solver-stats"});
  RunResult Faulted = runDriver({"verify", P.Path,
                                 "--pipeline=simplify,bounded,shard",
                                 "--shards=1", "--solver-stats",
                                 "--faults=seed=7,worker-exit=1"});
  EXPECT_EQ(Faulted.Exit, Clean.Exit) << Faulted.Output;
  EXPECT_NE(Faulted.Output.find("shard pool degraded"), std::string::npos)
      << Faulted.Output;
  EXPECT_EQ(Clean.Output.find("shard pool degraded"), std::string::npos)
      << Clean.Output;
}

TEST(DriverFaults, BadFaultSpecIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--faults=bogus"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("bad fault spec"), std::string::npos) << R.Output;
}

TEST(DriverSeedFlag, RejectsNonDecimalValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The old bare-strtoull parse mapped --seed=garbage to 0 and
  // --seed=12abc to 12, silently changing which runs a reported failure
  // reproduces. Strict now: diagnose and exit 2.
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--seed=12abc", "--seed=garbage", "--seed=",
                          "--seed=-1", "--seed=1e3"}) {
    RunResult R = runDriver({"run", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --seed value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  for (const char *Bad : {"--runs=abc", "--runs=", "--runs=99999999999"}) {
    RunResult R = runDriver({"run", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --runs value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
}

TEST(DriverCacheFlags, RejectsBadValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  { // an empty directory cannot name a cache
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-dir="});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("bad --cache-dir value"), std::string::npos)
        << R.Output;
  }
  for (const char *Bad : {"--cache-verify=abc", "--cache-verify=",
                          "--cache-verify=1000001"}) {
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-dir=/tmp/relaxc_cli_cache", Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --cache-verify value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  { // sampling without a cache audits nothing — reject the contradiction
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-verify=1000"});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("--cache-verify= requires --cache-dir="),
              std::string::npos)
        << R.Output;
  }
}

TEST(DriverShardsFlag, RejectsBadValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--shards=abc", "--shards=", "--shards=9999"}) {
    RunResult R = runDriver({"verify", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find("bad --shards value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  // A simplify-only pipeline has no tier to move out of process.
  RunResult R = runDriver(
      {"verify", P.Path, "--pipeline=simplify", "--shards=2"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("needs a final bounded or z3 tier"),
            std::string::npos)
      << R.Output;
}

TEST(DriverDischargeWorker, RejectsArgumentsItDoesNotParse) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The worker mode parses --faults= and nothing else. Any other
  // argument is diagnosed by name and exits 2 before the frame loop
  // starts, rather than being ignored (a worker reading the closed stdin
  // would exit 0 at EOF).
  for (const char *Bad : {"--bogus", "--shards=2", "--serve=unix:/tmp/x",
                          "verify"}) {
    RunResult R = runDriver({"--discharge-worker", "--faults=seed=1", Bad},
                            Deadline::inMs(30'000));
    ASSERT_FALSE(R.Overran) << Bad;
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find(std::string("'") + Bad + "'"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  // --faults= alone is the worker's one argument: a clean EOF exits 0.
  RunResult R = runDriver({"--discharge-worker", "--faults=seed=1"},
                          Deadline::inMs(30'000));
  ASSERT_FALSE(R.Overran);
  EXPECT_EQ(R.Exit, 0) << R.Output;
}

const char *CaseStudies[] = {"swish.rlx",     "water.rlx",
                             "lu.rlx",        "task_skip.rlx",
                             "sampling.rlx",  "memoize.rlx",
                             "water_modular.rlx", "shared_callee.rlx"};

TEST(DriverSolverFlag, SolverRunsTheOneTierPipelineItNames) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Without --pipeline=, --solver=<tier> runs the one-tier pipeline
  // --pipeline=<tier>: the same --verbose report and exit code on every
  // case study, and on a refuted program, whose counterexample is
  // compared too. The bounded tier runs under its budgets, so it always
  // terminates with a verdict.
  TempProgram Refuted("int x;\nrequires (x >= 0 && x <= 3);\n"
                      "{ x = x + 1; assert x <= 3; }\n");
  std::vector<std::string> Paths = {Refuted.Path};
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    Paths.push_back(relax::test::examplePath(Name));
  }
  for (std::string Tier : {"bounded", "z3"}) {
    if (Tier == "z3" && !relax::test::haveZ3())
      continue;
    for (const std::string &Path : Paths) {
      RunResult Solver =
          runDriver({"verify", Path, "--solver=" + Tier, "--verbose"});
      RunResult Pipeline =
          runDriver({"verify", Path, "--pipeline=" + Tier, "--verbose"});
      std::string Tag = Tier + " " + Path;
      if (Path == Refuted.Path) {
        EXPECT_EQ(Pipeline.Exit, 1) << Tag << "\n" << Pipeline.Output;
        EXPECT_NE(Pipeline.Output.find("counterexample: "), std::string::npos)
            << Tag << "\n" << Pipeline.Output;
      } else if (Tier == "bounded") {
        EXPECT_TRUE(Pipeline.Exit == 1 || Pipeline.Exit == 3)
            << Tag << "\n" << Pipeline.Output;
      }
      EXPECT_EQ(Solver.Exit, Pipeline.Exit) << Tag << "\n" << Solver.Output;
      EXPECT_EQ(Solver.Output, Pipeline.Output) << Tag;
    }
  }
}

TEST(DriverSolverFlag, SolverAndItsOneTierPipelineShareTheCache) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Every tier settles every obligation of this program, so a run that
  // reads another's cache answers with zero portfolio queries — but only
  // if both computed the same fingerprint.
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  char Dir[] = "/tmp/relaxc_cli_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  for (std::string Tier : {"bounded", "z3"}) {
    if (Tier == "z3" && !relax::test::haveZ3())
      continue;
    VerifyWireRequest BySolver, ByPipeline;
    BySolver.SolverName = Tier;
    ByPipeline.Pipeline = Tier;
    EXPECT_EQ(verifyJobFingerprint(BySolver), verifyJobFingerprint(ByPipeline))
        << Tier;
    std::string Solver = "--solver=" + Tier, Pipeline = "--pipeline=" + Tier;
    for (bool SolverFirst : {true, false}) {
      std::string Cache =
          std::string(Dir) + "/" + Tier + (SolverFirst ? "-s" : "-p");
      const std::string &First = SolverFirst ? Solver : Pipeline;
      const std::string &Second = SolverFirst ? Pipeline : Solver;
      std::string Tag = First + " then " + Second;
      RunResult Cold = runDriver({"verify", P.Path, First, "--solver-stats",
                                  "--cache-dir=" + Cache});
      ASSERT_EQ(Cold.Exit, 0) << Tag << "\n" << Cold.Output;
      EXPECT_EQ(Cold.Output.find("queries: 0,"), std::string::npos)
          << Tag << "\n" << Cold.Output;
      RunResult Warm = runDriver({"verify", P.Path, Second, "--solver-stats",
                                  "--cache-dir=" + Cache});
      EXPECT_EQ(Warm.Exit, 0) << Tag << "\n" << Warm.Output;
      EXPECT_NE(Warm.Output.find("queries: 0,"), std::string::npos)
          << Tag << ": the second run missed the first's cache\n"
          << Warm.Output;
    }
  }
  EXPECT_EQ(std::system(("rm -rf '" + std::string(Dir) + "'").c_str()), 0);
}

TEST(DriverSolverFlag, BuildWithoutZ3RefusesTheZ3Solver) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  if (relax::test::haveZ3())
    GTEST_SKIP() << "pins the build without Z3 (RELAXC_ENABLE_Z3=OFF)";
  // The default configuration is the one-tier z3 pipeline. Without Z3 it
  // would degrade to the bounded search at full domain and print
  // bounded-domain verdicts as proofs and refutations, so the run is
  // refused up front — with a worker pool too, whose workers would
  // degrade the same way.
  TempProgram P("int x;\n{ skip; }\n");
  for (std::vector<std::string> Flags :
       {std::vector<std::string>{}, {"--solver=z3"}, {"--shards=2"}}) {
    std::vector<std::string> Args = {"verify", P.Path};
    Args.insert(Args.end(), Flags.begin(), Flags.end());
    RunResult R = runDriver(Args);
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("--solver=bounded"), std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("--pipeline="), std::string::npos) << R.Output;
  }
  // A named pipeline opts into the degraded z3 tier; --solver=bounded
  // runs the bounded tier.
  for (const char *Flag : {"--pipeline=z3", "--solver=bounded"}) {
    RunResult R = runDriver({"verify", P.Path, Flag});
    EXPECT_EQ(R.Exit, 0) << Flag << "\n" << R.Output;
  }
}

/// One judgment pass as a listing: the VC count its header announces and
/// each obligation as "<proc: ><rule>[ at line N]: <description>", the
/// shape `verify` prints once the status tag is dropped.
struct PassListing {
  size_t Count = 0;
  std::vector<std::string> Obligations;
};

/// Parses `dump-vcs`: "== |-o: N VCs ==" headers, then one
/// "[judgment/kind] <proc: ><rule> (line N): <description>" line per VC.
std::vector<PassListing> parseDump(const std::string &Out) {
  std::vector<PassListing> Passes;
  std::istringstream In(Out);
  for (std::string L; std::getline(In, L);) {
    if (L.rfind("== ", 0) == 0) {
      Passes.emplace_back();
      Passes.back().Count = std::stoul(L.substr(L.find(": ") + 2));
    } else if (L.rfind("[", 0) == 0 && !Passes.empty()) {
      std::string Body = L.substr(L.find("] ") + 2);
      size_t At = Body.find(" (line ");
      size_t Close = Body.find("): ", At);
      EXPECT_NE(Close, std::string::npos) << L;
      if (Close == std::string::npos)
        continue;
      std::string Line = Body.substr(At + 7, Close - At - 7);
      std::string Head = Body.substr(0, At);
      if (Line != "0")
        Head += " at line " + Line;
      Passes.back().Obligations.push_back(Head + ": " +
                                          Body.substr(Close + 3));
    }
  }
  return Passes;
}

/// Parses `verify --verbose`: "|-o (...): N VCs, ..." headers, then one
/// "  [status] <proc: ><rule>[ at line N]: <description>[ — detail]"
/// line per VC.
std::vector<PassListing> parseVerbose(const std::string &Out) {
  std::vector<PassListing> Passes;
  std::istringstream In(Out);
  for (std::string L; std::getline(In, L);) {
    if (L.rfind("|-", 0) == 0) {
      Passes.emplace_back();
      Passes.back().Count = std::stoul(L.substr(L.find("): ") + 3));
    } else if (L.rfind("  [", 0) == 0 && !Passes.empty()) {
      Passes.back().Obligations.push_back(L.substr(L.find("] ") + 2));
    }
  }
  return Passes;
}

TEST(DriverDumpVcs, ListsVerifyObligationsInOrder) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    std::string Path = relax::test::examplePath(Name);
    RunResult Dump = runDriver({"dump-vcs", Path});
    ASSERT_EQ(Dump.Exit, 0) << Name << "\n" << Dump.Output;
    RunResult Verify =
        runDriver({"verify", Path, BoundedPipeline, "--verbose"});
    std::vector<PassListing> D = parseDump(Dump.Output);
    std::vector<PassListing> V = parseVerbose(Verify.Output);
    ASSERT_EQ(D.size(), 2u) << Name << "\n" << Dump.Output;
    ASSERT_EQ(V.size(), 2u) << Name << "\n" << Verify.Output;
    for (size_t Pass = 0; Pass != 2; ++Pass) {
      std::string Tag = std::string(Name) + (Pass ? " |-r" : " |-o");
      EXPECT_EQ(D[Pass].Count, V[Pass].Count) << Tag;
      EXPECT_EQ(D[Pass].Count, D[Pass].Obligations.size()) << Tag;
      ASSERT_EQ(D[Pass].Obligations.size(), V[Pass].Obligations.size())
          << Tag;
      // A verify line may append " — <detail>" to the shared prefix.
      for (size_t I = 0; I != D[Pass].Obligations.size(); ++I) {
        const std::string &Want = D[Pass].Obligations[I];
        EXPECT_EQ(V[Pass].Obligations[I].substr(0, Want.size()), Want)
            << Tag << " VC #" << I;
      }
    }
  }
}

TEST(DriverDumpVcs, SmtLibEmitsOneScriptPerObligation) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    std::string Path = relax::test::examplePath(Name);
    RunResult Dump = runDriver({"dump-vcs", Path, "--smtlib"});
    ASSERT_EQ(Dump.Exit, 0) << Name << "\n" << Dump.Output;
    size_t VCs = 0;
    for (const PassListing &P : parseDump(Dump.Output))
      VCs += P.Count;
    size_t Scripts = 0;
    for (size_t At = Dump.Output.find("  ; SMT-LIB ("); At != std::string::npos;
         At = Dump.Output.find("  ; SMT-LIB (", At + 1))
      ++Scripts;
    EXPECT_GT(VCs, 0u) << Name;
    EXPECT_EQ(Scripts, VCs) << Name;
  }
}

} // namespace
