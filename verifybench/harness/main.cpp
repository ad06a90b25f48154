//===- main.cpp - The end-to-end relaxc verify benchmark ------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// verifybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--repo <checkout root>]
///
/// Runs one workload against the relaxc built from this checkout and
/// prints, as its last stdout line, one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones (tracing off); with
/// --trace 1 the per-layer ones from the traced run. Lines before it give
/// the run record (nproc, build type, Z3, commit, seed), every metric by
/// name with its unit, and the sample counts. Any verdict mismatch, stray
/// process, or set-up error makes the run exit 1; a Debug or Z3-off build
/// is refused (exit 2, no result).
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace vb;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string Repo = ".";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "0" ? 0 : V == "1" ? 1 : -1;
    else if (K == "--repo")
      A.Repo = V;
    else
      return false;
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0 &&
         A.Trace >= 0;
}

std::string readFirstLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string L;
  std::getline(In, L);
  return L;
}

/// The checked-out commit when the checkout is a git work tree, else
/// "none"; sourceDigest() identifies the code either way.
std::string gitCommit() {
  std::string Head = readFirstLine(".git/HEAD");
  if (Head.rfind("ref: ", 0) != 0)
    return Head.empty() ? "none" : Head;
  std::string Ref = Head.substr(5);
  if (std::string C = readFirstLine(".git/" + Ref); !C.empty())
    return C;
  std::ifstream Packed(".git/packed-refs");
  for (std::string L; std::getline(Packed, L);)
    if (L.size() > 41 && L.compare(41, std::string::npos, Ref) == 0)
      return L.substr(0, 40);
  return "none";
}

/// FNV-1a over the paths and bytes of src/ and examples/programs/.
std::string sourceDigest() {
  std::vector<std::string> Files;
  for (const char *Dir : {"src", "examples/programs"}) {
    std::error_code EC;
    for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
         !EC && It != std::filesystem::recursive_directory_iterator();
         It.increment(EC))
      if (It->is_regular_file())
        Files.push_back(It->path().string());
  }
  std::sort(Files.begin(), Files.end());
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&](const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ULL;
  };
  for (const std::string &F : Files) {
    Mix(F);
    std::ifstream In(F, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Mix(SS.str());
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Set-ups per untraced run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: verifybench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--repo <dir>]\n");
    return 2;
  }
  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  std::optional<WorkloadSpec> W = findWorkload(A.Workload, NProc);
  if (!W) {
    std::fprintf(stderr, "verifybench: unknown workload '%s' (cli_cold_z3, "
                         "cli_cold_portfolio, cli_cold_shards, "
                         "serve_warm_mixed)\n",
                 A.Workload.c_str());
    return 2;
  }
  // Numbers from an unoptimized or Z3-less build measure a different
  // program; refuse to record them.
  std::string BuildType = VERIFYBENCH_BUILD_TYPE;
  if (BuildType != "Release" && BuildType != "RelWithDebInfo") {
    std::fprintf(stderr, "verifybench: refusing to record from a '%s' build "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 BuildType.c_str());
    return 2;
  }
  if (!RELAXC_HAVE_Z3) {
    std::fprintf(stderr, "verifybench: refusing to record from a build "
                         "without Z3 (every workload's verdicts assume the "
                         "Z3 backend)\n");
    return 2;
  }
  if (::chdir(A.Repo.c_str()) != 0) {
    std::fprintf(stderr, "verifybench: cannot enter '%s'\n", A.Repo.c_str());
    return 2;
  }

  installHygiene();
  RunContext RC;
  RC.RepoRoot = ".";
  RC.Relaxc = VERIFYBENCH_RELAXC;
  RC.Work = ".bench_work/" + std::to_string(::getpid());
  RC.Seed = A.Seed;
  RC.Seconds = A.Seconds;
  RC.NProc = NProc;
  RunResult R;
  {
    WorkDir Work(RC.Work);
    Inputs In;
    std::vector<double> SetupS;
    bool SetupOk = true;
    // The generated programs' expected verdicts are the run's answer key,
    // computed once and outside the timed set-ups: they are the harness's
    // own in-process verifications, not set-up of the system under test,
    // and Z3 scales too poorly across threads for three copies to fit
    // the run.
    std::vector<Program> Generated;
    if (size_t NGen = W->Serve ? (A.Trace ? tracedGenerated(*W)
                                          : generatedFor(A.Seconds))
                               : 0) {
      relax::Result<std::vector<Program>> G = generatePrograms(
          RC.Seed, NGen, RC.NProc, RC.Work + "/generated");
      if (G.ok())
        Generated = std::move(*G);
      else
        R.Errors.push_back("set-up: " + G.message());
      SetupOk = G.ok();
    }
    unsigned Repeats = A.Trace ? 1 : SetupRepeats;
    for (unsigned K = 0; K < Repeats && SetupOk; ++K) {
      In = Inputs(); // stops the previous repeat's daemon
      auto T0 = std::chrono::steady_clock::now();
      relax::Result<Inputs> S =
          setUp(RC, *W, RC.Work + "/setup-" + std::to_string(K), Generated,
                /*WithDaemon=*/!A.Trace);
      SetupS.push_back(secondsSince(T0));
      if (!S.ok()) {
        R.Errors.push_back("set-up: " + S.message());
        SetupOk = false;
      } else {
        In = std::move(*S);
      }
    }
    if (SetupOk && !interrupted()) {
      R = A.Trace ? runTraced(RC, *W, In) : runEndToEnd(RC, *W, In);
      if (!A.Trace)
        R.Metrics.push_back({"setup_s", median(SetupS), "s"});
    }
    if (In.Server && !In.Server->stop())
      R.Errors.push_back("the daemon died during the run");
    In = Inputs();
  }
  if (unsigned Strays = reapStrays())
    R.Errors.push_back(std::to_string(Strays) +
                       " process(es) outlived the run and were killed");
  if (interrupted() &&
      std::find(R.Errors.begin(), R.Errors.end(), "interrupted") ==
          R.Errors.end())
    R.Errors.push_back("interrupted");

  std::printf("record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
              "\"z3\": true, \"commit\": \"%s\", \"source_digest\": \"%s\"}\n",
              W->Name.c_str(), static_cast<unsigned long long>(A.Seed),
              num(A.Seconds).c_str(), A.Trace, NProc, BuildType.c_str(),
              gitCommit().c_str(), sourceDigest().c_str());
  for (const std::string &N : R.Notes)
    std::printf("note %s\n", N.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("metric %s %s %s %s\n", W->Name.c_str(), M.Name.c_str(),
                num(M.Value).c_str(), M.Unit.c_str());
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "verifybench: error: %s\n", E.c_str());

  bool Correct = R.Errors.empty() && R.Requests.Failed == 0 &&
                 R.Requests.Attempted > 0;
  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<uint64_t>(1, R.Requests.Attempted)) +
                     ", \"failed\": " + std::to_string(R.Requests.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Json += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
            num(R.Metrics[I].Value) + ", \"unit\": \"" + R.Metrics[I].Unit +
            "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
