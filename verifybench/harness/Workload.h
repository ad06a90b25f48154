//===- Workload.h - The verify benchmark's workloads ---------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads, their set-up, the untraced end-to-end run, and the
/// traced per-layer run. See verifybench/README.md for what each workload
/// stresses and which metric each layer should move.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_WORKLOAD_H
#define VERIFYBENCH_WORKLOAD_H

#include "Corpus.h"
#include "Proc.h"
#include "Stats.h"

#include "server/VerifyServer.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace vb {

/// One workload's relaxc configuration.
struct WorkloadSpec {
  std::string Name;
  std::vector<std::string> CliFlags; ///< after `relaxc verify <file>`
  std::string Pipeline;              ///< "" = the single z3 backend
  unsigned Jobs = 1;
  unsigned Shards = 0; ///< replaces the pipeline's final tier when > 0
  bool Serve = false;  ///< requests go to a warm daemon, not the CLI
};

/// The workload named \p Name (with `--jobs` capped at \p NProc), or
/// nullopt for an unknown name.
std::optional<WorkloadSpec> findWorkload(const std::string &Name,
                                         unsigned NProc);

/// Everything one run shares: paths, seed, and time budget.
struct RunContext {
  std::string RepoRoot;
  std::string Relaxc; ///< the relaxc binary
  std::string Work;   ///< this run's scratch directory
  uint64_t Seed = 0;
  double Seconds = 0;
  unsigned NProc = 1;
};

/// A set-up's products.
struct Inputs {
  std::vector<Program> Corpus;    ///< case studies, then mutants
  std::vector<Program> Generated; ///< serve workload only
  std::unique_ptr<Daemon> Server; ///< the primed daemon (serve only)
};

/// One set-up: writes the case studies and mutants under \p Dir, adopts
/// the \p Generated programs, and either sends one readiness request
/// (cli workloads) or, when \p WithDaemon, spawns the serve daemon and
/// primes it with every corpus program.
relax::Result<Inputs> setUp(const RunContext &RC, const WorkloadSpec &W,
                            const std::string &Dir,
                            const std::vector<Program> &Generated,
                            bool WithDaemon);

/// Generated programs a serve run needs for \p Seconds of measurement.
size_t generatedFor(double Seconds);

/// The verify-wire request a workload sends for \p P (the shards
/// workload's served equivalent keeps its pipeline without the shards).
relax::VerifyWireRequest wireRequest(const WorkloadSpec &W, const Program &P);

/// `relaxc verify <P> <flags>` for the workload.
std::vector<std::string> cliArgv(const RunContext &RC, const WorkloadSpec &W,
                                 const Program &P,
                                 const std::vector<std::string> &Extra = {});

/// A verify-wire client on one persistent connection to a daemon.
class WireClient {
public:
  explicit WireClient(std::string Addr) : Addr(std::move(Addr)) {}
  /// Sends \p Req and returns the served exit status, or -1 on a
  /// transport error, a malformed or error response, or refusals past
  /// the retry budget. Retryable refusals are counted in Refusals.
  int verify(const relax::VerifyWireRequest &Req);
  uint64_t Refusals = 0;

private:
  std::string Addr;
  std::unique_ptr<relax::Transport> Conn;
};

/// Per-request time limit: a request past it counts as failed.
constexpr int RequestLimitMs = 60'000;

/// One reported number.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a run measured.
struct RunResult {
  Tally Requests;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< human-readable lines (stdout)
  std::vector<std::string> Errors; ///< reasons the run failed
};

/// The untraced closed-loop run (end-to-end metrics, except setup_s).
RunResult runEndToEnd(const RunContext &RC, const WorkloadSpec &W,
                      Inputs &In);

/// Generated programs the traced run's input list needs.
size_t tracedGenerated(const WorkloadSpec &W);

/// The traced run: each layer's public entry point called from the
/// harness on the workload's inputs (per-layer metrics).
RunResult runTraced(const RunContext &RC, const WorkloadSpec &W,
                    Inputs &In);

} // namespace vb

#endif // VERIFYBENCH_WORKLOAD_H
