//===- Workloads.cpp - Set-up and the untraced end-to-end run -------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

using namespace relax;

namespace vb {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// A run stops taking new requests past this, whatever the sample count,
/// so it always ends well within three minutes.
constexpr double HardCapSeconds = 120;

/// The serve workload's connections (closed loop, one request in flight
/// per connection).
constexpr unsigned ServeClients = 2;

/// Generated programs set up per measured second. The serve workload sends
/// 1 in 4 requests as a fresh program; two connections reach 85 to 145
/// requests per second on a 4-core host, 21 to 36 programs per second, so
/// on a fast host the pool runs out shortly before --seconds and the run
/// ends there (a note says when). Each program costs an in-process
/// verification before the run, ~23 ms of wall time on four threads.
constexpr size_t GeneratedPerSecond = 28;

std::string mismatchNote(const Program &P, int Exit) {
  return "verdict mismatch on " + P.Name + ": exit " + std::to_string(Exit) +
         ", expected " + std::to_string(P.Expected);
}

/// Records one request's outcome, keeping the first few failures.
void record(RunResult &R, const Program &P, int Exit) {
  Outcome O = classify(Exit, P.Expected);
  R.Requests.add(O);
  if (O != Outcome::Ok && R.Errors.size() < 8)
    R.Errors.push_back(mismatchNote(P, Exit));
}

void addLatencyMetrics(RunResult &R, const std::vector<double> &Lat,
                       double WindowS, double CpuMs, double PeakRssMb) {
  size_t N = Lat.size();
  R.Metrics.push_back({"verify_ms_p50", median(Lat), "ms"});
  if (std::optional<double> P90 = percentile(Lat, 90))
    R.Metrics.push_back({"verify_ms_p90", *P90, "ms"});
  else
    R.Errors.push_back("only " + std::to_string(N) +
                       " samples: p90 needs " +
                       std::to_string(minSamplesFor(90)));
  R.Metrics.push_back({"verifies_per_s", N / WindowS, "1/s"});
  R.Metrics.push_back({"cpu_ms_per_verify", N ? CpuMs / N : 0, "ms"});
  R.Metrics.push_back({"peak_rss_mb", PeakRssMb, "MB"});
  R.Metrics.push_back({"decided_frac", R.Requests.decidedFrac(), "fraction"});
  R.Notes.push_back("samples " + std::to_string(N) + " (p90 has " +
                    std::to_string(samplesBeyond(N, 90)) +
                    " beyond it), window " + std::to_string(WindowS) + " s");
  R.Notes.push_back("failed_frac " + std::to_string(R.Requests.failedFrac()) +
                    " fraction (" + std::to_string(R.Requests.Failed) + " of " +
                    std::to_string(R.Requests.Attempted) + " attempted)");
}

RunResult runCli(const RunContext &RC, const WorkloadSpec &W, Inputs &In) {
  RunResult R;
  std::vector<double> Lat;
  double Cpu = 0, Rss = 0;
  SplitMix64 Rng(RC.Seed);
  size_t MinN = minSamplesFor(90);
  auto T0 = Clock::now();
  // Whole rounds only, so every run measures the same program mix.
  for (;;) {
    for (size_t I : shuffledRound(In.Corpus.size(), Rng)) {
      const Program &P = In.Corpus[I];
      ChildRun C = runChild(cliArgv(RC, W, P), RequestLimitMs);
      if (C.Leftover)
        R.Errors.push_back("a process of `relaxc verify " + P.Name +
                           "` outlived it");
      Lat.push_back(C.WallMs);
      Cpu += C.CpuMs;
      Rss = std::max(Rss, C.PeakRssMb);
      record(R, P, C.Exit);
      if (interrupted()) {
        R.Errors.push_back("interrupted");
        return R;
      }
    }
    double El = secondsSince(T0);
    if ((El >= RC.Seconds && Lat.size() >= MinN) || El >= HardCapSeconds)
      break;
  }
  addLatencyMetrics(R, Lat, secondsSince(T0), Cpu, Rss);
  return R;
}

RunResult runServe(const RunContext &RC, const WorkloadSpec &W, Inputs &In) {
  RunResult R;
  // The request stream, cut where it would need a generated program the
  // set-up did not make.
  std::vector<ServeReq> Reqs;
  ServeSequence Seq(RC.Seed, In.Corpus.size());
  for (ServeReq Q = Seq.next();
       !Q.Generated || Q.Index < In.Generated.size(); Q = Seq.next())
    Reqs.push_back(Q);

  size_t MinN = minSamplesFor(90);
  std::atomic<size_t> Next{0}, Done{0};
  std::atomic<bool> Stop{false};
  std::mutex M; // guards R and Lat
  std::vector<double> Lat;
  uint64_t Refusals = 0;
  double Cpu0 = In.Server->cpuMs();
  auto T0 = Clock::now();
  auto Client = [&] {
    WireClient C(In.Server->address());
    while (!Stop.load() && !interrupted()) {
      size_t I = Next.fetch_add(1);
      if (I >= Reqs.size())
        break;
      const Program &P = Reqs[I].Generated ? In.Generated[Reqs[I].Index]
                                           : In.Corpus[Reqs[I].Index];
      auto S = Clock::now();
      int Exit = C.verify(wireRequest(W, P));
      double Ms = std::chrono::duration<double, std::milli>(Clock::now() - S)
                      .count();
      {
        std::lock_guard<std::mutex> L(M);
        Lat.push_back(Ms);
        record(R, P, Exit);
      }
      double El = secondsSince(T0);
      if ((Done.fetch_add(1) + 1 >= MinN && El >= RC.Seconds) ||
          El >= HardCapSeconds)
        Stop.store(true);
    }
    std::lock_guard<std::mutex> L(M);
    Refusals += C.Refusals;
  };
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < std::min(ServeClients, RC.NProc); ++K)
    Threads.emplace_back(Client);
  for (std::thread &T : Threads)
    T.join();
  double Window = secondsSince(T0);
  if (interrupted())
    R.Errors.push_back("interrupted");
  if (!Stop.load())
    R.Notes.push_back("generated pool exhausted after " +
                      std::to_string(Window) + " s");
  addLatencyMetrics(R, Lat, Window, In.Server->cpuMs() - Cpu0,
                    In.Server->peakRssMb());
  R.Notes.push_back("refusals " + std::to_string(Refusals));
  return R;
}

} // namespace

std::optional<WorkloadSpec> findWorkload(const std::string &Name,
                                         unsigned NProc) {
  WorkloadSpec W;
  W.Name = Name;
  if (Name == "cli_cold_z3")
    return W;
  if (Name == "cli_cold_portfolio") {
    W.Pipeline = "simplify,bounded,z3";
    W.Jobs = std::min(4u, std::max(1u, NProc));
    W.CliFlags = {"--pipeline=" + W.Pipeline,
                  "--jobs=" + std::to_string(W.Jobs)};
    return W;
  }
  if (Name == "cli_cold_shards") {
    W.Pipeline = "simplify,z3";
    W.Shards = 2;
    W.CliFlags = {"--pipeline=" + W.Pipeline, "--shards=2"};
    return W;
  }
  if (Name == "serve_warm_mixed") {
    W.Serve = true;
    return W;
  }
  return std::nullopt;
}

VerifyWireRequest wireRequest(const WorkloadSpec &W, const Program &P) {
  VerifyWireRequest Req;
  Req.FileName = P.Name + ".rlx";
  Req.Source = P.Source;
  Req.Pipeline = W.Pipeline;
  Req.Jobs = W.Jobs;
  return Req;
}

std::vector<std::string> cliArgv(const RunContext &RC, const WorkloadSpec &W,
                                 const Program &P,
                                 const std::vector<std::string> &Extra) {
  std::vector<std::string> A = {RC.Relaxc, "verify", P.Path};
  A.insert(A.end(), W.CliFlags.begin(), W.CliFlags.end());
  A.insert(A.end(), Extra.begin(), Extra.end());
  return A;
}

int WireClient::verify(const VerifyWireRequest &Req) {
  const std::string Wire = serializeVerifyRequest(Req);
  for (int Attempt = 0; Attempt < 40; ++Attempt) {
    if (!Conn) {
      Result<std::unique_ptr<Transport>> C = connectSocket(Addr, 10'000);
      if (!C.ok())
        return -1;
      Conn = std::move(*C);
    }
    // A refused connection may close before reading the request, so a
    // failed send still reads the (buffered) refusal.
    (void)Conn->send(Wire);
    FrameRead F = Conn->recvMs(RequestLimitMs);
    if (!F.ok()) {
      Conn.reset();
      return -1;
    }
    Result<VerifyWireResponse> Resp = parseVerifyResponse(F.Payload);
    if (!Resp.ok()) {
      Conn.reset();
      return -1;
    }
    if (Resp->IsError && Resp->Retryable) {
      ++Refusals;
      Conn.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    return Resp->IsError ? -1 : Resp->ExitStatus;
  }
  return -1;
}

size_t generatedFor(double Seconds) {
  return static_cast<size_t>(Seconds * GeneratedPerSecond) + 32;
}

Result<Inputs> setUp(const RunContext &RC, const WorkloadSpec &W,
                     const std::string &Dir,
                     const std::vector<Program> &Generated, bool WithDaemon) {
  using R = Result<Inputs>;
  Inputs In;
  Result<std::vector<Program>> C = buildCorpus(RC.RepoRoot, Dir + "/corpus");
  if (!C.ok())
    return R::error(C.message());
  In.Corpus = std::move(*C);
  In.Generated = Generated;
  if (!W.Serve) {
    // Readiness probe: one request in the workload's configuration, which
    // also warms the page cache for the binary and its libraries.
    ChildRun Probe = runChild(cliArgv(RC, W, In.Corpus[0]), RequestLimitMs);
    if (Probe.Exit != In.Corpus[0].Expected || Probe.Leftover)
      return R::error("readiness probe `relaxc verify " + In.Corpus[0].Name +
                      "` exited " + std::to_string(Probe.Exit));
    return In;
  }
  if (!WithDaemon)
    return In;
  Result<std::unique_ptr<Daemon>> D =
      Daemon::start(RC.Relaxc, Dir + "/d.sock", Dir + "/cache");
  if (!D.ok())
    return R::error(D.message());
  In.Server = std::move(*D);
  // Priming: every corpus program once, so repeats are cache reads.
  WireClient Primer(In.Server->address());
  for (const Program &P : In.Corpus)
    if (int Exit = Primer.verify(wireRequest(W, P)); Exit != P.Expected)
      return R::error("priming: " + mismatchNote(P, Exit));
  return In;
}

RunResult runEndToEnd(const RunContext &RC, const WorkloadSpec &W,
                      Inputs &In) {
  return W.Serve ? runServe(RC, W, In) : runCli(RC, W, In);
}

} // namespace vb
