//===- serve_tests.cpp - Socket transport, remote pool, and --serve daemon -----===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Pins the verification-as-a-service layer end to end:
//
//  * Transport: frames round-trip byte-identically over Unix and TCP
//    sockets, half-close delivers a clean EOF, accept deadlines fire;
//  * the verify wire: every request/response field survives a
//    serialize/parse round trip, and malformed payloads are diagnosed,
//    never accepted;
//  * the daemon: served reports are bit-identical (modulo timings) to a
//    local run on every case study, concurrently and under chaos; the
//    warm per-config cache answers a repeated request with zero solver
//    queries; a slow-loris client cannot stall other clients;
//  * the CLI and the verify session: `relaxc verify` prints exactly the
//    report, diagnostics and exit status runVerifyJob returns, a pool
//    only chooses where the final tier runs, and a cache written by the
//    CLI warms the daemon and vice versa (one fingerprint);
//  * RemotePool: a worker dying between requests surfaces as a
//    retryable failure with the pinned stats shape — one failure, one
//    reconnect, identical verdict, never a parse error — and case
//    studies verify identically through socket workers under chaos,
//    degrading to the in-process tail when every endpoint dies; a
//    listen worker drops a garbage connection and keeps serving.
//
//===----------------------------------------------------------------------===//

#include "GenProgram.h"
#include "TestUtil.h"

#include "server/VerifyServer.h"
#include "solver/RemotePool.h"
#include "support/Subprocess.h"
#include "support/Transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <regex>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A fresh AF_UNIX address per call (the kernel caps the path well below
/// PATH_MAX, so keep it short and unique per process + counter).
std::string uniqueUnixAddr(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return "unix:/tmp/relaxc_" + std::string(Tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// Reads one '\n'-terminated line (the readiness line of a spawned
/// server) from \p Fd within \p TimeoutMs.
std::string readLine(int Fd, int TimeoutMs) {
  std::string Line;
  Deadline D = Deadline::inMs(TimeoutMs);
  while (!D.expired()) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, D.clampTimeoutMs(-1));
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      break;
    char C;
    ssize_t N = ::read(Fd, &C, 1);
    if (N <= 0)
      break;
    if (C == '\n')
      return Line;
    Line.push_back(C);
  }
  return Line;
}

/// Spawns the driver as a server (`--serve=` or `--discharge-worker
/// --listen=`) and waits for its readiness line; SIGKILLed on
/// destruction. Addr holds the resolved address the line reported.
struct ServerProcess {
  Subprocess Proc;
  std::string Addr;
  bool Ready = false;

  ServerProcess(const std::vector<std::string> &Args, const char *ReadyTag) {
    Status S = Proc.spawn(relax::test::driverPath(), Args);
    EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
    if (!S.ok())
      return;
    std::string Line = readLine(Proc.readFd(), 30'000);
    size_t At = Line.find(ReadyTag);
    EXPECT_NE(At, std::string::npos)
        << "no readiness line (got '" << Line << "')";
    if (At == std::string::npos)
      return;
    Addr = Line.substr(At + std::strlen(ReadyTag));
    Ready = true;
  }
  ~ServerProcess() { Proc.terminate(); }
};

struct Daemon : ServerProcess {
  explicit Daemon(std::vector<std::string> Extra = {},
                  std::string Bind = std::string())
      : ServerProcess(
            [&] {
              std::vector<std::string> Args = {
                  "--serve=" + (Bind.empty() ? uniqueUnixAddr("serve") : Bind)};
              for (std::string &A : Extra)
                Args.push_back(std::move(A));
              return Args;
            }(),
            "serving on ") {}
};

struct ListenWorker : ServerProcess {
  explicit ListenWorker(const std::string &Bind,
                        const std::string &Faults = std::string())
      : ServerProcess(
            [&] {
              std::vector<std::string> Args = {"--discharge-worker",
                                               "--listen=" + Bind};
              if (!Faults.empty())
                Args.push_back("--faults=" + Faults);
              return Args;
            }(),
            "listening on ") {}
};

/// Strips the schedule-dependent "(N ms)" timings — the one permitted
/// difference between a served report and a local one (CI uses the same
/// sed idiom).
std::string stripMs(const std::string &S) {
  static const std::regex MsRe("\\([0-9.]* ms\\)");
  return std::regex_replace(S, MsRe, "");
}

/// One verify request over a fresh connection, retrying capacity
/// refusals (the daemon's backpressure is a *retryable* error) exactly
/// like the CLI client does.
VerifyWireResponse sendVerify(const std::string &Addr,
                              const VerifyWireRequest &R,
                              int TimeoutMs = 300'000) {
  VerifyWireResponse Out;
  Out.IsError = true;
  // 600 x 50ms = a 30s backpressure ceiling: many clients against a
  // deliberately tiny --serve-threads cap can queue for a while on a
  // loaded machine.
  for (int Attempt = 0; Attempt != 600; ++Attempt) {
    auto C = connectSocket(Addr, 10'000);
    if (!C.ok()) {
      Out.Error = C.message();
      return Out;
    }
    // A daemon at capacity writes its refusal and closes without
    // reading, so the send can hit EPIPE with the refusal still
    // buffered; fall through to the read. If the read then sees EOF,
    // the request was never read and retrying is sound.
    std::string SendError;
    if (Status S = (*C)->send(serializeVerifyRequest(R)); !S.ok())
      SendError = S.message();
    FrameRead F = (*C)->recvMs(TimeoutMs);
    if (!F.ok()) {
      if (!SendError.empty()) {
        Out.Error = SendError;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      Out.Error = F.Message;
      return Out;
    }
    auto P = parseVerifyResponse(F.Payload);
    if (!P.ok()) {
      Out.Error = P.message();
      return Out;
    }
    if (P->IsError && P->Retryable) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    return *P;
  }
  Out.Error = "still retryable after 600 attempts";
  return Out;
}

/// A request whose verdicts are deterministic in every build config.
VerifyWireRequest boundedRequest(const std::string &Name,
                                 const std::string &Source) {
  VerifyWireRequest R;
  R.FileName = Name;
  R.Source = Source;
  R.Pipeline = "simplify,bounded";
  return R;
}

/// Serves \p R and requires the answer to match a local in-process run
/// field for field (Report modulo ms timings).
void expectServedMatchesLocal(const std::string &Addr,
                              const VerifyWireRequest &R,
                              const std::string &Tag) {
  VerifyWireResponse Local = runVerifyJob(R, nullptr);
  VerifyWireResponse Served = sendVerify(Addr, R);
  ASSERT_FALSE(Served.IsError) << Tag << ": " << Served.Error;
  EXPECT_EQ(Served.ExitStatus, Local.ExitStatus) << Tag;
  EXPECT_EQ(stripMs(Served.Report), stripMs(Local.Report)) << Tag;
  EXPECT_EQ(Served.Diagnostics, Local.Diagnostics) << Tag;
}

const char *CaseStudies[] = {"swish.rlx",     "water.rlx",
                             "lu.rlx",        "task_skip.rlx",
                             "sampling.rlx",  "memoize.rlx",
                             "water_modular.rlx", "shared_callee.rlx"};

/// A temp directory removed (with its contents) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Name[] = "/tmp/relaxc_serve_dir_XXXXXX";
    if (::mkdtemp(Name))
      Path = Name;
    EXPECT_FALSE(Path.empty()) << "mkdtemp failed";
  }
  ~TempDir() {
    if (!Path.empty()) {
      EXPECT_EQ(std::system(("rm -rf '" + Path + "'").c_str()), 0);
    }
  }
};

/// One `relaxc` CLI run with stdout and stderr captured separately.
struct CliRun {
  int Exit = -1;
  std::string Out, Err;
};

std::string slurpFile(const std::string &Path) {
  SourceManager SM;
  return SM.loadFile(Path).ok() ? std::string(SM.buffer()) : std::string();
}

CliRun runCli(const std::vector<std::string> &Args) {
  CliRun R;
  TempDir Dir;
  if (Dir.Path.empty())
    return R;
  std::string Out = Dir.Path + "/out", Err = Dir.Path + "/err";
  std::string Cmd = "'" + relax::test::driverPath() + "'";
  for (const std::string &A : Args)
    Cmd += " '" + A + "'";
  Cmd += " > '" + Out + "' 2> '" + Err + "'";
  int St = std::system(Cmd.c_str());
  R.Exit = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  R.Out = slurpFile(Out);
  R.Err = slurpFile(Err);
  return R;
}

//===----------------------------------------------------------------------===//
// Transport round trips
//===----------------------------------------------------------------------===//

TEST(TransportRoundTrip, UnixSocketFramesRoundTrip) {
  auto L = SocketListener::bind(uniqueUnixAddr("rt"));
  ASSERT_TRUE(L.ok()) << L.message();

  // AF_UNIX connects complete against the backlog before accept runs,
  // so a single thread can drive both ends.
  auto Client = connectSocket(L->address(), 5'000);
  ASSERT_TRUE(Client.ok()) << Client.message();
  auto Server = L->accept(Deadline::inMs(5'000));
  ASSERT_TRUE(Server.ok()) << Server.message();
  EXPECT_STREQ((*Client)->kind(), "socket");

  ASSERT_TRUE((*Client)->send("ping").ok());
  FrameRead F = (*Server)->recv(Deadline::inMs(5'000));
  ASSERT_TRUE(F.ok()) << F.Message;
  EXPECT_EQ(F.Payload, "ping");

  // A large binary payload survives byte-for-byte (frame totality). It
  // exceeds the socket buffer, so the sender runs on its own thread
  // while this one drains.
  std::string Big(1u << 20, '\0');
  for (size_t I = 0; I != Big.size(); ++I)
    Big[I] = static_cast<char>(I * 131);
  std::thread Sender(
      [&] { EXPECT_TRUE((*Server)->send(Big).ok()); });
  F = (*Client)->recv(Deadline::inMs(5'000));
  Sender.join();
  ASSERT_TRUE(F.ok()) << F.Message;
  EXPECT_TRUE(F.Payload == Big) << "payload corrupted in transit";

  // Half-close: the peer sees a clean EOF, but the reverse direction
  // still delivers a final response.
  (*Client)->closeSend();
  F = (*Server)->recv(Deadline::inMs(5'000));
  EXPECT_TRUE(F.eof()) << F.Message;
  ASSERT_TRUE((*Server)->send("bye").ok());
  F = (*Client)->recv(Deadline::inMs(5'000));
  ASSERT_TRUE(F.ok()) << F.Message;
  EXPECT_EQ(F.Payload, "bye");
}

TEST(TransportRoundTrip, TcpEphemeralPortIsReportedAndConnectable) {
  auto L = SocketListener::bind("127.0.0.1:0");
  ASSERT_TRUE(L.ok()) << L.message();
  EXPECT_EQ(L->address().rfind("127.0.0.1:", 0), 0u) << L->address();
  EXPECT_NE(L->address(), "127.0.0.1:0")
      << "the resolved ephemeral port was not reported";

  auto Client = connectSocket(L->address(), 5'000);
  ASSERT_TRUE(Client.ok()) << Client.message();
  auto Server = L->accept(Deadline::inMs(5'000));
  ASSERT_TRUE(Server.ok()) << Server.message();
  ASSERT_TRUE((*Client)->send("over tcp").ok());
  FrameRead F = (*Server)->recv(Deadline::inMs(5'000));
  ASSERT_TRUE(F.ok()) << F.Message;
  EXPECT_EQ(F.Payload, "over tcp");
}

TEST(TransportRoundTrip, AcceptDeadlineTimesOut) {
  auto L = SocketListener::bind(uniqueUnixAddr("to"));
  ASSERT_TRUE(L.ok()) << L.message();
  auto Start = std::chrono::steady_clock::now();
  auto C = L->accept(Deadline::inMs(50));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  ASSERT_FALSE(C.ok());
  EXPECT_NE(C.message().find("timed out"), std::string::npos) << C.message();
  EXPECT_LT(Ms, 5'000);
}

//===----------------------------------------------------------------------===//
// The verify wire
//===----------------------------------------------------------------------===//

TEST(VerifyWire, RequestRoundTripsEveryField) {
  VerifyWireRequest R;
  R.FileName = "weird name.rlx";
  R.Source = "int x;\nrequires (x >= 0);\n{ assert x >= 0; }\n";
  R.Source.push_back('\0'); // blobs are byte-counted, not NUL-terminated
  R.Source += "tail";
  R.SolverName = "bounded";
  R.Pipeline = "simplify,bounded,z3";
  R.BoundedSteps = 123'456;
  R.BoundedLearning = false;
  R.BoundedRestarts = false;
  R.BoundedMaxNogoods = 77;
  R.Jobs = 4;
  R.SolverJobs = 3;
  R.TimeoutMs = 90'000;
  R.VcTimeoutMs = 1'000;
  R.NoSafety = true;
  R.OriginalOnly = true;
  R.Verbose = true;
  R.SolverStats = true;

  std::string Wire = serializeVerifyRequest(R);
  EXPECT_TRUE(isVerifyRequestPayload(Wire));
  EXPECT_FALSE(isShardRequestPayload(Wire));
  auto P = parseVerifyRequest(Wire);
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->FileName, R.FileName);
  EXPECT_EQ(P->Source, R.Source);
  EXPECT_EQ(P->SolverName, R.SolverName);
  EXPECT_EQ(P->Pipeline, R.Pipeline);
  EXPECT_EQ(P->BoundedSteps, R.BoundedSteps);
  EXPECT_EQ(P->BoundedLearning, R.BoundedLearning);
  EXPECT_EQ(P->BoundedRestarts, R.BoundedRestarts);
  EXPECT_EQ(P->BoundedMaxNogoods, R.BoundedMaxNogoods);
  EXPECT_EQ(P->Jobs, R.Jobs);
  EXPECT_EQ(P->SolverJobs, R.SolverJobs);
  EXPECT_EQ(P->TimeoutMs, R.TimeoutMs);
  EXPECT_EQ(P->VcTimeoutMs, R.VcTimeoutMs);
  EXPECT_EQ(P->NoSafety, R.NoSafety);
  EXPECT_EQ(P->OriginalOnly, R.OriginalOnly);
  EXPECT_EQ(P->Verbose, R.Verbose);
  EXPECT_EQ(P->SolverStats, R.SolverStats);

  // Defaults survive too (the "-" spellings for empty strings).
  VerifyWireRequest Defaults;
  auto P2 = parseVerifyRequest(serializeVerifyRequest(Defaults));
  ASSERT_TRUE(P2.ok()) << P2.message();
  EXPECT_EQ(P2->Pipeline, "");
  EXPECT_EQ(P2->TimeoutMs, -1);
  EXPECT_EQ(P2->VcTimeoutMs, -1);
}

TEST(VerifyWire, ResponseRoundTripsEveryField) {
  VerifyWireResponse R;
  R.ExitStatus = 1;
  R.IsError = true;
  R.Retryable = true;
  R.Error = "server at capacity (8 connections); retry";
  R.Diagnostics = "warn: something\n";
  R.Report = "|-o VERIFIED\nline two\n";
  auto P = parseVerifyResponse(serializeVerifyResponse(R));
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->ExitStatus, R.ExitStatus);
  EXPECT_EQ(P->IsError, R.IsError);
  EXPECT_EQ(P->Retryable, R.Retryable);
  EXPECT_EQ(P->Error, R.Error);
  EXPECT_EQ(P->Diagnostics, R.Diagnostics);
  EXPECT_EQ(P->Report, R.Report);
}

TEST(VerifyWire, MalformedPayloadsAreDiagnosedNeverAccepted) {
  auto Bad = parseVerifyRequest("not a verify request");
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find("not speaking the verify protocol"),
            std::string::npos)
      << Bad.message();

  // Every truncation of a valid payload is rejected with a diagnosis.
  VerifyWireRequest R;
  R.Source = "int x;\n{ assert x >= 0; }\n";
  std::string Wire = serializeVerifyRequest(R);
  for (size_t Cut : {Wire.size() / 4, Wire.size() / 2, Wire.size() - 1}) {
    auto P = parseVerifyRequest(Wire.substr(0, Cut));
    EXPECT_FALSE(P.ok()) << "accepted a truncation at " << Cut;
    if (!P.ok())
      EXPECT_NE(P.message().find("bad verify request"), std::string::npos)
          << P.message();
  }

  EXPECT_FALSE(isVerifyRequestPayload("garbage"));
  EXPECT_FALSE(isShardRequestPayload("garbage"));
  ShardRequest SR;
  EXPECT_TRUE(isShardRequestPayload(serializeShardRequest(SR)));
  EXPECT_FALSE(isVerifyRequestPayload(serializeShardRequest(SR)));
}

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

TEST(ServeDaemon, ServedReportsMatchLocalOnCaseStudies) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  Daemon D;
  ASSERT_TRUE(D.Ready);
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    expectServedMatchesLocal(D.Addr, boundedRequest(Name, Source),
                             std::string(Name) + " [bounded]");
    if (relax::test::haveZ3()) {
      VerifyWireRequest Z3R;
      Z3R.FileName = Name;
      Z3R.Source = Source;
      expectServedMatchesLocal(D.Addr, Z3R, std::string(Name) + " [z3]");
    }
  }
}

TEST(ServeDaemon, ParseErrorsMapToStaticErrorStatus) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  Daemon D;
  ASSERT_TRUE(D.Ready);
  VerifyWireRequest R = boundedRequest("broken.rlx", "int x;\n{ assert }\n");
  VerifyWireResponse Served = sendVerify(D.Addr, R);
  VerifyWireResponse Local = runVerifyJob(R, nullptr);
  EXPECT_EQ(Served.ExitStatus, 2);
  EXPECT_EQ(Served.ExitStatus, Local.ExitStatus);
  EXPECT_EQ(Served.Diagnostics, Local.Diagnostics);
  EXPECT_FALSE(Served.Diagnostics.empty())
      << "a parse failure must carry rendered diagnostics";
}

TEST(ServeDaemon, WarmCacheAnswersRepeatWithZeroQueries) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Every obligation must settle for the warm repeat to be query-free:
  // gave-up verdicts are never cached, so a program that trips the
  // bounded budget would legitimately re-query. Use the small program
  // that fully verifies under the Z3-free bounded pipeline.
  Daemon D;
  ASSERT_TRUE(D.Ready);
  VerifyWireRequest R =
      boundedRequest("warm.rlx", "int x;\nrequires (x >= 0 && x <= 2);\n"
                                 "{ x = x + 1; assert x >= 1; }\n");
  R.SolverStats = true;

  VerifyWireResponse First = sendVerify(D.Addr, R);
  ASSERT_FALSE(First.IsError) << First.Error;
  EXPECT_EQ(First.Report.find("queries: 0,"), std::string::npos)
      << "the first request cannot have been answered from a warm cache";

  VerifyWireResponse Second = sendVerify(D.Addr, R);
  ASSERT_FALSE(Second.IsError) << Second.Error;
  EXPECT_NE(Second.Report.find("queries: 0,"), std::string::npos)
      << "the repeat request missed the daemon's warm cache:\n"
      << Second.Report;
}

TEST(ServeDaemon, ConcurrentClientsMatchSequentialAnswers) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Case studies plus generated programs, all in flight at once against
  // a deliberately small connection cap, so some clients must ride the
  // retryable backpressure path. Every answer must equal the local one.
  Daemon D({"--serve-threads=3"});
  ASSERT_TRUE(D.Ready);

  std::vector<VerifyWireRequest> Requests;
  for (const char *Name : CaseStudies) {
    SourceManager SM;
    if (!SM.loadFile(relax::test::examplePath(Name)).ok())
      GTEST_SKIP() << "example program not found: " << Name;
    Requests.push_back(boundedRequest(Name, std::string(SM.buffer())));
  }
  relax::test::ProgramGen Gen(20260808);
  for (int I = 0; I != 6; ++I)
    Requests.push_back(
        boundedRequest("gen" + std::to_string(I) + ".rlx", Gen.gen()));

  std::vector<VerifyWireResponse> Local(Requests.size());
  for (size_t I = 0; I != Requests.size(); ++I)
    Local[I] = runVerifyJob(Requests[I], nullptr);

  std::vector<VerifyWireResponse> Served(Requests.size());
  std::vector<std::thread> Clients;
  for (size_t I = 0; I != Requests.size(); ++I)
    Clients.emplace_back(
        [&, I] { Served[I] = sendVerify(D.Addr, Requests[I]); });
  for (std::thread &T : Clients)
    T.join();

  for (size_t I = 0; I != Requests.size(); ++I) {
    ASSERT_FALSE(Served[I].IsError)
        << Requests[I].FileName << ": " << Served[I].Error;
    EXPECT_EQ(Served[I].ExitStatus, Local[I].ExitStatus)
        << Requests[I].FileName;
    EXPECT_EQ(stripMs(Served[I].Report), stripMs(Local[I].Report))
        << Requests[I].FileName;
    EXPECT_EQ(Served[I].Diagnostics, Local[I].Diagnostics)
        << Requests[I].FileName;
  }
}

TEST(ServeDaemon, SlowLorisClientCannotStallOthers) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  Daemon D({"--serve-frame-timeout-ms=1500"});
  ASSERT_TRUE(D.Ready);

  // The loris: opens a connection and dribbles half a frame header,
  // then stalls. The whole-frame deadline arms at its first byte.
  auto Loris = connectSocket(D.Addr, 10'000);
  ASSERT_TRUE(Loris.ok()) << Loris.message();
  ASSERT_EQ(::write((*Loris)->recvFd(), "RLX", 3), 3);

  // Meanwhile an honest client gets a full answer.
  expectServedMatchesLocal(D.Addr, boundedRequest("swish.rlx", Source),
                           "swish.rlx [behind loris]");

  // The loris itself is evicted with a diagnosed frame timeout instead
  // of holding its handler forever.
  FrameRead F = (*Loris)->recvMs(30'000);
  if (F.ok()) {
    auto P = parseVerifyResponse(F.Payload);
    ASSERT_TRUE(P.ok()) << P.message();
    EXPECT_TRUE(P->IsError);
    EXPECT_NE(P->Error.find("timed out"), std::string::npos) << P->Error;
    F = (*Loris)->recvMs(30'000);
  }
  EXPECT_TRUE(F.eof()) << "the loris connection was not dropped: "
                       << F.Message;
}

TEST(ServeDaemon, ChaosDaemonStaysVerdictIdentical) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Cache chaos: every disk load goes cold and every flush is torn.
  // Recovery must be invisible in every served report. (deadline-poll
  // faults are deliberately absent — they inject spurious expiry into
  // the bounded search and legitimately change undecided details.)
  char Dir[] = "/tmp/relaxc_serve_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  Daemon D({"--faults=seed=29,cache-read=1,cache-write=1",
            "--cache-dir=" + std::string(Dir)});
  ASSERT_TRUE(D.Ready);
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    expectServedMatchesLocal(D.Addr, boundedRequest(Name, Source),
                             std::string(Name) + " [chaos daemon]");
  }
  std::string Cleanup = "rm -rf '" + std::string(Dir) + "'";
  ASSERT_EQ(std::system(Cleanup.c_str()), 0);
}

//===----------------------------------------------------------------------===//
// The CLI and the verify session
//===----------------------------------------------------------------------===//

/// Timings, and the counters of the --solver-stats block, are the only
/// permitted differences: under --jobs=N the thread schedule decides
/// which worker wins a race to the shared result cache and how many
/// tasks are stolen, so those counts vary between any two runs. The
/// block's shape and the per-procedure obligation counts must match.
std::string stripSchedule(const std::string &S) {
  std::string Out = stripMs(S);
  size_t From = Out.find("solver stats:\n");
  size_t To = Out.find("  obligations by procedure:\n");
  if (From == std::string::npos || To == std::string::npos || To < From)
    return Out;
  static const std::regex CountRe("[0-9]+");
  return Out.substr(0, From) +
         std::regex_replace(Out.substr(From, To - From), CountRe, "N") +
         Out.substr(To);
}

/// A CLI flag set and the request fields it stands for.
struct FlagSet {
  std::vector<std::string> Flags;
  bool NeedsZ3;
  void (*Apply)(VerifyWireRequest &);
};

TEST(CliMatchesSession, CaseStudiesUnderEachFlagSet) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  const FlagSet Sets[] = {
      {{"--pipeline=simplify,bounded"}, false,
       [](VerifyWireRequest &R) { R.Pipeline = "simplify,bounded"; }},
      {{}, true, [](VerifyWireRequest &) {}},
      {{"--pipeline=simplify,bounded,z3", "--jobs=4", "--solver-stats"}, true,
       [](VerifyWireRequest &R) {
         R.Pipeline = "simplify,bounded,z3";
         R.Jobs = 4;
         R.SolverStats = true;
       }},
      {{"--original-only", "--no-safety", "--verbose"}, true,
       [](VerifyWireRequest &R) {
         R.OriginalOnly = true;
         R.NoSafety = true;
         R.Verbose = true;
       }},
  };
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    std::string Path = relax::test::examplePath(Name);
    for (const FlagSet &Set : Sets) {
      if (Set.NeedsZ3 && !relax::test::haveZ3())
        continue;
      std::vector<std::string> Args = {"verify", Path};
      std::string Tag = Name;
      for (const std::string &F : Set.Flags) {
        Args.push_back(F);
        Tag += " " + F;
      }
      CliRun Cli = runCli(Args);
      VerifyWireRequest R;
      R.FileName = Path;
      R.Source = Source;
      Set.Apply(R);
      VerifyWireResponse Job = runVerifyJob(R, nullptr);
      ASSERT_FALSE(Job.IsError) << Tag << ": " << Job.Error;
      EXPECT_EQ(Cli.Exit, Job.ExitStatus) << Tag;
      EXPECT_EQ(stripSchedule(Cli.Out), stripSchedule(Job.Report)) << Tag;
      EXPECT_EQ(Cli.Err, Job.Diagnostics) << Tag;
    }
  }
}

TEST(CliMatchesSession, PoolOnlyChoosesWhereTheFinalTierRuns) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // What `--shards=2` runs: the session moves the final tier onto the
  // pool's workers, and nothing else — for a pipeline, for the default
  // configuration (the one-tier z3 pipeline), and for --solver=bounded.
  ShardPoolOptions SO;
  SO.Shards = 2;
  SO.WorkerExe = relax::test::driverPath();
  auto Pool = ShardPool::create(std::move(SO));
  ASSERT_TRUE(Pool.ok()) << Pool.message();
  const FlagSet Sets[] = {
      {{"--pipeline=simplify,bounded"}, false,
       [](VerifyWireRequest &R) { R.Pipeline = "simplify,bounded"; }},
      {{}, true, [](VerifyWireRequest &) {}},
      {{"--solver=bounded"}, false,
       [](VerifyWireRequest &R) { R.SolverName = "bounded"; }},
  };
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    for (const FlagSet &Set : Sets) {
      if (Set.NeedsZ3 && !relax::test::haveZ3())
        continue;
      std::string Tag = Name;
      for (const std::string &F : Set.Flags)
        Tag += " " + F;
      VerifyWireRequest R;
      R.FileName = Name;
      R.Source = Source;
      R.Verbose = true;
      Set.Apply(R);
      uint64_t Before = (*Pool)->stats().Requests;
      VerifyWireResponse Local = runVerifyJob(R, nullptr);
      VerifyWireResponse Sharded = runVerifyJob(R, nullptr, Pool->get());
      ASSERT_FALSE(Sharded.IsError) << Tag << ": " << Sharded.Error;
      EXPECT_EQ(Sharded.ExitStatus, Local.ExitStatus) << Tag;
      EXPECT_EQ(stripMs(Sharded.Report), stripMs(Local.Report)) << Tag;
      EXPECT_EQ(Sharded.Diagnostics, Local.Diagnostics) << Tag;
      EXPECT_GT((*Pool)->stats().Requests, Before)
          << Tag << ": no obligation reached the pool";
    }
  }

  // A pipeline with no final bounded or z3 tier has nothing to move.
  VerifyWireRequest R = boundedRequest("skip.rlx", "int x;\n{ skip; }\n");
  R.Pipeline = "simplify";
  VerifyWireResponse Bad = runVerifyJob(R, nullptr, Pool->get());
  EXPECT_TRUE(Bad.IsError);
  EXPECT_EQ(Bad.ExitStatus, 2);
  EXPECT_NE(Bad.Error.find("needs a final bounded or z3 tier"),
            std::string::npos)
      << Bad.Error;
}

TEST(CliMatchesSession, WarmCacheSessionBuildsNoZ3Context) {
  RELAXC_SKIP_WITHOUT_Z3();
  // Every obligation of a verifying program is served from a warm
  // cache, so nothing reaches a solver and no Z3 context gets built —
  // neither for the session's default backend nor for a pipeline's
  // portfolios, sequential or parallel.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  for (const char *Pipeline : {"", "simplify,bounded,z3"})
    for (unsigned Jobs : {1u, 4u}) {
      VerifyWireRequest R;
      R.FileName = "swish.rlx";
      R.Source = Source;
      R.Pipeline = Pipeline;
      R.Jobs = Jobs;
      std::string Tag = std::string("pipeline '") + Pipeline + "' jobs " +
                        std::to_string(Jobs);
      PersistentCache Cache("", verifyJobFingerprint(R), /*VerifyPpm=*/0);
      VerifyWireResponse Cold = runVerifyJob(R, &Cache);
      ASSERT_EQ(Cold.ExitStatus, 0) << Tag << ": " << Cold.Report;
      uint64_t Before = Z3Solver::contextsBuilt();
      VerifyWireResponse Warm = runVerifyJob(R, &Cache);
      EXPECT_EQ(Warm.ExitStatus, 0) << Tag;
      EXPECT_EQ(stripMs(Warm.Report), stripMs(Cold.Report)) << Tag;
      EXPECT_EQ(Z3Solver::contextsBuilt(), Before) << Tag;
    }
}

TEST(CliMatchesSession, CliAndDaemonShareOneCacheFingerprint) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The small program that fully settles under the Z3-free pipeline
  // (see WarmCacheAnswersRepeatWithZeroQueries): every verdict is
  // cached, so a run that reads another's cache answers with zero
  // portfolio queries — but only if both computed the same fingerprint.
  const std::string Source = "int x;\nrequires (x >= 0 && x <= 2);\n"
                             "{ x = x + 1; assert x >= 1; }\n";
  TempDir Work;
  ASSERT_FALSE(Work.Path.empty());
  std::string File = Work.Path + "/warm.rlx";
  {
    std::FILE *F = std::fopen(File.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs(Source.c_str(), F);
    std::fclose(F);
  }
  VerifyWireRequest R = boundedRequest(File, Source);
  R.SolverStats = true;
  auto Cli = [&](const std::string &CacheDir) {
    return runCli({"verify", File, "--pipeline=simplify,bounded",
                   "--solver-stats", "--cache-dir=" + CacheDir});
  };

  { // The CLI writes the cache; a daemon on the same directory reads it.
    std::string Dir = Work.Path + "/cli-first";
    CliRun First = Cli(Dir);
    ASSERT_EQ(First.Exit, 0) << First.Out << First.Err;
    EXPECT_EQ(First.Out.find("queries: 0,"), std::string::npos) << First.Out;
    Daemon D({"--cache-dir=" + Dir});
    ASSERT_TRUE(D.Ready);
    VerifyWireResponse Served = sendVerify(D.Addr, R);
    ASSERT_FALSE(Served.IsError) << Served.Error;
    EXPECT_NE(Served.Report.find("queries: 0,"), std::string::npos)
        << "the daemon missed the CLI's cache:\n"
        << Served.Report;
  }
  { // A daemon writes the cache (flushed before it answers); the CLI
    // reads it.
    std::string Dir = Work.Path + "/daemon-first";
    {
      Daemon D({"--cache-dir=" + Dir});
      ASSERT_TRUE(D.Ready);
      VerifyWireResponse Served = sendVerify(D.Addr, R);
      ASSERT_FALSE(Served.IsError) << Served.Error;
      EXPECT_EQ(Served.Report.find("queries: 0,"), std::string::npos)
          << Served.Report;
    }
    CliRun Second = Cli(Dir);
    EXPECT_EQ(Second.Exit, 0) << Second.Out << Second.Err;
    EXPECT_NE(Second.Out.find("queries: 0,"), std::string::npos)
        << "the CLI missed the daemon's cache:\n"
        << Second.Out;
  }
}

//===----------------------------------------------------------------------===//
// RemotePool: the socket shard tier
//===----------------------------------------------------------------------===//

RemotePoolOptions remoteOptions(std::vector<std::string> Endpoints) {
  RemotePoolOptions O;
  O.Endpoints = std::move(Endpoints);
  O.RoundTripTimeoutMs = 60'000;
  O.RespawnBackoffBaseMs = 0;
  O.QuarantineBaseMs = 1;
  O.QuarantineMaxMs = 2;
  return O;
}

ShardRequest simpleRequest() {
  ShardRequest R;
  R.Pipeline = "bounded";
  R.Vars = {{"x", VarKind::Int}};
  R.Formulas = {"x > 4"};
  return R;
}

TEST(RemotePoolSocket, DischargesThroughAListenWorker) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  std::string Addr = uniqueUnixAddr("rw");
  ListenWorker W(Addr);
  ASSERT_TRUE(W.Ready);
  auto Pool = RemotePool::create(remoteOptions({W.Addr}));
  ASSERT_TRUE(Pool.ok()) << Pool.message();
  auto R = (*Pool)->discharge(simpleRequest());
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Verdict, SatResult::Sat);
  EXPECT_FALSE((*Pool)->degraded());
}

TEST(RemotePoolSocket, DaemonDoublesAsARemoteWorker) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The --serve daemon answers shard requests on the same socket as
  // verify requests (payload-magic dispatch).
  Daemon D;
  ASSERT_TRUE(D.Ready);
  auto Pool = RemotePool::create(remoteOptions({D.Addr}));
  ASSERT_TRUE(Pool.ok()) << Pool.message();
  auto R = (*Pool)->discharge(simpleRequest());
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Verdict, SatResult::Sat);
}

TEST(RemotePoolSocket, WorkerDeathBetweenRequestsIsARetriedFailure) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The socket twin of PoolHealth.KillBetweenRequests, pinning the one
  // sanctioned asymmetry: a pipe worker's corpse is found eagerly at
  // borrow (a respawn, no failure), while a socket peer's death is lazy
  // — the doomed attempt books one failure and the sound retry
  // reconnects. Same fields, identical verdict, never a parse error.
  std::string Addr = uniqueUnixAddr("kill");
  auto W = std::make_unique<ListenWorker>(Addr);
  ASSERT_TRUE(W->Ready);
  auto PoolR = RemotePool::create(remoteOptions({W->Addr}));
  ASSERT_TRUE(PoolR.ok()) << PoolR.message();
  RemotePool &Pool = **PoolR;

  auto A = Pool.discharge(simpleRequest());
  ASSERT_TRUE(A.ok()) << A.message();
  EXPECT_EQ(A->Verdict, SatResult::Sat);

  // Kill the worker process and bring a fresh one up on the SAME
  // address (bind unlinks the stale Unix path). The pool's slot still
  // holds the dead connection.
  W.reset();
  ListenWorker W2(Addr);
  ASSERT_TRUE(W2.Ready);

  auto B = Pool.discharge(simpleRequest());
  ASSERT_TRUE(B.ok()) << "worker death leaked to the caller: "
                      << B.message();
  EXPECT_EQ(B->Verdict, A->Verdict);

  PoolStats S = Pool.stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Attempts, 3u) << "the doomed attempt plus one sound retry";
  EXPECT_EQ(S.Failures, 1u) << "a socket death is lazy: seen on the wire";
  EXPECT_EQ(S.Respawns, 1u) << "the retry re-dials exactly once";
  ASSERT_EQ(S.PerWorker.size(), 1u);
  EXPECT_EQ(S.PerWorker[0], 2u);
  ASSERT_EQ(S.PerWorkerHealth.size(), 1u);
  EXPECT_EQ(S.PerWorkerHealth[0], WorkerHealth::Healthy);
  EXPECT_FALSE(Pool.degraded());
}

TEST(RemotePoolSocket, CaseStudiesIdenticalThroughRemoteWorkersUnderDelays) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  std::string A1 = uniqueUnixAddr("cs1"), A2 = uniqueUnixAddr("cs2");
  ListenWorker W1(A1, "seed=13,response-delay=0.5,delay-ms=5");
  ListenWorker W2(A2, "seed=13,response-delay=0.5,delay-ms=5");
  ASSERT_TRUE(W1.Ready);
  ASSERT_TRUE(W2.Ready);
  auto Pool = RemotePool::create(remoteOptions({W1.Addr, W2.Addr}));
  ASSERT_TRUE(Pool.ok()) << Pool.message();

  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram Base = relax::test::parseProgram(Source);
    ASSERT_TRUE(Base.ok()) << Name << ": " << Base.diagnostics();
    relax::test::ParsedProgram Remote = relax::test::parseProgram(Source);
    ASSERT_TRUE(Remote.ok());

    auto Run = [](relax::test::ParsedProgram &P,
                  DischargePool *Pool) -> VerifyReport {
      BoundedSolver Dummy;
      DiagnosticEngine Diags;
      Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
      Verifier::Options VO;
      PortfolioOptions PO;
      PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Shard};
      PO.Bounded.MaxCandidates = 50'000;
      PO.Bounded.MaxQuantSteps = 20'000;
      PO.Pool = Pool;
      PO.ShardWorkerPipeline = "bounded";
      VO.Portfolio = PO;
      return V.run(VO);
    };
    VerifyReport Local = Run(Base, nullptr);
    VerifyReport Overt = Run(Remote, Pool->get());

    auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                       const char *Pass) {
      ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size()) << Name << " " << Pass;
      for (size_t I = 0; I != X.Outcomes.size(); ++I) {
        EXPECT_EQ(X.Outcomes[I].Condition.Id, Y.Outcomes[I].Condition.Id)
            << Name << " " << Pass << " VC #" << I;
        EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
            << Name << " " << Pass << " VC #" << I << ": "
            << X.Outcomes[I].Detail << " vs " << Y.Outcomes[I].Detail;
        EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
            << Name << " " << Pass << " VC #" << I;
      }
    };
    Compare(Local.Original, Overt.Original, "|-o");
    Compare(Local.Relaxed, Overt.Relaxed, "|-r");
  }
}

TEST(RemotePoolSocket, AllEndpointsDeadDegradesToInProcessTail) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  // No worker ever listened here: every connect fails, the respawn
  // budget drains, and the portfolio's in-process tail must still
  // answer everything with the fault-free verdicts.
  auto Pool = RemotePool::create(remoteOptions({uniqueUnixAddr("dead")}));
  ASSERT_TRUE(Pool.ok()) << Pool.message();

  auto Run = [&Source](DischargePool *Pool) -> VerifyReport {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    EXPECT_TRUE(P.ok()) << P.diagnostics();
    BoundedSolver Dummy;
    DiagnosticEngine Diags;
    Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
    Verifier::Options VO;
    PortfolioOptions PO;
    PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Shard};
    PO.Bounded.MaxCandidates = 50'000;
    PO.Bounded.MaxQuantSteps = 20'000;
    PO.Pool = Pool;
    PO.ShardWorkerPipeline = "bounded";
    VO.Portfolio = PO;
    return V.run(VO);
  };
  VerifyReport Local = Run(nullptr);
  VerifyReport R = Run(Pool->get());
  for (auto Pass : {std::make_pair(&Local.Original, &R.Original),
                    std::make_pair(&Local.Relaxed, &R.Relaxed)}) {
    ASSERT_EQ(Pass.first->Outcomes.size(), Pass.second->Outcomes.size());
    for (size_t I = 0; I != Pass.first->Outcomes.size(); ++I) {
      EXPECT_EQ(Pass.first->Outcomes[I].Status, Pass.second->Outcomes[I].Status)
          << "VC #" << I;
      EXPECT_EQ(Pass.first->Outcomes[I].Detail, Pass.second->Outcomes[I].Detail)
          << "VC #" << I;
    }
  }
  EXPECT_TRUE((*Pool)->degraded());
  PoolStats S = (*Pool)->stats();
  EXPECT_TRUE(S.Degraded);
  EXPECT_GT(S.DegradedFallbacks, 0u);
}

TEST(RemotePoolSocket, ListenWorkerDropsAGarbageConnectionAndKeepsServing) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The socket twin of ShardWorker.GarbageFrameYieldsDiagnosedErrorNotHang,
  // minus the exit: raw bytes that are not even a frame header get a
  // diagnosed error frame (or a bare hang-up) and cost only that
  // connection; the worker keeps listening.
  ListenWorker W(uniqueUnixAddr("junk"));
  ASSERT_TRUE(W.Ready);
  {
    auto C = connectSocket(W.Addr, 10'000);
    ASSERT_TRUE(C.ok()) << C.message();
    // Exactly one header's worth, so the worker has read everything sent
    // when it hangs up (unread bytes would turn its close into a reset).
    const char Junk[] = "not-RLXF";
    ASSERT_EQ(::write((*C)->recvFd(), Junk, 8), 8);
    FrameRead F = (*C)->recvMs(10'000);
    if (F.ok()) {
      auto R = parseShardResponse(F.Payload);
      ASSERT_TRUE(R.ok()) << R.message();
      EXPECT_TRUE(R->IsError);
      EXPECT_NE(R->Error.find("frame error"), std::string::npos) << R->Error;
      F = (*C)->recvMs(10'000);
    }
    EXPECT_TRUE(F.eof()) << "the garbage connection was not closed: "
                         << F.Message;
  }
  auto C = connectSocket(W.Addr, 10'000);
  ASSERT_TRUE(C.ok()) << C.message();
  ASSERT_TRUE((*C)->send(serializeShardRequest(simpleRequest())).ok());
  FrameRead F = (*C)->recvMs(30'000);
  ASSERT_TRUE(F.ok()) << F.Message;
  auto R = parseShardResponse(F.Payload);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->IsError) << R->Error;
  EXPECT_EQ(R->Verdict, SatResult::Sat);
}

} // namespace
