//===- serve_tests.cpp - Socket transport and the --serve daemon ---------------===//
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
//  * the daemon: served reports are bit-identical to a local run on
//    every case study, concurrently and under chaos; the warm
//    per-config cache answers a repeated request with zero solver
//    queries; a slow-loris client cannot stall other clients; a
//    garbage connection costs only itself, and a payload that is not a
//    verify request (a shard request or an older format included) is
//    refused with status 2 on a connection that keeps serving, as is a
//    knob the CLI would refuse, in the CLI's words; a request without a
//    deadline runs under --serve-max-request-ms;
//  * the CLI and the verify session: `relaxc verify` prints exactly the
//    report, diagnostics and exit status runVerifyJob returns, a pool
//    only chooses where the final tier runs, and a cache written by the
//    CLI warms the daemon and vice versa (one fingerprint);
//  * hygiene: no daemon leaves its Unix socket file behind, and SIGTERM
//    or SIGINT drain the daemon: the request in flight is answered, the
//    daemon exits 0 and removes its socket.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "GenProgram.h"
#include "Replay.h"
#include "TestUtil.h"

#include "server/VerifyServer.h"
#include "solver/FormulaEval.h"
#include "support/Subprocess.h"
#include "support/Transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <regex>
#include <thread>

#include <dirent.h>
#include <signal.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A fresh AF_UNIX address per call (the kernel caps the path well below
/// PATH_MAX, so keep it short and unique per process + counter). The
/// `relaxc_<tag>_<pid>_` prefix is what the leak sweep below looks for.
std::string uniqueUnixAddr(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return "unix:/tmp/relaxc_" + std::string(Tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// After the whole suite: no `/tmp/relaxc_*_<pid>_*.sock` of this process
/// may remain. A listener unlinks its path on close, but a daemon killed
/// with SIGKILL cannot, so the Daemon fixture removes it.
class SocketLeakSweep : public ::testing::Environment {
public:
  void TearDown() override {
    std::string Pid = "_" + std::to_string(::getpid()) + "_";
    std::vector<std::string> Leaked;
    if (DIR *D = ::opendir("/tmp")) {
      while (const dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name.rfind("relaxc_", 0) == 0 &&
            Name.find(Pid) != std::string::npos &&
            Name.compare(Name.size() - 5, 5, ".sock") == 0)
          Leaked.push_back(Name);
      }
      ::closedir(D);
    }
    EXPECT_TRUE(Leaked.empty())
        << Leaked.size() << " socket file(s) left in /tmp, e.g. "
        << Leaked.front();
  }
};

::testing::Environment *const LeakSweep =
    ::testing::AddGlobalTestEnvironment(new SocketLeakSweep);

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

/// Spawns a `--serve` daemon on a fresh Unix socket and waits for its
/// readiness line; SIGKILLed on destruction, after which its socket file
/// is removed. Addr holds the resolved address the line reported.
struct Daemon {
  Subprocess Proc;
  std::string Bind = uniqueUnixAddr("serve");
  std::string Addr;
  bool Ready = false;

  explicit Daemon(const std::vector<std::string> &Extra = {}) {
    std::vector<std::string> Args = {"--serve=" + Bind};
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    Status S = Proc.spawn(relax::test::driverPath(), Args);
    EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
    if (!S.ok())
      return;
    const char ReadyTag[] = "serving on ";
    std::string Line = readLine(Proc.readFd(), 30'000);
    size_t At = Line.find(ReadyTag);
    EXPECT_NE(At, std::string::npos)
        << "no readiness line (got '" << Line << "')";
    if (At == std::string::npos)
      return;
    Addr = Line.substr(At + std::strlen(ReadyTag));
    Ready = true;
  }
  ~Daemon() {
    Proc.terminate();
    ::unlink(Bind.c_str() + std::strlen("unix:"));
  }
};

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
/// field for field, report bytes included.
void expectServedMatchesLocal(const std::string &Addr,
                              const VerifyWireRequest &R,
                              const std::string &Tag) {
  VerifyWireResponse Local = runVerifyJob(R, nullptr);
  VerifyWireResponse Served = sendVerify(Addr, R);
  ASSERT_FALSE(Served.IsError) << Tag << ": " << Served.Error;
  EXPECT_EQ(Served.ExitStatus, Local.ExitStatus) << Tag;
  EXPECT_EQ(Served.Report, Local.Report) << Tag;
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

/// A request in the keyed-field format 2, which the flag lines replaced.
const char FormatTwoRequest[] =
    "relax-verify-request 2\nsolver z3\npipeline simplify,bounded\n"
    "bounded-steps 200000\njobs 1\ntimeout-ms -1\nvc-timeout-ms -1\n"
    "flags -\nfile 5\nx.rlx\nsource 17\nint x;\n{ skip; }\n\n";

/// A format-3 request spelled out by hand: \p Flag as its one flag line,
/// and a small program.
std::string rawRequest(const std::string &Flag) {
  return "relax-verify-request 3\n" + Flag +
         "\nfile 5\nx.rlx\nsource 17\nint x;\n{ skip; }\n\n";
}

TEST(VerifyWire, RequestRoundTripsEveryField) {
  VerifyWireRequest R;
  R.FileName = "weird name.rlx";
  R.Source = "int x;\nrequires (x >= 0);\n{ assert x >= 0; }\n";
  R.Source.push_back('\0'); // blobs are byte-counted, not NUL-terminated
  R.Source += "tail";
  R.SolverName = "bounded";
  R.Pipeline = "simplify,bounded,z3";
  R.BoundedSteps = 123'456;
  R.Jobs = 4;
  R.TimeoutMs = 90'000;
  R.VcTimeoutMs = 1'000;
  R.NoSafety = true;
  R.OriginalOnly = true;
  R.Verbose = true;
  R.SolverStats = true;

  auto P = parseVerifyRequest(serializeVerifyRequest(R));
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->FileName, R.FileName);
  EXPECT_EQ(P->Source, R.Source);
  EXPECT_EQ(P->SolverName, R.SolverName);
  EXPECT_EQ(P->Pipeline, R.Pipeline);
  EXPECT_EQ(P->BoundedSteps, R.BoundedSteps);
  EXPECT_EQ(P->Jobs, R.Jobs);
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
  // The formats before the flag lines are refused: the one that still
  // carried the bounded-search knobs, and the keyed-field one.
  std::string Old = serializeVerifyRequest(VerifyWireRequest());
  ASSERT_EQ(Old.rfind("relax-verify-request 3\n", 0), 0u);
  for (char Format : {'1', '2'}) {
    Old[std::strlen("relax-verify-request ")] = Format;
    EXPECT_FALSE(parseVerifyRequest(Old).ok()) << Format;
  }
  EXPECT_FALSE(parseVerifyRequest(FormatTwoRequest).ok());

  // The format is the CLI's spelling of the non-default knobs, one a
  // line, before the counted blobs.
  VerifyWireRequest Verbose;
  Verbose.FileName = "x.rlx";
  Verbose.Source = "int x;\n{ skip; }\n";
  Verbose.Verbose = true;
  EXPECT_EQ(serializeVerifyRequest(Verbose), rawRequest("--verbose"));

  // A flag line is parsed by the CLI's own parser: a bad value carries
  // the CLI's diagnostic, and a flag that is no verify knob is unknown.
  for (const char *Flag : {"--jobs=1025", "--shards=2", "--jobs"}) {
    VerifyWireRequest Ignored;
    Status Cli = parseVerifyFlag(Flag, Ignored);
    ASSERT_FALSE(Cli.ok()) << Flag;
    auto P = parseVerifyRequest(rawRequest(Flag));
    ASSERT_FALSE(P.ok()) << Flag;
    EXPECT_EQ(P.message(), "bad verify request: " + Cli.message());
  }

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
    EXPECT_EQ(Served[I].Report, Local[I].Report)
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

TEST(ServeDaemon, GarbageConnectionIsDroppedAndTheNextIsServed) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Raw bytes that are not even a frame header get a diagnosed error
  // frame (or a bare hang-up) and cost only that connection; the daemon
  // keeps serving the next one.
  Daemon D;
  ASSERT_TRUE(D.Ready);
  {
    auto C = connectSocket(D.Addr, 10'000);
    ASSERT_TRUE(C.ok()) << C.message();
    // Exactly one header's worth, so the daemon has read everything sent
    // when it hangs up (unread bytes would turn its close into a reset).
    const char Junk[] = "not-RLXF";
    ASSERT_EQ(::write((*C)->recvFd(), Junk, 8), 8);
    FrameRead F = (*C)->recvMs(10'000);
    if (F.ok()) {
      auto R = parseVerifyResponse(F.Payload);
      ASSERT_TRUE(R.ok()) << R.message();
      EXPECT_TRUE(R->IsError);
      EXPECT_NE(R->Error.find("frame error"), std::string::npos) << R->Error;
      F = (*C)->recvMs(10'000);
    }
    EXPECT_TRUE(F.eof()) << "the garbage connection was not closed: "
                         << F.Message;
  }
  expectServedMatchesLocal(
      D.Addr, boundedRequest("after.rlx", "int x;\n{ assert x >= 0; }\n"),
      "after a garbage connection");
}

TEST(ServeDaemon, RefusesPayloadsThatAreNotVerifyRequests) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The daemon speaks one protocol: a shard discharge request (the wire
  // of the worker processes behind --shards=) is a malformed verify
  // request, refused with a parsed, non-retryable status-2 response, and
  // so is a verify request naming a shard tier. The connection stays
  // open: the verify request sent after them on it is answered.
  Daemon D;
  ASSERT_TRUE(D.Ready);
  auto C = connectSocket(D.Addr, 10'000);
  ASSERT_TRUE(C.ok()) << C.message();
  auto Ask = [&](const std::string &Payload) {
    EXPECT_TRUE((*C)->send(Payload).ok());
    FrameRead F = (*C)->recvMs(300'000);
    EXPECT_TRUE(F.ok()) << F.Message;
    auto R = parseVerifyResponse(F.Payload);
    EXPECT_TRUE(R.ok()) << R.message();
    return R.ok() ? *R : VerifyWireResponse();
  };

  ShardRequest SR;
  SR.Pipeline = "bounded";
  SR.Vars = {{"x", VarKind::Int}};
  SR.Formulas = {"x > 4"};
  VerifyWireResponse Shard = Ask(serializeShardRequest(SR));
  EXPECT_TRUE(Shard.IsError);
  EXPECT_FALSE(Shard.Retryable);
  EXPECT_EQ(Shard.ExitStatus, 2);
  EXPECT_NE(Shard.Error.find("not speaking the verify protocol"),
            std::string::npos)
      << Shard.Error;

  VerifyWireResponse Two = Ask(FormatTwoRequest);
  EXPECT_TRUE(Two.IsError);
  EXPECT_FALSE(Two.Retryable);
  EXPECT_EQ(Two.ExitStatus, 2);
  EXPECT_NE(Two.Error.find("not speaking the verify protocol"),
            std::string::npos)
      << Two.Error;

  VerifyWireRequest Sharded =
      boundedRequest("tier.rlx", "int x;\n{ assert x >= 0; }\n");
  Sharded.Pipeline = "simplify,bounded,shard";
  VerifyWireResponse Tier = Ask(serializeVerifyRequest(Sharded));
  EXPECT_TRUE(Tier.IsError);
  EXPECT_FALSE(Tier.Retryable);
  EXPECT_EQ(Tier.ExitStatus, 2);
  EXPECT_NE(Tier.Error.find("cannot run a shard tier"), std::string::npos)
      << Tier.Error;

  VerifyWireRequest R =
      boundedRequest("next.rlx", "int x;\nrequires (x >= 0 && x <= 2);\n"
                                 "{ x = x + 1; assert x >= 1; }\n");
  VerifyWireResponse Local = runVerifyJob(R, nullptr);
  VerifyWireResponse Served = Ask(serializeVerifyRequest(R));
  ASSERT_FALSE(Served.IsError) << Served.Error;
  EXPECT_EQ(Served.ExitStatus, 0);
  EXPECT_EQ(Served.Report, Local.Report);
}

TEST(ServeDaemon, RefusesEachBadKnobWithTheCliDiagnostic) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The daemon parses a request's flag lines with the CLI's parser, so a
  // knob the CLI refuses is refused with the CLI's words: a status-2
  // answer on a connection that stays open. A switch given a value is
  // no knob at all, on either side.
  Daemon D;
  ASSERT_TRUE(D.Ready);
  auto C = connectSocket(D.Addr, 10'000);
  ASSERT_TRUE(C.ok()) << C.message();
  for (const char *Flag :
       {"--solver=bogus", "--pipeline=simplify,bogus", "--pipeline=",
        "--bounded-steps=x", "--jobs=1025", "--timeout-ms=-5",
        "--vc-timeout-ms=1e3", "--no-safety=1", "--original-only=1",
        "--verbose=1", "--solver-stats=1"}) {
    CliRun Cli = runCli({"verify", "x.rlx", Flag});
    EXPECT_EQ(Cli.Exit, 2) << Flag;
    const std::string Prefix = "relaxc: error: ";
    ASSERT_EQ(Cli.Err.rfind(Prefix, 0), 0u) << Flag << "\n" << Cli.Err;
    std::string Message =
        Cli.Err.substr(Prefix.size(), Cli.Err.find('\n') - Prefix.size());

    ASSERT_TRUE((*C)->send(rawRequest(Flag)).ok()) << Flag;
    FrameRead F = (*C)->recvMs(300'000);
    ASSERT_TRUE(F.ok()) << Flag << ": " << F.Message;
    auto R = parseVerifyResponse(F.Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_TRUE(R->IsError) << Flag;
    EXPECT_FALSE(R->Retryable) << Flag;
    EXPECT_EQ(R->ExitStatus, 2) << Flag;
    EXPECT_EQ(R->Error, "bad verify request: " + Message) << Flag;
  }
}

TEST(ServeDaemon, MaxRequestMsCapsARequestWithoutADeadline) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // --serve-max-request-ms is the daemon's guard against a request that
  // asks for no deadline: the request runs under the cap, so a cap of 0
  // answers a case study exactly as a local run under --timeout-ms=0.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  std::string Path = relax::test::examplePath("swish.rlx");
  Daemon D({"--serve-max-request-ms=0"});
  ASSERT_TRUE(D.Ready);
  VerifyWireRequest R = boundedRequest(Path, Source);
  ASSERT_LT(R.TimeoutMs, 0);
  VerifyWireResponse Served = sendVerify(D.Addr, R);
  ASSERT_FALSE(Served.IsError) << Served.Error;
  CliRun Local = runCli(
      {"verify", Path, "--pipeline=" + R.Pipeline, "--timeout-ms=0"});
  EXPECT_EQ(Local.Exit, 3) << Local.Out << Local.Err;
  EXPECT_EQ(Served.ExitStatus, Local.Exit);
  EXPECT_EQ(Served.Report, Local.Out);
  EXPECT_EQ(Served.Diagnostics, Local.Err);
  EXPECT_NE(Served.Report.find("deadline"), std::string::npos)
      << Served.Report;
}

TEST(ServeDaemon, StopSignalDrainsTheRequestInFlight) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // `kill <daemon>` must not cut a client off: SIGTERM (and SIGINT) stop
  // accepting, let the request in flight finish and answer, exit 0, and
  // remove the Unix socket. Water under the bounded pipeline without a
  // quantifier-step budget runs until its 3-second deadline, so the
  // signal lands while it is in flight.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water.rlx");
  for (int Sig : {SIGTERM, SIGINT}) {
    Daemon D;
    ASSERT_TRUE(D.Ready);
    auto C = connectSocket(D.Addr, 10'000);
    ASSERT_TRUE(C.ok()) << C.message();
    // A first answer on this connection: the daemon has accepted it.
    ASSERT_TRUE((*C)->send(serializeVerifyRequest(boundedRequest(
                               "quick.rlx", "int x;\n{ x = 1; assert x == 1; }\n")))
                    .ok());
    ASSERT_TRUE((*C)->recvMs(60'000).ok());

    VerifyWireRequest Slow = boundedRequest("water.rlx", Source);
    Slow.BoundedSteps = 0;
    Slow.TimeoutMs = 3'000;
    ASSERT_TRUE((*C)->send(serializeVerifyRequest(Slow)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ASSERT_EQ(::kill(static_cast<pid_t>(D.Proc.pid()), Sig), 0);

    FrameRead F = (*C)->recvMs(120'000);
    ASSERT_TRUE(F.ok()) << "signal " << Sig << ": " << F.Message;
    auto R = parseVerifyResponse(F.Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_FALSE(R->IsError) << R->Error;
    EXPECT_EQ(R->ExitStatus, 3) << R->Report;
    // Its deadline expired 3 s in, long after the signal: it was in flight.
    EXPECT_NE(R->Report.find("deadline"), std::string::npos) << R->Report;
    EXPECT_EQ(D.Proc.waitForExit(), 0) << "signal " << Sig;
    EXPECT_NE(::access(D.Bind.c_str() + std::strlen("unix:"), F_OK), 0)
        << "signal " << Sig << " left the socket " << D.Bind;
  }
}

//===----------------------------------------------------------------------===//
// The CLI and the verify session
//===----------------------------------------------------------------------===//

/// The numbers of the --solver-stats block are the only permitted
/// differences: it holds the pass times, and under --jobs=N the thread
/// schedule decides which worker wins a race to the shared result cache
/// and how many tasks are stolen, so those counts vary between any two
/// runs. The block's shape and the per-procedure obligation counts must
/// match.
std::string stripSchedule(const std::string &Out) {
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
      EXPECT_EQ(Sharded.Report, Local.Report) << Tag;
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
  // portfolios, sequential or parallel. A refutation's entry carries its
  // counterexample, so the same holds for the mutants, whose warm
  // reports print the cold run's counterexamples.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Swish, "swish.rlx");
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"swish.rlx", Swish}};
  for (const relax::test::Mutation &M : relax::test::ExampleMutants)
    if (std::optional<std::string> Source = relax::test::mutantSource(M))
      Programs.emplace_back(relax::test::mutantName(M), *Source);
  for (const auto &[Name, Source] : Programs)
    for (const char *Pipeline : {"", "simplify,bounded,z3"})
      for (unsigned Jobs : {1u, 4u}) {
        VerifyWireRequest R;
        R.FileName = "program.rlx";
        R.Source = Source;
        R.Pipeline = Pipeline;
        R.Jobs = Jobs;
        std::string Tag = Name + ": pipeline '" + Pipeline + "' jobs " +
                          std::to_string(Jobs);
        int Want = Name == "swish.rlx" ? 0 : 1;
        PersistentCache Cache("", verifyJobFingerprint(R), /*VerifyPpm=*/0);
        VerifyWireResponse Cold = runVerifyJob(R, &Cache);
        ASSERT_EQ(Cold.ExitStatus, Want) << Tag << ": " << Cold.Report;
        uint64_t Before = Z3Solver::contextsBuilt();
        VerifyWireResponse Warm = runVerifyJob(R, &Cache);
        EXPECT_EQ(Warm.ExitStatus, Want) << Tag;
        EXPECT_EQ(Warm.Report, Cold.Report) << Tag;
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
// The daemon's Z3 contexts
//===----------------------------------------------------------------------===//

/// Every obligation's status, |-o pass then |-r pass.
std::vector<VCStatus> statuses(const VerifyReport &R) {
  std::vector<VCStatus> Out;
  for (const JudgmentReport *J : {&R.Original, &R.Relaxed})
    for (const VCOutcome &O : J->Outcomes)
      Out.push_back(O.Status);
  return Out;
}

/// \p Report with each counterexample's text masked: Z3's models depend
/// on the context's history, so a leased context may print another
/// counterexample than a fresh one.
std::string maskCounterexamples(const std::string &Report) {
  static const std::regex Cex("counterexample: [^\n]*");
  return std::regex_replace(Report, Cex, "counterexample: …");
}

/// The two configurations the pool pins run: the default one, and the
/// portfolio at four jobs.
VerifyWireRequest corpusRequest(const std::string &Name,
                                const std::string &Source, bool Portfolio) {
  VerifyWireRequest R;
  R.FileName = Name;
  R.Source = Source;
  if (Portfolio) {
    R.Pipeline = "simplify,bounded,z3";
    R.Jobs = 4;
  }
  return R;
}

TEST(ContextPool, MixedCorpusKeepsEveryVerdictForwardAndReversed) {
  RELAXC_SKIP_WITHOUT_Z3();
  auto Corpus = relax::test::mixedCorpus();
  if (!Corpus)
    GTEST_SKIP() << "case studies not found";
  const size_t N = Corpus->size();
  const size_t CaseStudyCount = std::size(relax::test::CaseStudies);

  struct Reference {
    int Exit;
    std::string Report;
    std::vector<VCStatus> Statuses;
  };
  std::vector<Reference> Refs[2];
  uint64_t MostContexts = 0; // the most any one pool-less request built
  for (bool Portfolio : {false, true})
    for (const auto &[Name, Source] : *Corpus) {
      uint64_t Before = Z3Solver::contextsBuilt();
      VerifyJobResult J =
          runVerifyJob(corpusRequest(Name, Source, Portfolio), nullptr);
      MostContexts =
          std::max(MostContexts, Z3Solver::contextsBuilt() - Before);
      Refs[Portfolio].push_back(
          {J.ExitStatus, J.Report, statuses(J.Verdicts)});
    }
  ASSERT_GT(MostContexts, 0u);

  // One pool serves the whole sequence: the corpus forward, then
  // reversed, under each configuration.
  Z3ContextPool Pool(4);
  uint64_t Before = Z3Solver::contextsBuilt();
  for (bool Portfolio : {false, true})
    for (bool Reversed : {false, true})
      for (size_t K = 0; K != N; ++K) {
        size_t I = Reversed ? N - 1 - K : K;
        const auto &[Name, Source] = (*Corpus)[I];
        const Reference &Ref = Refs[Portfolio][I];
        std::string Tag = Name + (Portfolio ? " [portfolio --jobs=4]" : "") +
                          (Reversed ? " (reversed)" : "");
        VerifyJobResult J = runVerifyJob(corpusRequest(Name, Source, Portfolio),
                                         nullptr, nullptr, &Pool);
        ASSERT_FALSE(J.IsError) << Tag << ": " << J.Error;
        EXPECT_EQ(J.ExitStatus, Ref.Exit) << Tag;
        EXPECT_EQ(statuses(J.Verdicts), Ref.Statuses) << Tag;
        EXPECT_EQ(maskCounterexamples(J.Report),
                  maskCounterexamples(Ref.Report))
            << Tag;
        if (I < CaseStudyCount)
          EXPECT_EQ(J.Report, Ref.Report) << Tag;
      }
  EXPECT_LE(Z3Solver::contextsBuilt() - Before, MostContexts)
      << "a request built a context the pool held";
  EXPECT_LE(Pool.idle(), 4u);
}

TEST(ContextPool, WarmContextCounterexamplesReplay) {
  // A context that has served the 50 generated programs still answers
  // each refuted obligation of the mutants with a model of its query.
  RELAXC_SKIP_WITHOUT_Z3();
  auto Corpus = relax::test::mixedCorpus();
  if (!Corpus)
    GTEST_SKIP() << "case studies not found";
  const size_t Programs = std::size(relax::test::CaseStudies) +
                          std::size(relax::test::ExampleMutants);
  ASSERT_GT(Corpus->size(), Programs);
  Z3ContextPool Pool(1);
  for (size_t I = Programs; I != Corpus->size(); ++I) {
    const auto &[Name, Source] = (*Corpus)[I];
    VerifyJobResult J = runVerifyJob(corpusRequest(Name, Source, false),
                                     nullptr, nullptr, &Pool);
    ASSERT_FALSE(J.IsError) << Name << ": " << J.Error;
  }
  ASSERT_EQ(Pool.idle(), 1u);

  uint64_t Built = Z3Solver::contextsBuilt();
  size_t Failed = 0;
  for (size_t I = std::size(relax::test::CaseStudies); I != Programs; ++I) {
    const auto &[Name, Source] = (*Corpus)[I];
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    const Interner &Syms = P.Ctx->symbols();
    Z3Solver Leased(Syms, Z3SolverOptions(), &Pool);
    for (const auto &[C, Q] : relax::test::passQueries(P)) {
      if (C.Kind != VCKind::Validity)
        continue;
      std::string Tag = Name + " " + C.Rule + " #" + std::to_string(C.Id);
      Model Cex;
      Result<SatResult> R = Leased.checkSatWithModel({Q}, freeVars(C.Formula),
                                                     Cex);
      ASSERT_TRUE(R.ok()) << Tag << ": " << R.message();
      if (*R != SatResult::Sat)
        continue;
      ++Failed;
      EXPECT_TRUE(
          evalFormula(relax::test::eliminateOnePoint(*P.Ctx, Q), Cex))
          << Tag << ": " << formatModel(Syms, Cex);
    }
  }
  EXPECT_GT(Failed, 0u);
  EXPECT_EQ(Z3Solver::contextsBuilt(), Built)
      << "a mutant's solver built a context instead of leasing the warm one";
}

TEST(ContextPool, ConcurrentRequestsShareACappedPool) {
  // Four threads run distinct programs at --jobs=4 against one pool that
  // keeps two idle contexts. The copies programs start four slots per
  // pass, so up to sixteen contexts are leased at once.
  RELAXC_SKIP_WITHOUT_Z3();
  auto Corpus = relax::test::mixedCorpus();
  if (!Corpus)
    GTEST_SKIP() << "case studies not found";
  const size_t Threads = 4;
  const size_t Programs = std::size(relax::test::CaseStudies) +
                          std::size(relax::test::ExampleMutants);
  std::vector<std::vector<VerifyWireRequest>> Work(Threads);
  for (size_t I = 0; I != Programs; ++I) {
    VerifyWireRequest R =
        corpusRequest((*Corpus)[I].first, (*Corpus)[I].second, false);
    R.Jobs = 4;
    Work[I % Threads].push_back(R);
  }
  for (size_t T = 0; T != Threads; ++T) {
    VerifyWireRequest R = corpusRequest(
        "copies",
        relax::test::copiesProgram(relax::test::ManyCopies +
                                   static_cast<unsigned>(T)),
        false);
    R.Jobs = 4;
    Work[T].push_back(R);
  }

  std::vector<std::vector<VerifyJobResult>> Local(Threads), Pooled(Threads);
  for (size_t T = 0; T != Threads; ++T)
    for (const VerifyWireRequest &R : Work[T])
      Local[T].push_back(runVerifyJob(R, nullptr));

  Z3ContextPool Pool(2);
  std::vector<std::thread> Clients;
  for (size_t T = 0; T != Threads; ++T)
    Clients.emplace_back([&, T] {
      for (const VerifyWireRequest &R : Work[T])
        Pooled[T].push_back(runVerifyJob(R, nullptr, nullptr, &Pool));
    });
  for (std::thread &C : Clients)
    C.join();

  for (size_t T = 0; T != Threads; ++T)
    for (size_t I = 0; I != Work[T].size(); ++I) {
      const std::string &Tag = Work[T][I].FileName;
      const VerifyJobResult &A = Local[T][I], &B = Pooled[T][I];
      ASSERT_FALSE(B.IsError) << Tag << ": " << B.Error;
      EXPECT_EQ(B.ExitStatus, A.ExitStatus) << Tag;
      EXPECT_EQ(statuses(B.Verdicts), statuses(A.Verdicts)) << Tag;
    }
  EXPECT_LE(Pool.idle(), 2u);
}

TEST(ServeDaemon, MutantsServedAfterTheCaseStudiesKeepTheLocalReport) {
  // A live daemon leases every request's contexts from its pool. After
  // the case studies, the mutants, sent twice, still exit 1 and print the
  // local report; only the counterexamples' text may differ.
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  Daemon D;
  ASSERT_TRUE(D.Ready);
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    expectServedMatchesLocal(D.Addr, corpusRequest(Name, Source, false),
                             Name);
  }
  for (int Round = 0; Round != 2; ++Round)
    for (const relax::test::Mutation &M : relax::test::ExampleMutants) {
      std::optional<std::string> Source = relax::test::mutantSource(M);
      ASSERT_TRUE(Source.has_value());
      std::string Name = relax::test::mutantName(M);
      std::string Tag = Name + " (round " + std::to_string(Round + 1) + ")";
      VerifyWireRequest R = corpusRequest(Name, *Source, false);
      VerifyWireResponse Local = runVerifyJob(R, nullptr);
      VerifyWireResponse Served = sendVerify(D.Addr, R);
      ASSERT_FALSE(Served.IsError) << Tag << ": " << Served.Error;
      EXPECT_EQ(Local.ExitStatus, 1) << Tag;
      EXPECT_EQ(Served.ExitStatus, 1) << Tag;
      EXPECT_EQ(maskCounterexamples(Served.Report),
                maskCounterexamples(Local.Report))
          << Tag;
      EXPECT_EQ(Served.Diagnostics, Local.Diagnostics) << Tag;
    }
}

//===----------------------------------------------------------------------===//
// Where a run's Z3 contexts come from
//===----------------------------------------------------------------------===//

/// The `z3 contexts:` line of a --solver-stats block, or empty.
std::string contextsLine(const std::string &Report) {
  std::smatch M;
  static const std::regex Line("  z3 contexts: [^\n]*");
  return std::regex_search(Report, M, Line) ? M.str() : std::string();
}

/// The line of a run whose one Z3 solver built its context.
const std::regex BuiltOne("  z3 contexts: 1 built in [0-9]+\\.[0-9] ms, "
                          "0 leased");

TEST(ContextStats, ColdCliBuildsOneContextAndLeasesNone) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  CliRun Cli = runCli(
      {"verify", relax::test::examplePath("swish.rlx"), "--solver-stats"});
  ASSERT_EQ(Cli.Exit, 0) << Cli.Out << Cli.Err;
  EXPECT_TRUE(std::regex_match(contextsLine(Cli.Out), BuiltOne)) << Cli.Out;
}

TEST(ContextStats, WarmedDaemonBuildsNoContextOnACacheMiss) {
  // The first request builds the daemon's context and hands it back to
  // the pool; the next one misses the verdict cache and leases it.
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Swish, "swish.rlx");
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Water, "water.rlx");
  Daemon D;
  ASSERT_TRUE(D.Ready);
  VerifyWireRequest Warm = corpusRequest("swish.rlx", Swish, false);
  Warm.SolverStats = true;
  VerifyWireResponse First = sendVerify(D.Addr, Warm);
  ASSERT_FALSE(First.IsError) << First.Error;
  EXPECT_TRUE(std::regex_match(contextsLine(First.Report), BuiltOne))
      << First.Report;
  VerifyWireRequest Miss = corpusRequest("water.rlx", Water, false);
  Miss.SolverStats = true;
  VerifyWireResponse Second = sendVerify(D.Addr, Miss);
  ASSERT_FALSE(Second.IsError) << Second.Error;
  EXPECT_EQ(Second.ExitStatus, 0) << Second.Report;
  EXPECT_EQ(contextsLine(Second.Report),
            "  z3 contexts: 0 built in 0.0 ms, 1 leased")
      << Second.Report;
}

TEST(ServeDaemon, HeapIsAdvisedForHugePages) {
  // main() reserves the heap before anything else, in every mode: the
  // daemon's [heap] carries the huge-page advice.
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_HUGE_PAGES();
  Daemon D;
  ASSERT_TRUE(D.Ready);
  std::string Smaps = "/proc/" + std::to_string(D.Proc.pid()) + "/smaps";
  std::vector<relax::test::Mapping> Maps = relax::test::readSmaps(Smaps);
  ASSERT_FALSE(Maps.empty()) << "cannot read " << Smaps;
  EXPECT_TRUE(std::any_of(Maps.begin(), Maps.end(),
                          [](const relax::test::Mapping &M) {
                            return M.Name == "[heap]" && M.hasFlag("hg");
                          }))
      << "no [heap] mapping of the daemon carries VmFlags hg";
}

} // namespace
