//===- VerifyServer.h - Verification as a service ------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verify session and the `--serve=<addr>` daemon around it.
///
/// `VerifyWireRequest` is the one verify configuration and
/// `parseVerifyFlag` the one parser of its knobs: the CLI runs it on its
/// argv, and the daemon on each request, whose wire form is the magic
/// line `relax-verify-request 3`, the non-default knobs in their CLI
/// spelling one a line, and the counted `file` and `source` blobs.
/// `runVerifyJob` is the one path from a configuration to a report — the
/// local `verify` command (with or without a worker pool and a persistent
/// cache), the daemon, and the benchmark harness all run it, so a served
/// report has a local run's verdicts, statuses and exit code by
/// construction (see below for its text). The portfolio options, the
/// cache fingerprint and the exit code are each derived from the
/// configuration in exactly one place. Every job runs a portfolio:
/// without a pipeline, the one tier `--solver=` names.
///
/// The daemon is a long-lived process accepting framed verify requests
/// over a Unix-domain or TCP socket (support/Transport.h): a whole
/// program plus its configuration per frame. The response carries the
/// session's report, diagnostics, and exit status (0 verified / 1
/// refuted / 2 static error / 3 gave up), so `relaxc verify f.rlx
/// --connect=<addr>` is a drop-in for a local run. Any other payload, and
/// a knob the CLI would refuse, is refused with a diagnosed status-2
/// response. Two input checks are the daemon's own: a served request may
/// not name a literal `shard` tier, and `--serve-max-request-ms` clamps
/// its deadline.
///
/// The daemon's warm state is its per-configuration verdict cache and
/// its pooled Z3 contexts; each session still gets a FRESH AstContext
/// (VC generation through a reused context would drift the Interner's
/// fresh counters — x'1 becomes x'2 on the second run — breaking both
/// report identity and persistent-cache keys). The PersistentCache
/// persists across requests (its keys are printed formulas, portable
/// across contexts). The Z3ContextPool keeps at most MaxConnections
/// idle contexts; a request's Z3 backends lease one on their first
/// query instead of building one, and hand it back with no memo or
/// assertion of the request left in it. What stays equal to a local
/// run: every verdict, every obligation's status, the exit code, and
/// the report's bytes wherever it prints no counterexample. What may
/// not: a counterexample's text, because Z3's models depend on the
/// context's history (a leased context's, or the cache entry's first
/// computation). Backpressure is a bounded connection count: a request
/// past it is refused with a *retryable* error response instead of
/// queueing unboundedly.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SERVER_VERIFYSERVER_H
#define RELAXC_SERVER_VERIFYSERVER_H

#include "solver/Portfolio.h"
#include "solver/ShardPool.h"
#include "solver/Z3Solver.h"
#include "support/IntMath.h"
#include "support/PersistentCache.h"
#include "support/Transport.h"
#include "vcgen/Verifier.h"

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace relax {

//===----------------------------------------------------------------------===//
// Flags
//===----------------------------------------------------------------------===//

class FlagArg;

/// One flag of a parser over the options \p T: its spelling, its usage
/// text, and the check that stores it. The CLI, the daemon and the verify
/// wire parse through tables of these, and the usage prints them.
template <typename T> struct Flag {
  const char *Name;    ///< `--jobs`
  const char *Metavar; ///< `<n>` for `--jobs=<n>`; null for a switch
  const char *Help;    ///< usage text; each '\n' starts an indented line
  Status (*Set)(const FlagArg &, T &);
};

/// One argument matched against a parser's flags. The checks store its
/// value or diagnose it as `bad --name value 'V' (expected ...)`.
class FlagArg {
public:
  explicit FlagArg(std::string_view Arg) : Arg(Arg) {}

  /// Whether the argument is `Name=<value>` (\p Valued) or the switch
  /// `Name`; a match names the flag value() belongs to.
  bool spells(std::string_view Name, bool Valued);

  template <typename T>
  const Flag<T> *find(const std::vector<Flag<T>> &Flags) {
    for (const Flag<T> &F : Flags)
      if (spells(F.Name, F.Metavar != nullptr))
        return &F;
    return nullptr;
  }

  std::string_view arg() const { return Arg; }
  std::string_view value() const { return Value; }

  /// A strict decimal (support/IntMath.h) in [Min, Max].
  template <typename T>
  Status decimal(T &Out, const char *Expected,
                 uint64_t Max = std::numeric_limits<T>::max(),
                 uint64_t Min = 0) const {
    uint64_t N = 0;
    if (!parseDecimal(Value, N) || N < Min || N > Max)
      return bad(Expected);
    Out = static_cast<T>(N);
    return Status::success();
  }
  Status text(std::string &Out) const;
  Status nonEmpty(std::string &Out, const char *Expected) const;
  /// One of \p Choices, else `unknown <What> 'V' for --name= (valid
  /// choices: a, b)`.
  Status choice(std::string &Out, const char *What,
                const std::vector<const char *> &Choices) const;
  /// Sets a switch.
  Status on(bool &Out) const;
  /// `unknown <Mode>option 'A'` (\p Mode: "" for the CLI, "--serve " ...).
  Status unknown(const char *Mode) const;

private:
  Status bad(const char *Expected) const;

  std::string_view Arg, Name, Value;
};

//===----------------------------------------------------------------------===//
// The verify wire
//===----------------------------------------------------------------------===//

/// One whole verification job: the program source plus every verify
/// knob. The defaults are the CLI's flag defaults.
struct VerifyWireRequest {
  std::string FileName = "<request>"; ///< diagnostics rendering only
  std::string Source;                 ///< the program text, verbatim
  std::string SolverName = "z3";      ///< the one tier when no Pipeline
  std::string Pipeline;               ///< tier spec; "" = SolverName alone
  uint64_t BoundedSteps = 200'000;
  unsigned Jobs = 1;
  int64_t TimeoutMs = -1;   ///< request-scoped global deadline (< 0 none)
  int64_t VcTimeoutMs = -1; ///< per-obligation budget (< 0 none)
  bool NoSafety = false;
  bool OriginalOnly = false;
  bool Verbose = false;
  bool SolverStats = false;
};

/// The verify knobs in their CLI spelling, as parseVerifyFlag parses them.
const std::vector<Flag<VerifyWireRequest>> &verifyFlags();

/// Parses one verify knob (`--jobs=4`, `--verbose`) into \p R; an
/// argument that is none is an `unknown option`.
Status parseVerifyFlag(std::string_view Arg, VerifyWireRequest &R);

std::string serializeVerifyRequest(const VerifyWireRequest &R);
Result<VerifyWireRequest> parseVerifyRequest(std::string_view Payload);

/// The daemon's answer. On success, Report/Diagnostics are the exact
/// bytes a standalone `relaxc verify` would have written to
/// stdout/stderr, and ExitStatus is the exit code it would have
/// returned. On IsError, ExitStatus classifies the failure the same way
/// (2 = request was malformed, 3 = the service could not answer);
/// Retryable marks transient refusals (the daemon at capacity).
struct VerifyWireResponse {
  int ExitStatus = 3;
  bool IsError = false;
  bool Retryable = false;
  std::string Error;
  std::string Diagnostics;
  std::string Report;
};

std::string serializeVerifyResponse(const VerifyWireResponse &R);
Result<VerifyWireResponse> parseVerifyResponse(std::string_view Payload);

//===----------------------------------------------------------------------===//
// The verify session
//===----------------------------------------------------------------------===//

/// The oracle solver of `run` and `monitor`: Z3, or the bounded search
/// under the `bounded` tier's budgets (so it settles or gives up, never
/// enumerates unbounded). `verify` discharges only through its
/// portfolio.
std::unique_ptr<Solver> makeVerifyBackend(const VerifyWireRequest &R,
                                          AstContext &Ctx);

/// The persistent-cache config fingerprint of a request: every knob that
/// can change a verdict. A worker pool never enters it (it only moves
/// the final tier out of process), so the CLI with or without
/// `--shards=`, and a daemon given the same --cache-dir=, share on-disk
/// entries. Empty when the request's pipeline does not parse (the job
/// will diagnose it).
std::string verifyJobFingerprint(const VerifyWireRequest &R);

/// What a session returns: the response a client receives, plus the
/// structured report and the AstContext its formulas live in, which
/// `--explain=` prints from. Ctx is null when the job stopped before
/// verifying (a bad configuration or a parse error).
struct VerifyJobResult : VerifyWireResponse {
  std::unique_ptr<AstContext> Ctx;
  VerifyReport Verdicts;
};

/// Runs one verification job start to finish in a fresh AstContext.
/// \p PCache may be null; when set it fronts the run's shared result
/// cache (the caller loads and flushes it). \p Pool may be null; when
/// set, the pipeline's final bounded or z3 tier becomes a `shard` tier
/// whose workers on the pool run the tier it replaced — verdicts and
/// fingerprint are those of the pool-less run. \p Contexts may be null;
/// when set, every Z3 backend of the job leases its context there
/// instead of building one — verdicts, statuses and exit codes are
/// those of the pool-less run, a counterexample may differ. A build
/// without Z3 refuses a job that names no pipeline and the `z3` solver.
VerifyJobResult runVerifyJob(const VerifyWireRequest &R,
                             PersistentCache *PCache,
                             DischargePool *Pool = nullptr,
                             Z3ContextPool *Contexts = nullptr);

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

struct VerifyServerOptions {
  std::string Address;          ///< unix:<path> or host:port (0 = ephemeral)
  unsigned MaxConnections = 8;  ///< concurrent connections; more are refused
  /// Whole-frame read budget once a request's first byte arrives: the
  /// anti-slow-loris bound. Idle connections may wait indefinitely.
  int FrameReadTimeoutMs = 30'000;
  /// Cap on any request's TimeoutMs (< 0 = no cap): requests asking for
  /// more (or for no deadline) are clamped, so one client cannot pin a
  /// handler thread forever.
  int64_t MaxRequestTimeoutMs = -1;
  std::string CacheDir; ///< persistent verdict cache ("" = in-memory warm)
};

class VerifyServer {
public:
  /// Binds the address; fails only on bind/grammar errors.
  static Result<std::unique_ptr<VerifyServer>> create(VerifyServerOptions O);
  ~VerifyServer();

  /// The resolved address (TCP port 0 becomes the real ephemeral port).
  const std::string &boundAddress() const { return Listener.address(); }

  /// Serves until requestStop(), then drains in-flight connections.
  /// Returns 0 (kept int-shaped for the driver's exit-code discipline).
  int run();

  /// Thread- and signal-safe stop request; run() notices within ~250ms.
  void requestStop() { Stopping.store(true); }

private:
  VerifyServer() = default;

  void serveConnection(std::shared_ptr<Transport> Conn);
  VerifyWireResponse handleVerify(std::string_view Payload);
  PersistentCache *cacheFor(const std::string &Fingerprint);

  VerifyServerOptions Opts;
  SocketListener Listener;
  std::atomic<bool> Stopping{false};
  std::mutex M;
  std::condition_variable DrainCV;
  unsigned Active = 0;
  std::mutex CacheM;
  std::map<std::string, std::unique_ptr<PersistentCache>> Caches;
  /// Every request's Z3 contexts; at most MaxConnections idle.
  std::unique_ptr<Z3ContextPool> Contexts;
};

} // namespace relax

#endif // RELAXC_SERVER_VERIFYSERVER_H
