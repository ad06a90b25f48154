//===- Subprocess.h - Child processes and pipe framing -------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process/pipe substrate of the sharded discharge tier: a small
/// fork/exec wrapper whose child speaks a length-prefixed frame protocol
/// over its stdin/stdout, plus the frame reader/writer both sides share.
///
/// ## Frame format
///
/// Every message is one frame: a 4-byte magic (`RLXF`), a 4-byte
/// little-endian payload length, then the payload bytes. The reader
/// distinguishes three outcomes — a complete frame, a clean end-of-stream
/// (EOF exactly on a frame boundary, the normal shutdown signal), and a
/// diagnosed error (bad magic, oversized length, EOF mid-frame, read
/// timeout). Truncated or garbage input must never be silently accepted
/// or hang the reader: the magic rejects garbage immediately, the length
/// cap rejects absurd frames before any allocation, and every read can
/// carry a poll(2) timeout.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SUPPORT_SUBPROCESS_H
#define RELAXC_SUPPORT_SUBPROCESS_H

#include "support/Deadline.h"
#include "support/Status.h"

#include <string>
#include <string_view>
#include <vector>

namespace relax {

/// Upper bound on a frame payload; a length prefix beyond this is
/// diagnosed as garbage rather than allocated.
constexpr size_t MaxFramePayload = 64u << 20; // 64 MiB

/// Outcome of readFrame.
struct FrameRead {
  enum class Kind : uint8_t {
    Ok,    ///< Payload holds one complete frame
    Eof,   ///< clean end-of-stream on a frame boundary
    Error, ///< Message diagnoses truncation / garbage / timeout
  };
  Kind K = Kind::Error;
  std::string Payload;
  std::string Message;

  bool ok() const { return K == Kind::Ok; }
  bool eof() const { return K == Kind::Eof; }
};

/// Writes one frame (magic + length + payload) to \p Fd, retrying short
/// writes. Fails on a closed/broken pipe.
Status writeFrame(int Fd, std::string_view Payload);

/// Reads one frame from \p Fd. \p TimeoutMs < 0 blocks indefinitely;
/// otherwise the WHOLE frame (header and payload) must arrive within
/// that budget before a timeout is diagnosed (the anti-hang guarantee
/// for garbage, trickling, or dead peers).
FrameRead readFrame(int Fd, int TimeoutMs = -1);

/// Deadline-aware variant: the frame must complete before \p D expires.
/// An unarmed deadline blocks indefinitely.
FrameRead readFrame(int Fd, const Deadline &D);

/// The per-poll timeout the frame reader uses under \p D: -1 when
/// unarmed, otherwise the remaining time clamped into poll(2)'s int
/// domain. Exposed for the overflow regression pin: a huge remainder
/// (up to an unarmed deadline's INT64_MAX) must clamp to INT_MAX, never
/// wrap negative into an accidental infinite poll.
int framePollTimeoutMs(const Deadline &D);

/// Absolute path of the running executable (/proc/self/exe on Linux,
/// falling back to \p Argv0 when the proc link is unavailable).
std::string currentExecutablePath(const char *Argv0 = nullptr);

/// A child process with pipes on its stdin and stdout (stderr is
/// inherited, so worker diagnostics land on the parent's stderr).
class Subprocess {
public:
  Subprocess() = default;
  ~Subprocess();
  Subprocess(const Subprocess &) = delete;
  Subprocess &operator=(const Subprocess &) = delete;
  Subprocess(Subprocess &&O) noexcept { *this = std::move(O); }
  Subprocess &operator=(Subprocess &&O) noexcept;

  /// Fork/execs \p Exe with \p Args (argv[0] is supplied automatically).
  /// Any previous child is terminated first. With \p MergeStderr the
  /// child's stderr joins its stdout pipe (used by the CLI tests to
  /// assert on diagnostics); by default stderr is inherited.
  Status spawn(const std::string &Exe, const std::vector<std::string> &Args,
               bool MergeStderr = false);

  bool running() const { return Pid > 0; }
  long pid() const { return Pid; } ///< -1 when not running
  int writeFd() const { return InFd; }
  int readFd() const { return OutFd; }

  /// Closes the child's stdin (signals end-of-requests to a frame loop).
  void closeStdin();

  /// SIGKILLs and reaps the child; safe to call when not running.
  void terminate();

  /// Closes stdin and reaps the child, returning its exit code (or -1
  /// for abnormal termination / no child).
  int waitForExit();

private:
  long Pid = -1;
  int InFd = -1;  ///< parent-side write end of the child's stdin
  int OutFd = -1; ///< parent-side read end of the child's stdout

  void reset();
};

} // namespace relax

#endif // RELAXC_SUPPORT_SUBPROCESS_H
