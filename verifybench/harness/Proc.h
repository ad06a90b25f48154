//===- Proc.h - Child processes of the verify benchmark ------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spawning, timing, and reaping the `relaxc` processes a run drives,
/// under one hygiene rule: nothing a run starts outlives it.
///
///  * Every child runs in its own process group, so a kill reaches the
///    shard workers it spawned too.
///  * The harness is the subreaper of its descendants: a worker orphaned
///    by a dead parent is re-parented here, where reapStrays() finds it.
///  * SIGINT/SIGTERM kill every registered group; the interrupted run
///    then unwinds, removes its files, and exits nonzero.
///
/// A process found alive when it should be gone is killed and reported,
/// and the run fails — repeated runs must never pile up strays.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_PROC_H
#define VERIFYBENCH_PROC_H

#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace vb {

/// Installs the signal handlers and makes this process a subreaper.
void installHygiene();

/// True once SIGINT or SIGTERM arrived.
bool interrupted();

/// One finished child.
struct ChildRun {
  int Exit = -1;          ///< exit status; -1 when killed or not started
  bool TimedOut = false;  ///< killed at the per-request limit
  double WallMs = 0;      ///< spawn to reap
  double CpuMs = 0;       ///< user + system, reaped descendants included
  double PeakRssMb = 0;   ///< largest RSS of the child or a descendant
  bool Leftover = false;  ///< a process of its group outlived it
};

/// Runs \p Argv (Argv[0] is the executable) in a new process group with
/// stdio on /dev/null; kills the group after \p TimeoutMs.
ChildRun runChild(const std::vector<std::string> &Argv, int TimeoutMs);

/// A `relaxc --serve=unix:<path>` daemon, stopped on destruction.
class Daemon {
public:
  /// Spawns the daemon and waits for its readiness line.
  static relax::Result<std::unique_ptr<Daemon>>
  start(const std::string &Relaxc, const std::string &SockPath,
        const std::string &CacheDir);
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &address() const { return Addr; }
  /// User + system CPU the daemon has used so far.
  double cpuMs() const;
  /// Peak RSS so far (VmHWM).
  double peakRssMb() const;
  /// SIGTERM, then SIGKILL after a grace period; reaps and removes the
  /// socket. Returns false when the daemon had already died.
  bool stop();

private:
  Daemon() = default;
  pid_t Pid = -1;
  int PidFd = -1;
  bool DiedEarly = false;
  std::string Addr;
  std::string SockPath;
};

/// Kills and reaps every child still alive (orphaned descendants
/// included); returns how many were alive.
unsigned reapStrays();

/// A directory removed with its contents on destruction.
class WorkDir {
public:
  explicit WorkDir(std::string Path);
  ~WorkDir();
  WorkDir(const WorkDir &) = delete;
  WorkDir &operator=(const WorkDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

} // namespace vb

#endif // VERIFYBENCH_PROC_H
