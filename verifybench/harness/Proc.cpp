//===- Proc.cpp - Child processes of the verify benchmark -----------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Proc.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace relax;

namespace vb {

namespace {

std::atomic<bool> Interrupted{false};

/// Process groups the signal handler kills. Lock-free slots, so the
/// handler only does atomic loads and kill(2).
constexpr size_t MaxGroups = 64;
std::atomic<pid_t> Groups[MaxGroups];

void onSignal(int) {
  Interrupted.store(true);
  for (std::atomic<pid_t> &G : Groups)
    if (pid_t P = G.load(); P > 0)
      ::kill(-P, SIGKILL);
}

/// Registers process group \p P for the signal handler (killing it at
/// once when a signal already arrived).
void trackGroup(pid_t P) {
  for (std::atomic<pid_t> &G : Groups) {
    pid_t Free = 0;
    if (G.compare_exchange_strong(Free, P))
      break;
  }
  if (Interrupted.load())
    ::kill(-P, SIGKILL);
}

void untrackGroup(pid_t P) {
  for (std::atomic<pid_t> &G : Groups) {
    pid_t Mine = P;
    G.compare_exchange_strong(Mine, 0);
  }
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Waits until the process behind \p PidFd exits or \p TimeoutMs passes
/// (< 0 = forever); returns true when it exited.
bool waitExit(int PidFd, int TimeoutMs) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    int Left = -1;
    if (TimeoutMs >= 0) {
      Left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                  Deadline - std::chrono::steady_clock::now())
                                  .count());
      if (Left < 0)
        Left = 0;
    }
    pollfd P{PidFd, POLLIN, 0};
    int R = ::poll(&P, 1, Left);
    if (R > 0)
      return true;
    if (R == 0)
      return false;
    if (errno != EINTR)
      return false;
  }
}

pid_t waitReap(pid_t Pid, int *Status, rusage *Ru) {
  pid_t R;
  do
    R = ::wait4(Pid, Status, 0, Ru);
  while (R < 0 && errno == EINTR);
  return R;
}

/// One /proc/<pid>/stat record.
struct ProcStat {
  pid_t Pid = 0;
  char State = '?';
  pid_t PPid = 0;
  pid_t PGrp = 0;
  unsigned long long UTime = 0, STime = 0;
};

bool readStat(pid_t Pid, ProcStat &Out) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return false;
  // The command name may hold spaces and parentheses: parse after the
  // last ')'.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return false;
  std::istringstream SS(Line.substr(Close + 2));
  std::string Skip;
  SS >> Out.State >> Out.PPid >> Out.PGrp;
  for (int Field = 6; Field <= 13; ++Field)
    SS >> Skip;
  SS >> Out.UTime >> Out.STime;
  Out.Pid = Pid;
  return static_cast<bool>(SS);
}

std::vector<ProcStat> allProcesses() {
  std::vector<ProcStat> Out;
  DIR *D = ::opendir("/proc");
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D)) {
    char *End = nullptr;
    long Pid = std::strtol(E->d_name, &End, 10);
    ProcStat S;
    if (*End == '\0' && Pid > 0 && readStat(static_cast<pid_t>(Pid), S))
      Out.push_back(S);
  }
  ::closedir(D);
  return Out;
}

bool groupHasLiveMember(pid_t PGrp) {
  for (const ProcStat &S : allProcesses())
    if (S.PGrp == PGrp && S.State != 'Z')
      return true;
  return false;
}

/// posix_spawn of \p Argv in a new process group; \p StdoutFd replaces
/// stdout when >= 0 (else /dev/null).
pid_t spawnInGroup(const std::vector<std::string> &Argv, int StdoutFd) {
  std::vector<char *> A;
  for (const std::string &S : Argv)
    A.push_back(const_cast<char *>(S.c_str()));
  A.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawnattr_t Attr;
  posix_spawn_file_actions_init(&FA);
  posix_spawnattr_init(&Attr);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  if (StdoutFd >= 0)
    posix_spawn_file_actions_adddup2(&FA, StdoutFd, 1);
  else
    posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  posix_spawnattr_setpgroup(&Attr, 0);
  // The child starts with default dispositions and an empty mask, not
  // the harness's handlers.
  sigset_t Def;
  sigemptyset(&Def);
  sigaddset(&Def, SIGINT);
  sigaddset(&Def, SIGTERM);
  sigaddset(&Def, SIGPIPE);
  posix_spawnattr_setsigdefault(&Attr, &Def);
  sigset_t Empty;
  sigemptyset(&Empty);
  posix_spawnattr_setsigmask(&Attr, &Empty);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP |
                                      POSIX_SPAWN_SETSIGDEF |
                                      POSIX_SPAWN_SETSIGMASK);
  pid_t Pid = -1;
  if (posix_spawn(&Pid, A[0], &FA, &Attr, A.data(), environ) != 0)
    Pid = -1;
  posix_spawn_file_actions_destroy(&FA);
  posix_spawnattr_destroy(&Attr);
  return Pid;
}

int pidfdOpen(pid_t Pid) {
  return static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
}

} // namespace

void installHygiene() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

bool interrupted() { return Interrupted.load(); }

ChildRun runChild(const std::vector<std::string> &Argv, int TimeoutMs) {
  ChildRun R;
  auto T0 = std::chrono::steady_clock::now();
  pid_t Pid = spawnInGroup(Argv, -1);
  if (Pid < 0)
    return R;
  trackGroup(Pid);
  int Fd = pidfdOpen(Pid);
  if (Fd >= 0 && !waitExit(Fd, TimeoutMs)) {
    ::kill(-Pid, SIGKILL);
    R.TimedOut = true;
  }
  int St = 0;
  rusage Ru{};
  waitReap(Pid, &St, &Ru);
  R.WallMs = msSince(T0);
  if (Fd >= 0)
    ::close(Fd);
  if (WIFEXITED(St) && !R.TimedOut)
    R.Exit = WEXITSTATUS(St);
  R.CpuMs = (Ru.ru_utime.tv_sec + Ru.ru_stime.tv_sec) * 1e3 +
            (Ru.ru_utime.tv_usec + Ru.ru_stime.tv_usec) / 1e3;
  R.PeakRssMb = Ru.ru_maxrss / 1024.0;
  if (::kill(-Pid, 0) == 0 && groupHasLiveMember(Pid)) {
    R.Leftover = true;
    ::kill(-Pid, SIGKILL);
  }
  untrackGroup(Pid);
  return R;
}

Result<std::unique_ptr<Daemon>> Daemon::start(const std::string &Relaxc,
                                              const std::string &SockPath,
                                              const std::string &CacheDir) {
  using R = Result<std::unique_ptr<Daemon>>;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return R::error("pipe: " + std::string(std::strerror(errno)));
  std::unique_ptr<Daemon> D(new Daemon());
  D->SockPath = SockPath;
  D->Addr = "unix:" + SockPath;
  D->Pid = spawnInGroup(
      {Relaxc, "--serve=" + D->Addr, "--cache-dir=" + CacheDir}, Pipe[1]);
  ::close(Pipe[1]);
  if (D->Pid < 0) {
    ::close(Pipe[0]);
    return R::error("cannot spawn " + Relaxc);
  }
  trackGroup(D->Pid);
  D->PidFd = pidfdOpen(D->Pid);
  // Readiness: the daemon prints "relaxc: serving on <addr>" once bound.
  std::string Out;
  auto T0 = std::chrono::steady_clock::now();
  while (Out.find('\n') == std::string::npos && msSince(T0) < 10'000) {
    pollfd P{Pipe[0], POLLIN, 0};
    if (::poll(&P, 1, 100) <= 0)
      continue;
    char Buf[256];
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  if (Out.find("serving on") == std::string::npos)
    return R::error("daemon did not become ready (output: '" + Out + "')");
  return D;
}

double Daemon::cpuMs() const {
  ProcStat S;
  if (Pid <= 0 || !readStat(Pid, S))
    return 0;
  return double(S.UTime + S.STime) * 1e3 / double(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return !DiedEarly;
  DiedEarly = PidFd >= 0 && waitExit(PidFd, 0);
  ::kill(-Pid, SIGTERM);
  if (PidFd < 0 || !waitExit(PidFd, 2000))
    ::kill(-Pid, SIGKILL);
  waitReap(Pid, nullptr, nullptr);
  if (::kill(-Pid, 0) == 0)
    ::kill(-Pid, SIGKILL);
  untrackGroup(Pid);
  if (PidFd >= 0)
    ::close(PidFd);
  Pid = -1;
  PidFd = -1;
  ::unlink(SockPath.c_str());
  return !DiedEarly;
}

unsigned reapStrays() {
  unsigned Alive = 0;
  pid_t Self = ::getpid();
  for (const ProcStat &S : allProcesses()) {
    if (S.PPid != Self)
      continue;
    if (S.State != 'Z') {
      ++Alive;
      ::kill(S.Pid, SIGKILL);
    }
    waitReap(S.Pid, nullptr, nullptr);
  }
  return Alive;
}

WorkDir::WorkDir(std::string P) : Path(std::move(P)) {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
  std::filesystem::create_directories(Path, EC);
}

WorkDir::~WorkDir() {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
}

} // namespace vb
