//===- Transport.h - Framed byte transports (pipes and sockets) ----*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One interface over the magic+length-prefixed frame protocol
/// (support/Subprocess.h), with a pipe-pair implementation (the channel
/// between a shard pool and its `--discharge-worker` subprocesses) and a
/// Unix-domain/TCP socket implementation (the `--serve` daemon and its
/// `--connect=` clients).
///
/// ## Invariants (see src/support/README.md, "Transport invariants")
///
/// * Frame totality: both implementations speak the identical frame
///   format through the one shared reader/writer, so a payload that
///   round-trips over pipes round-trips over sockets byte-for-byte.
/// * One-overall-deadline reads: `recv` bounds the WHOLE frame by a
///   single monotonic deadline — a peer trickling bytes cannot extend a
///   timed read, on either transport.
/// * A vanished peer is always a diagnosed outcome: clean EOF on a frame
///   boundary, a truncation/timeout error otherwise — never a hang and
///   never SIGPIPE (callers ignore it process-wide).
///
/// ## Addresses
///
/// Socket endpoints are written `unix:<path>` (an AF_UNIX path socket)
/// or `<host>:<port>` (TCP; `bind` accepts port 0 and reports the
/// resolved ephemeral port back through `address()`).
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SUPPORT_TRANSPORT_H
#define RELAXC_SUPPORT_TRANSPORT_H

#include "support/Subprocess.h"

#include <memory>

namespace relax {

/// One framed, bidirectional channel to a peer.
class Transport {
public:
  virtual ~Transport() = default;

  /// "pipe" or "socket" — diagnostics only; behavior is identical.
  virtual const char *kind() const = 0;

  /// Writes one frame; fails on a closed/broken channel.
  virtual Status send(std::string_view Payload) = 0;

  /// Reads one frame; the whole frame must complete before \p D expires.
  virtual FrameRead recv(const Deadline &D) = 0;

  /// Convenience: \p TimeoutMs < 0 blocks indefinitely.
  FrameRead recvMs(int TimeoutMs) {
    return recv(TimeoutMs < 0 ? Deadline::never() : Deadline::inMs(TimeoutMs));
  }

  /// The fd a caller may poll(2) for frame arrival (the serve loop's
  /// idle wait), or -1 once closed.
  virtual int recvFd() const = 0;

  /// Half-close: signals end-of-requests (EOF at the peer's recv) while
  /// keeping the receive side open for a final response.
  virtual void closeSend() = 0;

  virtual void close() = 0;
};

/// The stdin/stdout pipe pair of a subprocess worker.
class PipeTransport final : public Transport {
public:
  /// \p OwnsFds: close the fds on destruction (the worker side passes
  /// stdin/stdout, which it does not own).
  PipeTransport(int ReadFd, int WriteFd, bool OwnsFds)
      : RFd(ReadFd), WFd(WriteFd), Owns(OwnsFds) {}
  ~PipeTransport() override { close(); }

  const char *kind() const override { return "pipe"; }
  Status send(std::string_view Payload) override;
  FrameRead recv(const Deadline &D) override;
  int recvFd() const override { return RFd; }
  void closeSend() override;
  void close() override;

private:
  int RFd = -1;
  int WFd = -1;
  bool Owns = false;
};

/// A connected stream socket (AF_UNIX or TCP). Always owns its fd.
class SocketTransport final : public Transport {
public:
  explicit SocketTransport(int Fd) : Fd(Fd) {}
  ~SocketTransport() override { close(); }

  const char *kind() const override { return "socket"; }
  Status send(std::string_view Payload) override;
  FrameRead recv(const Deadline &D) override;
  int recvFd() const override { return Fd; }
  void closeSend() override;
  void close() override;

private:
  int Fd = -1;
};

/// Connects to \p Addr (`unix:<path>` or `host:port`) within
/// \p TimeoutMs (< 0 blocks). The returned transport has SIGPIPE
/// neutralized and close-on-exec set (spawned workers must not inherit
/// a sibling's connection).
Result<std::unique_ptr<Transport>> connectSocket(const std::string &Addr,
                                                 int TimeoutMs);

/// A listening socket (the `--serve=` daemon's).
class SocketListener {
public:
  SocketListener() = default;
  ~SocketListener() { close(); }
  SocketListener(const SocketListener &) = delete;
  SocketListener &operator=(const SocketListener &) = delete;
  SocketListener(SocketListener &&O) noexcept { *this = std::move(O); }
  SocketListener &operator=(SocketListener &&O) noexcept;

  /// Binds and listens on \p Addr. A Unix path is unlinked first so a
  /// restarted server rebinds the address its clients already hold; a
  /// TCP port of 0 binds an ephemeral port, reported via address().
  static Result<SocketListener> bind(const std::string &Addr,
                                     int Backlog = 16);

  /// The resolved address, in the same grammar bind() accepts.
  const std::string &address() const { return Addr; }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Accepts one connection; an unarmed deadline blocks indefinitely.
  /// Expiry is diagnosed with a message containing "timed out".
  Result<std::unique_ptr<Transport>> accept(const Deadline &D = Deadline());

  void close();

private:
  int Fd = -1;
  std::string Addr;
  std::string UnixPath; ///< unlinked on close when non-empty
};

} // namespace relax

#endif // RELAXC_SUPPORT_TRANSPORT_H
