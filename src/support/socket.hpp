// archex/support/socket.hpp
//
// Minimal blocking TCP wrappers for the archex_server wire protocol (one
// JSON document per line over a loopback or LAN socket). POSIX sockets
// only — the repo targets Linux; no external networking dependency.
//
// TcpListener binds/listens on a port (port 0 picks a free one, reported by
// port() — the tests rely on this), and accept_for() waits with a poll
// timeout so an accept loop can observe a stop flag between waits.
// TcpStream is a connected socket with a buffered read_line() and a
// write_all() that survives short writes. Both own their file descriptor
// (move-only, closed on destruction).
//
// Errors surface as SocketError. A peer that disconnects mid-line is not an
// error: read_line() returns false at clean EOF. A line longer than
// kMaxLineBytes is: read_line() throws LineTooLongError instead of buffering
// without limit.
#pragma once

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace archex::support {

class SocketError : public Error {
 public:
  explicit SocketError(const std::string& what) : Error(what) {}
};

/// Longest line read_line() accepts, newline excluded: 16 MiB, far above
/// any request the tests, benches or examples send.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/// The peer sent more than kMaxLineBytes without a newline. The buffered
/// bytes are dropped; the stream is no longer line-aligned and should be
/// closed.
class LineTooLongError : public SocketError {
 public:
  explicit LineTooLongError(const std::string& what) : SocketError(what) {}
};

/// A connected TCP socket (server-accepted or client-connected).
class TcpStream {
 public:
  /// Wrap an already-connected file descriptor (takes ownership).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        buffer_(std::move(other.buffer_)),
        scanned_(std::exchange(other.scanned_, 0)) {}
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connect to a host:port (numeric IPv4 host, e.g. "127.0.0.1").
  [[nodiscard]] static TcpStream connect(const std::string& host,
                                         std::uint16_t port);

  /// Read up to the next '\n' (consumed, not included in `out`). Returns
  /// false on clean EOF with no buffered partial line; a partial final line
  /// (EOF before the newline) is returned as a line. Throws SocketError on
  /// transport errors and LineTooLongError past kMaxLineBytes.
  [[nodiscard]] bool read_line(std::string& out);

  /// Write the whole buffer, looping over short writes. Throws SocketError.
  void write_all(const std::string& data);

  /// Write `line` plus the terminating '\n' (one wire-protocol document).
  void write_line(const std::string& line) { write_all(line + "\n"); }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;       // bytes read past the last returned line
  std::size_t scanned_ = 0;  // prefix of buffer_ known to hold no '\n'
};

/// A listening TCP socket (IPv4 loopback-or-any, SO_REUSEADDR).
class TcpListener {
 public:
  /// Bind and listen on `port`; 0 lets the kernel pick (see port()).
  explicit TcpListener(std::uint16_t port, int backlog = 64);
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  TcpListener& operator=(TcpListener&&) = delete;

  /// The bound port (resolved after a port-0 bind).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Wait up to `timeout_ms` for a connection. Returns the accepted stream,
  /// or nullopt on timeout (so the caller's loop can poll a stop flag).
  /// Throws SocketError on listener failure.
  [[nodiscard]] std::optional<TcpStream> accept_for(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Install a process-wide handler that sets an atomic flag on SIGTERM /
/// SIGINT (graceful-drain trigger for archex_server). Returns a pointer to
/// the flag; repeated calls reuse the same flag. Also ignores SIGPIPE so a
/// client that hangs up mid-response surfaces as a write error, not a
/// process kill.
const volatile std::sig_atomic_t* install_shutdown_signal_flag();

/// Reset the flag (tests re-trigger shutdown several times per process).
void clear_shutdown_signal_flag();

}  // namespace archex::support
