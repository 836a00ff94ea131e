#include "support/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace archex::support {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

}  // namespace

TcpStream::~TcpStream() {
  if (fd_ >= 0) ::close(fd_);
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    scanned_ = std::exchange(other.scanned_, 0);
  }
  return *this;
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw SocketError("bad IPv4 address \"" + host + "\"");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return TcpStream(fd);
}

bool TcpStream::read_line(std::string& out) {
  while (true) {
    // Only the bytes appended since the last scan can hold the newline, so
    // a long line costs one pass over its bytes, not one per chunk.
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos && nl <= kMaxLineBytes) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    if (std::min(nl, buffer_.size()) > kMaxLineBytes) {
      buffer_.clear();
      scanned_ = 0;
      throw LineTooLongError("line exceeds " + std::to_string(kMaxLineBytes) +
                             " bytes");
    }
    scanned_ = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Clean EOF: flush a trailing unterminated line, if any.
      if (buffer_.empty()) return false;
      out = std::move(buffer_);
      buffer_.clear();
      scanned_ = 0;
      return true;
    }
    if (errno == EINTR) continue;
    fail_errno("recv()");
  }
}

void TcpStream::write_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a hung-up peer yields EPIPE instead of killing the
    // process, independent of the signal disposition.
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send()");
    }
    off += static_cast<std::size_t>(n);
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail_errno("socket()");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_errno("bind(port " + std::to_string(port) + ")");
  }
  if (::listen(fd_, backlog) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_errno("listen()");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_errno("getsockname()");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<TcpStream> TcpListener::accept_for(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;  // let the caller check flags
    fail_errno("poll()");
  }
  if (ready == 0) return std::nullopt;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    fail_errno("accept()");
  }
  return TcpStream(fd);
}

namespace {

volatile std::sig_atomic_t g_shutdown_flag = 0;

extern "C" void shutdown_signal_handler(int) { g_shutdown_flag = 1; }

}  // namespace

const volatile std::sig_atomic_t* install_shutdown_signal_flag() {
  struct sigaction sa{};
  sa.sa_handler = shutdown_signal_handler;
  sigemptyset(&sa.sa_mask);
  (void)sigaction(SIGTERM, &sa, nullptr);
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)std::signal(SIGPIPE, SIG_IGN);
  return &g_shutdown_flag;
}

void clear_shutdown_signal_flag() { g_shutdown_flag = 0; }

}  // namespace archex::support
