#include "svc/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/sync.h"

namespace mecsc::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int checked_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

struct Connection::Impl {
  int fd;
  /// Serializes whole-line writes so worker responses never interleave
  /// bytes on a pipelining connection. A leaf: nothing else is locked
  /// while a line is written.
  util::Mutex write_mutex;
  std::string read_buf;
  std::size_t read_pos = 0;  ///< consumed prefix of read_buf
};

Connection::Connection(int fd) : impl_(std::make_unique<Impl>()) {
  impl_->fd = fd;
}

Connection::~Connection() {
  if (impl_->fd >= 0) ::close(impl_->fd);
}

std::optional<std::string> Connection::read_line(std::size_t max_len) {
  line_overflow_ = false;
  std::string& buf = impl_->read_buf;
  while (true) {
    const std::size_t nl = buf.find('\n', impl_->read_pos);
    if (nl != std::string::npos) {
      std::string line = buf.substr(impl_->read_pos, nl - impl_->read_pos);
      impl_->read_pos = nl + 1;
      // Compact once the consumed prefix dominates.
      if (impl_->read_pos > 4096 && impl_->read_pos * 2 > buf.size()) {
        buf.erase(0, impl_->read_pos);
        impl_->read_pos = 0;
      }
      if (line.size() > max_len) {
        line_overflow_ = true;
        return std::nullopt;
      }
      return line;
    }
    if (buf.size() - impl_->read_pos > max_len) {
      // No newline within the limit: the peer is streaming an overlong
      // line. Stop before buffering unbounded garbage.
      line_overflow_ = true;
      return std::nullopt;
    }
    char chunk[4096];
    const ssize_t n = ::recv(impl_->fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;  // EOF, shutdown_read(), or error
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::write_line(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  return write_all(framed);
}

bool Connection::write_all(const std::string& bytes) {
  const util::MutexLock lock(impl_->write_mutex);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(impl_->fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void Connection::shutdown_read() { ::shutdown(impl_->fd, SHUT_RD); }

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

Listener::Listener(int fd, int port, std::string endpoint,
                   std::string unlink_path)
    : fd_(fd),
      port_(port),
      endpoint_(std::move(endpoint)),
      unlink_path_(std::move(unlink_path)) {}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      port_(other.port_),
      endpoint_(std::move(other.endpoint_)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.fd_ = -1;
  other.unlink_path_.clear();
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

Listener Listener::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = checked_socket(AF_UNIX);
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return Listener(fd, 0, "unix:" + path, path);
}

Listener Listener::listen_tcp(int port) {
  const int fd = checked_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(127.0.0.1:" + std::to_string(port) + ")");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname()");
  }
  const int actual = ntohs(bound.sin_port);
  return Listener(fd, actual, "tcp:127.0.0.1:" + std::to_string(actual), "");
}

ConnectionPtr Listener::accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_shared<Connection>(fd);
    if (errno == EINTR) continue;
    // EINVAL: shutdown() was called on the listening socket. Anything
    // else is fatal for the acceptor either way.
    return nullptr;
  }
}

void Listener::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

// ---------------------------------------------------------------------------
// Client connects
// ---------------------------------------------------------------------------

ConnectionPtr connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = checked_socket(AF_UNIX);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("connect(" + path + ")");
  }
  return std::make_shared<Connection>(fd);
}

ConnectionPtr connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("connect: not an IPv4 address: " + host);
  }
  const int fd = checked_socket(AF_INET);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return std::make_shared<Connection>(fd);
}

}  // namespace mecsc::svc
