#include "server/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/parse_number.h"

namespace liod::server {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status CheckPort(int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) + " is outside 0-65535");
  }
  return Status::Ok();
}

}  // namespace

Status WriteAll(int fd, std::span<const std::byte> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadExact(int fd, std::span<std::byte> data) {
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::recv(fd, data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("clean EOF");
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadFrameBody(int fd, std::uint32_t max_body, std::vector<std::byte>* body) {
  std::byte prefix[4];
  LIOD_RETURN_IF_ERROR(ReadExact(fd, prefix));
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  if (len > max_body) {
    return Status::InvalidArgument("frame body of " + std::to_string(len) +
                                   " bytes exceeds limit");
  }
  body->resize(len);
  if (len == 0) return Status::Ok();
  const Status status = ReadExact(fd, std::span<std::byte>(body->data(), len));
  if (status.code() == Status::Code::kNotFound) {
    // EOF after a prefix is a truncated frame, not a clean close.
    return Status::IoError("connection closed mid-frame");
  }
  return status;
}

Status ListenUnix(const std::string& path, int* out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  *out = fd;
  return Status::Ok();
}

Status ListenTcp(const std::string& host, int port, int* out, int* bound_port) {
  LIOD_RETURN_IF_ERROR(CheckPort(port));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  *out = fd;
  return Status::Ok();
}

Status ListenAll(const std::string& unix_path, const std::string& tcp_host, int tcp_port,
                 int* unix_fd, int* tcp_fd, int* bound_port) {
  if (!unix_path.empty()) LIOD_RETURN_IF_ERROR(ListenUnix(unix_path, unix_fd));
  if (tcp_port < 0) return Status::Ok();
  const Status status = ListenTcp(tcp_host, tcp_port, tcp_fd, bound_port);
  if (!status.ok()) CloseListener(unix_fd);
  return status;
}

void CloseListener(int* fd) {
  if (*fd < 0) return;
  ::shutdown(*fd, SHUT_RDWR);
  ::close(*fd);
  *fd = -1;
}

Status ConnectUnix(const std::string& path, int* out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  *out = fd;
  return Status::Ok();
}

Status ConnectTcp(const std::string& host, int port, int* out) {
  LIOD_RETURN_IF_ERROR(CheckPort(port));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  SetTcpNoDelay(fd);
  *out = fd;
  return Status::Ok();
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int AcceptWithBackoff(int listen_fd, const std::function<bool()>& stopping,
                      const std::function<void()>& on_exhausted) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (stopping()) return -1;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS && errno != ENOMEM) {
      return -1;
    }
    if (on_exhausted) on_exhausted();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Status ParseEndpoint(const std::string& spec, Endpoint* out) {
  Endpoint endpoint;
  bool ok = false;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.unix_path = spec.substr(5);
    ok = !endpoint.unix_path.empty();
  } else if (spec.rfind("tcp:", 0) == 0) {
    std::string port = spec.substr(4);
    if (const std::size_t colon = port.rfind(':'); colon != std::string::npos) {
      endpoint.host = port.substr(0, colon);
      port.erase(0, colon + 1);
    }
    std::uint64_t number = 0;
    ok = !endpoint.host.empty() && ParseNumber(port.c_str(), &number) && number <= 65535;
    if (ok) endpoint.port = static_cast<int>(number);
  }
  if (!ok) {
    return Status::InvalidArgument("bad endpoint '" + spec +
                                   "' (want unix:PATH or tcp:[HOST:]PORT)");
  }
  *out = std::move(endpoint);
  return Status::Ok();
}

}  // namespace liod::server
