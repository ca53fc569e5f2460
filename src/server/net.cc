#include "server/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace liod::server {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
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

}  // namespace liod::server
