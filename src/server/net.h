#ifndef LIOD_SERVER_NET_H_
#define LIOD_SERVER_NET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace liod::server {

/// Thin blocking-socket helpers shared by KvServer and KvClient. All of them
/// use send(MSG_NOSIGNAL)/recv so a peer hanging up surfaces as kIoError,
/// never SIGPIPE.

/// Writes all of `data`, looping over short writes. kIoError on failure.
Status WriteAll(int fd, std::span<const std::byte> data);

/// Reads exactly data.size() bytes. Returns kNotFound on a clean EOF at
/// offset 0 (the peer closed between frames -- the one non-error way a
/// connection ends), kIoError on mid-read EOF or any socket error.
Status ReadExact(int fd, std::span<std::byte> data);

/// Reads one length-prefixed frame body: the u32 prefix, bounds-checks it
/// against `max_body`, then the body into `body` (resized). kNotFound on
/// clean EOF before a prefix; kInvalidArgument on an oversized prefix
/// (hostile length -- caller must close); kIoError on truncation.
Status ReadFrameBody(int fd, std::uint32_t max_body, std::vector<std::byte>* body);

/// Creates, binds, and listens on a unix-domain socket at `path` (unlinking
/// any stale file first). Returns the fd via `out`.
Status ListenUnix(const std::string& path, int* out);

/// Creates, binds, and listens on a TCP socket (SO_REUSEADDR). `port` 0
/// picks an ephemeral port; `bound_port` returns the actual one. A port
/// outside 0-65535 is kInvalidArgument.
Status ListenTcp(const std::string& host, int port, int* out, int* bound_port);

/// Binds a unix listener when `unix_path` is non-empty and a TCP one when
/// `tcp_port` >= 0. On failure neither stays open; an unbound one stays -1.
Status ListenAll(const std::string& unix_path, const std::string& tcp_host, int tcp_port,
                 int* unix_fd, int* tcp_fd, int* bound_port);

/// Shuts down and closes a listening socket, waking an accept() blocked on
/// it, and sets `*fd` to -1. Does nothing when `*fd` is -1.
void CloseListener(int* fd);

/// Client-side connects. ConnectTcp sets TCP_NODELAY (SetTcpNoDelay) and
/// rejects a port outside 0-65535 with kInvalidArgument.
Status ConnectUnix(const std::string& path, int* out);
Status ConnectTcp(const std::string& host, int port, int* out);

/// Waits for the next connection on `listen_fd` and returns its fd, or -1
/// once `stopping()` is true or the listener is closed or broken. Running out
/// of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) does not end
/// the wait: `on_exhausted` (if set) frees what the caller can, and accept
/// is retried after 10 ms, since the queued connection would make an
/// immediate retry spin.
int AcceptWithBackoff(int listen_fd, const std::function<bool()>& stopping,
                      const std::function<void()>& on_exhausted = nullptr);

/// A socket address as the command-line tools spell it: `unix:PATH` or
/// `tcp:[HOST:]PORT`.
struct Endpoint {
  std::string unix_path;           ///< non-empty for unix:PATH
  std::string host = "127.0.0.1";  ///< tcp only
  int port = -1;                   ///< tcp only; -1 for a unix endpoint
};

/// Parses `spec` into `out`. kInvalidArgument for any other prefix, an empty
/// path or host, or a port that is not a decimal number in 0-65535.
Status ParseEndpoint(const std::string& spec, Endpoint* out);

/// Disables Nagle's algorithm on a connected TCP socket, so a small frame
/// goes out at once instead of waiting for the peer to acknowledge the
/// previous one (up to its 40 ms delayed ACK). Best effort.
void SetTcpNoDelay(int fd);

}  // namespace liod::server

#endif  // LIOD_SERVER_NET_H_
