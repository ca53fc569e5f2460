#ifndef LIOD_SERVER_NET_H_
#define LIOD_SERVER_NET_H_

#include <cstddef>
#include <cstdint>
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
/// picks an ephemeral port; `bound_port` returns the actual one.
Status ListenTcp(const std::string& host, int port, int* out, int* bound_port);

/// Client-side connects. ConnectTcp sets TCP_NODELAY (SetTcpNoDelay).
Status ConnectUnix(const std::string& path, int* out);
Status ConnectTcp(const std::string& host, int port, int* out);

/// Disables Nagle's algorithm on a connected TCP socket, so a small frame
/// goes out at once instead of waiting for the peer to acknowledge the
/// previous one (up to its 40 ms delayed ACK). Best effort.
void SetTcpNoDelay(int fd);

}  // namespace liod::server

#endif  // LIOD_SERVER_NET_H_
