#ifndef LIOD_SERVER_KV_SERVER_H_
#define LIOD_SERVER_KV_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/sharded_engine.h"
#include "kv/request.h"
#include "server/slow_op_ring.h"

namespace liod {
class MetricRegistry;
class TraceRecorder;
}  // namespace liod

namespace liod::server {

struct ServerOptions {
  /// Unix-domain listen path (empty = no unix listener).
  std::string unix_path;
  /// TCP listen port (-1 = no TCP listener; 0 = ephemeral, see KvServer::
  /// tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Never read: every frame runs on its connection's reader thread. Kept
  /// only while perfbench assigns it (ROADMAP item 3 deletes it).
  std::size_t workers = 4;
  /// Admission bound for multi-request frames: at most this many execute at
  /// once across all connections. A multi-request frame that arrives while
  /// all are taken is shed with kOverloaded on every op (never executed,
  /// never blocked on). One-request frames take no slot and are never shed.
  std::size_t queue_capacity = 64;
  /// Registry the server counts in (the server.* counters and histograms
  /// behind counters() and the stats op). Null: the server counts in a
  /// registry of its own. Non-null: it must outlive the server.
  MetricRegistry* metrics = nullptr;
  /// Optional "net" spans.
  TraceRecorder* trace = nullptr;
  /// Slow-op capture threshold in microseconds over a batch's queue-wait +
  /// execute time: every op of a batch at/over it is recorded in a bounded
  /// ring (slow_ops(), the stats op, /stats.json). 0 (default) disables
  /// capture entirely: no ring.
  double slow_op_us = 0.0;
  /// Ring capacity when slow_op_us > 0; older entries are dropped (and
  /// counted) once it fills.
  std::size_t slow_op_capacity = 128;
};

/// Point-in-time admission/execution counters, read from one snapshot of the
/// server's registry (tests and the CLI's exit report use them; the stats
/// op's "server" block and /metrics show the same numbers).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t batches_executed = 0;  ///< samples in server.execute_us
  std::uint64_t ops_executed = 0;
  std::uint64_t batches_overloaded = 0;      ///< shed by the admission bound
  std::uint64_t batches_shutdown_rejected = 0;  ///< failed during drain
  std::uint64_t malformed_frames = 0;
  std::uint64_t stats_requests = 0;  ///< kStatsOpKind frames answered inline
};

/// Socket front-end over one ShardedEngine: length-prefixed binary frames
/// (server/protocol.h) over unix-domain and/or TCP sockets.
///
/// Threading: one accept thread per listener and one reader thread per
/// connection, and nothing else. A reader decodes a frame, runs it through
/// ShardedEngine::Execute and writes its response before it reads the
/// connection's next frame, so each connection has at most one frame in
/// execution and pipelined frames are answered in send order. Requests from
/// ALL connections share the engine's shard latches, and a multi-op frame
/// takes each latch once. Admission control covers multi-request frames
/// only: while queue_capacity of them execute across all connections,
/// another is shed with an immediate all-ops kOverloaded response (it fails
/// fast and never blocks the reader). A one-request frame is never shed; a
/// flood of them is paced by socket backpressure.
///
/// Shutdown() drains gracefully: listeners close, connection read sides shut
/// down (in-flight reads see EOF), and a frame read after the drain began is
/// answered kShuttingDown -- never silently dropped (a response or a clean
/// EOF is guaranteed for every accepted frame). After the readers join, the
/// engine is checkpointed (FlushUpdates) and its WAL synced (FlushBuffers),
/// so a subsequent start with --recover replays nothing and answers the full
/// committed history.
///
/// A connection whose conversation has ended keeps its fd and reader thread
/// until the next accept on either listener, which releases it, or until
/// Shutdown().
class KvServer {
 public:
  /// `engine` must be bulkloaded/recovered and outlive the server.
  KvServer(ShardedEngine* engine, ServerOptions options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Binds the configured listeners and spawns their accept threads.
  Status Start();

  /// Graceful drain as documented above. Idempotent. Returns the first
  /// flush/checkpoint error.
  Status Shutdown();

  /// Actual TCP port (after Start, when tcp_port was 0).
  int tcp_port() const { return tcp_port_; }

  /// The server.* counters of one registry snapshot. Exact once the server is
  /// quiescent; taken while frames execute, it may miss the counts of a
  /// frame in flight. A registry shared by two servers sums both.
  ServerCounters counters() const;

  /// Snapshot of the slow-op ring; empty (all zeros) when slow_op_us == 0.
  SlowOpRing::Snapshot slow_ops() const;

  /// The server's one-call observability document ("liod-stats/1" JSON):
  /// admission/execution counters, the admission bound, queue-wait/execute
  /// p99s, the slow-op ring, per-shard I/O and heat (hot keys + mix), and the
  /// registry's full liod-telemetry/1 snapshot under "metrics", all from one
  /// snapshot. Serves both the wire stats op and the exporter's /stats.json;
  /// safe to call from any thread while serving.
  std::string StatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    /// Set by the reader when a response write fails (the peer hung up):
    /// later responses are skipped. Only the reader touches it.
    bool closed = false;
    /// Set by the reader as its last action: the accept thread may then join
    /// it and close the fd.
    std::atomic<bool> finished{false};
  };

  /// Accepts connections until the server drains or the listener closes.
  /// Each accept first releases the connections whose readers have
  /// finished. Running out of descriptors or memory releases them too, then
  /// retries after a short sleep instead of giving up (AcceptWithBackoff).
  /// `tcp` sets TCP_NODELAY on every accepted connection.
  void AcceptLoop(int listen_fd, bool tcp);
  /// Joins and closes every connection whose reader has finished. Requires
  /// conns_mu_.
  void ReleaseFinishedLocked();
  /// Reads, runs and answers the connection's frames one at a time until
  /// EOF, then half-closes it.
  void ReaderLoop(Connection* conn);
  /// Executes one admitted frame and answers it: the queue-wait (decode to
  /// start of execution) and execute histograms, the ops counter, the
  /// "dispatch" span, the slow-op ring and the response. `batch` is the
  /// reader's reusable scratch holding the frame's requests.
  void ExecuteFrame(Connection* conn, std::uint32_t tag, kv::RequestBatch* batch,
                    std::chrono::steady_clock::time_point decoded);
  /// Counts a frame refused before execution -- kOverloaded, kShuttingDown,
  /// or kInvalidArgument for a malformed one -- and answers it with an
  /// all-ops rejection.
  void RejectFrame(Connection* conn, std::uint32_t tag, std::size_t op_count,
                   Status::Code code);
  /// Frames `body` and writes it: the one writer of every response, called
  /// only by the connection's reader. A write error marks the connection
  /// closed (the peer hung up; nothing to do).
  void WriteFrame(Connection* conn, std::span<const std::byte> body);
  /// Answers a stats request on the reader thread. Stats frames take no
  /// admission slot, so stats stay observable under the overload that sheds
  /// data batches.
  void HandleStatsRequest(Connection* conn, std::uint32_t tag);

  ShardedEngine* engine_;
  ServerOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  /// Multi-request frames admitted and not yet answered, across all
  /// connections; bounded by options_.queue_capacity.
  std::atomic<std::size_t> batches_running_{0};
  /// Set at the start of Shutdown: from then on readers answer every frame
  /// kShuttingDown instead of executing it.
  std::atomic<bool> draining_{false};
  /// Set once the listeners are bound.
  bool started_ = false;
  bool stopped_ = false;

  /// The registry options_.metrics points at when the caller gave none.
  std::unique_ptr<MetricRegistry> owned_metrics_;

  /// Non-null iff options_.slow_op_us > 0 (created in Start).
  std::unique_ptr<SlowOpRing> slow_ring_;

  // Ids in options_.metrics, registered by the constructor.
  std::size_t queue_wait_us_id_ = 0;
  std::size_t execute_us_id_ = 0;
  std::size_t connections_id_ = 0;
  std::size_t ops_id_ = 0;
  std::size_t overloaded_id_ = 0;
  std::size_t shutdown_rejected_id_ = 0;
  std::size_t malformed_frames_id_ = 0;
  std::size_t stats_requests_id_ = 0;
  std::size_t slow_ops_id_ = 0;
  std::size_t slow_ops_dropped_id_ = 0;
};

}  // namespace liod::server

#endif  // LIOD_SERVER_KV_SERVER_H_
