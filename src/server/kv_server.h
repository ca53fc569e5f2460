#ifndef LIOD_SERVER_KV_SERVER_H_
#define LIOD_SERVER_KV_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
  /// Worker threads executing multi-request frames against the engine. A
  /// one-request frame never reaches them: its reader thread executes it.
  std::size_t workers = 4;
  /// Admission queue bound for multi-request frames: frames queued beyond
  /// this are shed with kOverloaded on every op (never executed, never
  /// blocked on). One-request frames bypass the queue and are never shed.
  std::size_t queue_capacity = 64;
  /// Registry the server counts in (the server.* counters, histograms and
  /// queue-depth gauge behind counters() and the stats op). Null: the server
  /// counts in a registry of its own. Non-null: it must outlive the server.
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
  std::uint64_t batches_overloaded = 0;      ///< shed by the full queue
  std::uint64_t batches_shutdown_rejected = 0;  ///< failed during drain
  std::uint64_t malformed_frames = 0;
  std::uint64_t stats_requests = 0;  ///< kStatsOpKind frames answered inline
};

/// Socket front-end over one ShardedEngine: length-prefixed binary frames
/// (server/protocol.h) over unix-domain and/or TCP sockets.
///
/// Threading: one accept thread per listener, one reader thread per
/// connection, `workers` executor threads behind ONE bounded admission
/// queue. Readers decode frames. A frame of exactly one request runs on its
/// reader, which executes it and writes the response before reading the
/// connection's next frame: one-request frames execute one at a time per
/// connection, in arrival order, without a hand-off to another thread, and a
/// flood of them is slowed by socket backpressure, never shed. A
/// multi-request frame goes to the queue; a full queue sheds it with an
/// immediate all-ops kOverloaded response (admission control fails fast --
/// it never blocks the reader, so a flooding client gets backpressure as
/// explicit rejections, not a hang). Workers pop queued frames and run them.
/// Either way the frame goes through ShardedEngine::Execute -- requests from
/// ALL connections share the engine's shard latches, and a multi-op frame
/// takes each latch once -- and its response is written under the
/// connection's write lock (pipelined frames may complete out of order; the
/// frame tag lets the client re-match).
///
/// Shutdown() drains gracefully: listeners close, connection read sides shut
/// down (in-flight reads see EOF), a one-request frame read after the drain
/// began is answered kShuttingDown by its reader, and every frame still
/// queued is answered kShuttingDown by the draining workers -- never silently
/// dropped (a response or a clean EOF is guaranteed for every accepted
/// frame). After the readers and workers join, the engine is checkpointed
/// (FlushUpdates) and its WAL synced (FlushBuffers), so a subsequent start
/// with --recover replays nothing and answers the full committed history.
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

  /// Binds the configured listeners and spawns accept/worker threads.
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

  /// Batches admitted but not yet popped by a worker.
  std::size_t queue_depth() const;

  /// Snapshot of the slow-op ring; empty (all zeros) when slow_op_us == 0.
  SlowOpRing::Snapshot slow_ops() const;

  /// The server's one-call observability document ("liod-stats/1" JSON):
  /// admission/execution counters, queue depth, queue-wait/execute p99s,
  /// the slow-op ring, per-shard I/O and heat (hot keys + mix), and the
  /// registry's full liod-telemetry/1 snapshot under "metrics", all from one
  /// snapshot. Serves both the wire stats op and the exporter's /stats.json;
  /// safe to call from any thread while serving.
  std::string StatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;  ///< serializes response frames
    std::thread reader;
    std::atomic<bool> closed{false};
    /// Batches admitted for this connection but not yet responded to. The
    /// reader waits for it to drain before ending the conversation, so every
    /// accepted frame's response is written before the client sees EOF.
    std::mutex pending_mu;
    std::condition_variable pending_cv;
    std::size_t pending = 0;
    /// Set by the reader as its last action: the accept thread may then join
    /// it and close the fd.
    std::atomic<bool> finished{false};
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    std::uint32_t tag = 0;
    std::vector<kv::Request> requests;
    std::chrono::steady_clock::time_point decoded;
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
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WorkerLoop();
  /// Executes one frame and answers it: the queue-wait (decode to start of
  /// execution) and execute histograms, the ops counter, the "dispatch"
  /// span, the slow-op ring and the response. The reader calls it for a
  /// one-request frame, a worker for a popped one; `batch` is the caller's
  /// reusable scratch holding the frame's requests.
  void ExecuteFrame(Connection* conn, std::uint32_t tag, kv::RequestBatch* batch,
                    std::chrono::steady_clock::time_point decoded);
  /// Counts a frame refused before execution -- kOverloaded, kShuttingDown,
  /// or kInvalidArgument for a malformed one -- and answers it with an
  /// all-ops rejection.
  void RejectFrame(Connection* conn, std::uint32_t tag, std::size_t op_count,
                   Status::Code code);
  /// Frames `body` and writes it under conn->write_mu: the one writer of
  /// every response. A write error marks the connection closed (the peer
  /// hung up; nothing to do).
  void WriteFrame(Connection* conn, std::span<const std::byte> body);
  /// Answers a stats request INLINE on the reader thread: the admin plane
  /// bypasses the admission queue, so stats stay observable under overload
  /// (a full queue sheds data batches, never this).
  void HandleStatsRequest(Connection* conn, std::uint32_t tag);
  /// Decrements conn->pending and wakes its reader's drain wait.
  void FinishPending(Connection* conn);

  ShardedEngine* engine_;
  ServerOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  /// Set under queue_mu_ at the start of Shutdown (so waiting workers cannot
  /// miss it): readers stop executing and admitting (kShuttingDown), workers
  /// fail what is already queued.
  std::atomic<bool> draining_{false};
  /// Set once the listeners are bound; from then until Shutdown the
  /// server.queue_depth gauge (its callback reads queue_) is registered.
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
