#include "server/kv_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <utility>

#include "server/net.h"
#include "server/protocol.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"

namespace liod::server {

namespace {

// The server's metric names; counters() reads them back by name.
constexpr char kQueueWaitUs[] = "server.queue_wait_us";
constexpr char kExecuteUs[] = "server.execute_us";
constexpr char kConnections[] = "server.connections";
constexpr char kOps[] = "server.ops";
constexpr char kBatchesOverloaded[] = "server.batches_overloaded";
constexpr char kBatchesShutdownRejected[] = "server.batches_shutdown_rejected";
constexpr char kMalformedFrames[] = "server.malformed_frames";
constexpr char kStatsRequests[] = "server.stats_requests";
constexpr char kQueueDepth[] = "server.queue_depth";

double Us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(d).count();
}

/// Best-effort tag of a body that failed to decode: the tag is the first
/// field, so even most malformed frames can be answered addressably.
std::uint32_t SalvageTag(const std::vector<std::byte>& body) {
  if (body.size() < 4) return 0;
  std::uint32_t tag = 0;
  for (int i = 0; i < 4; ++i) tag |= static_cast<std::uint32_t>(body[i]) << (8 * i);
  return tag;
}

/// The ServerCounters view of one registry snapshot.
ServerCounters CountersFrom(const MetricsSnapshot& snapshot) {
  ServerCounters c;
  c.connections_accepted = snapshot.counters.at(kConnections);
  c.batches_executed = snapshot.histograms.at(kExecuteUs).count;
  c.ops_executed = snapshot.counters.at(kOps);
  c.batches_overloaded = snapshot.counters.at(kBatchesOverloaded);
  c.batches_shutdown_rejected = snapshot.counters.at(kBatchesShutdownRejected);
  c.malformed_frames = snapshot.counters.at(kMalformedFrames);
  c.stats_requests = snapshot.counters.at(kStatsRequests);
  return c;
}

// --- StatsJson building blocks (no external JSON dependency, and nothing
// here serializes user-controlled strings, so appending literals is safe) ---

void AppendField(std::string* out, const char* key, std::uint64_t v) {
  out->append("\"").append(key).append("\":").append(std::to_string(v));
}

void AppendField(std::string* out, const char* key, double v) {
  char buf[64];
  // %.10g round-trips every value these fields take; non-finite values are
  // emitted verbatim like MetricsSnapshot::ToJson so validators reject them.
  if (std::isnan(v)) {
    std::snprintf(buf, sizeof(buf), "NaN");
  } else if (std::isinf(v)) {
    std::snprintf(buf, sizeof(buf), v > 0 ? "Infinity" : "-Infinity");
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  out->append("\"").append(key).append("\":").append(buf);
}

void AppendField(std::string* out, const char* key, const char* v) {
  out->append("\"").append(key).append("\":\"").append(v).append("\"");
}

}  // namespace

KvServer::KvServer(ShardedEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    options_.metrics = owned_metrics_.get();
  }
  MetricRegistry& metrics = *options_.metrics;
  queue_wait_us_id_ = metrics.Histogram(kQueueWaitUs);
  execute_us_id_ = metrics.Histogram(kExecuteUs);
  connections_id_ = metrics.Counter(kConnections);
  ops_id_ = metrics.Counter(kOps);
  overloaded_id_ = metrics.Counter(kBatchesOverloaded);
  shutdown_rejected_id_ = metrics.Counter(kBatchesShutdownRejected);
  malformed_frames_id_ = metrics.Counter(kMalformedFrames);
  stats_requests_id_ = metrics.Counter(kStatsRequests);
  slow_ops_id_ = metrics.Counter("server.slow_ops");
  slow_ops_dropped_id_ = metrics.Counter("server.slow_ops_dropped");
}

KvServer::~KvServer() { Shutdown(); }

Status KvServer::Start() {
  if (started_) return Status::FailedPrecondition("KvServer already started");
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("KvServer: no listener configured");
  }
  if (options_.workers == 0) {
    return Status::InvalidArgument("KvServer: workers must be >= 1");
  }
  LIOD_RETURN_IF_ERROR(engine_->FlushBuffers());  // fail fast on a dead engine
  if (options_.slow_op_us > 0.0) {
    slow_ring_ = std::make_unique<SlowOpRing>(options_.slow_op_capacity);
  }
  LIOD_RETURN_IF_ERROR(ListenAll(options_.unix_path, options_.tcp_host, options_.tcp_port,
                                &unix_fd_, &tcp_fd_, &tcp_port_));
  started_ = true;
  options_.metrics->RegisterGauge(kQueueDepth,
                                  [this] { return static_cast<double>(queue_depth()); });
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back(&KvServer::AcceptLoop, this, unix_fd_, false);
  }
  if (tcp_fd_ >= 0) accept_threads_.emplace_back(&KvServer::AcceptLoop, this, tcp_fd_, true);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&KvServer::WorkerLoop, this);
  }
  return Status::Ok();
}

void KvServer::AcceptLoop(int listen_fd, bool tcp) {
  for (;;) {
    const int fd = AcceptWithBackoff(
        listen_fd, [this] { return draining_.load(); },
        [this] {
          // Out of descriptors or memory: free what ended conversations hold.
          std::lock_guard<std::mutex> lock(conns_mu_);
          ReleaseFinishedLocked();
        });
    if (fd < 0) return;  // draining, or the listener closed or broke
    if (tcp) SetTcpNoDelay(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    options_.metrics->Add(connections_id_);
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReleaseFinishedLocked();
    // Started under conns_mu_, so the other listener's accept thread never
    // reads conn->reader while it is being assigned.
    conn->reader = std::thread(&KvServer::ReaderLoop, this, conn);
    conns_.push_back(std::move(conn));
  }
}

void KvServer::ReleaseFinishedLocked() {
  // A finished reader has answered every frame it accepted, so no thread
  // touches its fd any more. Shutdown snapshots conns_ only after the accept
  // threads join, so it never sees a closed (and possibly reused) fd number.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& done = **it;
    if (!done.finished.load()) {
      ++it;
      continue;
    }
    done.reader.join();
    ::close(done.fd);
    it = conns_.erase(it);
  }
}

void KvServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  std::vector<std::byte> body;
  kv::RequestBatch batch;  // one-request frames execute here
  for (;;) {
    const Status read_status = ReadFrameBody(conn->fd, kMaxFrameBytes, &body);
    if (!read_status.ok()) {
      if (read_status.code() == Status::Code::kInvalidArgument) {
        // Hostile length prefix: answer unaddressably (tag 0) then close --
        // the stream cannot be re-synchronized past a bad length.
        RejectFrame(conn.get(), 0, 1, Status::Code::kInvalidArgument);
      }
      break;  // clean EOF, truncated frame, or socket error: drop the conn
    }
    if (IsStatsRequestBody(body)) {
      HandleStatsRequest(conn.get(), SalvageTag(body));
      continue;
    }
    std::uint32_t tag = 0;
    const Status decode_status = DecodeRequestBody(body, &tag, &batch.requests);
    if (!decode_status.ok()) {
      // Malformed body (garbage op kind, count mismatch, ...): the fuzz
      // contract -- an error response, never a crash. The stream itself is
      // still framed, so the connection survives.
      RejectFrame(conn.get(), SalvageTag(body), 1, Status::Code::kInvalidArgument);
      continue;
    }
    const auto decoded = std::chrono::steady_clock::now();
    const std::size_t op_count = batch.requests.size();

    if (op_count == 1) {
      // One request: run it here. A worker would add a thread wake-up and a
      // context switch to every batch-1 round trip. This connection's next
      // frame is read only after this one is answered, so a flood of
      // one-request frames is paced by socket backpressure, not shed.
      if (draining_.load()) {
        RejectFrame(conn.get(), tag, op_count, Status::Code::kShuttingDown);
      } else {
        ExecuteFrame(conn.get(), tag, &batch, decoded);
      }
      continue;
    }

    Status::Code reject = Status::Code::kOk;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (draining_.load()) {
        reject = Status::Code::kShuttingDown;
      } else if (queue_.size() >= options_.queue_capacity) {
        reject = Status::Code::kOverloaded;
      } else {
        {
          std::lock_guard<std::mutex> plock(conn->pending_mu);
          ++conn->pending;
        }
        queue_.push_back(WorkItem{conn, tag, std::move(batch.requests), decoded});
      }
    }
    if (reject == Status::Code::kOk) {
      queue_cv_.notify_one();
    } else {
      RejectFrame(conn.get(), tag, op_count, reject);
    }
  }
  // Let in-flight batches answer before the client sees EOF, then end the
  // conversation. The fd itself is released by the next accept or by
  // Shutdown, once this thread has finished.
  {
    std::unique_lock<std::mutex> lock(conn->pending_mu);
    conn->pending_cv.wait(lock, [&] { return conn->pending == 0; });
  }
  ::shutdown(conn->fd, SHUT_WR);
  conn->finished.store(true);
}

void KvServer::WorkerLoop() {
  kv::RequestBatch batch;
  for (;;) {
    WorkItem item;
    bool drain_reject = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return draining_.load() || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left to fail
      item = std::move(queue_.front());
      queue_.pop_front();
      // The shutdown-drain contract: a batch that was admitted but not yet
      // started when Shutdown began is FAILED with kShuttingDown, not
      // silently dropped and not executed (executing it would move the
      // committed state after the checkpoint decision).
      drain_reject = draining_.load();
    }
    if (drain_reject) {
      RejectFrame(item.conn.get(), item.tag, item.requests.size(),
                  Status::Code::kShuttingDown);
    } else {
      batch.requests = std::move(item.requests);
      ExecuteFrame(item.conn.get(), item.tag, &batch, item.decoded);
    }
    FinishPending(item.conn.get());
  }
}

void KvServer::ExecuteFrame(Connection* conn, std::uint32_t tag, kv::RequestBatch* batch,
                            std::chrono::steady_clock::time_point decoded) {
  TraceRecorder::Scope span(options_.trace, "dispatch", "net",
                            static_cast<int>(batch->requests.size()));
  const auto start = std::chrono::steady_clock::now();
  // Per-op outcomes land in the response codes; a hard batch failure is
  // already reflected there too, so the wire answer is complete either way.
  (void)engine_->Execute(*batch);
  const double queue_us = Us(start - decoded);
  const double execute_us = Us(std::chrono::steady_clock::now() - start);
  MetricRegistry& metrics = *options_.metrics;
  metrics.Observe(queue_wait_us_id_, queue_us);
  metrics.Observe(execute_us_id_, execute_us);
  metrics.Add(ops_id_, batch->requests.size());
  if (slow_ring_ != nullptr && queue_us + execute_us >= options_.slow_op_us) {
    // The batch is the admission/execution unit, so its latencies are
    // attributed to each of its ops (exact for single-op frames).
    for (const kv::Request& req : batch->requests) {
      SlowOpRecord rec;
      rec.kind = static_cast<std::uint8_t>(req.kind);
      rec.key = req.key;
      rec.shard = static_cast<std::uint32_t>(engine_->ShardFor(req.key));
      rec.queue_us = queue_us;
      rec.execute_us = execute_us;
      metrics.Add(slow_ops_id_);
      if (slow_ring_->Record(rec)) metrics.Add(slow_ops_dropped_id_);
    }
  }
  std::vector<std::byte> body;
  if (EncodeResponseBody(tag, batch->responses, &body).ok()) WriteFrame(conn, body);
}

void KvServer::RejectFrame(Connection* conn, std::uint32_t tag, std::size_t op_count,
                           Status::Code code) {
  options_.metrics->Add(code == Status::Code::kOverloaded      ? overloaded_id_
                        : code == Status::Code::kShuttingDown ? shutdown_rejected_id_
                                                               : malformed_frames_id_);
  std::vector<std::byte> body;
  EncodeRejectionBody(tag, op_count, code, &body);
  WriteFrame(conn, body);
}

void KvServer::FinishPending(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(conn->pending_mu);
    --conn->pending;
  }
  conn->pending_cv.notify_all();
}

void KvServer::WriteFrame(Connection* conn, std::span<const std::byte> body) {
  std::vector<std::byte> frame;
  FrameBody(body, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_relaxed)) return;
  if (!WriteAll(conn->fd, frame).ok()) {
    conn->closed.store(true, std::memory_order_relaxed);
  }
}

void KvServer::HandleStatsRequest(Connection* conn, std::uint32_t tag) {
  options_.metrics->Add(stats_requests_id_);
  std::vector<std::byte> body;
  if (!EncodeStatsResponseBody(tag, StatsJson(), &body).ok()) {
    EncodeRejectionBody(tag, 1, Status::Code::kInvalidArgument, &body);
  }
  WriteFrame(conn, body);
}

std::size_t KvServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

SlowOpRing::Snapshot KvServer::slow_ops() const {
  if (slow_ring_ == nullptr) return SlowOpRing::Snapshot{};
  return slow_ring_->snapshot();
}

std::string KvServer::StatsJson() const {
  const MetricsSnapshot snap = options_.metrics->Snapshot();
  const ServerCounters c = CountersFrom(snap);
  const double queue_wait_p99 = snap.histograms.at(kQueueWaitUs).Quantile(0.99);
  const double execute_p99 = snap.histograms.at(kExecuteUs).Quantile(0.99);

  std::string out = "{\"schema\":\"liod-stats/1\",\"server\":{";
  AppendField(&out, "connections_accepted", c.connections_accepted);
  out += ",";
  AppendField(&out, "batches_executed", c.batches_executed);
  out += ",";
  AppendField(&out, "ops_executed", c.ops_executed);
  out += ",";
  AppendField(&out, "batches_overloaded", c.batches_overloaded);
  out += ",";
  AppendField(&out, "batches_shutdown_rejected", c.batches_shutdown_rejected);
  out += ",";
  AppendField(&out, "malformed_frames", c.malformed_frames);
  out += ",";
  AppendField(&out, "stats_requests", c.stats_requests);
  out += ",";
  AppendField(&out, "queue_depth", static_cast<std::uint64_t>(queue_depth()));
  out += ",";
  AppendField(&out, "queue_capacity",
              static_cast<std::uint64_t>(options_.queue_capacity));
  out += ",";
  AppendField(&out, "workers", static_cast<std::uint64_t>(options_.workers));
  out += ",";
  AppendField(&out, "slow_op_threshold_us", options_.slow_op_us);
  out += ",";
  AppendField(&out, "queue_wait_p99_us", queue_wait_p99);
  out += ",";
  AppendField(&out, "execute_p99_us", execute_p99);
  out += "},\"slow_ops\":{";
  const SlowOpRing::Snapshot slow = slow_ops();
  AppendField(&out, "capacity",
              static_cast<std::uint64_t>(slow_ring_ != nullptr ? slow_ring_->capacity()
                                                               : 0));
  out += ",";
  AppendField(&out, "recorded", slow.recorded);
  out += ",";
  AppendField(&out, "dropped", slow.dropped);
  out += ",\"ops\":[";
  for (std::size_t i = 0; i < slow.ops.size(); ++i) {
    const SlowOpRecord& rec = slow.ops[i];
    if (i > 0) out += ",";
    out += "{";
    AppendField(&out, "kind", kv::OpKindName(static_cast<kv::OpKind>(rec.kind)));
    out += ",";
    AppendField(&out, "key", rec.key);
    out += ",";
    AppendField(&out, "shard", static_cast<std::uint64_t>(rec.shard));
    out += ",";
    AppendField(&out, "queue_us", rec.queue_us);
    out += ",";
    AppendField(&out, "execute_us", rec.execute_us);
    out += "}";
  }
  out += "]},\"shards\":[";
  const std::vector<IoStatsSnapshot> per_shard_io = engine_->PerShardIo();
  const std::vector<HeatSnapshot> heat = engine_->HeatSnapshots();
  for (std::size_t s = 0; s < per_shard_io.size(); ++s) {
    if (s > 0) out += ",";
    out += "{";
    AppendField(&out, "shard", static_cast<std::uint64_t>(s));
    out += ",";
    AppendField(&out, "blocks_read", per_shard_io[s].TotalReads());
    out += ",";
    AppendField(&out, "blocks_written", per_shard_io[s].TotalWrites());
    if (s < heat.size()) {
      out += ",\"heat\":{";
      AppendField(&out, "ops_per_s", heat[s].ops_per_s);
      out += ",";
      AppendField(&out, "read_frac", heat[s].read_frac);
      out += ",";
      AppendField(&out, "write_frac", heat[s].write_frac);
      out += ",";
      AppendField(&out, "scan_frac", heat[s].scan_frac);
      out += ",";
      AppendField(&out, "total_ops", heat[s].total_ops);
      out += ",\"top_keys\":[";
      for (std::size_t k = 0; k < heat[s].top_keys.size(); ++k) {
        if (k > 0) out += ",";
        out += "{";
        AppendField(&out, "key", heat[s].top_keys[k].key);
        out += ",";
        AppendField(&out, "count", heat[s].top_keys[k].count);
        out += ",";
        AppendField(&out, "error", heat[s].top_keys[k].error);
        out += "}";
      }
      out += "]}";
    }
    out += "}";
  }
  out += "],\"metrics\":" + snap.ToJson() + "}";
  return out;
}

Status KvServer::Shutdown() {
  if (!started_ || stopped_) return Status::Ok();
  stopped_ = true;
  // The queue-depth gauge's callback reads this object; drop it before any
  // teardown so a concurrent registry snapshot cannot race the drain.
  options_.metrics->UnregisterGauge(kQueueDepth);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_.store(true);
  }
  // Wake every worker NOW: they keep running through the reader joins below,
  // answering queued batches with kShuttingDown so the readers' pending
  // drains (a reader waits for its in-flight responses before exiting).
  queue_cv_.notify_all();
  // 1. Stop accepting: close the listeners, unblocking accept().
  CloseListener(&unix_fd_);
  CloseListener(&tcp_fd_);
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  // 2. Stop reading: shut down each connection's read side so its reader
  //    sees EOF. Write sides stay open -- queued batches still get their
  //    kShuttingDown responses.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RD);
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // 3. The workers have been draining since the notify above; they exit once
  //    the queue is empty.
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  for (const auto& conn : conns) ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  // 4. Checkpoint through the engine: merge staged updates + checkpoint
  //    (FlushUpdates), then sync WALs and write back dirty frames
  //    (FlushBuffers). A restart with --recover replays an empty tail.
  LIOD_RETURN_IF_ERROR(engine_->FlushUpdates());
  return engine_->FlushBuffers();
}

ServerCounters KvServer::counters() const {
  return CountersFrom(options_.metrics->Snapshot());
}

}  // namespace liod::server
