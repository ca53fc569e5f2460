#ifndef LIOD_TELEMETRY_EXPORTER_H_
#define LIOD_TELEMETRY_EXPORTER_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace liod {

class MetricRegistry;
struct MetricsSnapshot;

/// Renders a registry snapshot in Prometheus text exposition format 0.0.4.
///
/// Name mapping: dotted registry names become `liod_`-prefixed underscore
/// names ("engine.lookup_us" -> "liod_engine_lookup_us"); the per-shard
/// namespace becomes a label ("shard3.ops.lookup" -> metric "liod_ops_lookup"
/// with {shard="3"}), so all shards of one metric form one family. Counters
/// get the conventional `_total` suffix; histograms emit cumulative
/// `_bucket{le="..."}` series (non-empty buckets plus "+Inf") with `_sum` /
/// `_count`, all in microseconds as the `_us` names say. Every family gets
/// `# HELP` and `# TYPE` lines; scripts/validate_metrics.py --prometheus
/// checks the output's invariants in CI.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

struct ExporterOptions {
  /// Unix-domain listen path (empty = no unix listener).
  std::string unix_path;
  /// TCP listen port (-1 = no TCP listener; 0 = ephemeral, see tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Registry served by /metrics and /metrics.json. Required. The exporter
  /// also counts its own scrapes there ("exporter.scrapes").
  MetricRegistry* registry = nullptr;
};

/// Live metrics exposition endpoint: a minimal HTTP/1.0 server (on the
/// src/server/net listeners) that snapshots the registry per request, so a
/// running process can be polled without restarts or file dumps.
///
///   GET /metrics       Prometheus text format 0.0.4
///   GET /metrics.json  the registry's liod-telemetry/1 JSON
///   GET <custom>       any handler registered via AddJsonHandler
///
/// One accept thread per listener; requests are handled inline on the accept
/// thread with short socket timeouts (scrapes are rare and small, and a stuck
/// scraper must not wedge the endpoint forever). Responses close the
/// connection (Connection: close), which every scraper including curl
/// handles.
class MetricsExporter {
 public:
  explicit MetricsExporter(ExporterOptions options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Registers an extra JSON document at `path` (e.g. "/stats.json"); the
  /// provider runs on the exporter's accept thread per request. Must be
  /// called before Start.
  void AddJsonHandler(const std::string& path, std::function<std::string()> provider);

  /// Binds the configured listeners and spawns the accept threads.
  Status Start();

  /// Stops listening and joins the accept threads. Idempotent.
  void Shutdown();

  /// Actual TCP port (after Start, when tcp_port was 0).
  int tcp_port() const { return tcp_port_; }

 private:
  /// Serves connections one at a time until Shutdown or until the listener
  /// closes. Running out of descriptors or memory backs off and retries
  /// (server::AcceptWithBackoff), so a descriptor spike does not end the
  /// endpoint.
  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);

  ExporterOptions options_;
  std::map<std::string, std::function<std::string()>> handlers_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::size_t scrapes_id_ = 0;  ///< counter: exporter.scrapes
};

}  // namespace liod

#endif  // LIOD_TELEMETRY_EXPORTER_H_
