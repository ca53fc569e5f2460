#include "telemetry/exporter.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

#include "server/net.h"
#include "telemetry/metric_registry.h"

namespace liod {

namespace {

std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Splits a "shard<N>." prefix off a registry name; returns the shard number
/// as a string (empty when the name is not per-shard).
std::string SplitShardPrefix(const std::string& name, std::string* rest) {
  constexpr const char kPrefix[] = "shard";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) {
    *rest = name;
    return std::string();
  }
  std::size_t i = kPrefixLen;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) ++i;
  if (i == kPrefixLen || i >= name.size() || name[i] != '.') {
    *rest = name;
    return std::string();
  }
  *rest = name.substr(i + 1);
  return name.substr(kPrefixLen, i - kPrefixLen);
}

/// "buffer.hit_rate" -> "liod_buffer_hit_rate" (the Prometheus metric-name
/// charset is [a-zA-Z0-9_:]; everything else becomes '_').
std::string SanitizeName(const std::string& base) {
  std::string out = "liod_";
  for (const char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Families keyed by exposition name, each holding its per-shard series in
/// label order; one # HELP / # TYPE pair per family.
template <typename Value>
using FamilyMap = std::map<std::string, std::vector<std::pair<std::string, Value>>>;

std::string LabelSet(const std::string& shard) {
  return shard.empty() ? std::string() : "{shard=\"" + shard + "\"}";
}

/// Label set with `le` merged in (histogram bucket series).
std::string BucketLabelSet(const std::string& shard, const std::string& le) {
  if (shard.empty()) return "{le=\"" + le + "\"}";
  return "{shard=\"" + shard + "\",le=\"" + le + "\"}";
}

void EmitHeader(std::string* out, const std::string& family, const char* type) {
  out->append("# HELP " + family + " liod " + type + " " + family + "\n");
  out->append("# TYPE " + family + " " + type + "\n");
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  FamilyMap<std::uint64_t> counters;
  FamilyMap<double> gauges;
  FamilyMap<const HistogramSnapshot*> histograms;
  for (const auto& [name, value] : snapshot.counters) {
    std::string base;
    const std::string shard = SplitShardPrefix(name, &base);
    counters[SanitizeName(base) + "_total"].emplace_back(shard, value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string base;
    const std::string shard = SplitShardPrefix(name, &base);
    gauges[SanitizeName(base)].emplace_back(shard, value);
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    std::string base;
    const std::string shard = SplitShardPrefix(name, &base);
    histograms[SanitizeName(base)].emplace_back(shard, &hist);
  }

  std::string out;
  for (const auto& [family, series] : counters) {
    EmitHeader(&out, family, "counter");
    for (const auto& [shard, value] : series) {
      out.append(family + LabelSet(shard) + " " + std::to_string(value) + "\n");
    }
  }
  for (const auto& [family, series] : gauges) {
    EmitHeader(&out, family, "gauge");
    for (const auto& [shard, value] : series) {
      out.append(family + LabelSet(shard) + " " + FormatValue(value) + "\n");
    }
  }
  for (const auto& [family, series] : histograms) {
    EmitHeader(&out, family, "histogram");
    for (const auto& [shard, hist] : series) {
      // Cumulative buckets: only non-empty buckets are emitted (165 mostly-
      // empty lines per histogram would dwarf the payload), plus the
      // mandatory +Inf bucket equal to _count.
      std::uint64_t cum = 0;
      for (int i = 0; i < LatencyBuckets::kNumBuckets; ++i) {
        if (hist->buckets[i] == 0) continue;
        cum += hist->buckets[i];
        out.append(family + "_bucket" +
                   BucketLabelSet(shard, FormatValue(LatencyBuckets::UpperBound(i))) +
                   " " + std::to_string(cum) + "\n");
      }
      out.append(family + "_bucket" + BucketLabelSet(shard, "+Inf") + " " +
                 std::to_string(hist->count) + "\n");
      out.append(family + "_sum" + LabelSet(shard) + " " + FormatValue(hist->sum_us) +
                 "\n");
      out.append(family + "_count" + LabelSet(shard) + " " +
                 std::to_string(hist->count) + "\n");
    }
  }
  return out;
}

MetricsExporter::MetricsExporter(ExporterOptions options)
    : options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() { Shutdown(); }

void MetricsExporter::AddJsonHandler(const std::string& path,
                                     std::function<std::string()> provider) {
  handlers_[path] = std::move(provider);
}

Status MetricsExporter::Start() {
  if (started_) return Status::FailedPrecondition("MetricsExporter already started");
  if (options_.registry == nullptr) {
    return Status::InvalidArgument("MetricsExporter: registry must be non-null");
  }
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("MetricsExporter: no listener configured");
  }
  scrapes_id_ = options_.registry->Counter("exporter.scrapes");
  LIOD_RETURN_IF_ERROR(server::ListenAll(options_.unix_path, options_.tcp_host,
                                        options_.tcp_port, &unix_fd_, &tcp_fd_, &tcp_port_));
  started_ = true;
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back(&MetricsExporter::AcceptLoop, this, unix_fd_);
  }
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back(&MetricsExporter::AcceptLoop, this, tcp_fd_);
  }
  return Status::Ok();
}

void MetricsExporter::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = server::AcceptWithBackoff(
        listen_fd, [this] { return stopping_.load(std::memory_order_relaxed); });
    if (fd < 0) return;  // stopping, or the listener closed or broke
    HandleConnection(fd);
    ::close(fd);
  }
}

void MetricsExporter::HandleConnection(int fd) {
  // A hung or trickling scraper must not wedge the endpoint: bound both
  // directions, then serve the request inline.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[1024];
  while (request.size() < 8192 && request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }

  int code = 200;
  const char* reason = "OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  const std::size_t line_end = request.find("\r\n");
  std::string method, path;
  if (line_end != std::string::npos) {
    const std::string line = request.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      method = line.substr(0, sp1);
      path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  if (method.empty() || path.empty()) {
    code = 400;
    reason = "Bad Request";
    body = "malformed request line\n";
  } else if (method != "GET") {
    code = 405;
    reason = "Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/metrics") {
    body = ToPrometheusText(options_.registry->Snapshot());
  } else if (path == "/metrics.json") {
    content_type = "application/json";
    body = options_.registry->ToJson();
  } else if (const auto it = handlers_.find(path); it != handlers_.end()) {
    content_type = "application/json";
    body = it->second();
  } else {
    code = 404;
    reason = "Not Found";
    body = "unknown path (try /metrics or /metrics.json)\n";
  }
  if (code == 200) options_.registry->Add(scrapes_id_);

  std::string response = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  (void)server::WriteAll(
      fd, std::span<const std::byte>(reinterpret_cast<const std::byte*>(response.data()),
                                     response.size()));
}

void MetricsExporter::Shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  server::CloseListener(&unix_fd_);
  server::CloseListener(&tcp_fd_);
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

}  // namespace liod
