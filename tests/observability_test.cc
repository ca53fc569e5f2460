// Live observability surfaces (PRs riding src/telemetry/exporter,
// src/engine/heat_tracker, src/server/slow_op_ring): the Prometheus text
// mapping (liod_ names, shard labels, _total suffix, cumulative buckets with
// a mandatory +Inf == _count), the HTTP exposition endpoint end to end over
// unix and TCP listeners (and still serving after descriptors ran out), the
// bounded slow-op ring's drop-oldest accounting,
// and per-shard heat tracking -- SpaceSaving hot keys and the EWMA mix --
// both standalone and wired through ShardedEngine's instrumented path.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/heat_tracker.h"
#include "engine/sharded_engine.h"
#include "kv/request.h"
#include "server/net.h"
#include "server/slow_op_ring.h"
#include "telemetry/exporter.h"
#include "telemetry/metric_registry.h"
#include "test_util.h"

namespace liod {
namespace {

using testing_util::DescriptorExhaustion;
using testing_util::ToRecords;
using testing_util::UniformKeys;

std::size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- Prometheus text mapping ------------------------------------------------

TEST(PrometheusTextTest, CountersGaugesAndHistogramsMapToLiodFamilies) {
  MetricsSnapshot snapshot;
  snapshot.counters["ops.lookup"] = 5;
  snapshot.gauges["buffer.hit_rate"] = 0.5;
  HistogramSnapshot hist;
  hist.Observe(0.5);
  hist.Observe(3.0);
  hist.Observe(250.0);
  snapshot.histograms["op.lookup_us"] = hist;

  const std::string text = ToPrometheusText(snapshot);
  // Counter: dotted name -> liod_ + underscores, conventional _total suffix.
  EXPECT_NE(text.find("# HELP liod_ops_lookup_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE liod_ops_lookup_total counter"), std::string::npos);
  EXPECT_NE(text.find("liod_ops_lookup_total 5\n"), std::string::npos);
  // Gauge keeps its name verbatim (no suffix).
  EXPECT_NE(text.find("# TYPE liod_buffer_hit_rate gauge"), std::string::npos);
  EXPECT_NE(text.find("liod_buffer_hit_rate 0.5\n"), std::string::npos);
  // Histogram: bucket series plus _sum/_count, +Inf bucket equals the count.
  EXPECT_NE(text.find("# TYPE liod_op_lookup_us histogram"), std::string::npos);
  EXPECT_NE(text.find("liod_op_lookup_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("liod_op_lookup_us_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("liod_op_lookup_us_sum 253.5\n"), std::string::npos);
}

TEST(PrometheusTextTest, ShardPrefixBecomesALabelOnOneFamily) {
  MetricsSnapshot snapshot;
  snapshot.counters["shard0.ops.lookup"] = 2;
  snapshot.counters["shard3.ops.lookup"] = 7;
  snapshot.counters["shard12.wal.forces"] = 1;
  // Not a shard prefix: no digits / no dot after the digits.
  snapshot.counters["sharding.events"] = 4;

  const std::string text = ToPrometheusText(snapshot);
  // All shards of one metric form ONE family with exactly one header pair.
  EXPECT_EQ(CountOccurrences(text, "# TYPE liod_ops_lookup_total counter"), 1u);
  EXPECT_NE(text.find("liod_ops_lookup_total{shard=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("liod_ops_lookup_total{shard=\"3\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("liod_wal_forces_total{shard=\"12\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("liod_sharding_events_total 4\n"), std::string::npos);
  EXPECT_EQ(text.find("liod_ing_events"), std::string::npos);
}

TEST(PrometheusTextTest, BucketsAreCumulativeAndEndAtInfEqualsCount) {
  MetricsSnapshot snapshot;
  HistogramSnapshot hist;
  // Spread observations over several distinct buckets.
  for (int i = 0; i < 10; ++i) hist.Observe(0.5);
  for (int i = 0; i < 20; ++i) hist.Observe(5.0);
  for (int i = 0; i < 5; ++i) hist.Observe(1e6);
  snapshot.histograms["h_us"] = hist;

  const std::string text = ToPrometheusText(snapshot);
  std::vector<std::uint64_t> cumulative;
  std::size_t pos = 0;
  while ((pos = text.find("liod_h_us_bucket{le=", pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    cumulative.push_back(std::strtoull(text.c_str() + space + 1, nullptr, 10));
    pos = space;
  }
  ASSERT_GE(cumulative.size(), 3u);  // three distinct buckets + +Inf
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket series not cumulative";
  }
  EXPECT_EQ(cumulative.back(), 35u);  // +Inf == _count
  EXPECT_NE(text.find("liod_h_us_count 35\n"), std::string::npos);
}

// --- HTTP exposition endpoint -----------------------------------------------

/// Minimal HTTP/1.0 GET over an already-connected fd; reads to EOF (the
/// exporter answers Connection: close).
std::string HttpGet(int fd, const std::string& request_line) {
  const std::string request = request_line + "\r\n\r\n";
  EXPECT_TRUE(server::WriteAll(fd, std::span<const std::byte>(
                                       reinterpret_cast<const std::byte*>(request.data()),
                                       request.size()))
                  .ok());
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsExporterTest, ServesPrometheusJsonAndCustomHandlersOverTcp) {
  MetricRegistry registry;
  registry.Add(registry.Counter("ops.lookup"), 9);

  ExporterOptions options;
  options.tcp_port = 0;  // ephemeral
  options.registry = &registry;
  MetricsExporter exporter(options);
  exporter.AddJsonHandler("/stats.json", [] { return std::string("{\"custom\":1}"); });
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_GT(exporter.tcp_port(), 0);

  const auto connect = [&] {
    int fd = -1;
    EXPECT_TRUE(server::ConnectTcp("127.0.0.1", exporter.tcp_port(), &fd).ok());
    return fd;
  };

  const std::string prom = HttpGet(connect(), "GET /metrics HTTP/1.0");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(prom.find("liod_ops_lookup_total 9"), std::string::npos);

  const std::string json = HttpGet(connect(), "GET /metrics.json HTTP/1.0");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("liod-telemetry/1"), std::string::npos);

  const std::string custom = HttpGet(connect(), "GET /stats.json HTTP/1.0");
  EXPECT_NE(custom.find("200 OK"), std::string::npos);
  EXPECT_NE(custom.find("{\"custom\":1}"), std::string::npos);

  EXPECT_NE(HttpGet(connect(), "GET /nope HTTP/1.0").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpGet(connect(), "POST /metrics HTTP/1.0").find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(HttpGet(connect(), "garbage").find("400 Bad Request"), std::string::npos);

  // The exporter meters itself: three successful scrapes above.
  EXPECT_EQ(registry.Snapshot().counters.at("exporter.scrapes"), 3u);
  exporter.Shutdown();
}

TEST(MetricsExporterTest, ServesOverUnixSocketAndShutdownUnlinks) {
  MetricRegistry registry;
  registry.Add(registry.Counter("c"), 1);
  const std::string path =
      "/tmp/liod_exporter_" + std::to_string(::getpid()) + ".sock";

  ExporterOptions options;
  options.unix_path = path;
  options.registry = &registry;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());

  int fd = -1;
  ASSERT_TRUE(server::ConnectUnix(path, &fd).ok());
  const std::string response = HttpGet(fd, "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("liod_c_total 1"), std::string::npos);

  exporter.Shutdown();
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "socket file not unlinked";
}

TEST(MetricsExporterTest, AcceptKeepsServingAfterDescriptorExhaustion) {
  // An accept() that fails for want of a descriptor must not end the
  // endpoint: once descriptors free up, scrapes are answered again.
  MetricRegistry registry;
  registry.Add(registry.Counter("c"), 1);
  ExporterOptions options;
  options.tcp_port = 0;
  options.registry = &registry;
  {
    // UBSan validates a polymorphic type the first time it sees it through a
    // pipe, which cannot be opened while descriptors are exhausted: start an
    // accept thread once beforehand so its type is already known.
    MetricsExporter warm(options);
    ASSERT_TRUE(warm.Start().ok());
  }
  MetricsExporter exporter(options);
  {
    DescriptorExhaustion exhaustion;
    ASSERT_TRUE(exhaustion.exhausted());
    exhaustion.FreeOne();  // room for the listener only
    ASSERT_TRUE(exporter.Start().ok());
    // The accept thread's first accept() finds no descriptor number left
    // and fails with EMFILE.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  int fd = -1;
  ASSERT_TRUE(server::ConnectTcp("127.0.0.1", exporter.tcp_port(), &fd).ok());
  // An endpoint that stopped accepting never answers: bound the wait so the
  // test fails instead of hanging.
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  const std::string response = HttpGet(fd, "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("liod_c_total 1"), std::string::npos)
      << "no response: the exporter stopped accepting";
  exporter.Shutdown();
}

TEST(MetricsExporterTest, StartRequiresARegistryAndAListener) {
  MetricsExporter no_registry(ExporterOptions{});
  EXPECT_EQ(no_registry.Start().code(), Status::Code::kInvalidArgument);

  MetricRegistry registry;
  ExporterOptions options;
  options.registry = &registry;  // but no listener configured
  MetricsExporter no_listener(options);
  EXPECT_EQ(no_listener.Start().code(), Status::Code::kInvalidArgument);
}

// --- slow-op ring -----------------------------------------------------------

TEST(SlowOpRingTest, KeepsEverythingUnderCapacity) {
  server::SlowOpRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    server::SlowOpRecord record;
    record.key = 100 + i;
    EXPECT_FALSE(ring.Record(record));  // no eviction
  }
  const server::SlowOpRing::Snapshot snap = ring.snapshot();
  EXPECT_EQ(snap.recorded, 3u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.ops.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(snap.ops[i].seq, i);
    EXPECT_EQ(snap.ops[i].key, 100 + i);
  }
}

TEST(SlowOpRingTest, OverflowDropsOldestWithExactAccounting) {
  server::SlowOpRing ring(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    server::SlowOpRecord record;
    record.key = i;
    const bool evicted = ring.Record(record);
    EXPECT_EQ(evicted, i >= 3) << "record " << i;
  }
  const server::SlowOpRing::Snapshot snap = ring.snapshot();
  EXPECT_EQ(snap.recorded, 10u);
  EXPECT_EQ(snap.dropped, 7u);
  ASSERT_EQ(snap.ops.size(), 3u);
  // Survivors are the newest three, oldest first.
  EXPECT_EQ(snap.ops[0].seq, 7u);
  EXPECT_EQ(snap.ops[1].seq, 8u);
  EXPECT_EQ(snap.ops[2].seq, 9u);
}

// --- heat tracker -----------------------------------------------------------

TEST(HeatTrackerTest, HotKeyDominatesTopKWithZeroError) {
  ShardHeatTracker tracker(4);
  // The hot key is monitored from its first record; it is never the minimum
  // slot, so SpaceSaving keeps its count exact (error 0).
  for (int i = 0; i < 1000; ++i) tracker.Record(kv::OpKind::kLookup, 42);
  for (Key k = 1000; k < 1500; ++k) tracker.Record(kv::OpKind::kLookup, k);

  const HeatSnapshot snap = tracker.Snapshot();
  ASSERT_FALSE(snap.top_keys.empty());
  EXPECT_EQ(snap.top_keys[0].key, 42u);
  EXPECT_EQ(snap.top_keys[0].count, 1000u);
  EXPECT_EQ(snap.top_keys[0].error, 0u);
  EXPECT_LE(snap.top_keys.size(), 4u);
  // Every reported count may overestimate, never understate beyond `error`.
  for (const HeatSnapshot::HotKey& hot : snap.top_keys) {
    EXPECT_GE(hot.count, hot.error);
  }
  EXPECT_EQ(snap.total_ops, 1500u);
  EXPECT_EQ(snap.lookups, 1500u);
}

TEST(HeatTrackerTest, MixFractionsReflectLifetimeTotalsBeforePriming) {
  ShardHeatTracker tracker(2);
  for (int i = 0; i < 600; ++i) tracker.Record(kv::OpKind::kLookup, 1);
  for (int i = 0; i < 200; ++i) tracker.Record(kv::OpKind::kInsert, 2);
  for (int i = 0; i < 100; ++i) tracker.Record(kv::OpKind::kDelete, 3);
  for (int i = 0; i < 100; ++i) tracker.Record(kv::OpKind::kScan, 4);

  const HeatSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.total_ops, 1000u);
  EXPECT_EQ(snap.lookups, 600u);
  EXPECT_EQ(snap.writes, 300u);  // insert + delete (+ rmw)
  EXPECT_EQ(snap.scans, 100u);
  // All records land in the first (partial) window, so the mix falls back to
  // the exact lifetime tallies.
  EXPECT_NEAR(snap.read_frac, 0.6, 1e-9);
  EXPECT_NEAR(snap.write_frac, 0.3, 1e-9);
  EXPECT_NEAR(snap.scan_frac, 0.1, 1e-9);
  EXPECT_GT(snap.ops_per_s, 0.0);
  EXPECT_NEAR(tracker.ReadFraction(), 0.6, 1e-9);
}

TEST(HeatTrackerTest, IdleTrackerReportsZeroes) {
  ShardHeatTracker tracker(4);
  const HeatSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.total_ops, 0u);
  EXPECT_EQ(snap.ops_per_s, 0.0);
  EXPECT_EQ(snap.read_frac, 0.0);
  EXPECT_TRUE(snap.top_keys.empty());
}

// --- engine integration -----------------------------------------------------

EngineOptions HeatEngineOptions(MetricRegistry* registry) {
  EngineOptions options;
  options.index_name = "btree";
  options.num_shards = 2;
  options.index.metrics = registry;
  return options;
}

TEST(EngineHeatTest, HeatIsOffWithoutAMetricRegistry) {
  EngineOptions options = HeatEngineOptions(nullptr);
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Bulkload(ToRecords(UniformKeys(200, 7))).ok());
  EXPECT_FALSE(engine.heat_enabled());
  EXPECT_TRUE(engine.HeatSnapshots().empty());
}

TEST(EngineHeatTest, InjectedHotKeySurfacesInTopKAndGauges) {
  MetricRegistry registry;
  {
    ShardedEngine engine(HeatEngineOptions(&registry));
    const auto records = ToRecords(UniformKeys(2000, 13));
    ASSERT_TRUE(engine.Bulkload(records).ok());
    ASSERT_TRUE(engine.heat_enabled());

    // Skewed traffic: one key takes 500 lookups, 200 others take one each.
    const Key hot = records[7].key;
    Payload payload = 0;
    bool found = false;
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(engine.Lookup(hot, &payload, &found).ok());
    }
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(engine.Lookup(records[100 + i].key, &payload, &found).ok());
    }

    const std::vector<HeatSnapshot> shards = engine.HeatSnapshots();
    ASSERT_EQ(shards.size(), 2u);
    bool hot_seen = false;
    std::uint64_t total = 0;
    for (const HeatSnapshot& shard : shards) {
      total += shard.total_ops;
      for (const HeatSnapshot::HotKey& key : shard.top_keys) {
        if (key.key == hot) {
          hot_seen = true;
          // SpaceSaving never understates by more than `error`.
          EXPECT_GE(key.count, 500u);
          EXPECT_LE(key.count - key.error, 500u);
        }
      }
    }
    EXPECT_TRUE(hot_seen) << "injected hot key missing from every shard's top-k";
    EXPECT_EQ(total, 700u);

    // The per-shard heat gauges are live in the registry while the engine is.
    const MetricsSnapshot snap = registry.Snapshot();
    for (const char* name : {"shard0.heat.ops_per_s", "shard0.heat.read_frac",
                             "shard1.heat.write_frac", "shard1.heat.scan_frac"}) {
      EXPECT_EQ(snap.gauges.count(name), 1u) << "missing gauge " << name;
    }
    // All traffic was lookups.
    EXPECT_NEAR(snap.gauges.at("shard0.heat.read_frac"), 1.0, 1e-9);
  }
  // Engine destruction unregisters the heat gauges with the rest.
  EXPECT_TRUE(registry.Snapshot().gauges.empty());
}

}  // namespace
}  // namespace liod
