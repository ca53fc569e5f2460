// Telemetry subsystem (src/telemetry/): log-bucketed histogram geometry and
// quantile bracketing, the striped MetricRegistry, the bounded
// TraceRecorder ring with Chrome trace-event export, and the periodic CSV
// sampler -- plus the end-to-end wiring contracts: telemetry enabled vs
// disabled counts identical device I/O (one shard and two shards),
// an instrumented engine run emits every span kind the observability story
// promises, and the striped OpBreakdown records the same totals under
// parallel lookups as under serial ones.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_factory.h"
#include "core/op_breakdown.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "kv/request.h"
#include "storage/disk_model.h"
#include "storage/io_stats.h"
#include "telemetry/metric_registry.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_recorder.h"
#include "test_util.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::RacingThreads;
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

/// Deterministic lognormal-ish latencies spanning ~0.5us to several ms --
/// the shape real per-op latencies have (tight body, long tail).
std::vector<double> LognormalLatencies(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(std::exp(rng.NextGaussian() * 1.3 + 2.0));
  }
  return values;
}

/// Nearest-rank q-th sample (the convention HistogramSnapshot's quantile
/// bounds are specified against).
double NearestRank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))));
  return values[rank - 1];
}

// --- bucket geometry --------------------------------------------------------

TEST(TelemetryBucketsTest, BucketZeroAbsorbsSubMicrosecondAndNegative) {
  EXPECT_EQ(LatencyBuckets::Index(0.0), 0);
  EXPECT_EQ(LatencyBuckets::Index(0.999), 0);
  EXPECT_EQ(LatencyBuckets::Index(-17.0), 0);
  EXPECT_EQ(LatencyBuckets::LowerBound(0), 0.0);
  EXPECT_EQ(LatencyBuckets::UpperBound(0), 1.0);
  EXPECT_EQ(LatencyBuckets::Index(1.0), 1);
}

TEST(TelemetryBucketsTest, BucketsAreContiguousAndRelativeWidthBounded) {
  for (int b = 0; b + 1 < LatencyBuckets::kNumBuckets; ++b) {
    EXPECT_EQ(LatencyBuckets::UpperBound(b), LatencyBuckets::LowerBound(b + 1))
        << "gap or overlap at bucket " << b;
  }
  // A bucket is never wider than 25% of its lower bound: "within one bucket
  // width" is a relative-error guarantee at every magnitude.
  for (int b = 1; b < LatencyBuckets::kNumBuckets; ++b) {
    const double lower = LatencyBuckets::LowerBound(b);
    const double width = LatencyBuckets::UpperBound(b) - lower;
    EXPECT_LE(width, 0.25 * lower * (1.0 + 1e-12)) << "bucket " << b;
  }
}

TEST(TelemetryBucketsTest, IndexIsConsistentWithBounds) {
  // Midpoint of every bucket maps back to that bucket.
  for (int b = 1; b < LatencyBuckets::kNumBuckets; ++b) {
    const double mid = 0.5 * (LatencyBuckets::LowerBound(b) + LatencyBuckets::UpperBound(b));
    EXPECT_EQ(LatencyBuckets::Index(mid), b) << "midpoint of bucket " << b;
  }
  // Dense sweep: every value lies inside its bucket's [lower, upper).
  for (double v = 0.1; v < 1e12; v *= 1.37) {
    const int b = LatencyBuckets::Index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyBuckets::kNumBuckets);
    EXPECT_LE(LatencyBuckets::LowerBound(b), v);
    EXPECT_GT(LatencyBuckets::UpperBound(b), v);
  }
  // Values past the top clamp to the last bucket instead of indexing out.
  EXPECT_EQ(LatencyBuckets::Index(1e30), LatencyBuckets::kNumBuckets - 1);
}

// --- histogram quantiles ----------------------------------------------------

TEST(TelemetryHistogramTest, QuantileBoundsBracketTheNearestRankSample) {
  const std::vector<double> values = LognormalLatencies(5000, 17);
  HistogramSnapshot hist;
  for (double v : values) hist.Observe(v);
  ASSERT_EQ(hist.count, values.size());

  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = NearestRank(values, q);
    const double lower = hist.QuantileLowerBound(q);
    const double upper = hist.QuantileUpperBound(q);
    EXPECT_LE(lower, exact) << "q=" << q;
    EXPECT_GT(upper, exact) << "q=" << q;
    // The bracket is exactly one bucket wide, so the point estimate is
    // within one bucket width of the true sample.
    EXPECT_LE(upper - lower, std::max(1.0, 0.25 * lower * (1.0 + 1e-12))) << "q=" << q;
    EXPECT_EQ(hist.Quantile(q), upper) << "q=" << q;
  }
}

TEST(TelemetryHistogramTest, QuantilesTrackExactOpSamplePercentiles) {
  // The acceptance pin: histogram p50/p99 within one log-bucket width of the
  // exact OpSample-based percentiles (ConcurrentRunResult::LatencyPercentileUs).
  const DiskModel model = DiskModel::Ssd();
  Rng rng(1234);
  ConcurrentRunResult result;
  std::vector<OpSample>& samples = result.threads.emplace_back().samples;
  HistogramSnapshot hist;
  for (int i = 0; i < 5000; ++i) {
    OpSample sample;
    sample.cpu_us = static_cast<float>(std::exp(rng.NextGaussian() * 1.3 + 2.0));
    sample.reads = static_cast<std::uint32_t>(rng.NextBounded(4));
    sample.writes = static_cast<std::uint32_t>(rng.NextBounded(2));
    samples.push_back(sample);
    hist.Observe(sample.LatencyUs(model));
  }
  result.operations = samples.size();

  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = result.LatencyPercentileUs(q, model);
    const double lower = hist.QuantileLowerBound(q);
    const double upper = hist.QuantileUpperBound(q);
    const double width = upper - lower;
    // LatencyPercentileUs uses a floor-index convention, one order statistic
    // at most above the histogram's nearest-rank target, so allow the exact
    // value to sit one bucket width outside the bracket.
    EXPECT_GE(exact, lower - width) << "q=" << q;
    EXPECT_LE(exact, upper + width) << "q=" << q;
  }
}

TEST(TelemetryHistogramTest, MergeOfShardsEqualsSingleHistogram) {
  const std::vector<double> values = LognormalLatencies(3000, 23);
  HistogramSnapshot whole;
  std::array<HistogramSnapshot, 3> shards;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.Observe(values[i]);
    shards[i % shards.size()].Observe(values[i]);
  }
  HistogramSnapshot merged;
  for (const HistogramSnapshot& shard : shards) merged += shard;
  EXPECT_EQ(merged.count, whole.count);
  // Summation order differs between the merged and the single-pass sums, so
  // the doubles agree only up to rounding.
  EXPECT_NEAR(merged.sum_us, whole.sum_us, 1e-9 * whole.sum_us);
  EXPECT_EQ(merged.buckets, whole.buckets);
  for (double q : {0.50, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(TelemetryHistogramTest, EmptyHistogramReportsZeroQuantiles) {
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.QuantileLowerBound(0.99), 0.0);
  EXPECT_EQ(empty.MeanUs(), 0.0);
}

// --- metric registry --------------------------------------------------------

TEST(TelemetryRegistryTest, SameNameYieldsSameIdAndNamespacesAreIndependent) {
  MetricRegistry registry;
  const auto c1 = registry.Counter("ops.lookup");
  const auto c2 = registry.Counter("ops.lookup");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.Counter("ops.insert"), c1);
  // Counter and histogram namespaces do not collide: the same dotted name
  // can exist in both.
  const auto h = registry.Histogram("ops.lookup");
  registry.Add(c1, 3);
  registry.Observe(h, 7.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("ops.lookup"), 3u);
  EXPECT_EQ(snap.histograms.at("ops.lookup").count, 1u);
}

TEST(TelemetryRegistryTest, RegisteredButUntouchedMetricsSnapshotAsZero) {
  MetricRegistry registry;
  registry.Counter("never.bumped");
  registry.Histogram("never.observed");
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("never.bumped"), 0u);
  EXPECT_EQ(snap.histograms.at("never.observed").count, 0u);
}

TEST(TelemetryRegistryTest, ConcurrentRecordingLosesNothing) {
  MetricRegistry registry;
  const auto counter = registry.Counter("c");
  const auto hist = registry.Histogram("h");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 10'000;

  RacingThreads workers;
  workers.StartN(kThreads, [&](std::size_t, const std::atomic<bool>&) -> Status {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      registry.Add(counter);
      registry.Observe(hist, static_cast<double>(i % 7));
    }
    return Status::Ok();
  });
  ASSERT_TRUE(workers.JoinAll().ok());

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), kThreads * kOpsPerThread);
  EXPECT_EQ(snap.histograms.at("h").count, kThreads * kOpsPerThread);
  double per_thread_sum = 0.0;
  for (std::size_t i = 0; i < kOpsPerThread; ++i) per_thread_sum += static_cast<double>(i % 7);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").sum_us, kThreads * per_thread_sum);
}

/// Resident set size of this process in MiB.
double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

TEST(TelemetryRegistryTest, ThreadChurnKeepsTheFootprintFixed) {
  // A server records from one reader thread per connection. Threads that
  // come and go one after another must neither lose counts nor grow the
  // registry: each records into one of a fixed set of stripes, not into
  // state of its own that outlives it.
  MetricRegistry registry;
  const auto counter = registry.Counter("c");
  const auto queue_us = registry.Histogram("queue_us");
  const auto execute_us = registry.Histogram("execute_us");
  const auto record = [&] {
    registry.Add(counter);
    registry.Observe(queue_us, 1.0);
    registry.Observe(execute_us, 3.0);
  };
  // RSS growth over `threads` threads started and joined one at a time.
  const auto churn_mib = [](std::size_t threads, const std::function<void()>& body) {
    const double before_mib = ResidentMiB();
    for (std::size_t i = 0; i < threads; ++i) std::thread(body).join();
    return ResidentMiB() - before_mib;
  };
  constexpr std::size_t kWarmup = 100;  // thread stacks and allocator caches
  churn_mib(kWarmup, record);
  // Thread churn can cost memory by itself (sanitizer runtimes keep state
  // per thread), so the bound applies to what recording adds to it.
  constexpr std::size_t kThreads = 5000;
  const double idle_mib = churn_mib(kThreads, [] {});
  const double grown_mib = churn_mib(kThreads, record) - idle_mib;

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), kWarmup + kThreads);
  EXPECT_EQ(snap.histograms.at("queue_us").count, kWarmup + kThreads);
  EXPECT_EQ(snap.histograms.at("execute_us").count, kWarmup + kThreads);
  EXPECT_DOUBLE_EQ(snap.histograms.at("execute_us").sum_us, 3.0 * (kWarmup + kThreads));
  EXPECT_LT(grown_mib, 4.0) << "RSS grew by " << grown_mib << " MiB over " << kThreads
                            << " recording threads";
}

TEST(TelemetryRegistryTest, GaugesRegisterReplaceAndUnregister) {
  MetricRegistry registry;
  registry.RegisterGauge("g", [] { return 2.5; });
  EXPECT_EQ(registry.Snapshot().gauges.at("g"), 2.5);
  registry.RegisterGauge("g", [] { return 4.0; });  // replace
  EXPECT_EQ(registry.Snapshot().gauges.at("g"), 4.0);
  registry.UnregisterGauge("g");
  EXPECT_EQ(registry.Snapshot().gauges.count("g"), 0u);
}

TEST(TelemetryRegistryTest, ToJsonCarriesSchemaQuantilesAndVerbatimNaN) {
  MetricRegistry registry;
  registry.Add(registry.Counter("ops.lookup"), 5);
  registry.Observe(registry.Histogram("op.lookup_us"), 12.0);
  registry.RegisterGauge("bad.gauge", [] { return std::nan(""); });
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema\":\"liod-telemetry/1\""), std::string::npos);
  EXPECT_NE(json.find("\"ops.lookup\":5"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\":"), std::string::npos);
  // Non-finite gauges are emitted verbatim so the schema validator rejects
  // them instead of a sanitized zero hiding the bug.
  EXPECT_NE(json.find("NaN"), std::string::npos);
}

// --- trace recorder ---------------------------------------------------------

TEST(TelemetryTraceTest, ScopeRecordsCompleteChromeEvents) {
  TraceRecorder recorder;
  { TraceRecorder::Scope span(&recorder, "lookup", "op", 3); }
  { TraceRecorder::Scope span(&recorder, "checkpoint", "recovery"); }
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lookup\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"checkpoint\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  // Only the shard-scoped span carries args.
  EXPECT_EQ(CountOccurrences(json, "\"shard\":"), 1u);
  EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
}

TEST(TelemetryTraceTest, NullRecorderScopeIsANoop) {
  // The telemetry-off hot-path contract: a null recorder means the Scope
  // never touches the clock or any state.
  TraceRecorder::Scope span(nullptr, "lookup", "op", 1);
}

TEST(TelemetryTraceTest, RingKeepsNewestSpansAndCountsDrops) {
  TraceRecorder recorder(/*capacity_per_thread=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.Record("span", "test", -1, i * 10, i * 10 + 5);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 4u);
  // The survivors are the newest four (ts 60..90), not the oldest.
  EXPECT_NE(json.find("\"ts\":90"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":0,"), std::string::npos);
}

TEST(TelemetryTraceTest, ThreadsRecordIntoDistinctTids) {
  TraceRecorder recorder;
  RacingThreads workers;
  workers.StartN(2, [&](std::size_t, const std::atomic<bool>&) -> Status {
    TraceRecorder::Scope span(&recorder, "work", "test");
    return Status::Ok();
  });
  ASSERT_TRUE(workers.JoinAll().ok());
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

// --- sampler ----------------------------------------------------------------

TEST(TelemetrySamplerTest, WritesFrozenHeaderAndAtLeastOneRow) {
  MetricRegistry registry;
  const auto counter = registry.Counter("ops.lookup");
  registry.Observe(registry.Histogram("op.lookup_us"), 4.0);
  registry.RegisterGauge("buffer.hit_rate", [] { return 0.5; });

  const std::string path = ::testing::TempDir() + "liod_telemetry_sampler_test.csv";
  std::uint64_t rows = 0;
  {
    TelemetrySampler sampler(&registry, path, std::chrono::milliseconds(5));
    registry.Add(counter, 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(sampler.Stop().ok());
    rows = sampler.rows_written();
  }
  EXPECT_GE(rows, 1u);  // Stop() writes a final row even for instant runs

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header.rfind("ts_ms,", 0), 0u);
  EXPECT_NE(header.find("ops.lookup"), std::string::npos);
  EXPECT_NE(header.find("buffer.hit_rate"), std::string::npos);
  EXPECT_NE(header.find("op.lookup_us.p50_us"), std::string::npos);
  const std::size_t expected_cells = CountOccurrences(header, ",") + 1;
  std::uint64_t data_rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++data_rows;
    EXPECT_EQ(CountOccurrences(line, ",") + 1, expected_cells) << line;
  }
  EXPECT_EQ(data_rows, rows);
  std::remove(path.c_str());
}

TEST(TelemetrySamplerTest, StopFlushesTheFinalPartialInterval) {
  // A run shorter than one sampling interval must still leave its telemetry
  // on disk: Stop() writes a final row from the partial interval, and rows
  // are flushed as written (the CSV is a live time series -- a mid-run tail
  // may not end at Stop()'s buffer boundary).
  MetricRegistry registry;
  const auto counter = registry.Counter("ops.lookup");

  const std::string path = ::testing::TempDir() + "liod_sampler_partial_test.csv";
  {
    // One-hour interval: the periodic loop can never fire inside the test.
    TelemetrySampler sampler(&registry, path, std::chrono::hours(1));
    registry.Add(counter, 7);
    ASSERT_TRUE(sampler.Stop().ok());
    EXPECT_EQ(sampler.rows_written(), 1u);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header, row;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row))) << "final partial row missing";
  // The row carries the counter value bumped DURING the partial interval.
  EXPECT_NE(row.find(",7"), std::string::npos) << row;
  std::remove(path.c_str());
}

// --- end-to-end wiring ------------------------------------------------------

IndexOptions BufferedDurableOptions() {
  IndexOptions options;
  options.update_buffer_blocks = 4;
  options.durability = DurabilityPolicy::kGroupCommit;
  return options;
}

TEST(TelemetryRunnerTest, EnabledTelemetryCountsIdenticalDeviceIo) {
  // One thread on one shard: the single-index runs behind the paper figures.
  const std::vector<Key> keys = UniformKeys(4000, 11);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.operations = 6000;
  spec.seed = 5;
  const ConcurrentWorkload workload = BuildConcurrentWorkload(keys, spec, 1);

  ConcurrentRunResult plain;
  {
    ShardedEngine engine({.index_name = "btree", .index = BufferedDurableOptions()});
    ASSERT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &plain).ok());
  }

  MetricRegistry registry;
  TraceRecorder trace;
  ConcurrentRunResult instrumented;
  {
    IndexOptions options = BufferedDurableOptions();
    options.metrics = &registry;
    options.trace = &trace;
    ShardedEngine engine({.index_name = "btree", .index = options});
    ASSERT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &instrumented).ok());
  }

  // Metrics observe, never perturb: the instrumented run pays exactly the
  // same counted device I/O as the plain one.
  EXPECT_EQ(plain.operations, instrumented.operations);
  EXPECT_EQ(plain.bulkload_io, instrumented.bulkload_io);
  EXPECT_EQ(plain.io, instrumented.io);

  // And the engine's metrics are self-consistent with the run.
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shard0.ops.lookup") + snap.counters.at("shard0.ops.insert") +
                snap.counters.at("shard0.ops.scan") + snap.counters.at("shard0.ops.rmw"),
            instrumented.operations);
  EXPECT_EQ(snap.histograms.at("engine.lookup_us").count,
            snap.counters.at("shard0.ops.lookup"));
  EXPECT_GT(snap.counters.at("shard0.updates.merges"), 0u);
  EXPECT_GT(snap.counters.at("shard0.wal.forces"), 0u);
  EXPECT_GT(snap.histograms.at("shard0.wal.force_us").count, 0u);
  EXPECT_GT(trace.recorded(), 0u);
}

EngineOptions TelemetryEngineOptions(MergeMode merge_mode) {
  EngineOptions options;
  options.index_name = "btree";
  options.num_shards = 2;
  options.shard_lock_mode = ShardLockMode::kShared;
  options.index = BufferedDurableOptions();
  options.index.update_buffer_merge_mode = merge_mode;
  return options;
}

ConcurrentWorkload YcsbAWorkload(std::size_t threads) {
  const std::vector<Key> keys = UniformKeys(4000, 3);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.operations = 4000;
  spec.seed = 9;
  return BuildConcurrentWorkload(keys, spec, threads);
}

TEST(TelemetryEngineTest, EnabledTelemetryCountsIdenticalDeviceIo) {
  // Single client tape keeps the op order deterministic, so the counted I/O
  // of the two runs must match block for block.
  const ConcurrentWorkload workload = YcsbAWorkload(1);

  ConcurrentRunResult plain;
  {
    ShardedEngine engine(TelemetryEngineOptions(MergeMode::kSync));
    ASSERT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &plain).ok());
  }

  MetricRegistry registry;
  TraceRecorder trace;
  ConcurrentRunResult instrumented;
  {
    EngineOptions options = TelemetryEngineOptions(MergeMode::kSync);
    options.index.metrics = &registry;
    options.index.trace = &trace;
    ShardedEngine engine(options);
    ASSERT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &instrumented).ok());
  }

  EXPECT_EQ(plain.operations, instrumented.operations);
  EXPECT_EQ(plain.bulkload_io, instrumented.bulkload_io);
  EXPECT_EQ(plain.io, instrumented.io);
}

TEST(TelemetryEngineTest, InstrumentedRunEmitsEverySpanKindAndConsistentCounters) {
  MetricRegistry registry;
  TraceRecorder trace;
  const ConcurrentWorkload workload = YcsbAWorkload(2);
  std::uint64_t lookups = 0;
  std::uint64_t inserts = 0;
  for (const auto& tape : workload.thread_ops) {
    for (const WorkloadOp& op : tape) {
      lookups += op.kind == WorkloadOp::Kind::kLookup ? 1 : 0;
      inserts += op.kind == WorkloadOp::Kind::kInsert ? 1 : 0;
    }
  }
  ASSERT_GT(lookups, 0u);
  ASSERT_GT(inserts, 0u);

  {
    EngineOptions options = TelemetryEngineOptions(MergeMode::kBackground);
    options.index.metrics = &registry;
    options.index.trace = &trace;
    ShardedEngine engine(options);
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &result).ok());

    const MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counters.at("shard0.ops.lookup") + snap.counters.at("shard1.ops.lookup"),
              lookups);
    EXPECT_EQ(snap.counters.at("shard0.ops.insert") + snap.counters.at("shard1.ops.insert"),
              inserts);
    EXPECT_EQ(snap.histograms.at("engine.lookup_us").count, lookups);
    EXPECT_EQ(snap.histograms.at("engine.insert_us").count, inserts);
    EXPECT_GT(snap.counters.at("shard0.updates.merges") +
                  snap.counters.at("shard1.updates.merges"),
              0u);
    EXPECT_GT(snap.counters.at("shard0.wal.forces") + snap.counters.at("shard1.wal.forces"),
              0u);
    // Per-shard buffer gauges are live while the engine exists.
    EXPECT_EQ(snap.gauges.count("shard0.buffer.hit_rate"), 1u);
    EXPECT_EQ(snap.gauges.count("shard1.io.reads"), 1u);
  }

  // Destruction unregisters every gauge: snapshots after engine death must
  // not call into freed IoStats.
  EXPECT_TRUE(registry.Snapshot().gauges.empty());

  // The exported trace carries all five span kinds of the observability
  // contract: ops, merge drains, WAL forces, and checkpoints.
  const std::string json = trace.ToChromeTraceJson();
  for (const char* needle :
       {"\"name\":\"lookup\"", "\"name\":\"insert\"", "\"name\":\"merge.drain\"",
        "\"name\":\"wal.force\"", "\"name\":\"checkpoint\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing span " << needle;
  }
}

/// One exported op-category span: its name and shard tag (-1 = untagged).
struct OpSpan {
  std::string name;
  int shard;
};

std::vector<OpSpan> OpSpans(const std::string& chrome_json) {
  static const std::regex kEvent(
      R"re(\{"name":"([^"]*)","cat":"op"[^{}]*?(?:"args":\{"shard":(\d+)\})?\})re");
  std::vector<OpSpan> spans;
  for (auto it = std::sregex_iterator(chrome_json.begin(), chrome_json.end(), kEvent);
       it != std::sregex_iterator(); ++it) {
    spans.push_back({(*it)[1].str(), (*it)[2].matched ? std::stoi((*it)[2].str()) : -1});
  }
  return spans;
}

TEST(TelemetryEngineTest, EachExecuteCallRecordsOneSampleAndOneSpan) {
  MetricRegistry registry;
  TraceRecorder trace;
  EngineOptions options;
  options.index_name = "btree";
  options.num_shards = 2;
  options.index.update_buffer_blocks = 4;  // enables Delete
  options.index.metrics = &registry;
  options.index.trace = &trace;
  ShardedEngine engine(options);
  const std::vector<Key> keys = UniformKeys(1000, 31);
  ASSERT_TRUE(engine.Bulkload(ToRecords(keys)).ok());
  const Key low = keys[100];
  const Key high = keys[900];
  ASSERT_EQ(engine.ShardFor(low), 0u);
  ASSERT_EQ(engine.ShardFor(high), 1u);

  std::map<std::string, std::uint64_t> expected_ops;  // shard<i>.ops.<kind>
  const auto expect_op = [&](const kv::Request& req) {
    ++expected_ops["shard" + std::to_string(engine.ShardFor(req.key)) + ".ops." +
                   kv::OpKindName(req.kind)];
  };

  // One-request batches: one op of each kind, on alternating shards.
  kv::RequestBatch ops;
  ops.AddLookup(low);
  ops.AddInsert(high, 7);
  ops.AddDelete(low);
  ops.AddScan(high, 4);
  ops.AddReadModifyWrite(low, 9);
  const std::vector<kv::Request> singles = ops.requests;
  kv::RequestBatch batch;
  for (const kv::Request& req : singles) {
    batch.requests = {req};
    ASSERT_TRUE(engine.Execute(batch).ok()) << kv::OpKindName(req.kind);
    expect_op(req);
  }
  const MetricsSnapshot after_singles = registry.Snapshot();
  const std::vector<OpSpan> single_spans = OpSpans(trace.ToChromeTraceJson());
  ASSERT_EQ(single_spans.size(), singles.size());
  for (const kv::Request& req : singles) {
    const std::string kind = kv::OpKindName(req.kind);
    EXPECT_EQ(after_singles.histograms.at("engine." + kind + "_us").count, 1u) << kind;
    const auto span = std::find_if(single_spans.begin(), single_spans.end(),
                                   [&](const OpSpan& s) { return s.name == kind; });
    ASSERT_NE(span, single_spans.end()) << kind;
    EXPECT_EQ(span->shard, static_cast<int>(engine.ShardFor(req.key))) << kind;
  }
  EXPECT_EQ(after_singles.histograms.at("engine.execute_us").count, 0u);

  // A multi-request batch spanning both shards is one `execute`.
  batch.Clear();
  batch.AddLookup(high);
  batch.AddInsert(low, 11);
  batch.AddScan(low, 3);
  batch.AddReadModifyWrite(high, 13);
  batch.AddDelete(high);
  ASSERT_TRUE(engine.Execute(batch).ok());
  for (const kv::Request& req : batch.requests) expect_op(req);
  const MetricsSnapshot after_batch = registry.Snapshot();
  EXPECT_EQ(after_batch.histograms.at("engine.execute_us").count, 1u);
  for (const kv::Request& req : singles) {
    const std::string name = std::string("engine.") + kv::OpKindName(req.kind) + "_us";
    EXPECT_EQ(after_batch.histograms.at(name).count, 1u) << name;
  }
  const std::vector<OpSpan> spans = OpSpans(trace.ToChromeTraceJson());
  ASSERT_EQ(spans.size(), singles.size() + 1);
  const auto execute = std::find_if(spans.begin(), spans.end(),
                                    [](const OpSpan& s) { return s.name == "execute"; });
  ASSERT_NE(execute, spans.end());
  EXPECT_EQ(execute->shard, -1);

  // Per-shard op counters count every request, batched or not.
  for (std::size_t i = 0; i < engine.num_shards(); ++i) {
    for (std::size_t k = 0; k < kv::kNumOpKinds; ++k) {
      const std::string name = "shard" + std::to_string(i) + ".ops." +
                               kv::OpKindName(static_cast<kv::OpKind>(k));
      EXPECT_EQ(after_batch.counters.at(name), expected_ops[name]) << name;
    }
  }
}

// --- striped OpBreakdown under parallel readers -----------------------------

TEST(OpBreakdownConcurrencyTest, ParallelLookupsRecordSerialTotals) {
  // Every lookup charges a PhaseScope; under the engine's shared lock mode
  // those run in parallel on one index instance. The striped totals must
  // merge to exactly what a serial run records -- same event count, same
  // thread-exact I/O (CPU time is wall-clock and excluded).
  IndexOptions options;
  options.buffer_pool_blocks = 512;  // everything stays resident once warmed
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  const std::vector<Key> keys = UniformKeys(8000, 21);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  const auto lookup_range = [&](std::size_t begin, std::size_t end) -> Status {
    for (std::size_t i = begin; i < end; ++i) {
      Payload payload = 0;
      bool found = false;
      LIOD_RETURN_IF_ERROR(index->Lookup(keys[i], &payload, &found));
      if (!found || payload != PayloadFor(keys[i])) {
        return Status::Corruption("lookup missed key " + std::to_string(keys[i]));
      }
    }
    return Status::Ok();
  };

  // Warm the buffer pool so both measured runs see the identical all-hit I/O
  // pattern regardless of op order.
  ASSERT_TRUE(lookup_range(0, keys.size()).ok());

  index->breakdown().Reset();
  ASSERT_TRUE(lookup_range(0, keys.size()).ok());
  std::array<OpBreakdown::PhaseTotals, kNumOpPhases> serial;
  for (int p = 0; p < kNumOpPhases; ++p) {
    serial[static_cast<std::size_t>(p)] = index->breakdown().totals(static_cast<OpPhase>(p));
  }
  ASSERT_GT(serial[static_cast<std::size_t>(OpPhase::kSearch)].events, 0u);

  index->breakdown().Reset();
  constexpr std::size_t kThreads = 4;
  RacingThreads workers;
  workers.StartN(kThreads, [&](std::size_t t, const std::atomic<bool>&) -> Status {
    const std::size_t chunk = keys.size() / kThreads;
    const std::size_t begin = t * chunk;
    const std::size_t end = t + 1 == kThreads ? keys.size() : begin + chunk;
    return lookup_range(begin, end);
  });
  ASSERT_TRUE(workers.JoinAll().ok());

  for (int p = 0; p < kNumOpPhases; ++p) {
    const auto phase = static_cast<OpPhase>(p);
    const OpBreakdown::PhaseTotals parallel = index->breakdown().totals(phase);
    const OpBreakdown::PhaseTotals& expected = serial[static_cast<std::size_t>(p)];
    EXPECT_EQ(parallel.events, expected.events) << OpPhaseName(phase);
    EXPECT_EQ(parallel.io, expected.io) << OpPhaseName(phase);
  }
}

}  // namespace
}  // namespace liod
