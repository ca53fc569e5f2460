#ifndef LIOD_TELEMETRY_METRIC_REGISTRY_H_
#define LIOD_TELEMETRY_METRIC_REGISTRY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/striped.h"

namespace liod {

class IoStats;

/// Geometry of the log-bucketed latency histograms: bucket 0 covers
/// [0, 1) microseconds, and every power of two above it is split into
/// kSubBuckets linear sub-buckets, so a bucket is always <= 25% of its lower
/// bound wide. "Within one bucket width" is therefore a relative-error
/// guarantee, which is what tail-latency comparisons need (an absolute-width
/// histogram is either useless at 10us or enormous at 10s).
struct LatencyBuckets {
  static constexpr int kSubBuckets = 4;
  /// 2^(kMaxExponent+1) us ~= 25 days; anything above clamps to the last
  /// bucket rather than indexing out of range.
  static constexpr int kMaxExponent = 40;
  static constexpr int kNumBuckets = 1 + (kMaxExponent + 1) * kSubBuckets;

  /// Bucket holding `value_us`. Negative and sub-microsecond values land in
  /// bucket 0; values past the top land in the last bucket.
  static int Index(double value_us);
  /// Inclusive lower / exclusive upper bound of a bucket, in microseconds.
  static double LowerBound(int bucket);
  static double UpperBound(int bucket);
};

/// Mergeable histogram state: the per-stripe accumulation unit and the
/// snapshot type. Quantiles are bucket-resolved: the true q-th sample is
/// guaranteed to lie in [QuantileLowerBound(q), QuantileUpperBound(q)].
struct HistogramSnapshot {
  std::array<std::uint64_t, LatencyBuckets::kNumBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_us = 0.0;

  void Observe(double value_us);
  HistogramSnapshot& operator+=(const HistogramSnapshot& rhs);

  /// Bounds of the bucket holding the nearest-rank q-th sample (q in (0,1]).
  /// Empty histograms report 0 for every quantile.
  double QuantileLowerBound(double q) const;
  double QuantileUpperBound(double q) const;
  /// Point estimate: the upper bound of the quantile's bucket (conservative
  /// for tail reporting -- never understates a p99).
  double Quantile(double q) const { return QuantileUpperBound(q); }
  double MeanUs() const { return count == 0 ? 0.0 : sum_us / static_cast<double>(count); }
};

/// Point-in-time export of a MetricRegistry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// `{"schema":"liod-telemetry/1","counters":{...},"gauges":{...},
  ///   "histograms":{name:{count,sum_us,p50_us,p90_us,p99_us,p999_us,
  ///   buckets:[[lo,hi,n],...]}}}`. Non-finite doubles are emitted verbatim
  /// (NaN/Infinity) so a schema validator rejects them instead of a sanitized
  /// zero hiding the bug.
  std::string ToJson() const;
};

/// Named counters, callback gauges, and log-bucketed latency histograms.
///
/// Hot-path contract: Add() and Observe() lock one of a fixed set of
/// stripes picked by the calling thread's number (common/striped.h), so
/// threads rarely share a lock, and the footprint does not grow with the
/// number of threads that ever recorded (a server records from a reader
/// thread per connection). Snapshot() merges the stripes and evaluates
/// gauges; it is the slow path and may run concurrently with recording,
/// missing at most the records in flight.
///
/// Registration (Counter/Histogram/RegisterGauge) is mutex-protected and
/// meant for setup time, not per-op. Names are dotted lowercase
/// ("shard0.ops.lookup", "wal.force_us" -- see DESIGN.md for the scheme).
/// Gauge callbacks run on the snapshotting thread and must stay valid until
/// UnregisterGauge or registry destruction; everything they capture must
/// outlive the registry or be unregistered first.
class MetricRegistry {
 public:
  using MetricId = std::size_t;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Register-or-look-up: the same name always yields the same id, so two
  /// components may share a metric.
  MetricId Counter(const std::string& name);
  MetricId Histogram(const std::string& name);
  /// Registers (or replaces) a gauge evaluated at snapshot time.
  void RegisterGauge(const std::string& name, std::function<double()> fn);
  void UnregisterGauge(const std::string& name);

  void Add(MetricId counter, std::uint64_t delta = 1);
  void Observe(MetricId histogram, double value_us);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  /// One stripe's values, indexed by MetricId; grown on first use of an id.
  struct Cells {
    std::vector<std::uint64_t> counters;
    std::vector<HistogramSnapshot> histograms;
  };

  static constexpr std::size_t kNumStripes = 16;  ///< as in OpBreakdown

  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::map<std::string, MetricId> counter_ids_;
  std::map<std::string, MetricId> histogram_ids_;
  Striped<Cells, kNumStripes> stripes_;

  /// Gauges live under their own mutex, never under mu_: gauge callbacks
  /// reach back into component state (buffer stats, overlay sizes) whose own
  /// locks are held at sites that record metrics -- and Snapshot() holds mu_
  /// while it takes every stripe's lock. Evaluating callbacks under mu_ would
  /// therefore close a lock cycle (registry -> component vs component ->
  /// registry). gauges_mu_ is only ever acquired with no component lock
  /// held (registration happens in constructors, unregistration in
  /// destructors), so it cannot participate in such a cycle, while still
  /// serializing evaluation against UnregisterGauge for the lifetime
  /// contract above.
  mutable std::mutex gauges_mu_;
  std::map<std::string, std::function<double()>> gauges_;
};

/// Registers the standard derived buffer/IO gauges over one IoStats hub
/// under `prefix` ("shard0." -> "shard0.buffer.hit_rate", ...). Called by
/// the component that OWNS the stats' lifetime (engine per shard, CLI for a
/// standalone index) rather than by DiskIndex's constructor, because the
/// UpdateBufferedIndex decorator would otherwise register its wrapped base's
/// unused stats too. Returns the registered names; the caller must
/// UnregisterGauge them (or destroy the registry) before `stats` dies.
std::vector<std::string> RegisterBufferGauges(MetricRegistry* registry,
                                              const std::string& prefix,
                                              const IoStats* stats);

}  // namespace liod

#endif  // LIOD_TELEMETRY_METRIC_REGISTRY_H_
