#include "telemetry/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "storage/io_stats.h"

namespace liod {

namespace {

/// JSON number formatting: doubles round-trip via %.17g only when they need
/// it; %.12g is compact and exact for every value these metrics produce.
/// Non-finite values are emitted as bare NaN/Infinity tokens on purpose --
/// scripts/validate_metrics.py treats them as schema violations.
void AppendDouble(std::string* out, double value) {
  if (std::isnan(value)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(value)) {
    out->append(value > 0 ? "Infinity" : "-Infinity");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out->append(buf);
}

void AppendQuoted(std::string* out, const std::string& name) {
  out->push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

int LatencyBuckets::Index(double value_us) {
  if (!(value_us >= 1.0)) return 0;  // negatives and NaN land in bucket 0 too
  int exponent = std::ilogb(value_us);
  if (exponent > kMaxExponent) return kNumBuckets - 1;
  const double fraction = value_us / std::ldexp(1.0, exponent);  // in [1, 2)
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((fraction - 1.0) * kSubBuckets));
  return 1 + exponent * kSubBuckets + sub;
}

double LatencyBuckets::LowerBound(int bucket) {
  if (bucket <= 0) return 0.0;
  const int exponent = (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0, exponent) *
         (1.0 + static_cast<double>(sub) / kSubBuckets);
}

double LatencyBuckets::UpperBound(int bucket) {
  if (bucket < 0) return 0.0;
  if (bucket >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent + 1);
  return LowerBound(bucket + 1);
}

void HistogramSnapshot::Observe(double value_us) {
  ++buckets[static_cast<std::size_t>(LatencyBuckets::Index(value_us))];
  ++count;
  sum_us += value_us;
}

HistogramSnapshot& HistogramSnapshot::operator+=(const HistogramSnapshot& rhs) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += rhs.buckets[i];
  count += rhs.count;
  sum_us += rhs.sum_us;
  return *this;
}

double HistogramSnapshot::QuantileLowerBound(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count) holds the q-th sample.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return LatencyBuckets::LowerBound(static_cast<int>(i));
  }
  return LatencyBuckets::LowerBound(LatencyBuckets::kNumBuckets - 1);
}

double HistogramSnapshot::QuantileUpperBound(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return LatencyBuckets::UpperBound(static_cast<int>(i));
  }
  return LatencyBuckets::UpperBound(LatencyBuckets::kNumBuckets - 1);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(1024);
  out.append("{\"schema\":\"liod-telemetry/1\",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendQuoted(&out, name);
    out.push_back(':');
    out.append(std::to_string(value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendQuoted(&out, name);
    out.push_back(':');
    AppendDouble(&out, value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendQuoted(&out, name);
    out.append(":{\"count\":");
    out.append(std::to_string(hist.count));
    out.append(",\"sum_us\":");
    AppendDouble(&out, hist.sum_us);
    for (const auto& [label, q] : {std::pair<const char*, double>{"p50_us", 0.50},
                                   {"p90_us", 0.90},
                                   {"p99_us", 0.99},
                                   {"p999_us", 0.999}}) {
      out.append(",\"");
      out.append(label);
      out.append("\":");
      AppendDouble(&out, hist.Quantile(q));
    }
    out.append(",\"buckets\":[");
    bool first_bucket = true;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.push_back('[');
      AppendDouble(&out, LatencyBuckets::LowerBound(static_cast<int>(i)));
      out.push_back(',');
      AppendDouble(&out, LatencyBuckets::UpperBound(static_cast<int>(i)));
      out.push_back(',');
      out.append(std::to_string(hist.buckets[i]));
      out.push_back(']');
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

MetricRegistry::MetricId MetricRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = counter_ids_.try_emplace(name, counter_names_.size());
  if (inserted) counter_names_.push_back(name);
  return it->second;
}

MetricRegistry::MetricId MetricRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      histogram_ids_.try_emplace(name, histogram_names_.size());
  if (inserted) histogram_names_.push_back(name);
  return it->second;
}

void MetricRegistry::RegisterGauge(const std::string& name,
                                   std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(gauges_mu_);
  gauges_[name] = std::move(fn);
}

void MetricRegistry::UnregisterGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(gauges_mu_);
  gauges_.erase(name);
}

void MetricRegistry::Add(MetricId counter, std::uint64_t delta) {
  stripes_.Update([&](Cells& cells) {
    if (cells.counters.size() <= counter) cells.counters.resize(counter + 1, 0);
    cells.counters[counter] += delta;
  });
}

void MetricRegistry::Observe(MetricId histogram, double value_us) {
  stripes_.Update([&](Cells& cells) {
    if (cells.histograms.size() <= histogram) cells.histograms.resize(histogram + 1);
    cells.histograms[histogram].Observe(value_us);
  });
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  {
    // mu_ keeps the name tables stable while the stripes merge; every id a
    // stripe holds was issued before the merge, so it indexes both.
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> counters(counter_names_.size(), 0);
    std::vector<HistogramSnapshot> histograms(histogram_names_.size());
    stripes_.ForEach([&](const Cells& cells) {
      for (std::size_t i = 0; i < cells.counters.size(); ++i) counters[i] += cells.counters[i];
      for (std::size_t i = 0; i < cells.histograms.size(); ++i) {
        histograms[i] += cells.histograms[i];
      }
    });
    for (std::size_t i = 0; i < counters.size(); ++i) {
      snapshot.counters[counter_names_[i]] = counters[i];
    }
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      snapshot.histograms[histogram_names_[i]] = histograms[i];
    }
  }
  // Gauge callbacks run with mu_ released -- they take component locks that
  // rank BEFORE the registry in the lock order (see gauges_mu_ in the
  // header). gauges_mu_ still makes UnregisterGauge a barrier: once it
  // returns, no snapshot can be mid-callback into the caller's state.
  std::lock_guard<std::mutex> lock(gauges_mu_);
  for (const auto& [name, fn] : gauges_) snapshot.gauges[name] = fn();
  return snapshot;
}

std::vector<std::string> RegisterBufferGauges(MetricRegistry* registry,
                                              const std::string& prefix,
                                              const IoStats* stats) {
  std::vector<std::string> names;
  if (registry == nullptr || stats == nullptr) return names;
  const auto add = [&](const char* suffix, std::function<double()> fn) {
    std::string name = prefix + suffix;
    registry->RegisterGauge(name, std::move(fn));
    names.push_back(std::move(name));
  };
  add("buffer.hit_rate",
      [stats] { return stats->snapshot().OverallHitRate(); });
  add("buffer.eviction_rate", [stats] {
    const IoStatsSnapshot s = stats->snapshot();
    const double accesses = static_cast<double>(s.TotalHits() + s.TotalMisses());
    return accesses == 0.0 ? 0.0
                           : static_cast<double>(s.TotalEvictions()) / accesses;
  });
  add("buffer.writeback_rate", [stats] {
    const IoStatsSnapshot s = stats->snapshot();
    const double writes = static_cast<double>(s.TotalWrites());
    return writes == 0.0 ? 0.0
                         : static_cast<double>(s.TotalWritebacks()) / writes;
  });
  add("io.reads", [stats] { return static_cast<double>(stats->snapshot().TotalReads()); });
  add("io.writes",
      [stats] { return static_cast<double>(stats->snapshot().TotalWrites()); });
  return names;
}

}  // namespace liod
