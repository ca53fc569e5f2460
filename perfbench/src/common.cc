// Helpers the workloads share: input sizes, answer checks, and the metrics
// derived from window results, IoStats deltas and the program's telemetry.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "engine/sharded_engine.h"
#include "telemetry/metric_registry.h"
#include "workloads.h"

namespace perfbench {

using liod::FileClass;

Outcome JudgeLookup(liod::Status::Code code, bool found, liod::Payload payload, liod::Key key) {
  using Code = liod::Status::Code;
  if (code == Code::kOk && found && PayloadValid(key, payload)) return Outcome::kOk;
  if (code == Code::kOk || code == Code::kNotFound) return Outcome::kWrong;
  return Outcome::kFailed;
}

void CountOutcomes(const WindowResult& w, RunOutput* out) {
  out->attempted += w.attempted;
  out->failed += w.failed + w.wrong;
  if (w.wrong > 0) {
    out->correct = false;
    std::fprintf(stderr, "%llu wrong answers\n", static_cast<unsigned long long>(w.wrong));
  }
}

double WallUsPerOp(const WindowResult& w) {
  return w.attempted == 0 ? 0.0 : w.wall_s * 1e6 / static_cast<double>(w.attempted);
}

double OverheadPct(const WindowResult& untraced, const WindowResult& traced) {
  const double base = SliceMedianOpsPerS(untraced);
  return base > 0.0 ? 100.0 * (base - SliceMedianOpsPerS(traced)) / base : 0.0;
}

double SliceMedianOpsPerS(const WindowResult& w) {
  std::vector<double> tput;
  for (const Slice& s : w.slices) {
    if (s.wall_s > 0.0) tput.push_back(static_cast<double>(s.ops) / s.wall_s);
  }
  return tput.empty() ? w.ops_per_s() : Median(tput);
}

double CpuUsPerOp(const WindowResult& w) {
  return w.attempted == 0 ? 0.0 : w.usage.cpu_s * 1e6 / static_cast<double>(w.attempted);
}

InputSpec InputSpecFor(const std::string& name, double seconds) {
  InputSpec s;
  if (name == "lookup-lipp") {
    s.keys = s.bulk = 2'000'000;
    s.threads = 4;
    s.tape_len = 1 << 19;
    s.tape_per_slice = true;
  } else if (name == "engine-ycsb-c") {
    s.keys = s.bulk = 2'000'000;
    s.threads = 4;
    s.tape_len = 1 << 19;
    s.zipf_theta = 0.99;
  } else if (name == "ingest-pgm") {
    // Fresh keys cannot repeat, and every deployment replays the tapes from
    // the start, so they hold enough for 1.2M inserts/s over a deployment's
    // share of the window (about 2.5x the rate measured on 4 vCPUs).
    s.bulk = 1'000'000;
    s.threads = 4;
    s.tape_per_slice = true;
    s.keys = s.bulk + std::max<std::size_t>(
                          4'000'000, static_cast<std::size_t>(seconds / kDeployments * 1.2e6));
  } else if (name == "server-ycsb-b") {
    s.keys = s.bulk = 2'000'000;
    s.threads = 4;
    s.tape_len = 1 << 18;
    s.zipf_theta = 0.99;
    s.upsert_share = 0.05;
  }
  return s;
}

double ShardSkew(const liod::ShardedEngine& engine, const Inputs& in, std::uint64_t offset,
                 const std::vector<std::uint64_t>& ops_per_thread) {
  std::vector<double> per_shard(engine.num_shards(), 0.0);
  double total = 0.0;
  for (std::size_t t = 0; t < in.tapes.size(); ++t) {
    const Tape& tape = in.tapes[t];
    for (std::uint64_t i = 0; i < ops_per_thread[t]; ++i) {
      per_shard[engine.ShardFor(tape[(offset + i) % tape.size()].key)] += 1.0;
      total += 1.0;
    }
  }
  if (total == 0.0) return 0.0;
  return *std::max_element(per_shard.begin(), per_shard.end()) /
         (total / static_cast<double>(per_shard.size()));
}

std::uint64_t BlockReads(const liod::IoStatsSnapshot& io) {
  return io.TotalHits() + io.TotalMisses() - (io.TotalWrites() - io.TotalWritebacks());
}

namespace {

double PerOp(std::uint64_t count, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

}  // namespace

void AddEndToEnd(RunOutput* out, const WindowResult& window, double setup_s,
                 const liod::IoStatsSnapshot& io, std::uint64_t ops,
                 const liod::IndexStats& counted) {
  std::vector<double> cpu, p50, p99;
  std::string slice_rates;
  std::uint64_t samples = 0, min_samples = UINT64_MAX;
  for (const Slice& s : window.slices) {
    samples += s.samples;
    if (s.ops > 0) cpu.push_back(s.cpu_s * 1e6 / static_cast<double>(s.ops));
    if (s.samples > 0) {
      p50.push_back(s.p50_us);
      p99.push_back(s.p99_us);
    }
    min_samples = std::min(min_samples, s.samples);
    slice_rates += Fmt("%s%.0f", slice_rates.empty() ? "" : " ",
                       static_cast<double>(s.ops) / s.wall_s);
  }
  Values& m = out->metrics;
  m["tput_ops_s"] = SliceMedianOpsPerS(window);
  m["p50_us"] = Median(p50);
  m["p99_us"] = Median(p99);
  m["setup_s"] = setup_s;
  m["cpu_us_per_op"] = cpu.empty() ? CpuUsPerOp(window) : Median(cpu);
  m["read_blocks_per_op"] = PerOp(BlockReads(io), ops);
  m["space_amp"] = counted.num_records == 0
                       ? 0.0
                       : static_cast<double>(counted.disk_bytes) /
                             (16.0 * static_cast<double>(counted.num_records));
  m["rss_peak_mib"] = PeakRssMib();
  m["ok_ratio"] = out->attempted == 0 ? 0.0
                                      : static_cast<double>(out->attempted - out->failed) /
                                            static_cast<double>(out->attempted);
  out->info.emplace_back("latency_samples", std::to_string(samples));
  out->info.emplace_back("latency_samples_min_slice",
                         std::to_string(window.slices.empty() ? 0 : min_samples));
  out->info.emplace_back("count_phase_ops", std::to_string(ops));
  out->info.emplace_back("window_s", Fmt("%.3f", window.wall_s));
  out->info.emplace_back("slice_ops_s", slice_rates);
}

void AddCounterLayers(Values* v, const liod::IoStatsSnapshot& io, std::uint64_t ops,
                      const liod::IndexStats& before, const liod::IndexStats& after) {
  Values& m = *v;
  m["index.inner_visits_per_op"] = PerOp(io.inner_nodes_visited, ops);
  m["index.leaf_visits_per_op"] = PerOp(io.leaf_nodes_visited, ops);
  m["index.height"] = static_cast<double>(after.height);
  m["index.nodes"] = static_cast<double>(after.node_count);
  m["index.smos_per_kop"] = 1000.0 * PerOp(after.smo_count - before.smo_count, ops);
  m["engine.lock_waits_per_kop"] = 1000.0 * PerOp(io.read_lock_waits, ops);
  m["storage.hit_ratio.inner"] = io.HitRateFor(FileClass::kInner);
  m["storage.hit_ratio.leaf"] = io.HitRateFor(FileClass::kLeaf);
  m["storage.evictions_per_op"] = PerOp(io.TotalEvictions(), ops);
  m["storage.writebacks_per_op"] = PerOp(io.TotalWritebacks(), ops);
  m["storage.reads_per_op.inner"] = PerOp(io.ReadsFor(FileClass::kInner), ops);
  m["storage.reads_per_op.leaf"] = PerOp(io.ReadsFor(FileClass::kLeaf), ops);
  m["storage.writes_per_op.leaf"] = PerOp(io.WritesFor(FileClass::kLeaf), ops);
  m["storage.writes_per_op.wal"] = PerOp(io.WritesFor(FileClass::kWal), ops);
  m["storage.read_blocks_per_op"] = PerOp(io.TotalReads(), ops);
  m["storage.write_blocks_per_op"] = PerOp(io.TotalWrites(), ops);
  m["recovery.wal_blocks_per_op"] = PerOp(io.WritesFor(FileClass::kWal), ops);
}

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Durations (us) of the complete events named `name` that started at or
/// after `from_us` in a Chrome trace produced by liod::TraceRecorder (one
/// flat object per event: name, cat, ph, pid, tid, ts, dur).
std::vector<double> SpanDurations(const std::string& json, const std::string& name,
                                  std::uint64_t from_us) {
  std::vector<double> out;
  const std::string needle = "{\"name\":\"" + name + "\"";
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const std::size_t close = json.find('}', pos);
    const std::size_t ts = json.find("\"ts\":", pos);
    const std::size_t dur = json.find("\"dur\":", pos);
    if (ts > close || dur > close) continue;
    if (std::strtoull(json.c_str() + ts + 5, nullptr, 10) < from_us) continue;
    out.push_back(std::strtod(json.c_str() + dur + 6, nullptr));
  }
  return out;
}

double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(v.size())), 1.0,
                 static_cast<double>(v.size())));
  return v[rank - 1];
}

/// Sum over every counter whose name ends in `suffix`, after minus before.
std::uint64_t CounterDelta(const liod::MetricsSnapshot& before, const liod::MetricsSnapshot& after,
                           const char* suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : after.counters) {
    if (!EndsWith(name, suffix)) continue;
    const auto it = before.counters.find(name);
    sum += value - (it == before.counters.end() ? 0 : it->second);
  }
  return sum;
}

}  // namespace

liod::HistogramSnapshot HistogramDelta(const liod::MetricsSnapshot& before,
                                       const liod::MetricsSnapshot& after, const char* suffix) {
  liod::HistogramSnapshot sum;
  for (const auto& [name, hist] : after.histograms) {
    if (!EndsWith(name, suffix)) continue;
    liod::HistogramSnapshot d = hist;
    if (const auto it = before.histograms.find(name); it != before.histograms.end()) {
      for (std::size_t b = 0; b < d.buckets.size(); ++b) d.buckets[b] -= it->second.buckets[b];
      d.count -= it->second.count;
      d.sum_us -= it->second.sum_us;
    }
    sum += d;
  }
  return sum;
}

void AddRegistryLayers(Values* v, const TelemetryWindow& t, std::uint64_t ops) {
  const liod::HistogramSnapshot device_io_us = HistogramDelta(t.before, t.after, "device.io_us");
  Values& m = *v;
  m["updates.merges_per_kop"] =
      1000.0 * PerOp(CounterDelta(t.before, t.after, "updates.merges"), ops);
  m["updates.merge_us.p99"] =
      NearestRank(SpanDurations(t.trace_json, "merge.drain", t.start_us), 0.99);
  m["recovery.wal_forces_per_kop"] =
      1000.0 * PerOp(CounterDelta(t.before, t.after, "wal.forces"), ops);
  m["recovery.wal_force_us.p99"] = HistogramDelta(t.before, t.after, "wal.force_us").Quantile(0.99);
  m["recovery.checkpoints_per_kop"] =
      1000.0 * PerOp(CounterDelta(t.before, t.after, "checkpoints"), ops);
  m["engine.lock_wait_us.p99"] =
      HistogramDelta(t.before, t.after, "engine.lock_wait_us").Quantile(0.99);
  m["storage.device_io_us_per_op"] =
      ops == 0 ? 0.0 : device_io_us.sum_us / static_cast<double>(ops);
}

void WriteTraces(const Args& args, const SpanLog& spans, const std::string& program_trace,
                 RunOutput* out) {
  if (args.trace_dir.empty()) return;
  std::filesystem::create_directories(args.trace_dir);
  // One file pair per workload, overwritten by the next traced run, so
  // repeated runs do not accumulate traces.
  const std::string base = args.trace_dir + "/" + args.workload;
  const std::string bench_path = base + ".bench.json";
  const std::string program_path = base + ".program.json";
  bool ok = spans.WriteChromeJson(bench_path);
  if (std::FILE* f = std::fopen(program_path.c_str(), "w")) {
    ok = std::fwrite(program_trace.data(), 1, program_trace.size(), f) == program_trace.size() &&
         ok;
    ok = std::fclose(f) == 0 && ok;
  } else {
    ok = false;
  }
  if (!ok) std::fprintf(stderr, "could not write traces under %s\n", args.trace_dir.c_str());
  out->info.emplace_back("trace_files", bench_path + " " + program_path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void Log(const char* fmt, ...) {
  static const std::uint64_t start_ns = NowNs();
  std::fprintf(stderr, "[perfbench %7.2fs] ", static_cast<double>(NowNs() - start_ns) * 1e-9);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
