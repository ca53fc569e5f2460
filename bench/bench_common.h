#ifndef LIOD_BENCH_BENCH_COMMON_H_
#define LIOD_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/parse_number.h"
#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "storage/disk_model.h"
#include "telemetry/metric_registry.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_recorder.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod::bench {

/// Splits a comma-separated flag value ("a,b,c") into tokens, skipping empty
/// segments.
inline std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// Shared benchmark configuration. Defaults are scaled down from the paper's
/// setup (200M-key search sets, 10M-op write sets) so every binary completes
/// in well under a minute; pass --search-keys / --write-ops etc. to scale up
/// arbitrarily. Relative shapes are height/density-driven and already
/// paper-like at these sizes (see EXPERIMENTS.md).
struct BenchArgs {
  std::size_t search_keys = 300'000;  ///< bulkload size for search workloads
  std::size_t search_ops = 20'000;    ///< measured search operations
  std::size_t write_bulk = 60'000;    ///< bulkload before write workloads
  std::size_t write_ops = 60'000;     ///< measured mixed/write operations
  std::uint64_t seed = 42;
  std::vector<std::string> datasets = RepresentativeDatasetNames();  // fb osm ycsb
  std::vector<std::string> indexes = StudiedIndexNames();

  // --- telemetry (off by default; see src/telemetry/ and BenchTelemetry) ---
  std::string metrics_out;          ///< --metrics-out: final registry JSON
  std::string trace_out;            ///< --trace-out: Chrome trace-event JSON
  std::string sample_out;           ///< --sample-out: periodic metrics CSV
  std::size_t sample_every_ms = 0;  ///< --sample-every-ms (0 = 100 when sampling)

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", a.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      auto number = [&](auto* out) {
        if (!ParseFlagNumber(a.c_str(), next(), out)) std::exit(2);
      };
      if (a == "--search-keys") {
        number(&args.search_keys);
      } else if (a == "--search-ops") {
        number(&args.search_ops);
      } else if (a == "--write-bulk") {
        number(&args.write_bulk);
      } else if (a == "--write-ops") {
        number(&args.write_ops);
      } else if (a == "--seed") {
        number(&args.seed);
      } else if (a == "--datasets") {
        args.datasets = SplitList(next());
      } else if (a == "--indexes") {
        args.indexes = SplitList(next());
      } else if (a == "--metrics-out") {
        args.metrics_out = next();
      } else if (a == "--trace-out") {
        args.trace_out = next();
      } else if (a == "--sample-out") {
        args.sample_out = next();
      } else if (a == "--sample-every-ms") {
        number(&args.sample_every_ms);
      } else if (a == "--help" || a == "-h") {
        std::printf(
            "flags: --search-keys N --search-ops N --write-bulk N --write-ops N"
            " --seed N --datasets a,b,c --indexes a,b,c\n"
            "       --metrics-out FILE --trace-out FILE --sample-out FILE"
            " --sample-every-ms N\n");
        std::exit(0);
      }
    }
    if (!args.sample_out.empty() && args.sample_every_ms == 0) args.sample_every_ms = 100;
    return args;
  }
};

/// Opt-in telemetry for one bench binary: owns the registry/trace the flags
/// ask for, injects them into IndexOptions, and writes the output files at
/// Finish(). Everything stays null (zero overhead, bit-exact I/O) when no
/// telemetry flag was passed. Declare it before any engine so the registry
/// outlives every gauge registration.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(const BenchArgs& args) : args_(args) {
    if (!args.metrics_out.empty() || !args.sample_out.empty()) {
      metrics_ = std::make_unique<MetricRegistry>();
    }
    if (!args.trace_out.empty()) trace_ = std::make_unique<TraceRecorder>();
  }

  void Apply(IndexOptions* options) const {
    options->metrics = metrics_.get();
    options->trace = trace_.get();
  }

  /// Starts the --sample-out sampler if not yet running. Call from the first
  /// run's before_ops hook, once the engine has registered its metrics, so
  /// the frozen CSV columns include them (later registrations of the SAME
  /// names accumulate into those columns).
  void EnsureSampler() {
    if (sampler_ != nullptr || args_.sample_out.empty() || metrics_ == nullptr) return;
    sampler_ = std::make_unique<TelemetrySampler>(
        metrics_.get(), args_.sample_out,
        std::chrono::milliseconds(args_.sample_every_ms));
  }

  /// Stops the sampler and writes --metrics-out / --trace-out. Returns false
  /// (after printing to stderr) on any I/O failure.
  bool Finish() {
    bool ok = true;
    if (sampler_ != nullptr) {
      const Status status = sampler_->Stop();
      if (!status.ok()) {
        std::fprintf(stderr, "telemetry sampler failed: %s\n", status.ToString().c_str());
        ok = false;
      }
      sampler_.reset();
    }
    if (!args_.metrics_out.empty() && metrics_ != nullptr) {
      ok = WriteFile(args_.metrics_out, metrics_->ToJson()) && ok;
    }
    if (!args_.trace_out.empty() && trace_ != nullptr) {
      ok = WriteFile(args_.trace_out, trace_->ToChromeTraceJson()) && ok;
    }
    return ok;
  }

  MetricRegistry* metrics() { return metrics_.get(); }
  TraceRecorder* trace() { return trace_.get(); }

 private:
  static bool WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    return true;
  }

  const BenchArgs args_;
  std::unique_ptr<MetricRegistry> metrics_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<TelemetrySampler> sampler_;
};

/// Paper-default index parameters at bench scale: 4 KB blocks, error bound
/// 64, 256-record FITing buffers, 585-record PGM buffer; ALEX's maximum data
/// node scaled so node count / tree shape matches the paper's regime.
inline IndexOptions BenchOptions() {
  IndexOptions options;
  options.alex_max_data_node_slots = 4096;
  return options;
}

/// Runs a one-thread `workload` (BuildConcurrentWorkload(keys, spec, 1)) on
/// `engine`, a fresh one-shard engine: the paper's single-threaded
/// evaluation, with engine->shard(0) as the index. Aborts the binary on error
/// (benchmarks have no recovery story).
inline ConcurrentRunResult MustRun(ShardedEngine* engine, const ConcurrentWorkload& workload,
                                   const ConcurrentRunnerConfig& config = {}) {
  ConcurrentRunResult result;
  const Status status = RunConcurrentWorkload(engine, workload, config, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL workload on %s: %s\n", engine->options().index_name.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return result;
}

/// Formats the per-class buffer hit rates of one run as CSV cells
/// "inner,leaf,overall" (3 decimal places), matching kHitRateCsvHeader.
/// Consumers append these to their CSV rows so policy/budget sweeps never
/// re-derive rates from raw counters.
inline constexpr const char* kHitRateCsvHeader = "hit_inner,hit_leaf,hit_overall";

inline std::string HitRateCsv(const IoStatsSnapshot& io) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f,%.3f,%.3f", io.HitRateFor(FileClass::kInner),
                io.HitRateFor(FileClass::kLeaf), io.OverallHitRate());
  return buf;
}

/// ---- tiny fixed-width table printer --------------------------------------

inline void PrintRule(int columns, int width = 12) {
  for (int c = 0; c < columns; ++c) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar(c + 1 == columns ? '\n' : '+');
  }
}

inline void PrintCell(const std::string& s, int width = 12) {
  std::printf("%-*s", width, s.c_str());
}

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string FmtMiB(std::uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace liod::bench

#endif  // LIOD_BENCH_BENCH_COMMON_H_
