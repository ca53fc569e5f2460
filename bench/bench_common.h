#ifndef LIOD_BENCH_BENCH_COMMON_H_
#define LIOD_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/options.h"
#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "storage/disk_model.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod::bench {

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

  /// Adds the shared flags to `table`, writing into this object. Their help
  /// names the current lists as the defaults, so set a binary's own first.
  void AddTo(FlagTable& table) {
    auto joined = [](const std::vector<std::string>& names) {
      std::string text;
      for (const std::string& name : names) text += (text.empty() ? "" : ",") + name;
      return text;
    };
    table.Number("--search-keys", &search_keys, "N", "bulkload size of search workloads")
        .Number("--search-ops", &search_ops, "N", "measured search operations")
        .Number("--write-bulk", &write_bulk, "N", "bulkload size of write workloads")
        .Number("--write-ops", &write_ops, "N", "measured write/mixed operations")
        .Number("--seed", &seed, "N", "dataset and workload seed")
        .ChoiceList("--datasets", &datasets, NamedChoices(AllDatasetNames()),
                    "datasets to sweep (default " + joined(datasets) + ")")
        .ChoiceList("--indexes", &indexes, NamedChoices(IndexNames()),
                    "indexes to sweep (default " + joined(indexes) + ")");
  }

  /// Parses the flags; --help exits 0 and a usage error exits 2.
  static BenchArgs Parse(int argc, char** argv) { return Parse(argc, argv, BenchArgs()); }

  /// Parse over `args`, whose lists are the binary's own defaults.
  static BenchArgs Parse(int argc, char** argv, BenchArgs args) {
    FlagTable table;
    args.AddTo(table);
    if (const std::optional<int> exit = table.ParseMain(argc, argv)) std::exit(*exit);
    return args;
  }
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
