// Out-of-place vs in-place update cost: sweep the update-buffer staging
// budget x merge mode over the update-heavy YCSB mixes (A: 50/50
// read-update, D: latest-skewed reads + inserts, F: read-modify-write)
// against the in-place baseline (buffer_blocks = 0, the paper's write path).
//
// Expected shape: buffering strictly reduces counted device writes on YCSB-A
// -- repeated zipfian updates of the same key coalesce in the staging area
// and each distinct key pays its base-index write once per merge instead of
// once per update -- at the price of extra reads when lookups probe spilled
// runs. Larger budgets coalesce more; merge_threshold > 1 trades staging
// memory for sequential run I/O. Every run executes with lookup checking
// enabled, so all configurations are verified to return the same answers.
//
// Output is CSV (one header), ready for plotting.

#include "bench_common.h"
#include "telemetry/outputs.h"
#include "updates/buffered_index.h"

using namespace liod;
using namespace liod::bench;

namespace {

struct SweepPoint {
  std::size_t buffer_blocks;  // 0 = in-place baseline
  MergeMode mode;
  double threshold;
};

}  // namespace

int main(int argc, char** argv) {
  // The update path is the subject, not index breadth: default to the
  // B+-tree baseline plus ALEX (the paper's strongest learned writer); pass
  // --indexes to widen.
  BenchArgs args{.indexes = {"btree", "alex"}};
  // --metrics-out/--trace-out/--sample-out: merge/WAL/op telemetry across the
  // whole sweep (counters accumulate over every configuration).
  TelemetryFlags telemetry_flags;
  FlagTable table;
  args.AddTo(table);
  telemetry_flags.AddTo(table);
  if (const std::optional<int> exit = table.ParseMain(argc, argv)) return *exit;
  if (!telemetry_flags.Resolve()) return 2;
  TelemetryOutputs telemetry(telemetry_flags);

  const WorkloadType workloads[] = {WorkloadType::kYcsbA, WorkloadType::kYcsbD,
                                    WorkloadType::kYcsbF};
  const SweepPoint points[] = {
      {0, MergeMode::kSync, 1.0},  // in-place baseline
      {1, MergeMode::kSync, 1.0},
      {4, MergeMode::kSync, 1.0},
      {16, MergeMode::kSync, 1.0},
      {64, MergeMode::kSync, 1.0},
      {4, MergeMode::kSync, 4.0},  // spills ~3 sorted runs per merge
      {16, MergeMode::kBackground, 1.0},
  };
  const DiskModel hdd = DiskModel::Hdd();
  const DiskModel ssd = DiskModel::Ssd();

  std::printf(
      "dataset,workload,index,buffer_blocks,merge_mode,merge_threshold,ops,"
      "tput_hdd_ops_s,tput_ssd_ops_s,reads_per_op,writes_per_op,total_writes,"
      "merges,spills,%s\n",
      kHitRateCsvHeader);
  for (const auto& dataset : args.datasets) {
    for (WorkloadType type : workloads) {
      for (const auto& index_name : args.indexes) {
        for (const SweepPoint& point : points) {
          IndexOptions options = BenchOptions();
          options.update_buffer_blocks = point.buffer_blocks;
          options.update_buffer_merge_mode = point.mode;
          options.update_buffer_merge_threshold = point.threshold;
          telemetry.Apply(&options);
          ShardedEngine engine({.index_name = index_name, .index = options});
          const bool grows = WorkloadGrowsDataset(type);
          const std::size_t dataset_keys =
              grows ? args.write_bulk + args.write_ops : args.write_bulk;
          const auto keys = MakeDataset(dataset, dataset_keys, args.seed);
          WorkloadSpec spec;
          spec.type = type;
          spec.bulk_keys = args.write_bulk;
          spec.operations = args.write_ops;
          spec.seed = args.seed + 5;
          ConcurrentRunnerConfig config;
          config.check_lookups = true;  // all configs must answer identically
          config.before_ops = [&] { telemetry.StartSampler(); };
          const ConcurrentRunResult result =
              MustRun(&engine, BuildConcurrentWorkload(keys, spec, 1), config);

          std::uint64_t merges = 0, spills = 0;
          if (auto* buffered = dynamic_cast<UpdateBufferedIndex*>(engine.shard(0))) {
            merges = buffered->merges_completed();
            spills = buffered->total_spills();
          }
          const double ops =
              result.operations == 0 ? 1.0 : static_cast<double>(result.operations);
          std::printf("%s,%s,%s,%zu,%s,%.2f,%llu,%.1f,%.1f,%.3f,%.3f,%llu,%llu,%llu,%s\n",
                      dataset.c_str(), WorkloadTypeName(type), index_name.c_str(),
                      point.buffer_blocks, MergeModeName(point.mode), point.threshold,
                      static_cast<unsigned long long>(result.operations),
                      result.ThroughputOps(hdd), result.ThroughputOps(ssd),
                      static_cast<double>(result.io.TotalReads()) / ops,
                      static_cast<double>(result.io.TotalWrites()) / ops,
                      static_cast<unsigned long long>(result.io.TotalWrites()),
                      static_cast<unsigned long long>(merges),
                      static_cast<unsigned long long>(spills),
                      HitRateCsv(result.io).c_str());
        }
      }
    }
  }
  return telemetry.Finish() ? 0 : 1;
}
