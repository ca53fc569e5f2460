// Reproduces Figure 6: the insert-path latency breakdown -- (a) initial
// search, (b) insertion, (c) SMO, (d) maintenance -- per index on the
// Write-Only workload, modeled on the HDD.

#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const IndexOptions options = BenchOptions();
  const DiskModel hdd = DiskModel::Hdd();

  std::printf(
      "Figure 6: write performance breakdown (avg modeled us per insert, HDD).\n"
      "bulk=%zu keys, ops=%zu\n\n",
      args.write_bulk, args.write_ops);

  for (const auto& dataset : args.datasets) {
    std::printf("== %s ==\n", dataset.c_str());
    std::printf("%-10s %12s %12s %12s %12s %12s\n", "index", "search", "insert", "smo",
                "maintenance", "total");
    for (const auto& idx : args.indexes) {
      std::unique_ptr<ShardedEngine> engine;
      (void)RunWrite(idx, dataset, WorkloadType::kWriteOnly, args, options, {}, &engine);
      const OpBreakdown& b = engine->shard(0)->breakdown();
      double total = 0.0;
      std::printf("%-10s", idx.c_str());
      for (OpPhase phase : {OpPhase::kSearch, OpPhase::kInsert, OpPhase::kSmo,
                            OpPhase::kMaintenance}) {
        const double avg = b.AvgLatencyUs(phase, hdd, args.write_ops);
        total += avg;
        std::printf(" %12.1f", avg);
      }
      std::printf(" %12.1f\n", total);
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper: PGM's search+insert are small; ALEX's insert step\n"
      "dominates; LIPP pays the largest maintenance (path statistics) cost;\n"
      "FITing shows SMO spikes on easy datasets (larger segments).\n"
      "Note: the B+-tree descends once inside its insert, so its whole cost is\n"
      "charged to the insert step (it has no SMO/maintenance machinery).\n");
  return 0;
}
