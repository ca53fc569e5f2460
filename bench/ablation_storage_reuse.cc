// Ablation for the Section 6.3 / P4 discussion: what if freed disk space
// *were* recycled by later allocations? The paper's setting never reuses
// invalid space (footnote 1); this bench quantifies the footprint gap on
// the Write-Only workload.

#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);

  std::printf(
      "Section 6.3/P4 ablation: on-disk footprint (MiB) after Write-Only,\n"
      "without vs with freed-space reuse. bulk=%zu, ops=%zu\n\n",
      args.write_bulk, args.write_ops);
  std::printf("%-10s %-10s %14s %14s %10s\n", "dataset", "index", "no-reuse", "reuse",
              "saving");
  for (const auto& dataset : args.datasets) {
    for (const auto& idx : args.indexes) {
      IndexOptions no_reuse = BenchOptions();
      IndexOptions reuse = BenchOptions();
      reuse.reuse_freed_space = true;
      const ConcurrentRunResult a =
          RunWrite(idx, dataset, WorkloadType::kWriteOnly, args, no_reuse);
      const ConcurrentRunResult b = RunWrite(idx, dataset, WorkloadType::kWriteOnly, args, reuse);
      const double saving =
          a.stats_after.disk_bytes == 0
              ? 0.0
              : 100.0 * (1.0 - static_cast<double>(b.stats_after.disk_bytes) /
                                   static_cast<double>(a.stats_after.disk_bytes));
      std::printf("%-10s %-10s %14s %14s %9.1f%%\n", dataset.c_str(), idx.c_str(),
                  FmtMiB(a.stats_after.disk_bytes).c_str(),
                  FmtMiB(b.stats_after.disk_bytes).c_str(), saving);
    }
  }
  std::printf(
      "\nTakeaway: recycling invalid space mostly helps the SMO-heavy learned\n"
      "indexes (FITing/ALEX/LIPP); PGM already deletes merged files.\n");
  return 0;
}
