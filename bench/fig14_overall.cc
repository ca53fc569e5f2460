// Reproduces Figure 14: all six workloads on YCSB and FB with the entire
// index disk-resident; each index's HDD throughput normalized by the best
// performer of that workload (higher is better, max = 1.0).

#include "search_runs.h"
#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, {.datasets = {"ycsb", "fb"}});
  const IndexOptions options = BenchOptions();
  const DiskModel hdd = DiskModel::Hdd();

  std::printf(
      "Figure 14: normalized HDD throughput across all six workloads\n"
      "(1.00 = best index for that workload). search bulk=%zu, write bulk=%zu\n\n",
      args.search_keys, args.write_bulk);

  for (const auto& dataset : args.datasets) {
    std::printf("== %s ==\n", dataset.c_str());
    std::printf("%-12s", "workload");
    for (const auto& idx : args.indexes) std::printf(" %10s", idx.c_str());
    std::printf("\n");
    for (WorkloadType type : AllWorkloadTypes()) {
      std::vector<double> tput;
      for (const auto& idx : args.indexes) {
        ConcurrentRunResult r;
        if (type == WorkloadType::kLookupOnly || type == WorkloadType::kScanOnly) {
          const SearchRun run = RunSearchPair(idx, dataset, args, options);
          r = type == WorkloadType::kLookupOnly ? run.lookup : run.scan;
        } else {
          r = RunWrite(idx, dataset, type, args, options);
        }
        tput.push_back(r.ThroughputOps(hdd));
      }
      double best = 0.0;
      for (double t : tput) best = std::max(best, t);
      std::printf("%-12s", WorkloadTypeName(type));
      for (double t : tput) std::printf(" %10.2f", best > 0 ? t / best : 0.0);
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper (Fig 14): except Lookup-Only (LIPP) and Write-Only\n"
      "(PGM), the B+-tree is best or near-best everywhere.\n");
  return 0;
}
