// Reproduces Figure 3: Lookup-Only and Scan-Only throughput on HDD and SSD
// with the entire index disk-resident (4 KB blocks, no buffer beyond the
// last fetched block). Throughput = ops / (cpu + modeled I/O time).

#include "search_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const IndexOptions options = BenchOptions();

  std::printf(
      "Figure 3: search throughput (ops/s), entire index disk-resident.\n"
      "bulk=%zu keys, ops=%zu\n\n",
      args.search_keys, args.search_ops);

  std::map<std::string, std::map<std::string, SearchRun>> runs;  // dataset -> index
  for (const auto& dataset : args.datasets) {
    for (const auto& idx : args.indexes) {
      runs[dataset].emplace(idx, RunSearchPair(idx, dataset, args, options));
    }
  }

  for (const bool lookup_phase : {true, false}) {
    std::printf("== %s ==\n", lookup_phase ? "lookup-only" : "scan-only");
    std::printf("%-11s", "dataset");
    for (const auto& idx : args.indexes) std::printf(" %10s", idx.c_str());
    std::printf("\n");
    for (const auto& dataset : args.datasets) {
      for (const DiskModel& disk : {DiskModel::Hdd(), DiskModel::Ssd()}) {
        std::printf("%-7s-%-3s", dataset.c_str(), disk.name.c_str());
        for (const auto& idx : args.indexes) {
          const SearchRun& run = runs.at(dataset).at(idx);
          const ConcurrentRunResult& r = lookup_phase ? run.lookup : run.scan;
          std::printf(" %10.1f", r.ThroughputOps(disk));
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper (O1-O5): LIPP leads lookups; B+-tree leads scans;\n"
      "learned-index lookup throughput tracks fetched-block counts.\n");
  return 0;
}
