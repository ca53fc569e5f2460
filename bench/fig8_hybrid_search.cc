// Reproduces Figure 8: search performance when inner nodes are
// memory-resident and only leaves stay on disk (Section 6.2). LIPP is
// excluded, as in the paper: it has a single node type and its root alone
// exceeds sensible memory budgets.

#include "search_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  // The paper excludes LIPP (Section 6.2).
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, {.indexes = {"btree", "fiting", "pgm", "alex"}});
  IndexOptions options = BenchOptions();
  options.memory_resident_inner = true;

  std::printf(
      "Figure 8: search throughput (ops/s) with memory-resident inner nodes.\n"
      "bulk=%zu keys, ops=%zu (LIPP excluded by default, Section 6.2)\n\n",
      args.search_keys, args.search_ops);

  std::map<std::string, std::map<std::string, SearchRun>> runs;
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
          std::printf(" %10.1f",
                      (lookup_phase ? run.lookup : run.scan).ThroughputOps(disk));
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper (O13): FITing/PGM competitive with B+-tree; ALEX is\n"
      "not (its leaf reads still need model + slot blocks).\n");
  return 0;
}
