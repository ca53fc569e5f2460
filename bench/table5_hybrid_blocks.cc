// Reproduces Table 5: average fetched block counts of the hybrid design
// (Section 6.1.2) -- B+-tree-styled leaves under each learned inner
// structure -- for the Lookup-Only and Scan-Only workloads, alongside the
// plain B+-tree.

#include "search_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs defaults{.indexes = HybridIndexNames()};
  defaults.indexes.push_back("btree");
  const BenchArgs args = BenchArgs::Parse(argc, argv, defaults);
  const IndexOptions options = BenchOptions();

  std::printf(
      "Table 5: avg fetched blocks under the hybrid design (lookup/scan),\n"
      "bulk=%zu keys, ops=%zu\n\n",
      args.search_keys, args.search_ops);
  std::printf("%-10s", "dataset");
  for (const auto& idx : args.indexes) std::printf(" %16s", idx.c_str());
  std::printf("\n");

  for (const auto& dataset : args.datasets) {
    std::printf("%-10s", dataset.c_str());
    for (const auto& idx : args.indexes) {
      const SearchRun run = RunSearchPair(idx, dataset, args, options);
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.2f/%.2f", run.lookup.AvgBlocksReadPerOp(),
                    run.scan.AvgBlocksReadPerOp());
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check vs paper: hybrids reach B+-tree-like scan costs; on easy\n"
      "datasets the learned inners need fewer blocks than the B+-tree.\n");
  return 0;
}
