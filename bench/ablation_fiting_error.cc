// Ablation for the Section 5.3 parameter choice: FITing-tree error-bound
// sensitivity. The paper tested several bounds and fixed 64 as the default
// that performs well across most cases.

#include "search_runs.h"
#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const DiskModel hdd = DiskModel::Hdd();

  std::printf(
      "Section 5.3 ablation: FITing-tree error bound sweep.\n"
      "search bulk=%zu/ops=%zu, write bulk=%zu/ops=%zu\n\n",
      args.search_keys, args.search_ops, args.write_bulk, args.write_ops);

  for (const auto& dataset : args.datasets) {
    std::printf("== %s ==\n", dataset.c_str());
    std::printf("%-8s %14s %14s %14s %12s\n", "eps", "lookup blk/op", "lookup tput",
                "write tput", "size MiB");
    for (std::uint32_t eps : {16u, 64u, 256u, 1024u}) {
      IndexOptions options = BenchOptions();
      options.fiting_error_bound = eps;
      const SearchRun s = RunSearchPair("fiting", dataset, args, options);
      const ConcurrentRunResult w =
          RunWrite("fiting", dataset, WorkloadType::kWriteOnly, args, options);
      std::printf("%-8u %14.2f %14.1f %14.1f %12s\n", eps, s.lookup.AvgBlocksReadPerOp(),
                  s.lookup.ThroughputOps(hdd), w.ThroughputOps(hdd),
                  FmtMiB(w.stats_after.disk_bytes).c_str());
    }
    std::printf("\n");
  }
  std::printf("Paper: eps=64 is a good default across datasets and workloads.\n");
  return 0;
}
