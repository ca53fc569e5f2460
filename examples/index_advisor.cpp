// Index advisor: the paper's conclusion operationalized. Given a dataset
// flavour and a workload mix, measure every studied index at a small scale
// on the simulated disk and recommend one -- reproducing the paper's
// guidance (B+-tree for mixed workloads, PGM for ingest, LIPP for read-only
// point lookups) from live measurements rather than folklore.
//
//   ./index_advisor [dataset] [workload]
//
// dataset: ycsb | fb | osm | covid | ... (default fb)
// workload: lookup-only | scan-only | write-only | read-heavy | write-heavy
//           | balanced | ycsb-a ... ycsb-f (default balanced)
// An unknown name exits 2.

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "workload/datasets.h"

using namespace liod;

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "fb";
  const std::string workload_name = argc > 2 ? argv[2] : "balanced";

  const std::vector<std::string>& datasets = AllDatasetNames();
  if (std::find(datasets.begin(), datasets.end(), dataset) == datasets.end()) {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }
  WorkloadType type = WorkloadType::kBalanced;
  if (!WorkloadTypeFromName(workload_name, &type)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  std::printf("advising for dataset=%s workload=%s (HDD cost model)\n\n", dataset.c_str(),
              WorkloadTypeName(type));

  const bool search_only =
      type == WorkloadType::kLookupOnly || type == WorkloadType::kScanOnly;
  const auto keys = MakeDataset(dataset, search_only ? 200'000 : 100'000, 1);

  WorkloadSpec spec;
  spec.type = type;
  spec.bulk_keys = 50'000;
  spec.operations = 20'000;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 1);

  const DiskModel hdd = DiskModel::Hdd();
  std::printf("%-10s %14s %14s %12s\n", "index", "tput (ops/s)", "blocks/op", "size MiB");
  std::string best_name;
  double best_tput = 0.0;
  for (const auto& name : StudiedIndexNames()) {
    IndexOptions options;
    options.alex_max_data_node_slots = 4096;
    ShardedEngine engine({.index_name = name, .index = options});  // one shard
    ConcurrentRunResult result;
    const Status status = RunConcurrentWorkload(&engine, w, {}, &result);
    if (!status.ok()) {
      std::printf("%-10s failed: %s\n", name.c_str(), status.ToString().c_str());
      continue;
    }
    const double tput = result.ThroughputOps(hdd);
    std::printf("%-10s %14.1f %14.2f %12.1f\n", name.c_str(), tput,
                result.AvgBlocksPerOp(),
                result.stats_after.disk_bytes / (1024.0 * 1024.0));
    if (tput > best_tput) {
      best_tput = tput;
      best_name = name;
    }
  }

  std::printf("\n=> recommended index: %s\n", best_name.c_str());
  std::printf(
      "\npaper guidance (Section 7): the B+-tree is competitive or best on\n"
      "nearly every mixed workload; PGM wins write-heavy ingest; LIPP wins\n"
      "read-only point lookups; scans belong to contiguous leaf layouts.\n");
  return 0;
}
