// Range analytics: the HTAP scenario from the paper's introduction -- an
// analytics job issuing range scans over a disk-resident table. Demonstrates
// the paper's P3/P5 design guidance live: the original learned indexes pay
// heavily for scans (gapped arrays, interleaved node types), while the
// Section 6.1.2 hybrid design (learned inner + B+-tree-styled leaves)
// restores sequential leaf I/O.
//
//   ./range_analytics [rows] [scan_length]

#include <cstdio>

#include "common/parse_number.h"
#include "engine/concurrent_runner.h"
#include "workload/datasets.h"

using namespace liod;

int main(int argc, char** argv) {
  std::size_t rows = 150'000;
  std::size_t scan_len = 100;
  if (argc > 1 && !ParseFlagNumber("rows", argv[1], &rows)) return 2;
  if (argc > 2 && !ParseFlagNumber("scan_length", argv[2], &scan_len)) return 2;
  const auto keys = MakeDataset("osm", rows, 5);
  const DiskModel ssd = DiskModel::Ssd();

  std::printf("range analytics over %zu rows, %zu-record scans, SSD model\n\n", rows,
              scan_len);
  std::printf("%-14s %14s %14s\n", "index", "scans/s", "blocks/scan");

  const char* contenders[] = {"btree",       "alex",       "lipp",
                              "hybrid-alex", "hybrid-lipp"};
  for (const char* name : contenders) {
    ShardedEngine engine({.index_name = name, .index = IndexOptions{}});  // one shard
    WorkloadSpec spec;
    spec.type = WorkloadType::kScanOnly;
    spec.operations = 3'000;
    spec.scan_length = scan_len;
    ConcurrentRunResult result;
    CheckOk(RunConcurrentWorkload(&engine, BuildConcurrentWorkload(keys, spec, 1), {}, &result),
            "scan run");
    std::printf("%-14s %14.1f %14.2f\n", name, result.ThroughputOps(ssd),
                result.AvgBlocksReadPerOp());
  }
  std::printf(
      "\nThe hybrids cut ALEX/LIPP scan I/O to near-B+-tree levels by storing\n"
      "key-payload pairs contiguously (design principle P3).\n");
  return 0;
}
