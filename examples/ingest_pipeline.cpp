// Ingest pipeline: the OLTP scenario from the paper's introduction -- a
// disk-resident table receiving a continuous stream of new rows (sensor
// readings keyed by timestamp-like ids) with occasional point reads from a
// dashboard. Compares the B+-tree against the LSM-style PGM, the paper's
// Write-Only winner (O6), and shows where the crossover to the B+-tree
// happens as the read fraction grows (O9/O10).
//
//   ./ingest_pipeline [rows]

#include <cstdio>

#include "common/parse_number.h"
#include "engine/concurrent_runner.h"
#include "workload/datasets.h"

using namespace liod;

int main(int argc, char** argv) {
  // Default sized so the B+-tree is 3+ levels, the regime the paper studies;
  // at toy sizes (height-2 trees) the B+-tree wins even pure ingest.
  std::size_t rows = 300'000;
  if (argc > 1 && !ParseFlagNumber("rows", argv[1], &rows)) return 2;
  // Timestamp-like keys: bursty arrivals (the covid recipe).
  const auto keys = MakeDataset("covid", rows, 99);
  const DiskModel hdd = DiskModel::Hdd();

  std::printf("ingest pipeline: %zu rows of timestamp-keyed data, HDD model\n\n", rows);
  std::printf("%-14s %12s %12s %12s\n", "read fraction", "btree", "pgm", "winner");

  for (const WorkloadType type :
       {WorkloadType::kWriteOnly, WorkloadType::kWriteHeavy, WorkloadType::kBalanced,
        WorkloadType::kReadHeavy}) {
    double tput[2] = {0, 0};
    const char* names[2] = {"btree", "pgm"};
    for (int i = 0; i < 2; ++i) {
      ShardedEngine engine({.index_name = names[i], .index = IndexOptions{}});  // one shard
      WorkloadSpec spec;
      spec.type = type;
      spec.bulk_keys = rows / 3;
      spec.operations = rows / 3;
      ConcurrentRunResult result;
      CheckOk(RunConcurrentWorkload(&engine, BuildConcurrentWorkload(keys, spec, 1), {},
                                    &result),
              "ingest run");
      tput[i] = result.ThroughputOps(hdd);
    }
    const char* frac = type == WorkloadType::kWriteOnly    ? "0%"
                       : type == WorkloadType::kWriteHeavy ? "10%"
                       : type == WorkloadType::kBalanced   ? "50%"
                                                           : "90%";
    std::printf("%-14s %12.1f %12.1f %12s\n", frac, tput[0], tput[1],
                tput[0] >= tput[1] ? "btree" : "pgm");
  }
  std::printf(
      "\nAs the paper found: the LSM-style PGM owns pure ingest, but probing\n"
      "multiple on-disk levels erodes its advantage as reads grow (O10).\n");
  return 0;
}
