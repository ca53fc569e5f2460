// Thread/shard scaling of the concurrent execution engine: sweeps client
// threads x key-range shards x index type over YCSB mixes and reports
// modeled throughput (total ops / slowest-thread makespan) plus the speedup
// over the 1-thread/1-shard baseline. Not a paper figure -- this is the
// forward-looking "production service" benchmark layered on the paper's
// single-threaded indexes (see README "Concurrent engine").
//
// `scaling_threads --help` lists the flags. Reads take each shard's latch
// shared and writes take it exclusive, so threads may outnumber shards. --csv
// writes machine-readable rows (bench_to_json.py schema: index, workload,
// ops, tput_ops_s, reads_per_op, writes_per_op plus the sweep identity
// columns) so CI can gate the scaling trajectory.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"

using namespace liod;
using namespace liod::bench;

namespace {

struct ScalingArgs {
  std::string dataset = "fb";
  std::size_t bulk = 120'000;
  std::size_t ops = 24'000;
  std::uint64_t seed = 42;
  double zipf_theta = 0.99;
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  std::vector<std::size_t> shards = {1, 4};
  std::vector<std::string> indexes = {"btree", "alex", "pgm"};
  std::vector<WorkloadType> workloads = {WorkloadType::kYcsbA, WorkloadType::kYcsbC};
  std::string csv_path;  // empty: human table only
};

}  // namespace

int main(int argc, char** argv) {
  ScalingArgs args;
  FlagTable flags;
  flags.Choice("--dataset", &args.dataset, NamedChoices(AllDatasetNames()), "dataset")
      .Number("--bulk", &args.bulk, "N", "bulkloaded keys")
      .Number("--ops", &args.ops, "N", "measured operations per cell")
      .Number("--seed", &args.seed, "N", "dataset and workload seed")
      .Number("--zipf", &args.zipf_theta, "THETA", "Zipfian skew of YCSB key choice")
      .List("--threads", &args.threads, "a,b,c", "client thread counts (default 1,2,4,8)")
      .List("--shards", &args.shards, "a,b", "key-range shard counts (default 1,4)")
      .ChoiceList("--indexes", &args.indexes, NamedChoices(IndexNames()),
                  "indexes (default btree,alex,pgm)")
      .ChoiceList("--workloads", &args.workloads,
                  NamedChoices(EveryWorkloadType(), WorkloadTypeName),
                  "workload mixes (default ycsb-a,ycsb-c)")
      .String("--csv", &args.csv_path, "FILE", "also write the rows as CSV to FILE");
  if (const std::optional<int> exit = flags.ParseMain(argc, argv)) return *exit;

  const DiskModel ssd = DiskModel::Ssd();

  std::FILE* csv = nullptr;
  if (!args.csv_path.empty()) {
    csv = std::fopen(args.csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "cannot open --csv file '%s'\n", args.csv_path.c_str());
      return 2;
    }
    std::fprintf(csv,
                 "index,workload,dataset,threads,shards,ops,"
                 "tput_ops_s,speedup,reads_per_op,writes_per_op\n");
  }

  std::printf(
      "Engine scaling: threads x shards, modeled %s throughput.\n"
      "dataset=%s bulk=%zu ops=%zu zipf=%.2f\n\n",
      ssd.name.c_str(), args.dataset.c_str(), args.bulk, args.ops, args.zipf_theta);

  for (const WorkloadType type : args.workloads) {
    const char* workload_name = WorkloadTypeName(type);
    WorkloadSpec spec;
    spec.type = type;
    spec.bulk_keys = args.bulk;
    spec.operations = args.ops;
    spec.scan_length = 10;
    spec.seed = args.seed + 1;
    spec.zipf_theta = args.zipf_theta;

    // Insert-containing workloads consume new keys beyond the bulkload
    // sample; sweeping threads must not change the sample, so size for the
    // whole sweep's worst case (every op an insert).
    const std::size_t dataset_size =
        WorkloadGrowsDataset(type) ? args.bulk + args.ops : args.bulk;
    const auto keys = MakeDataset(args.dataset, dataset_size, args.seed);

    // The workload depends only on (spec, thread count): build each thread
    // count's tapes once and reuse them across the index x shards sweep.
    std::vector<ConcurrentWorkload> tapes_by_thread;
    tapes_by_thread.reserve(args.threads.size());
    for (std::size_t threads : args.threads) {
      tapes_by_thread.push_back(BuildConcurrentWorkload(keys, spec, threads));
    }

    for (const std::string& index_name : args.indexes) {
      std::printf("== %s on %s ==\n", index_name.c_str(), workload_name);
      std::printf("%8s %8s %14s %14s %10s %10s\n", "threads", "shards", "tput(ops/s)",
                  "speedup", "rd/op", "wr/op");
      // Speedup is relative to the sweep's first (threads, shards) cell.
      double baseline = 0.0;
      for (std::size_t shards : args.shards) {
        for (std::size_t ti = 0; ti < args.threads.size(); ++ti) {
          const std::size_t threads = args.threads[ti];
          EngineOptions engine_options;
          engine_options.index_name = index_name;
          engine_options.num_shards = shards;
          engine_options.index = BenchOptions();
          ShardedEngine engine(engine_options);

          const ConcurrentWorkload& w = tapes_by_thread[ti];
          ConcurrentRunResult result;
          const Status status =
              RunConcurrentWorkload(&engine, w, ConcurrentRunnerConfig{}, &result);
          if (!status.ok()) {
            std::fprintf(stderr, "FATAL %s/%s t=%zu s=%zu: %s\n", index_name.c_str(),
                         workload_name, threads, shards, status.ToString().c_str());
            return 1;
          }

          const double tput = result.ThroughputOps(ssd);
          if (baseline == 0.0) baseline = tput;
          const double speedup = baseline > 0.0 ? tput / baseline : 0.0;
          const double ops_den =
              result.operations == 0 ? 1.0 : static_cast<double>(result.operations);
          const double reads_per_op = static_cast<double>(result.io.TotalReads()) / ops_den;
          const double writes_per_op = static_cast<double>(result.io.TotalWrites()) / ops_den;
          std::printf("%8zu %8zu %14.1f %13.2fx %10.3f %10.3f\n", threads, engine.num_shards(),
                      tput, speedup, reads_per_op, writes_per_op);
          if (csv != nullptr) {
            std::fprintf(csv, "%s,%s,%s,%zu,%zu,%llu,%.1f,%.3f,%.3f,%.3f\n", index_name.c_str(),
                         workload_name, args.dataset.c_str(), threads,
                         engine.num_shards(), static_cast<unsigned long long>(result.operations),
                         tput, speedup, reads_per_op, writes_per_op);
          }
        }
      }
      std::printf("\n");
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf(
      "Expected shape (modeled): read-only YCSB-C scales with threads even when\n"
      "threads outnumber shards, because reads share the shard latch and the\n"
      "model overlaps their I/O; YCSB-A flattens earlier because Zipfian-hot\n"
      "shards serialize writers on the latch. Measured wall-clock scaling is\n"
      "not modeled here.\n");
  return 0;
}
