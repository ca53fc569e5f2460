// Thread/shard scaling of the concurrent execution engine: sweeps client
// threads x key-range shards x index type over YCSB mixes and reports
// modeled throughput (total ops / slowest-thread makespan) plus the speedup
// over the 1-thread/1-shard baseline. Not a paper figure -- this is the
// forward-looking "production service" benchmark layered on the paper's
// single-threaded indexes (see README "Concurrent engine").
//
//   scaling_threads [--dataset fb] [--bulk N] [--ops N] [--seed N]
//                   [--threads 1,2,4,8] [--shards 1,4]
//                   [--indexes btree,alex,pgm] [--workloads ycsb-a,ycsb-c]
//                   [--zipf 0.99] [--csv FILE]
//
// Reads take each shard's latch shared and writes take it exclusive, so
// threads may outnumber shards. --csv writes machine-readable rows
// (bench_to_json.py schema: index, workload, ops, tput_ops_s, reads_per_op,
// writes_per_op plus the sweep identity columns) so CI can gate the scaling
// trajectory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parse_number.h"
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
  std::vector<std::string> workloads = {"ycsb-a", "ycsb-c"};
  std::string csv_path;  // empty: human table only
};

ScalingArgs ParseArgs(int argc, char** argv) {
  ScalingArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* text, auto* out) {
      if (!ParseFlagNumber(a.c_str(), text, out)) std::exit(2);
    };
    auto sizes = [&](std::vector<std::size_t>* out) {
      out->clear();
      for (const std::string& token : SplitList(next())) {
        number(token.c_str(), &out->emplace_back());
      }
    };
    if (a == "--dataset") {
      args.dataset = next();
    } else if (a == "--bulk") {
      number(next(), &args.bulk);
    } else if (a == "--ops") {
      number(next(), &args.ops);
    } else if (a == "--seed") {
      number(next(), &args.seed);
    } else if (a == "--zipf") {
      number(next(), &args.zipf_theta);
    } else if (a == "--threads") {
      sizes(&args.threads);
    } else if (a == "--shards") {
      sizes(&args.shards);
    } else if (a == "--indexes") {
      args.indexes = SplitList(next());
    } else if (a == "--workloads") {
      args.workloads = SplitList(next());
    } else if (a == "--csv") {
      args.csv_path = next();
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "flags: --dataset NAME --bulk N --ops N --seed N --zipf THETA\n"
          "       --threads a,b,c --shards a,b --indexes a,b --workloads a,b\n"
          "       --csv FILE\n");
      std::exit(0);
    }
    // Unknown flags are ignored so shared sweep scripts can pass through
    // flags meant for the per-figure binaries.
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const ScalingArgs args = ParseArgs(argc, argv);
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

  for (const std::string& workload_name : args.workloads) {
    WorkloadType type;
    if (!WorkloadTypeFromName(workload_name, &type)) {
      std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
      return 2;
    }
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
      std::printf("== %s on %s ==\n", index_name.c_str(), workload_name.c_str());
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
                         workload_name.c_str(), threads, shards, status.ToString().c_str());
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
                         workload_name.c_str(), args.dataset.c_str(), threads,
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
