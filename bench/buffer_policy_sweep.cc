// Extends Figure 13 beyond the paper: instead of sweeping only a per-file
// LRU capacity, sweep the full buffer-manager design space of a real
// disk-resident DBMS -- eviction policy (lru / clock / fifo) x shared memory
// budget x write mode (write-through / write-back) -- over YCSB-A (zipfian
// 50/50 read-update) and the paper's Write-Heavy mix.
//
// Expected shape: hit rate is monotonically non-decreasing in the budget
// (exactly so for LRU: inclusion property); write-back strictly reduces
// counted leaf writes versus write-through on the update/insert-heavy mixes
// because hot leaves coalesce repeated writes while cached.
//
// Output is CSV (one header), ready for plotting.

#include "bench_common.h"

using namespace liod;
using namespace liod::bench;

namespace {

ConcurrentRunResult RunBuffered(const std::string& index_name, const std::string& dataset,
                                WorkloadType type, const BenchArgs& args,
                                const IndexOptions& options) {
  ShardedEngine engine({.index_name = index_name, .index = options});
  const bool grows = WorkloadGrowsDataset(type);
  const std::size_t dataset_keys = grows ? args.write_bulk + args.write_ops : args.write_bulk;
  const auto keys = MakeDataset(dataset, dataset_keys, args.seed);
  WorkloadSpec spec;
  spec.type = type;
  spec.bulk_keys = args.write_bulk;
  spec.operations = args.write_ops;
  spec.seed = args.seed + 3;
  return MustRun(&engine, BuildConcurrentWorkload(keys, spec, 1));
}

}  // namespace

int main(int argc, char** argv) {
  // Policy sweeps are about buffering, not index breadth: default to the
  // B+-tree baseline; pass --indexes to widen.
  const BenchArgs args = BenchArgs::Parse(argc, argv, {.indexes = {"btree"}});

  const WorkloadType workloads[] = {WorkloadType::kYcsbA, WorkloadType::kWriteHeavy};
  const BufferPolicy policies[] = {BufferPolicy::kLru, BufferPolicy::kClock,
                                   BufferPolicy::kFifo};
  const std::size_t budgets[] = {1, 8, 64, 256, 1024};

  std::printf(
      "dataset,workload,index,policy,budget_blocks,write_back,ops,"
      "reads_per_op,writes_per_op,leaf_reads,leaf_writes,writebacks,%s\n",
      kHitRateCsvHeader);
  for (const auto& dataset : args.datasets) {
    for (WorkloadType type : workloads) {
      for (const auto& index_name : args.indexes) {
        for (BufferPolicy policy : policies) {
          for (std::size_t budget : budgets) {
            for (bool write_back : {false, true}) {
              IndexOptions options = BenchOptions();
              options.shared_buffer_budget_blocks = budget;
              options.buffer_policy = policy;
              options.buffer_write_back = write_back;
              const ConcurrentRunResult result =
                  RunBuffered(index_name, dataset, type, args, options);
              const double ops =
                  result.operations == 0 ? 1.0 : static_cast<double>(result.operations);
              const std::uint64_t writebacks = result.io.TotalWritebacks();
              std::printf("%s,%s,%s,%s,%zu,%d,%llu,%.3f,%.3f,%llu,%llu,%llu,%s\n",
                          dataset.c_str(), WorkloadTypeName(type), index_name.c_str(),
                          BufferPolicyName(policy), budget, write_back ? 1 : 0,
                          static_cast<unsigned long long>(result.operations),
                          static_cast<double>(result.io.TotalReads()) / ops,
                          static_cast<double>(result.io.TotalWrites()) / ops,
                          static_cast<unsigned long long>(
                              result.io.ReadsFor(FileClass::kLeaf)),
                          static_cast<unsigned long long>(
                              result.io.WritesFor(FileClass::kLeaf)),
                          static_cast<unsigned long long>(writebacks),
                          HitRateCsv(result.io).c_str());
            }
          }
        }
      }
    }
  }
  return 0;
}
