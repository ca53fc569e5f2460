// Index- and workload-level tests of the shared BufferManager: the new
// scenario axes (policy x budget x write-back) must behave like a real DBMS
// buffer pool -- hit rate grows with budget, write-back absorbs repeated leaf
// writes -- without changing any query answer.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

ConcurrentRunResult MustRunYcsbA(const IndexOptions& options,
                                 const std::string& index_name = "btree") {
  ShardedEngine engine({.index_name = index_name, .index = options});
  const auto keys = MakeDataset("fb", 20'000, 42);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;  // 50% reads / 50% updates, zipfian
  spec.operations = 10'000;
  spec.seed = 7;
  ConcurrentRunnerConfig config;
  config.check_lookups = true;  // every key is live: any miss is corruption
  ConcurrentRunResult result;
  const Status status =
      RunConcurrentWorkload(&engine, BuildConcurrentWorkload(keys, spec, 1), config, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return result;
}

IndexOptions BufferedOptions(std::size_t shared_budget, BufferPolicy policy,
                             bool write_back) {
  IndexOptions options;
  options.alex_max_data_node_slots = 4096;
  options.shared_buffer_budget_blocks = shared_budget;
  options.buffer_policy = policy;
  options.buffer_write_back = write_back;
  return options;
}

TEST(BufferManagerWorkload, LruHitRateMonotonicallyNonDecreasingWithBudget) {
  // The LRU inclusion property: a larger cache's contents are a superset of a
  // smaller one's on the same reference string, so the hit rate can only grow
  // with the budget. (The reference string is fixed: buffering never changes
  // index behaviour, only which accesses reach the device.)
  double previous = -1.0;
  std::uint64_t previous_reads = ~0ull;
  for (std::size_t budget : {1u, 8u, 64u, 256u, 1024u}) {
    const ConcurrentRunResult result =
        MustRunYcsbA(BufferedOptions(budget, BufferPolicy::kLru, false));
    const double hit_rate = result.io.OverallHitRate();
    EXPECT_GE(hit_rate, previous) << "budget " << budget;
    EXPECT_LE(result.io.TotalReads(), previous_reads) << "budget " << budget;
    previous = hit_rate;
    previous_reads = result.io.TotalReads();
  }
  EXPECT_GT(previous, 0.5);  // 1024 frames over a ~20k-key btree caches well
}

TEST(BufferManagerWorkload, WriteBackStrictlyReducesLeafWritesOnUpdateHeavyMix) {
  // YCSB-A's zipfian updates hit hot leaves repeatedly; write-back coalesces
  // those device writes until eviction/flush. The end-of-run flush is inside
  // the measured window, so the saving is real, not deferred accounting.
  const ConcurrentRunResult through = MustRunYcsbA(BufferedOptions(64, BufferPolicy::kLru, false));
  const ConcurrentRunResult back = MustRunYcsbA(BufferedOptions(64, BufferPolicy::kLru, true));
  EXPECT_LT(back.io.WritesFor(FileClass::kLeaf), through.io.WritesFor(FileClass::kLeaf));
  // The read side is untouched by deferring writes.
  EXPECT_EQ(back.io.TotalReads(), through.io.TotalReads());
  // Every deferred write that reached the device is tallied as a write-back.
  EXPECT_EQ(back.io.TotalWrites(), back.io.TotalWritebacks());
}

TEST(BufferManagerWorkload, PolicyAndModeNeverChangeAnswers) {
  // check_lookups inside MustRunYcsbA asserts every read sees its key; the
  // record count pins that structural state is identical too.
  std::uint64_t expected_records = 0;
  for (BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo}) {
    for (bool write_back : {false, true}) {
      const ConcurrentRunResult result = MustRunYcsbA(BufferedOptions(16, policy, write_back));
      if (expected_records == 0) {
        expected_records = result.stats_after.num_records;
      } else {
        EXPECT_EQ(result.stats_after.num_records, expected_records)
            << BufferPolicyName(policy) << " wb=" << write_back;
      }
    }
  }
}

TEST(BufferManagerWorkload, PerFileBudgetsStillSweepWithoutSharedPool) {
  // Figure 13 mode: shared budget disabled, per-file capacity swept.
  IndexOptions small = BufferedOptions(0, BufferPolicy::kLru, false);
  small.buffer_pool_blocks = 1;
  IndexOptions large = BufferedOptions(0, BufferPolicy::kLru, false);
  large.buffer_pool_blocks = 512;
  const ConcurrentRunResult r_small = MustRunYcsbA(small);
  const ConcurrentRunResult r_large = MustRunYcsbA(large);
  EXPECT_LT(r_large.io.TotalReads(), r_small.io.TotalReads());
  EXPECT_GT(r_large.io.OverallHitRate(), r_small.io.OverallHitRate());
}

TEST(BufferManagerWorkload, ZeroPerFileBudgetSurfacesInvalidArgument) {
  // Satellite fix: the seed silently clamped a 0-block pool to 1; now the
  // first buffered access fails loudly and the error propagates out of the
  // index operation.
  IndexOptions options;
  options.buffer_pool_blocks = 0;
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  std::vector<Record> records;
  for (Key k = 1; k <= 100; ++k) records.push_back({k * 10, k});
  const Status status = index->Bulkload(records);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << status.ToString();
}

TEST(BufferManagerWorkload, MemoryResidentInnerStaysUncountedUnderSharedBudget) {
  IndexOptions options = BufferedOptions(8, BufferPolicy::kLru, true);
  options.memory_resident_inner = true;
  const ConcurrentRunResult result = MustRunYcsbA(options);
  EXPECT_EQ(result.io.ReadsFor(FileClass::kInner), 0u);
  EXPECT_EQ(result.io.WritesFor(FileClass::kInner), 0u);
  EXPECT_EQ(result.io.ReadsFor(FileClass::kMeta), 0u);
  // Leaf traffic is still counted and still bounded by the shared pool.
  EXPECT_GT(result.io.ReadsFor(FileClass::kLeaf), 0u);
}

TEST(BufferManagerWorkload, SharedBudgetSpansInnerAndLeafFiles) {
  // With a budget far larger than the whole index, every file's working set
  // stays resident: after the first touch of each block there are no misses,
  // shared across inner and leaf files alike.
  const ConcurrentRunResult result =
      MustRunYcsbA(BufferedOptions(1u << 20, BufferPolicy::kLru, false));
  // Each distinct block is read from the device at most once (write misses
  // allocate their frame without a device read, so reads <= misses).
  EXPECT_LE(result.io.TotalReads(), result.io.TotalMisses());
  EXPECT_GT(result.io.HitRateFor(FileClass::kInner), 0.9);
  EXPECT_GT(result.io.HitRateFor(FileClass::kLeaf), 0.5);
}

}  // namespace
}  // namespace liod
