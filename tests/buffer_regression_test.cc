// Paper-equivalence regression: under the paper-default buffering
// configuration (write-through, per-file budget of 1 frame, LRU -- Section
// 6.5's "reuse the last fetched block"), the shared BufferManager must
// reproduce the per-file-class block read/write counts of the seed's
// per-file BufferPool implementation BIT-EXACTLY, for every factory index.
// The constants below were captured from the pre-refactor tree (PR 2 HEAD)
// on the workload fixed here; any drift means an existing paper figure
// changed. Extend the tables rather than editing them.

#include <array>
#include <string>

#include <gtest/gtest.h>

#include "engine/concurrent_runner.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using Counts = std::array<std::uint64_t, kNumFileClasses>;

struct PinnedIo {
  const char* index;
  Counts op_reads;    // measured phase, per class {meta, inner, leaf, other}
  Counts op_writes;
  Counts bulk_reads;  // bulkload phase
  Counts bulk_writes;
};

// fb dataset (30k keys, seed 42); non-hybrids run Balanced (bulk 20k ops
// 10k, seed 43), the search-only hybrids run Lookup-Only over the same
// dataset. Captured at seed commit 5bd2962.
constexpr PinnedIo kPinned[] = {
    {"btree",
     {0, 1, 9940, 0}, {0, 43, 5086, 0},
     {0, 0, 0, 0}, {0, 1, 197, 0}},
    {"fiting",
     {0, 20000, 18006, 0}, {0, 0, 10000, 0},
     {0, 0, 0, 0}, {0, 3, 195, 0}},
    {"pgm",
     {0, 1, 14488, 11966}, {0, 5, 45, 7299},
     {0, 0, 0, 0}, {0, 1, 79, 0}},
    {"alex",
     {0, 1, 65246, 0}, {0, 12, 27007, 0},
     {0, 1, 15, 0}, {0, 1, 135, 0}},
    {"alex-l1",
     {0, 0, 75654, 0}, {0, 0, 27019, 0},
     {0, 0, 16, 0}, {0, 0, 136, 0}},
    {"lipp",
     {0, 0, 45199, 0}, {0, 0, 16968, 0},
     {0, 0, 0, 0}, {0, 0, 3486, 0}},
    {"hybrid-fiting",
     {0, 1, 9938, 0}, {0, 0, 0, 0},
     {0, 0, 0, 0}, {0, 1, 295, 0}},
    {"hybrid-pgm",
     {0, 1, 9938, 0}, {0, 0, 0, 0},
     {0, 0, 0, 0}, {0, 1, 295, 0}},
    {"hybrid-alex",
     {0, 20000, 9938, 0}, {0, 0, 0, 0},
     {0, 0, 0, 0}, {0, 2, 295, 0}},
    {"hybrid-lipp",
     {0, 21560, 9938, 0}, {0, 0, 0, 0},
     {0, 0, 0, 0}, {0, 37, 295, 0}},
};

// One thread on a one-shard engine: the single-index runs behind the paper
// figures.
ConcurrentRunResult RunPinnedWorkload(const std::string& name) {
  IndexOptions options;  // paper defaults: 4 KB blocks, buffer 1, LRU, write-through
  options.alex_max_data_node_slots = 4096;
  ShardedEngine engine({.index_name = name, .index = options});
  const auto keys = MakeDataset("fb", 30'000, 42);
  WorkloadSpec spec;
  const bool hybrid = name.rfind("hybrid-", 0) == 0;
  spec.type = hybrid ? WorkloadType::kLookupOnly : WorkloadType::kBalanced;
  spec.bulk_keys = 20'000;
  spec.operations = 10'000;
  spec.seed = 43;
  ConcurrentRunResult result;
  const Status status =
      RunConcurrentWorkload(&engine, BuildConcurrentWorkload(keys, spec, 1), {}, &result);
  EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  return result;
}

class BufferRegression : public ::testing::TestWithParam<PinnedIo> {};

TEST_P(BufferRegression, PaperDefaultIoCountsMatchSeed) {
  const PinnedIo& pinned = GetParam();
  const ConcurrentRunResult result = RunPinnedWorkload(pinned.index);
  for (int i = 0; i < kNumFileClasses; ++i) {
    const char* klass = FileClassName(static_cast<FileClass>(i));
    EXPECT_EQ(result.io.reads[i], pinned.op_reads[i]) << pinned.index << " op reads " << klass;
    EXPECT_EQ(result.io.writes[i], pinned.op_writes[i])
        << pinned.index << " op writes " << klass;
    EXPECT_EQ(result.bulkload_io.reads[i], pinned.bulk_reads[i])
        << pinned.index << " bulkload reads " << klass;
    EXPECT_EQ(result.bulkload_io.writes[i], pinned.bulk_writes[i])
        << pinned.index << " bulkload writes " << klass;
  }
  // Under write-through nothing is ever deferred.
  for (int i = 0; i < kNumFileClasses; ++i) {
    EXPECT_EQ(result.io.buffer_writebacks[i], 0u) << pinned.index;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFactoryIndexes, BufferRegression, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<PinnedIo>& info) {
                           std::string name = info.param.index;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace liod
