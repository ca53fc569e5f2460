// Out-of-place update buffering (src/updates/): the UpdateBufferedIndex
// decorator, the UpdateBuffer staging/spill machinery, and the
// MergeScheduler background drain -- including the edge cases the merge path
// must get right (buffered deletes, buffer-wins duplicate keys in scans,
// merges racing scans, empty flushes) and the headline property that
// buffering strictly reduces counted device writes on YCSB-A at equal
// answers.

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "test_util.h"
#include "updates/buffered_index.h"
#include "updates/merge_scheduler.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::SequentialKeys;
using testing_util::ToRecords;

IndexOptions BufferedOptions(std::size_t blocks, double threshold = 1.0,
                             MergeMode mode = MergeMode::kSync) {
  IndexOptions options;
  options.alex_max_data_node_slots = 4096;
  options.update_buffer_blocks = blocks;
  options.update_buffer_merge_threshold = threshold;
  options.update_buffer_merge_mode = mode;
  return options;
}

std::unique_ptr<UpdateBufferedIndex> MakeBuffered(const std::string& name,
                                                  const IndexOptions& options) {
  auto index = MakeIndex(name, options);
  EXPECT_NE(index, nullptr);
  auto* buffered = dynamic_cast<UpdateBufferedIndex*>(index.get());
  EXPECT_NE(buffered, nullptr);
  if (buffered == nullptr) return nullptr;
  index.release();
  return std::unique_ptr<UpdateBufferedIndex>(buffered);
}

Payload MustLookup(DiskIndex* index, Key key, bool* found) {
  Payload payload = 0;
  *found = false;
  const Status status = index->Lookup(key, &payload, found);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return payload;
}

// ---------------------------------------------------------------------------
// MergeScheduler

TEST(MergeSchedulerTest, DrainsOnRequestAndWaitsIdle) {
  std::atomic<int> drains{0};
  MergeScheduler scheduler([&] {
    drains.fetch_add(1);
    return Status::Ok();
  });
  scheduler.RequestMerge();
  EXPECT_TRUE(scheduler.WaitIdle().ok());
  EXPECT_GE(drains.load(), 1);
}

TEST(MergeSchedulerTest, CoalescesBurstsOfRequests) {
  std::atomic<int> drains{0};
  MergeScheduler scheduler([&] {
    drains.fetch_add(1);
    return Status::Ok();
  });
  for (int i = 0; i < 1000; ++i) scheduler.RequestMerge();
  EXPECT_TRUE(scheduler.WaitIdle().ok());
  // Requests issued while a drain is pending or running collapse; far fewer
  // drains than requests must have run.
  EXPECT_LT(drains.load(), 1000);
  EXPECT_GE(drains.load(), 1);
}

TEST(MergeSchedulerTest, FirstDrainErrorIsSticky) {
  std::atomic<int> drains{0};
  MergeScheduler scheduler([&] {
    const int n = drains.fetch_add(1);
    return n == 0 ? Status::IoError("boom") : Status::Ok();
  });
  scheduler.RequestMerge();
  Status idle = scheduler.WaitIdle();
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.code(), Status::Code::kIoError);
  scheduler.RequestMerge();
  // Handed to exactly one caller: after the failure was reported (and a
  // later drain succeeded), the slate is clean -- an already-surfaced error
  // must not fail every future flush forever.
  EXPECT_TRUE(scheduler.WaitIdle().ok());
}

TEST(MergeSchedulerTest, DestructorJoinsWithPendingRequests) {
  std::atomic<int> drains{0};
  {
    MergeScheduler scheduler([&] {
      drains.fetch_add(1);
      return Status::Ok();
    });
    scheduler.RequestMerge();
  }  // destructor must not hang or crash
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Decorator basics

TEST(UpdateBufferTest, DisabledBufferConstructsNoDecorator) {
  IndexOptions options;  // update_buffer_blocks = 0: the paper's in-place path
  auto index = MakeIndex("btree", options);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(dynamic_cast<UpdateBufferedIndex*>(index.get()), nullptr);
}

TEST(UpdateBufferTest, NonPositiveMergeThresholdIsRejected) {
  auto index = MakeBuffered("btree", BufferedOptions(64, /*threshold=*/0.0));
  const auto keys = SequentialKeys(100);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  // Surfaces on first use, like the buffer manager's zero-budget check: a
  // threshold of 0 would silently merge after every update.
  EXPECT_EQ(index->Insert(1, 2).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index->Delete(keys[0]).code(), Status::Code::kInvalidArgument);
}

TEST(UpdateBufferTest, StagedInsertsAreVisibleBeforeAnyMerge) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(1000);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  ASSERT_TRUE(index->DropCaches().ok());

  const IoStatsSnapshot before = index->io_stats().snapshot();
  const Key fresh = keys.back() + 1;
  ASSERT_TRUE(index->Insert(fresh, PayloadFor(fresh)).ok());
  EXPECT_EQ(index->merges_completed(), 0u);
  // Staging absorbed the insert: no device write happened.
  EXPECT_EQ((index->io_stats().snapshot() - before).TotalWrites(), 0u);

  bool found = false;
  EXPECT_EQ(MustLookup(index.get(), fresh, &found), PayloadFor(fresh));
  EXPECT_TRUE(found);
}

TEST(UpdateBufferTest, LookupOfKeyDeletedInBufferMisses) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(1000);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  const Key victim = keys[500];
  ASSERT_TRUE(index->Delete(victim).ok());
  bool found = true;
  MustLookup(index.get(), victim, &found);
  EXPECT_FALSE(found);

  // The base still holds the record; only the buffered tombstone hides it.
  found = false;
  MustLookup(index->base(), victim, &found);
  EXPECT_TRUE(found);

  // The tombstone survives a merge as a resident overlay entry (no base
  // index deletes in place).
  ASSERT_TRUE(index->FlushUpdates().ok());
  found = true;
  MustLookup(index.get(), victim, &found);
  EXPECT_FALSE(found);
  EXPECT_GE(index->overlay_records(), 1u);
}

TEST(UpdateBufferTest, ReinsertAfterDeleteWinsEverywhere) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(100);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  const Key key = keys[10];
  ASSERT_TRUE(index->Delete(key).ok());
  ASSERT_TRUE(index->FlushUpdates().ok());  // tombstone now overlay-resident
  ASSERT_TRUE(index->Insert(key, 777).ok());
  bool found = false;
  EXPECT_EQ(MustLookup(index.get(), key, &found), 777u);
  EXPECT_TRUE(found);
  ASSERT_TRUE(index->FlushUpdates().ok());  // upsert clears the tombstone
  found = false;
  EXPECT_EQ(MustLookup(index.get(), key, &found), 777u);
  EXPECT_TRUE(found);
}

TEST(UpdateBufferTest, EmptyBufferFlushIsANoOp) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(500);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  ASSERT_TRUE(index->DropCaches().ok());

  const IoStatsSnapshot before = index->io_stats().snapshot();
  ASSERT_TRUE(index->FlushUpdates().ok());
  EXPECT_EQ(index->io_stats().snapshot() - before, IoStatsSnapshot{});
  EXPECT_EQ(index->merges_completed(), 0u);
}

// ---------------------------------------------------------------------------
// Scans over buffer + base

TEST(UpdateBufferTest, ScanDuplicateKeysBufferWins) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(200, /*start=*/1000, /*stride=*/10);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  // Stage updates for keys the base also stores: the scan must return each
  // key exactly once, with the buffered payload.
  ASSERT_TRUE(index->Insert(keys[5], 999).ok());
  ASSERT_TRUE(index->Insert(keys[7], 998).ok());
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(keys[0], 10, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, keys[i]) << i;
    if (i > 0) {
      EXPECT_LT(out[i - 1].key, out[i].key);
    }
  }
  EXPECT_EQ(out[5].payload, 999u);
  EXPECT_EQ(out[7].payload, 998u);
  EXPECT_EQ(out[6].payload, PayloadFor(keys[6]));
}

TEST(UpdateBufferTest, ScanInterleavesFreshBufferedKeys) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(100, /*start=*/1000, /*stride=*/10);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  // Buffered keys between and beyond the base keys.
  ASSERT_TRUE(index->Insert(1005, PayloadFor(1005)).ok());
  ASSERT_TRUE(index->Insert(1015, PayloadFor(1015)).ok());
  const Key beyond = keys.back() + 5;
  ASSERT_TRUE(index->Insert(beyond, PayloadFor(beyond)).ok());

  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(1000, 5, &out).ok());
  const std::vector<Key> expected = {1000, 1005, 1010, 1015, 1020};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].key, expected[i]);
    EXPECT_EQ(out[i].payload, PayloadFor(expected[i]));
  }

  // A scan starting past the last base key still sees the buffered tail.
  ASSERT_TRUE(index->Scan(keys.back() + 1, 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, beyond);
}

TEST(UpdateBufferTest, ScanSkipsBufferedDeletes) {
  auto index = MakeBuffered("btree", BufferedOptions(64));
  const auto keys = SequentialKeys(100, /*start=*/1000, /*stride=*/10);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  ASSERT_TRUE(index->Delete(keys[1]).ok());
  ASSERT_TRUE(index->Delete(keys[3]).ok());
  std::vector<Record> out;
  // The scan must skip tombstoned keys and keep filling from further base
  // records to satisfy the requested count.
  ASSERT_TRUE(index->Scan(keys[0], 5, &out).ok());
  const std::vector<Key> expected = {keys[0], keys[2], keys[4], keys[5], keys[6]};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(out[i].key, expected[i]);
}

// ---------------------------------------------------------------------------
// Merge triggering, spilling, and draining

TEST(UpdateBufferTest, SyncMergeTriggersAtFillThreshold) {
  // 1 block of staging = 170 records at 24 B/entry; threshold 0.5 merges at
  // 85 staged records.
  auto index = MakeBuffered("btree", BufferedOptions(1, 0.5));
  const auto keys = SequentialKeys(1000);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  const Key base = keys.back() + 1;
  for (Key k = base; k < base + 90; ++k) {
    ASSERT_TRUE(index->Insert(k, PayloadFor(k)).ok());
  }
  EXPECT_GE(index->merges_completed(), 1u);
  EXPECT_LT(index->staged_records(), 85u);
  // Merged keys reached the base structure itself.
  bool found = false;
  MustLookup(index->base(), base, &found);
  EXPECT_TRUE(found);
}

TEST(UpdateBufferTest, StagingOverflowSpillsSortedRunsAndServesLookups) {
  // Threshold 4.0 over a 1-block staging area: the buffer spills ~3 sorted
  // runs (counted kOther block writes) before the merge fires.
  auto index = MakeBuffered("btree", BufferedOptions(1, 4.0));
  const auto keys = SequentialKeys(1000);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  ASSERT_TRUE(index->DropCaches().ok());

  const IoStatsSnapshot before = index->io_stats().snapshot();
  const Key base = keys.back() + 1;
  const std::size_t capacity = 4096 / UpdateBuffer::kEntryBytes;  // 170
  const std::size_t inserts = 2 * capacity + 10;  // two spills, no merge yet
  for (Key k = base; k < base + inserts; ++k) {
    ASSERT_TRUE(index->Insert(k, PayloadFor(k)).ok());
  }
  EXPECT_EQ(index->total_spills(), 2u);
  EXPECT_EQ(index->spilled_run_count(), 2u);
  EXPECT_EQ(index->merges_completed(), 0u);
  const IoStatsSnapshot spilled = index->io_stats().snapshot() - before;
  EXPECT_GT(spilled.WritesFor(FileClass::kOther), 0u);

  // A spilled (no longer staged) key is found by probing the runs, which
  // costs counted reads on the spill file.
  bool found = false;
  EXPECT_EQ(MustLookup(index.get(), base, &found), PayloadFor(base));
  EXPECT_TRUE(found);
  const IoStatsSnapshot probed = index->io_stats().snapshot() - before;
  EXPECT_GT(probed.ReadsFor(FileClass::kOther), 0u);

  // Draining merges runs + staging into the base and frees the run blocks
  // (invalid space under the paper's no-reclamation default).
  ASSERT_TRUE(index->FlushUpdates().ok());
  EXPECT_EQ(index->spilled_run_count(), 0u);
  EXPECT_EQ(index->staged_records(), 0u);
  EXPECT_GT(index->GetIndexStats().freed_bytes, 0u);
  for (Key k = base; k < base + inserts; ++k) {
    found = false;
    ASSERT_EQ(MustLookup(index.get(), k, &found), PayloadFor(k)) << k;
    ASSERT_TRUE(found) << k;
  }
}

TEST(UpdateBufferTest, BackgroundModeDrainsViaScheduler) {
  auto index = MakeBuffered("btree", BufferedOptions(1, 0.5, MergeMode::kBackground));
  const auto keys = SequentialKeys(1000);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  const Key base = keys.back() + 1;
  for (Key k = base; k < base + 300; ++k) {
    ASSERT_TRUE(index->Insert(k, PayloadFor(k)).ok());
  }
  ASSERT_TRUE(index->FlushUpdates().ok());
  EXPECT_GE(index->merges_completed(), 1u);
  EXPECT_EQ(index->staged_records(), 0u);
  for (Key k = base; k < base + 300; ++k) {
    bool found = false;
    ASSERT_EQ(MustLookup(index->base(), k, &found), PayloadFor(k)) << k;
    ASSERT_TRUE(found) << k;
  }
}

// ---------------------------------------------------------------------------
// Every factory index gains the out-of-place mode

class UpdateBufferFactory : public ::testing::TestWithParam<std::string> {};

TEST_P(UpdateBufferFactory, OutOfPlaceModeRoundTrips) {
  const std::string& name = GetParam();
  auto index = MakeBuffered(name, BufferedOptions(8, 0.5));
  const auto keys = SequentialKeys(2000, /*start=*/1000, /*stride=*/10);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());

  // Fresh inserts: enough to force merges through the base (or, for the
  // search-only hybrids, into the resident overlay -- the P5 direction).
  std::vector<Key> fresh;
  for (std::size_t i = 0; i < 400; ++i) fresh.push_back(keys[i * 4] + 3);
  for (Key k : fresh) ASSERT_TRUE(index->Insert(k, PayloadFor(k)).ok()) << name;
  // Buffered deletes of bulkloaded keys.
  std::vector<Key> deleted;
  for (std::size_t i = 0; i < 50; ++i) deleted.push_back(keys[i * 7 + 1]);
  for (Key k : deleted) ASSERT_TRUE(index->Delete(k).ok()) << name;
  ASSERT_TRUE(index->FlushUpdates().ok()) << name;

  bool found = false;
  for (Key k : fresh) {
    ASSERT_EQ(MustLookup(index.get(), k, &found), PayloadFor(k)) << name << " key " << k;
    ASSERT_TRUE(found) << name << " key " << k;
  }
  for (Key k : deleted) {
    MustLookup(index.get(), k, &found);
    ASSERT_FALSE(found) << name << " deleted key " << k;
  }

  // A scan over the mutated prefix sees fresh keys, skips deleted ones, and
  // stays sorted and duplicate-free.
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(keys.front(), 100, &out).ok()) << name;
  ASSERT_EQ(out.size(), 100u) << name;
  const std::set<Key> fresh_set(fresh.begin(), fresh.end());
  const std::set<Key> deleted_set(deleted.begin(), deleted.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(out[i - 1].key, out[i].key) << name;
    }
    ASSERT_FALSE(deleted_set.contains(out[i].key)) << name << " key " << out[i].key;
    ASSERT_EQ(out[i].payload, PayloadFor(out[i].key)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFactoryIndexes, UpdateBufferFactory,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "alex-l1",
                                           "lipp", "hybrid-fiting", "hybrid-pgm",
                                           "hybrid-alex", "hybrid-lipp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// The headline property: fewer counted device writes on YCSB-A

TEST(UpdateBufferTest, YcsbAOutOfPlaceStrictlyReducesWritesAtEqualAnswers) {
  const auto keys = MakeDataset("fb", 20'000, 42);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.bulk_keys = 20'000;
  spec.operations = 10'000;
  spec.seed = 43;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 1);
  ConcurrentRunnerConfig config;
  config.check_lookups = true;

  IndexOptions in_place;
  in_place.alex_max_data_node_slots = 4096;
  ShardedEngine baseline({.index_name = "btree", .index = in_place});
  ConcurrentRunResult baseline_result;
  ASSERT_TRUE(RunConcurrentWorkload(&baseline, w, config, &baseline_result).ok());

  // 64 staging blocks hold ~10.9k entries: zipfian repeat-updates coalesce
  // and the single end-of-window merge applies each distinct key once.
  ShardedEngine buffered({.index_name = "btree", .index = BufferedOptions(64)});
  ConcurrentRunResult buffered_result;
  ASSERT_TRUE(RunConcurrentWorkload(&buffered, w, config, &buffered_result).ok());

  EXPECT_LT(buffered_result.io.TotalWrites(), baseline_result.io.TotalWrites());

  // Equal answers: after the end-of-window merge both indexes must agree on
  // every key's payload (newest-wins matches last-write-wins).
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    bool found_a = false, found_b = false;
    const Payload a = MustLookup(baseline.shard(0), keys[i], &found_a);
    const Payload b = MustLookup(buffered.shard(0), keys[i], &found_b);
    ASSERT_EQ(found_a, found_b) << keys[i];
    ASSERT_EQ(a, b) << keys[i];
  }
}

// ---------------------------------------------------------------------------
// Concurrency: merges racing scans and engine wiring

TEST(UpdateBufferConcurrencyTest, MergeTriggeredMidScanStaysConsistent) {
  // Background merges drain while another thread scans: every scan must see
  // a consistent snapshot -- sorted, duplicate-free, correct payloads, and
  // no bulkloaded key missing from its range.
  auto index = MakeBuffered("btree", BufferedOptions(1, 0.5, MergeMode::kBackground));
  const std::size_t n = 2000;
  std::vector<Key> even;
  for (std::size_t i = 0; i < n; ++i) even.push_back(1000 + 2 * i);
  ASSERT_TRUE(index->Bulkload(ToRecords(even)).ok());

  testing_util::RacingThreads workers;
  workers.Start([&](const std::atomic<bool>& stop) -> Status {
    // Odd keys interleave with the base and repeatedly cross the merge
    // threshold, so merges run concurrently with the scanner below.
    for (std::size_t i = 0; i < n && !stop.load(); ++i) {
      const Key k = 1001 + 2 * i;
      LIOD_RETURN_IF_ERROR(index->Insert(k, PayloadFor(k)));
    }
    return Status::Ok();
  });
  std::vector<Record> out;
  for (int round = 0; round < 200; ++round) {
    const Key start = 1000 + 2 * ((round * 37) % (n / 2));
    ASSERT_TRUE(index->Scan(start, 50, &out).ok());
    ASSERT_FALSE(out.empty());
    std::set<Key> returned;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(out[i - 1].key, out[i].key) << "round " << round;
      }
      ASSERT_EQ(out[i].payload, PayloadFor(out[i].key)) << "round " << round;
      returned.insert(out[i].key);
    }
    // All even (bulkloaded) keys within the returned span must be present.
    for (Key k = start; k <= out.back().key; k += 2) {
      ASSERT_TRUE(returned.contains(k)) << "round " << round << " missing " << k;
    }
  }
  const Status worker_status = workers.JoinAll();
  ASSERT_TRUE(worker_status.ok()) << worker_status.ToString();
  ASSERT_TRUE(index->FlushUpdates().ok());
}

TEST(UpdateBufferEngineTest, ShardedEngineRunsBackgroundMergesPerShard) {
  EngineOptions engine_options;
  engine_options.index_name = "btree";
  engine_options.num_shards = 4;
  engine_options.index = BufferedOptions(4, 0.5, MergeMode::kBackground);

  ShardedEngine engine(engine_options);
  const auto keys = MakeDataset("ycsb", 24'000, 7);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.bulk_keys = 24'000;
  spec.operations = 8'000;
  spec.seed = 11;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, /*num_threads=*/4);

  ConcurrentRunnerConfig config;
  config.check_lookups = true;
  ConcurrentRunResult result;
  ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok());
  EXPECT_EQ(result.operations, 8'000u);

  // The runner's end-of-window FlushUpdates drained every shard.
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    auto* buffered = dynamic_cast<UpdateBufferedIndex*>(engine.shard(s));
    ASSERT_NE(buffered, nullptr);
    EXPECT_EQ(buffered->staged_records(), 0u) << "shard " << s;
    EXPECT_EQ(buffered->spilled_run_count(), 0u) << "shard " << s;
  }
}

TEST(UpdateBufferEngineTest, EngineFlushUpdatesDrainsEveryShard) {
  EngineOptions engine_options;
  engine_options.index_name = "btree";
  engine_options.num_shards = 3;
  // Large threshold: nothing merges on its own, so FlushUpdates does it all.
  engine_options.index = BufferedOptions(64, 1.0);

  ShardedEngine engine(engine_options);
  const auto keys = SequentialKeys(3000);
  ASSERT_TRUE(engine.Bulkload(ToRecords(keys)).ok());
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(engine.Insert(keys[i] + 1, PayloadFor(keys[i] + 1)).ok());
  }
  ASSERT_TRUE(engine.FlushUpdates().ok());
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    auto* buffered = dynamic_cast<UpdateBufferedIndex*>(engine.shard(s));
    ASSERT_NE(buffered, nullptr);
    EXPECT_EQ(buffered->staged_records(), 0u) << "shard " << s;
    // An inserted key owned by this shard (cuts fall at record 1000*s) must
    // have been merged into this shard's base structure.
    const std::size_t i = (s * 1000 / 3) * 3 + 3;
    bool found = false;
    MustLookup(buffered->base(), keys[i] + 1, &found);
    EXPECT_TRUE(found) << "shard " << s;
  }
}

}  // namespace
}  // namespace liod
